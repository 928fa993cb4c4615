"""Crash-tolerant task execution for the experiment runner.

One crashed worker used to abort an entire ``ExperimentRunner`` batch:
``pool.map`` over captures and bare ``future.result()`` over replays
propagated the first exception and discarded every completed capture
and replay with it. :class:`ResilientExecutor` replaces both fan-outs
with per-task submission under an explicit :class:`RetryPolicy`:

* **Attribution** -- every :class:`TaskSpec` carries the offending
  config's benchmark/seed/design context, so a permanent failure names
  the scenario, not just a pickled traceback.
* **Bounded retries** -- failed tasks are resubmitted up to
  ``max_retries`` times with deterministic exponential backoff
  (``BACKOFF_S * 2 ** attempt``; no jitter -- reruns must schedule
  identically).
* **Per-task deadlines** -- the run's one stall detector. The parent
  waits on pooled futures in submission order, and ``timeout_s``
  bounds each wait: a task whose result has not arrived ``timeout_s``
  seconds after the parent started waiting on it is retried, and the
  stale future's result dropped (both attempts compute identical
  results, so the duplicate is harmless); its spans and metrics are
  still counted, once the pool has shut down and its worker has
  returned them. Each pooled task also arms a worker-side
  :mod:`faulthandler` dump that fires ``timeout_s`` seconds after the
  task *starts*, so a stuck worker leaves ``task-<pid>.txt`` under the
  executor's ``dump_dir`` showing *where* it was stuck, not just that
  it was.
* **Shutdown hook** -- an installed
  :class:`~repro.sim.shutdown.ShutdownCoordinator` turns the first
  SIGINT/SIGTERM into a :class:`~repro.common.errors.ShutdownRequested`
  raised at the next safe point (pending futures cancelled, completed
  results already yielded -- and therefore checkpointed).
* **Pool recovery** -- a ``BrokenProcessPool`` (worker killed by the
  OS, the oom-killer, or a ``crash`` fault) rebuilds the pool once;
  a second break degrades gracefully to serial in-process execution
  with a logged downgrade, where injected ``crash`` faults demote to
  ordinary exceptions (see ``repro.sim.faults``).
* **Incremental completion** -- :meth:`ResilientExecutor.run` is a
  generator yielding each task's result as soon as it resolves, so the
  runner checkpoints completed results into the store *before* a later
  failure can raise. Exhausted tasks raise
  :class:`~repro.common.errors.TaskExecutionError` only after every
  survivor has been yielded.

The executor is deliberately ignorant of what tasks compute: a task
body is a plain call, ``fn(*args)``. Everything that crosses the
pool-worker boundary crosses it here, in :func:`_run_attempt`, one
wrapper per pooled attempt: it arms the deadline dump, fires the fault
the :class:`~repro.sim.faults.FaultPlan` schedules for the attempt's
deterministic (site, index, attempt) triple, runs the task, and returns
its result with the worker's drained spans and metrics, which the
parent folds into its own tracer and registry
(:func:`repro.obs.hooks.absorb_worker_obs`). Serial execution fires the
same fault in the parent, whose tracer and registry record directly.

``time.sleep`` (backoff) is the only wall-clock interaction; nothing
here feeds a ``SimulationResult``.
"""

from __future__ import annotations

import faulthandler
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ShutdownRequested, TaskExecutionError
from repro.common.statistics import CounterSet
from repro.obs.hooks import absorb_worker_obs, drain_worker_obs, reset_worker_obs
from repro.obs.logging import get_logger
from repro.obs.trace import span

_LOG = get_logger(__name__)

#: Wait-slice for shutdown polling while blocked on a future.
_POLL_SLICE_S = 0.1


#: Sleep before the first retry; each later retry doubles it.
BACKOFF_S = 0.05


def _start_worker(initializer: Optional[Callable]) -> None:
    """Pool initializer: drop obs state inherited over ``fork``, then
    run the caller's ``initializer``."""
    reset_worker_obs()
    if initializer is not None:
        initializer()


def _run_attempt(task, faults, timeout_s, dump_dir):
    """Run one pooled attempt of ``task``; ``(result, ObsPayload)``.

    1. Arm ``faulthandler.dump_traceback_later`` for ``timeout_s``
       seconds (when a deadline and a dump dir are set), so a worker
       stuck long enough for the parent to give up has already written
       its all-thread stacks to ``<dump_dir>/task-<pid>.txt`` -- the
       post-mortem says *where* the worker was stuck, an injected
       ``delay`` included.
    2. Fire the fault ``faults`` schedules for the attempt's (site,
       index, attempt).
    3. Run ``task.fn(*task.args)``.
    4. Disarm (a task that ran shorter than ``timeout_s`` leaves no
       dump) and return the result with this worker's drained spans
       and metrics. A failed attempt keeps its share in the worker,
       which reports it with its next returned payload.
    """
    handle = None
    if timeout_s is not None and dump_dir is not None:
        path = Path(dump_dir) / f"task-{os.getpid()}.txt"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("a", encoding="utf-8")
        except OSError as exc:
            # The task still runs; only the post-mortem dump is lost,
            # and that degradation must be visible, not silent.
            _LOG.warning(
                "deadline stack dumps disabled for this task: %s", exc
            )
        else:
            faulthandler.dump_traceback_later(
                timeout_s, exit=False, file=handle
            )
    try:
        if faults is not None:
            faults.fire(task.site, task.index, task.attempt)
        result = task.fn(*task.args)
    finally:
        if handle is not None:
            faulthandler.cancel_dump_traceback_later()
            handle.close()
            try:
                # A task that ran shorter than timeout_s dumped
                # nothing: do not litter the dump dir with empty
                # files. (One that ran longer dumped even if the
                # parent, whose clock starts when it reaches this
                # task, still took its result.)
                if path.stat().st_size == 0:
                    path.unlink()
            except OSError:
                # Litter control only: failing leaves the empty file,
                # nothing else.
                pass
    return result, drain_worker_obs()


#: Counter names the executor maintains (bound to the metrics registry
#: as ``colt_resilience_*`` by the runner).
RESILIENCE_COUNTERS = (
    "tasks",
    "retries",
    "timeouts",
    "task_errors",
    "pool_rebuilds",
    "serial_downgrades",
    "failures",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/deadline settings for one runner.

    Attributes:
        max_retries: resubmissions allowed per task (attempts are
            ``0..max_retries``; 0 disables retrying).
        timeout_s: per-task deadline for pooled execution; ``None``
            waits forever. The parent waits on results in submission
            order and retries a task whose result has not arrived
            ``timeout_s`` seconds after it started waiting on it, so a
            task queued behind slower ones may run longer than
            ``timeout_s`` without timing out. The worker's stack dump,
            by contrast, fires ``timeout_s`` seconds after the task
            starts. Serial execution cannot preempt a running task, so
            deadlines only apply when a pool is in play.
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None

    @staticmethod
    def backoff(attempt: int) -> float:
        """Sleep before retrying a task that failed ``attempt``
        (deterministic exponential backoff, no jitter)."""
        return BACKOFF_S * 2**attempt


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: a picklable function plus attribution.

    ``fn`` is called as ``fn(*args)``. ``site`` and ``index`` identify
    the task deterministically across reruns (and across retries: the
    index never changes, only the attempt), which is what the fault
    plan keys on.
    """

    fn: Callable
    args: Tuple
    site: str
    index: int
    context: Dict[str, object]
    attempt: int = 0

    def describe(self) -> str:
        detail = ", ".join(f"{k}={v}" for k, v in self.context.items())
        return f"{self.site} task {self.index} ({detail})"


class ResilientExecutor:
    """Retrying, pool-recovering, incrementally-yielding task executor.

    One executor spans one ``run_batch``: the capture wave and the
    replay wave share its (lazily created) process pool, mirroring the
    single pool the pre-resilience runner used. Use as a context
    manager so the pool is torn down even when a wave raises.

    ``initializer`` runs once in each pool worker, after the worker's
    inherited obs state is dropped; ``faults`` is the
    :class:`~repro.sim.faults.FaultPlan` fired before every attempt;
    ``dump_dir`` is where a pooled attempt still running ``timeout_s``
    after it started dumps its stacks (``None``: no dumps).
    """

    def __init__(
        self,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        counters: Optional[CounterSet] = None,
        initializer: Optional[Callable] = None,
        shutdown=None,
        faults=None,
        dump_dir: Optional[Path] = None,
    ) -> None:
        self._jobs = max(1, int(jobs))
        self._policy = policy if policy is not None else RetryPolicy()
        self.counters = (
            counters if counters is not None else CounterSet(RESILIENCE_COUNTERS)
        )
        self._initializer = initializer
        self._shutdown = shutdown
        self._faults = faults
        self._dump_dir = dump_dir
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Futures of attempts that missed their deadline; their spans
        #: and metrics are folded in once the pool has shut down.
        self._abandoned: List = []
        self._rebuilt = False
        self._serial = self._jobs <= 1

    # ------------------------------------------------------------------
    # Pool lifecycle.
    # ------------------------------------------------------------------

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._shutdown_pool()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._jobs,
                initializer=_start_worker,
                initargs=(self._initializer,),
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        """Shut the pool down, waiting for running attempts.

        An attempt that missed its deadline still ran to its end, so
        its share of spans and metrics (its fault included) is counted
        now, and its result is dropped.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for future in self._abandoned:
            if not future.cancelled() and future.exception() is None:
                absorb_worker_obs(future.result()[1])
        self._abandoned = []

    def _recover_pool(self) -> None:
        """After a break: rebuild once, then downgrade to serial."""
        self._shutdown_pool()
        if not self._rebuilt:
            self._rebuilt = True
            self.counters.increment("pool_rebuilds")
            with span("resilience.pool_rebuild", cat="resilience"):
                _LOG.warning(
                    "worker pool broke; rebuilding it once before "
                    "degrading to serial execution"
                )
        else:
            self._serial = True
            self.counters.increment("serial_downgrades")
            with span("resilience.serial_downgrade", cat="resilience"):
                _LOG.warning(
                    "worker pool broke again; downgrading to serial "
                    "in-process execution for the rest of the batch"
                )

    # ------------------------------------------------------------------
    # Retry bookkeeping.
    # ------------------------------------------------------------------

    def _next_attempt(
        self,
        task: TaskSpec,
        reason: object,
        failures: List[TaskExecutionError],
    ) -> Optional[TaskSpec]:
        """Back off and return the retry, or record a permanent failure."""
        if task.attempt >= self._policy.max_retries:
            self.counters.increment("failures")
            failures.append(
                TaskExecutionError(
                    f"{task.describe()} failed permanently after "
                    f"{task.attempt + 1} attempt(s): {reason}",
                    context=task.context,
                )
            )
            return None
        self.counters.increment("retries")
        delay = self._policy.backoff(task.attempt)
        _LOG.warning(
            "retrying %s (attempt %d/%d, backoff %.3fs): %s",
            task.describe(),
            task.attempt + 1,
            self._policy.max_retries,
            delay,
            reason,
        )
        with span(
            "resilience.retry",
            cat="resilience",
            site=task.site,
            index=task.index,
            attempt=task.attempt + 1,
        ):
            if delay > 0:
                time.sleep(delay)
        return replace(task, attempt=task.attempt + 1)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _check_shutdown(self) -> None:
        if self._shutdown is not None and self._shutdown.requested:
            raise ShutdownRequested(
                getattr(self._shutdown, "signal_name", None) or "signal"
            )

    def _await(self, future):
        """``future.result`` bounded by the deadline, waited in slices
        so a shutdown request is seen within ``_POLL_SLICE_S``."""
        timeout = self._policy.timeout_s
        waited = 0.0
        while True:
            self._check_shutdown()
            slice_s = _POLL_SLICE_S
            if timeout is not None:
                slice_s = min(slice_s, timeout - waited)
            try:
                return future.result(timeout=slice_s)
            except FutureTimeoutError:
                waited += slice_s
                if timeout is not None and waited >= timeout:
                    raise

    def _drain_on_shutdown(self, submitted, consumed: int
                           ) -> Iterator[Tuple[TaskSpec, object]]:
        """First signal arrived mid-wave: cancel what has not run,
        yield what already finished, so every completed result still
        checkpoints before :class:`ShutdownRequested` propagates."""
        for task, future in submitted[consumed:]:
            if future.done() and not future.cancelled() \
                    and future.exception() is None:
                result, payload = future.result()
                absorb_worker_obs(payload)
                yield task, result
            else:
                future.cancel()

    def run(
        self, tasks: Sequence[TaskSpec]
    ) -> Iterator[Tuple[TaskSpec, object]]:
        """Yield ``(task, result)`` as each task resolves.

        Successful results are yielded immediately (in submission order
        within a round), so the caller can checkpoint them before any
        permanent failure raises. After the final round, the first
        :class:`TaskExecutionError` raises; additional permanent
        failures are logged. A graceful-shutdown request raises
        :class:`ShutdownRequested` after cancelling unstarted work and
        yielding everything already complete.
        """
        failures: List[TaskExecutionError] = []
        pending = list(tasks)
        while pending:
            self._check_shutdown()
            batch, pending = pending, []
            if self._serial:
                for task in batch:
                    self._check_shutdown()
                    yield from self._run_serial(task, failures)
                continue
            pool = self._ensure_pool()
            submitted = []
            for task in batch:
                self.counters.increment("tasks")
                submitted.append((task, pool.submit(
                    _run_attempt, task, self._faults,
                    self._policy.timeout_s, self._dump_dir,
                )))
            pool_broken = False
            for position, (task, future) in enumerate(submitted):
                try:
                    result, payload = self._await(future)
                except ShutdownRequested:
                    yield from self._drain_on_shutdown(submitted, position)
                    raise
                except BrokenProcessPool:
                    pool_broken = True
                    retry = self._next_attempt(
                        task, "worker process died", failures
                    )
                    if retry is not None:
                        pending.append(retry)
                except FutureTimeoutError:
                    self._abandoned.append(future)
                    self.counters.increment("timeouts")
                    reason = f"deadline of {self._policy.timeout_s}s exceeded"
                    if self._dump_dir is not None:
                        reason += (" (worker stacks, if it was stuck, "
                                   f"dumped under {self._dump_dir})")
                    retry = self._next_attempt(task, reason, failures)
                    if retry is not None:
                        pending.append(retry)
                except Exception as exc:
                    self.counters.increment("task_errors")
                    retry = self._next_attempt(task, exc, failures)
                    if retry is not None:
                        pending.append(retry)
                else:
                    absorb_worker_obs(payload)
                    yield task, result
            if pool_broken:
                self._recover_pool()
        if failures:
            for extra in failures[1:]:
                _LOG.error("additional permanent failure: %s", extra)
            raise failures[0]

    def _run_serial(
        self, task: TaskSpec, failures: List[TaskExecutionError]
    ) -> Iterator[Tuple[TaskSpec, object]]:
        """In-process execution (jobs=1, or post-downgrade)."""
        current = task
        while True:
            self.counters.increment("tasks")
            try:
                if self._faults is not None:
                    self._faults.fire(
                        current.site, current.index, current.attempt
                    )
                result = current.fn(*current.args)
            except Exception as exc:
                self.counters.increment("task_errors")
                retry = self._next_attempt(current, exc, failures)
                if retry is None:
                    return
                current = retry
                continue
            yield current, result
            return

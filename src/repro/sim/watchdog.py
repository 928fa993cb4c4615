"""Stall and memory watchdog for long experiment campaigns.

A multi-hour all-figures campaign can die in two ways PR 4's per-task
retry machinery does not see coming:

* **Stalls** -- a worker wedges (deadlocked pool pipe, pathological
  input, runaway GC) without tripping any per-task deadline, and the
  campaign silently stops making progress.
* **Memory pressure** -- captured scenarios and pool workers push RSS
  past what the machine can give, and the OOM killer takes the whole
  campaign instead of one task.

:class:`Watchdog` is a daemon monitor thread that defends against
both. The executor reports liveness through :meth:`heartbeat` (one
beat per completed task) and brackets its batches with
:meth:`begin_work`/:meth:`end_work`; the watchdog polls and

1. on **stall** -- no heartbeat for ``COLT_STALL_TIMEOUT`` seconds
   while work is outstanding -- dumps *all-thread* stacks via
   :mod:`faulthandler` into ``<dump_dir>/stall-<pid>.txt`` for the
   post-mortem, then raises a stall flag the executor consumes to
   cancel and requeue the stuck task through the ordinary retry
   machinery;
2. on **memory breach** -- RSS (self plus child workers) above
   ``COLT_MEM_BUDGET`` MiB -- climbs a degradation ladder one rung per
   breach-poll: first *shrink the pool* (the runner halves its worker
   count), then *disable prefetch* (the runner replays scenario groups
   one at a time and drops captured logs between them), and only after
   both rungs failed does it arm :meth:`should_abort`, turning an
   opaque OOM kill into a clean :class:`MemoryBudgetError` with every
   finished simulation checkpointed in the store.

All wall-clock reads live here and only pace *monitoring*; nothing in
this module feeds a ``SimulationResult`` (the file is on the lint's
wall-clock allow-list for exactly this scope).

Environment knobs:

* ``COLT_STALL_TIMEOUT`` -- seconds without task completion before a
  stall fires (unset/0 disables stall detection).
* ``COLT_MEM_BUDGET`` -- RSS budget in MiB (unset/0 disables).
* ``COLT_DUMP_DIR`` -- stack-dump directory (default
  ``.colt-cache/dumps``).
"""

from __future__ import annotations

import faulthandler
import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.common import knobs
from repro.common.statistics import CounterSet
from repro.obs.live import get_progress
from repro.obs.logging import get_logger
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import current_tracer, obs_active

_LOG = get_logger(__name__)

#: Degradation ladder rungs (compared with ``>=``).
DEGRADE_NONE = 0
DEGRADE_SHRINK_POOL = 1
DEGRADE_NO_PREFETCH = 2
DEGRADE_ABORT = 3

#: Counter names (bound to the metrics registry as ``colt_watchdog_*``).
WATCHDOG_COUNTERS = (
    "stalls",
    "stack_dumps",
    "mem_breaches",
    "pool_shrinks",
    "prefetch_disables",
    "budget_aborts",
)


def resolve_dump_dir(override: Optional[str] = None) -> Path:
    """The stack-dump directory: override > ``COLT_DUMP_DIR`` > default."""
    return Path(override or knobs.DUMP_DIR.text())


def read_rss_bytes(pid: Optional[int] = None) -> Optional[int]:
    """Current RSS of ``pid`` (default: this process) from ``/proc``.

    Returns ``None`` where ``/proc`` is unavailable (macOS, Windows) --
    the memory watchdog simply stays quiet there.
    """
    try:
        with open(f"/proc/{pid or os.getpid()}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _child_pids() -> list:
    """Direct children of this process (pool workers), via ``/proc``."""
    pids = []
    base = Path(f"/proc/{os.getpid()}/task")
    try:
        for task in base.iterdir():
            children = (task / "children").read_text().split()
            pids.extend(int(child) for child in children)
    except (OSError, ValueError):
        pass
    return pids


def process_tree_rss() -> Optional[int]:
    """RSS of this process plus its direct children, or ``None``."""
    own = read_rss_bytes()
    if own is None:
        return None
    total = own
    for pid in _child_pids():
        child = read_rss_bytes(pid)
        if child is not None:
            total += child
    return total


class Watchdog:
    """Background monitor: stall stack dumps + RSS degradation ladder.

    Args:
        stall_timeout_s: seconds without a heartbeat (while work is
            outstanding) before a stall fires; ``None``/0 disables.
        mem_budget_bytes: RSS ceiling; ``None``/0 disables.
        dump_dir: where stall stack dumps land.
        poll_interval_s: monitor wake period (default: min(1s,
            stall_timeout/4)).
        rss_fn: RSS probe, injectable for tests; defaults to
            :func:`process_tree_rss`.
        counters: external tally to use (a fresh one otherwise).
    """

    def __init__(
        self,
        stall_timeout_s: Optional[float] = None,
        mem_budget_bytes: Optional[int] = None,
        dump_dir=None,
        poll_interval_s: Optional[float] = None,
        rss_fn: Optional[Callable[[], Optional[int]]] = None,
        counters: Optional[CounterSet] = None,
    ) -> None:
        self.stall_timeout_s = (
            float(stall_timeout_s) if stall_timeout_s else None
        )
        self.mem_budget_bytes = (
            int(mem_budget_bytes) if mem_budget_bytes else None
        )
        self.dump_dir = resolve_dump_dir(dump_dir)
        if poll_interval_s is None:
            poll_interval_s = 1.0
            if self.stall_timeout_s is not None:
                poll_interval_s = min(1.0, self.stall_timeout_s / 4.0)
        self.poll_interval_s = max(0.01, float(poll_interval_s))
        self._rss_fn = rss_fn if rss_fn is not None else process_tree_rss
        self.counters = (
            counters if counters is not None
            else CounterSet(WATCHDOG_COUNTERS)
        )
        self._rss_gauge = None
        self._degradation_gauge = None
        if obs_active():
            registry = get_registry()
            bind_counterset(registry, "colt_watchdog", self.counters)
            self._rss_gauge = registry.gauge(
                "colt_watchdog_rss_bytes",
                help="Last sampled RSS of the run (self + pool workers)",
                unit="bytes",
            )
            self._degradation_gauge = registry.gauge(
                "colt_watchdog_degradation",
                help="Memory-pressure degradation rung (0=none, 3=abort)",
            )
            # Pre-create the empty-label series on the construction
            # thread: the monitor thread then only ever overwrites an
            # existing dict slot, never grows one mid-snapshot.
            self._rss_gauge.set(0)
            self._degradation_gauge.set(0)

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._busy = 0
        self._last_beat = time.monotonic()
        self._stall_pending = False
        self._degradation = DEGRADE_NONE
        self._abort = False
        self.last_dump_path: Optional[Path] = None
        self.last_rss_bytes: Optional[int] = None

    @classmethod
    def from_env(
        cls,
        stall_timeout_s: Optional[float] = None,
        mem_budget_mib: Optional[float] = None,
        dump_dir=None,
    ) -> Optional["Watchdog"]:
        """Watchdog from env knobs (CLI overrides win); None when idle.

        A watchdog with neither a stall timeout nor a memory budget
        would only burn a thread, so ``None`` is returned instead.
        """
        if stall_timeout_s is None:
            stall_timeout_s = knobs.STALL_TIMEOUT.real()
        if mem_budget_mib is None:
            mem_budget_mib = knobs.MEM_BUDGET.real()
        if not stall_timeout_s and not mem_budget_mib:
            return None
        return cls(
            stall_timeout_s=stall_timeout_s or None,
            mem_budget_bytes=(
                int(mem_budget_mib * 1024 * 1024) if mem_budget_mib else None
            ),
            dump_dir=dump_dir,
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "Watchdog":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._monitor, name="colt-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Executor-facing surface.
    # ------------------------------------------------------------------

    def begin_work(self) -> None:
        """A batch of tasks is outstanding: stall detection arms."""
        with self._lock:
            self._busy += 1
            self._last_beat = time.monotonic()

    def end_work(self) -> None:
        with self._lock:
            self._busy = max(0, self._busy - 1)
            self._stall_pending = False

    def heartbeat(self) -> None:
        """A task completed; resets the stall clock."""
        with self._lock:
            self._last_beat = time.monotonic()

    def consume_stall(self) -> bool:
        """True exactly once per fired stall (executor requeue hook)."""
        with self._lock:
            fired, self._stall_pending = self._stall_pending, False
            return fired

    @property
    def degradation(self) -> int:
        """Current memory-pressure rung (``DEGRADE_*``)."""
        with self._lock:
            return self._degradation

    def should_abort(self) -> bool:
        """True once the ladder is exhausted: give up cleanly now."""
        with self._lock:
            return self._abort

    # ------------------------------------------------------------------
    # Monitor internals.
    # ------------------------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self._check_stall()
            self._check_memory()

    def _check_stall(self) -> None:
        if self.stall_timeout_s is None:
            return
        with self._lock:
            busy = self._busy > 0
            quiet_for = time.monotonic() - self._last_beat
            already_flagged = self._stall_pending
        if not busy or already_flagged or quiet_for < self.stall_timeout_s:
            return
        self.counters.increment("stalls")
        path = self._dump_stacks(
            f"stall: no task completion for {quiet_for:.1f}s "
            f"(timeout {self.stall_timeout_s:g}s)"
        )
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "watchdog.stall", cat="watchdog",
                quiet_s=round(quiet_for, 3),
                dump=str(path) if path else "",
            )
        _LOG.warning(
            "stall watchdog fired after %.1fs without progress%s",
            quiet_for,
            f"; stacks dumped to {path}" if path else "",
        )
        with self._lock:
            self._stall_pending = True
            self._last_beat = time.monotonic()

    def _dump_stacks(self, reason: str) -> Optional[Path]:
        """Append an all-thread stack dump to the per-pid dump file."""
        path = self.dump_dir / f"stall-{os.getpid()}.txt"
        try:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(f"=== colt watchdog: {reason} ===\n")
                handle.flush()
                faulthandler.dump_traceback(file=handle, all_threads=True)
                handle.write("\n")
        except OSError as exc:
            _LOG.warning("could not write stall stack dump: %s", exc)
            return None
        self.counters.increment("stack_dumps")
        with self._lock:
            self.last_dump_path = path
        return path

    def _check_memory(self) -> None:
        rss = self._rss_fn()
        if rss is not None:
            with self._lock:
                self.last_rss_bytes = rss
                rung = self._degradation
            if self._rss_gauge is not None:
                self._rss_gauge.set(rss)
            get_progress().update_section(
                "watchdog", rss_bytes=rss, degradation=rung
            )
        if self.mem_budget_bytes is None or self.should_abort():
            return
        if rss is None or rss <= self.mem_budget_bytes:
            return
        self.counters.increment("mem_breaches")
        self._escalate(rss)

    def _escalate(self, rss: int) -> None:
        """Climb one rung of the degradation ladder per breach-poll."""
        with self._lock:
            self._degradation = min(self._degradation + 1, DEGRADE_ABORT)
            rung = self._degradation
        if rung == DEGRADE_SHRINK_POOL:
            self.counters.increment("pool_shrinks")
            action = "shrinking the worker pool"
        elif rung == DEGRADE_NO_PREFETCH:
            self.counters.increment("prefetch_disables")
            action = "disabling batch prefetch"
        else:
            self.counters.increment("budget_aborts")
            with self._lock:
                self._abort = True
            action = "requesting a clean abort"
        if self._degradation_gauge is not None:
            self._degradation_gauge.set(rung)
        get_progress().update_section("watchdog", degradation=rung)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "watchdog.mem_pressure", cat="watchdog",
                rss_mib=round(rss / (1024 * 1024), 1),
                budget_mib=round(self.mem_budget_bytes / (1024 * 1024), 1),
                rung=rung,
            )
        _LOG.warning(
            "memory watchdog: RSS %.0f MiB over budget %.0f MiB; %s "
            "(rung %d/%d)",
            rss / (1024 * 1024),
            self.mem_budget_bytes / (1024 * 1024),
            action, rung, DEGRADE_ABORT,
        )

"""Experiment runner: capture once per scenario, replay per design.

The runner executes the same (seeded, therefore identical) OS-and-trace
scenario under several TLB designs and returns one result per config;
the experiment layer (``repro.experiments``) turns those results into
the paper's tables. It is a two-phase executor over the capture/replay
split of ``repro.sim.scenario`` / ``repro.sim.replay``:

1. **Capture** -- group the requested configs by their TLB-independent
   scenario (:func:`repro.sim.scenario.scenario_config`) and run the
   OS+workload interleaving exactly once per group.
2. **Replay** -- stream each captured log through every requested
   design's MMU; pure TLB work, no kernel or trace generation.

Both phases fan out across a ``ProcessPoolExecutor`` when ``jobs > 1``,
through the crash-tolerant :class:`repro.sim.resilience.ResilientExecutor`:
per-task submission with config-attributed failures, bounded retries
with deterministic backoff, per-task deadlines, broken-pool recovery
(rebuild once, then degrade to serial), and incremental checkpointing
-- every completed result is ``_finish``-ed (and stored) before a later
failure can abort the batch, so a rerun resumes from the store instead
of restarting. A seeded :class:`repro.sim.faults.FaultPlan`
(``COLT_FAULTS``) can inject worker crashes, task exceptions, delays
and store corruption to exercise exactly that machinery; any plan that
does not exhaust the retry budget yields bit-identical results to a
fault-free run.

The task bodies, :func:`_capture_task` and :func:`_replay_task`, are
plain simulation calls. The executor fires each attempt's fault and
carries a pool worker's spans and metrics into this process's tracer
and registry, so a run reads everything it recorded, its workers'
share included, from :func:`repro.obs.trace.current_tracer` and
:func:`repro.obs.registry.get_registry`.

Results are memoised in-process per config (so e.g. Figure 21 reuses
the runs Figure 18 already performed) and, when a
:class:`repro.sim.store.ResultStore` is attached, on disk across
invocations.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import TaskExecutionError
from repro.common.statistics import CounterSet
from repro.core.mmu import CoLTDesign
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import span
from repro.sim.faults import FaultPlan
from repro.sim.resilience import (
    RESILIENCE_COUNTERS,
    ResilientExecutor,
    RetryPolicy,
    TaskSpec,
)
from repro.sim.engine import replay_with_engine, resolve_engine
from repro.sim.scenario import (
    CapturedScenario,
    capture_scenario,
    close_prefix_cache,
    open_prefix_cache,
    scenario_config,
)
from repro.sim.store import ResultStore
from repro.sim.system import SimulationConfig, SimulationResult

#: The design set of Figures 18 and 21.
STANDARD_DESIGNS: Tuple[CoLTDesign, ...] = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
)


def _capture_task(config: SimulationConfig) -> CapturedScenario:
    """Task body: one scenario capture (module-level, picklable).

    ``capture_scenario`` is looked up at call time, so a harness that
    wrapped it sees its own wrapper, here and in forked pool workers.
    """
    return capture_scenario(config)


def _replay_task(
    scenario: CapturedScenario,
    configs: Sequence[SimulationConfig],
    engine: str,
) -> List[SimulationResult]:
    """Task body: replay one scenario under several configs.

    ``engine`` is threaded explicitly so pool workers call the replay
    name the parent was configured with.
    """
    return [
        replay_with_engine(scenario, config, engine=engine)
        for config in configs
    ]


def _capture_context(config: SimulationConfig) -> Dict[str, object]:
    return {
        "stage": "capture",
        "benchmark": config.benchmark,
        "seed": config.seed,
        "accesses": config.accesses,
    }


def _replay_context(
    chunk: Sequence[SimulationConfig], engine: str
) -> Dict[str, object]:
    first = chunk[0]
    return {
        "stage": "replay",
        "benchmark": first.benchmark,
        "seed": first.seed,
        "designs": ",".join(config.design.value for config in chunk),
        "engine": engine,
    }


def _chunk(items: Sequence, pieces: int) -> List[List]:
    """Split ``items`` into up to ``pieces`` contiguous, non-empty runs."""
    pieces = max(1, min(pieces, len(items)))
    size, remainder = divmod(len(items), pieces)
    chunks, start = [], 0
    for index in range(pieces):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


class ExperimentRunner:
    """Runs and caches simulations keyed by their full configuration.

    Args:
        jobs: worker processes for the capture and replay fan-out;
            ``None`` or 1 runs inline (no pool).
        store: optional on-disk result store consulted before, and
            updated after, every simulation.
        policy: retry/backoff/deadline policy for the resilient
            executor; defaults to :meth:`RetryPolicy.from_env`
            (``COLT_RETRIES`` / ``COLT_TASK_TIMEOUT``).
        faults: deterministic fault-injection plan; defaults to the
            plan named by ``COLT_FAULTS`` (``None`` when unset).
        shutdown: optional :class:`repro.sim.shutdown.ShutdownCoordinator`
            polled between (and during) waves; a requested shutdown
            raises :class:`~repro.common.errors.ShutdownRequested` with
            every already-completed result checkpointed.
        engine: ``"scalar"`` (the default for ``None``) or
            ``"vector"``: which of the replay loop's two harness names
            (see :mod:`repro.sim.engine`) replays call, looked up at
            call time. Both names run the same function, so the engine
            is excluded from result cache and store keys.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        shutdown=None,
        engine: Optional[str] = None,
    ) -> None:
        self._jobs = max(1, int(jobs)) if jobs else 1
        self._engine = resolve_engine(engine)
        self._store = store
        self._policy = policy if policy is not None else RetryPolicy.from_env()
        self._faults = faults if faults is not None else FaultPlan.from_env()
        self._shutdown = shutdown
        self._resilience = CounterSet(RESILIENCE_COUNTERS)
        bind_counterset(get_registry(), "colt_resilience", self._resilience)
        self._cache: Dict[SimulationConfig, SimulationResult] = {}
        self._scenarios: Dict[SimulationConfig, CapturedScenario] = {}

    # ------------------------------------------------------------------
    # Observability surface.
    # ------------------------------------------------------------------

    @property
    def store(self) -> Optional[ResultStore]:
        return self._store

    def store_summary(self) -> Optional[Dict[str, float]]:
        """This runner's result-store counters plus its hit ratio."""
        if self._store is None:
            return None
        counts = self._store.counters.as_dict()
        lookups = counts["hits"] + counts["misses"]
        counts["hit_ratio"] = counts["hits"] / lookups if lookups else 0.0
        return counts

    @property
    def resilience_counters(self) -> CounterSet:
        """The retry/timeout/rebuild/downgrade tallies of this runner."""
        return self._resilience

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, config: SimulationConfig) -> SimulationResult:
        return self.run_batch([config])[config]

    def run_batch(
        self, configs: Sequence[SimulationConfig]
    ) -> Dict[SimulationConfig, SimulationResult]:
        """Simulate every config, deduplicated, cached, and parallel.

        This is the runner's prefetch surface: experiment harnesses
        assemble every config a figure needs and submit them in one
        call, so captures and replays from different benchmarks fan out
        across the worker pool together. For the length of the call,
        each process builds each distinct boot+aging+memhog prefix once
        and clones it for its other captures
        (:func:`repro.sim.scenario.open_prefix_cache`).
        """
        pending: List[SimulationConfig] = []
        seen = set()
        for config in configs:
            if config in self._cache or config in seen:
                continue
            # ``is not None``, not truthiness: ResultStore has __len__,
            # so an empty (cold) store is falsy and would skip load().
            stored = (
                self._store.load(config) if self._store is not None else None
            )
            if stored is not None:
                self._cache[config] = stored
                continue
            seen.add(config)
            pending.append(config)

        if pending:
            open_prefix_cache()
            try:
                with span(
                    "runner.run_batch",
                    configs=len(configs),
                    pending=len(pending),
                    jobs=self._jobs,
                ):
                    self._run_groups(pending)
            finally:
                close_prefix_cache()
        return {config: self._cache[config] for config in configs}

    def _finish(
        self, config: SimulationConfig, result: SimulationResult
    ) -> None:
        self._cache[config] = result
        if self._store is not None:
            self._store.save(config, result)

    def _run_groups(self, pending: Sequence[SimulationConfig]) -> None:
        groups: Dict[SimulationConfig, List[SimulationConfig]] = {}
        for config in pending:
            groups.setdefault(scenario_config(config), []).append(config)

        to_capture = [key for key in groups if key not in self._scenarios]
        all_chunks: List[Tuple[SimulationConfig, List[SimulationConfig]]]
        all_chunks = []
        per_group = max(1, self._jobs // max(1, len(groups)))
        for key, group in groups.items():
            for chunk in _chunk(group, per_group):
                all_chunks.append((key, chunk))

        capture_tasks = [
            TaskSpec(
                fn=_capture_task,
                args=(key,),
                site="capture",
                index=index,
                context=_capture_context(key),
            )
            for index, key in enumerate(to_capture)
        ]
        # Run inline when there is no parallelism to exploit -- matches
        # the pre-resilience behaviour of not paying for a pool.
        effective_jobs = (
            self._jobs if len(capture_tasks) + len(all_chunks) > 1 else 1
        )
        with ResilientExecutor(
            jobs=effective_jobs,
            policy=self._policy,
            counters=self._resilience,
            # A worker lives for one batch, so its prefix cache does too.
            initializer=open_prefix_cache,
            shutdown=self._shutdown,
            faults=self._faults,
        ) as executor:
            failure: Optional[TaskExecutionError] = None
            try:
                for task, scenario in executor.run(capture_tasks):
                    self._scenarios[to_capture[task.index]] = scenario
            except TaskExecutionError as exc:
                # Keep going: scenarios that did capture can still
                # replay (and checkpoint) before the batch raises.
                failure = exc
            replay_chunks = [
                (key, chunk)
                for key, chunk in all_chunks
                if key in self._scenarios
            ]
            replay_tasks = [
                TaskSpec(
                    fn=_replay_task,
                    args=(self._scenarios[key], chunk, self._engine),
                    site="replay",
                    index=index,
                    context=_replay_context(chunk, self._engine),
                )
                for index, (key, chunk) in enumerate(replay_chunks)
            ]
            try:
                for task, results in executor.run(replay_tasks):
                    _, chunk = replay_chunks[task.index]
                    for config, result in zip(chunk, results):
                        self._finish(config, result)
            except TaskExecutionError as exc:
                if failure is None:
                    failure = exc
            if failure is not None:
                raise failure

    def run_grid(
        self, grid: Mapping[Hashable, SimulationConfig]
    ) -> Dict[Hashable, SimulationResult]:
        """Run every config of ``grid`` in one batch; results by grid key.

        One batch lets captures and replays from different benchmarks fan
        out across the workers together.
        """
        results = self.run_batch(list(grid.values()))
        return {key: results[config] for key, config in grid.items()}

    def run_designs(
        self,
        base: SimulationConfig,
        designs: Sequence[CoLTDesign] = STANDARD_DESIGNS,
    ) -> Dict[CoLTDesign, SimulationResult]:
        """Run the same scenario under each design's paper-standard MMU
        (one capture total)."""
        return self.run_grid({
            design: base.with_updates(design=design, mmu=None)
            for design in designs
        })

    def clear(self) -> None:
        """Drop the in-process memo and captured scenarios.

        The on-disk store (if any) is left intact; clear it explicitly
        with :meth:`repro.sim.store.ResultStore.clear`.
        """
        self._cache.clear()
        self._scenarios.clear()

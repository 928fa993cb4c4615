"""Capture phase of the two-phase simulator (paper Section 5.2).

The paper's methodology is trace capture + replay: memory-reference
traces are collected once per system configuration and then replayed
through the functional TLB simulator under every design. This module is
the capture half. ``ScenarioEngine`` owns the OS+workload interleaving
-- kernel boot, aging, memhog, demand faulting, background churn,
compaction ticks -- and drives it run by run: a run is a maximal
stretch of consecutive accesses to one VPN, also cut at every churn and
tick boundary, so nothing touches the OS inside a run. Its page is
checked and demand-faulted once, before its first access. The engine
is shared by the monolithic :class:`repro.sim.system.SystemSimulator`
(which steps every access of a run through a live MMU) and by
:func:`capture_scenario` (which records one walk outcome per run), so
the OS evolution of both paths is identical *by construction*, not by
convention.

``capture_scenario`` produces a :class:`CapturedScenario`: a compact
numpy translation log with, per access, the VPN and its full walk
outcome (PFN, attribute bits, page size, walk-path addresses and the
8-PTE cache-line window), plus the stream of TLB-shootdown events
tagged with the access index they precede, the final kernel counters
and contiguity report. Everything a :class:`CoLTDesign` MMU consumes
is in the log; nothing TLB-design-dependent is. Replaying it through
``repro.sim.replay`` is bit-identical to the monolithic run -- enforced
by ``repro.analysis.determinism --replay`` and the tier-1 tests.

Each unique walk outcome is computed once, in one page-table descent
(:meth:`PageTable.walk_view`: the leaf, the walk-path addresses and the
eight leaves of the PTE line). A record reads only the VPN's own leaf,
the eight leaves of its PTE cache line and the frames of the table
nodes on its walk path, and every one of those changes goes through a
page-table leaf write -- including a demand fault that maps a
*neighbour*, which rewrites the line window without any shootdown, and
a compaction migration, which rewrites one PTE in place. So the
recorder memoizes each VPN's row and, through the benchmark page
table's write listener, drops the memo of every VPN in a written 8-PTE
line. Rows are keyed by content, so the unique-row table is built as
the loop runs; the recorder keeps one row id per run and expands them
per access at the end. A captured QUICK-scale scenario is a few MB,
cheap enough to ship to ``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.sanitizers import resolve_sanitize
from repro.common.constants import PTES_PER_CACHE_LINE
from repro.common.errors import OutOfMemoryError, TranslationError
from repro.common.rng import SeedSequencer
from repro.common.statistics import CounterSet, CounterSnapshot
from repro.contiguity.scanner import ContiguityReport
from repro.core.mmu import CoLTDesign
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import span
from repro.osmem.kernel import Kernel
from repro.osmem.memhog import Memhog, age_system
from repro.osmem.process import Process
from repro.workloads.benchmarks import BenchmarkProfile, get_benchmark
from repro.workloads.trace import Trace, generate_trace, scaled_region_pages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports us)
    from repro.sim.system import SimulationConfig

#: Columns of one capture record (all int64):
#:   0      pfn
#:   1      attribute bits
#:   2      is_superpage flag
#:   3      number of walk-path levels
#:   4-7    walk-path PTE addresses, -1 padded
#:   8      cache-line window valid mask (bit i = slot i mapped)
#:   9-16   cache-line window PFNs per slot
#:   17-24  cache-line window attribute bits per slot
RECORD_COLUMNS = 25
_PATH_BASE = 4
_MASK_COLUMN = 8
_LINE_PFN_BASE = 9
_LINE_ATTR_BASE = 17


#: Pickled ``(kernel, daemons)`` per boot+aging+memhog prefix, keyed by
#: :func:`prefix_key`: open for one ``ExperimentRunner.run_batch`` (and
#: in each of its pool workers), ``None`` everywhere else.
_PREFIXES: Optional[Dict[tuple, bytes]] = None


def open_prefix_cache() -> None:
    """Share prefixes among this process's captures until closed."""
    global _PREFIXES
    # The pool initializer opens each worker's own cache, which lives
    # as long as the worker: one batch.
    _PREFIXES = {}


def close_prefix_cache() -> None:
    """Drop the prefix cache; later captures boot their own kernels."""
    global _PREFIXES
    _PREFIXES = None


def prefix_key(config: "SimulationConfig") -> tuple:
    """Everything kernel boot, aging and memhog read from a config."""
    return (
        config.kernel,
        config.aging,
        config.memhog_fraction,
        config.seed,
        resolve_sanitize(config.sanitize),
    )


def scenario_config(config: "SimulationConfig") -> "SimulationConfig":
    """Normalise a config to its TLB-design-independent scenario.

    Every field that feeds the OS+workload interleaving is kept; the
    design and MMU geometry (which only the replay consumes) are
    cleared. Two configs with equal scenario configs share one capture.
    """
    return config.with_updates(design=CoLTDesign.BASELINE, mmu=None)


def run_starts(vpns: np.ndarray, cuts: Iterable[np.ndarray] = ()) -> np.ndarray:
    """First access of each run of one VPN in the stream ``vpns``.

    Runs are maximal stretches of consecutive accesses to one VPN, cut
    additionally before every access index in each array of ``cuts``.
    """
    starts = np.ones(vpns.size, dtype=bool)
    np.not_equal(vpns[1:], vpns[:-1], out=starts[1:])
    for cut in cuts:
        starts[cut] = True
    return np.flatnonzero(starts)


class ScenarioEngine:
    """Boots, loads and steps one scenario's OS+workload interleaving."""

    def __init__(self, config: "SimulationConfig") -> None:
        self.config = config
        self.profile: BenchmarkProfile = get_benchmark(config.benchmark)
        self._seeds = SeedSequencer(config.seed)
        self.kernel: Optional[Kernel] = None
        self.process: Optional[Process] = None
        self.trace: Optional[Trace] = None
        self._daemons: List[Process] = []

    # ------------------------------------------------------------------
    # Phase 1-2: boot + load.
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Boot the kernel, age it, start memhog, lay out the benchmark.

        Inside a batch the boot+aging+memhog prefix comes from the
        prefix cache: the first capture of a prefix builds it and
        stores a pickle, later ones load a clone of that pickle.
        """
        config = self.config
        key = prefix_key(config)
        cached = _PREFIXES.get(key) if _PREFIXES is not None else None
        if cached is not None:
            with span("prefix.clone", bytes=len(cached)):
                self.kernel, self._daemons = pickle.loads(cached)
                self.kernel.bind_counters()
        else:
            self._build_prefix()
            if _PREFIXES is not None:
                with span("prefix.pickle"):
                    _PREFIXES[key] = pickle.dumps(
                        (self.kernel, self._daemons),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )

        with span("layout", benchmark=self.profile.name):
            self.process = self.kernel.create_process(self.profile.name)
            pages = scaled_region_pages(self.profile, config.scale)
            bases: Dict[str, int] = {}
            for region in self.profile.regions:
                vma = self.kernel.malloc(
                    self.process,
                    pages[region.name],
                    name=region.name,
                    populate=region.populate,
                    kind=region.kind,
                    thp_eligible=region.thp_eligible,
                    populate_batch=region.fault_batch,
                )
                bases[region.name] = vma.start_vpn
        with span("trace.generate", accesses=config.accesses):
            self.trace = generate_trace(
                self.profile,
                bases,
                config.accesses,
                self._seeds.rng("trace"),
                scale=config.scale,
            )
        self._region_bounds = sorted(
            (bases[r.name], bases[r.name] + pages[r.name], r.fault_batch)
            for r in self.profile.regions
        )

    def _build_prefix(self) -> None:
        """Boot the kernel, age it and start memhog."""
        config = self.config
        with span("kernel.boot", benchmark=config.benchmark):
            self.kernel = Kernel(config.kernel, sanitize=config.sanitize)
        with span("aging", aged=config.aging is not None):
            if config.aging is not None:
                self._daemons = age_system(
                    self.kernel, self._seeds, config.aging
                )
            else:
                daemon = self.kernel.create_process(
                    "background0", fault_batch=4
                )
                self.kernel.register_reclaim_victim(daemon)
                self._daemons = [daemon]
            if config.memhog_fraction > 0:
                Memhog(
                    self.kernel, config.memhog_fraction, self._seeds
                ).start()

    def _fault_batch_for(self, vpn: int) -> int:
        for start, end, batch in self._region_bounds:
            if start <= vpn < end:
                return batch
        return self.process.fault_batch

    # ------------------------------------------------------------------
    # Phase 3: the interleaved run.
    # ------------------------------------------------------------------

    def run_loop(self, on_run: Callable[[int, int, int], None]) -> None:
        """Step the trace run by run, interleaving OS activity.

        A run is a maximal stretch of consecutive accesses to one VPN,
        also cut where background churn or a compaction tick falls:
        after every ``churn_every`` / ``tick_every`` accesses -- i.e.
        first after access ``period - 1``, not at access 0, which
        previously injected both before the benchmark's first
        reference. Nothing touches the OS between the accesses of a
        run, so its page is demand-faulted in at most once, before the
        run's first access; then ``on_run(start, vpn, length)`` gets
        accesses ``[start, start + length)``, and the caller decides
        what they *mean* (live MMU probes, or one capture record).
        """
        if self.kernel is None:
            self.prepare()
        config = self.config
        kernel = self.kernel
        process = self.process

        churn_rng = self._seeds.rng("run.churn")
        live_churn: List = []
        is_populated = process.is_populated
        churn_every = config.churn_every
        tick_every = config.tick_every
        vpns = self.trace.vpns
        accesses = vpns.size
        starts = run_starts(vpns, [
            np.arange(period, accesses, period)
            for period in (churn_every, tick_every)
            if period
        ])
        lengths = np.diff(starts, append=accesses)

        for start, vpn, length in zip(
            starts.tolist(), vpns[starts].tolist(), lengths.tolist()
        ):
            if not is_populated(vpn):
                # Demand fault, at this region's allocator granularity.
                process.fault_batch = self._fault_batch_for(vpn)
                kernel.touch(process, vpn)
            on_run(start, vpn, length)
            end = start + length
            if churn_every and end % churn_every == 0:
                self._background_churn(churn_rng, live_churn)
            if tick_every and end % tick_every == 0:
                kernel.tick()

    def _background_churn(self, rng: np.random.Generator, live: List) -> None:
        """One beat of live-system allocation activity during the run."""
        daemon = self._daemons[int(rng.integers(len(self._daemons)))]
        pages = max(1, int(self.config.churn_pages * (0.5 + rng.random())))
        try:
            daemon_vma = self.kernel.malloc(
                daemon, pages, name="live_churn", populate=True
            )
        except OutOfMemoryError:
            # A daemon allocation failing under OOM is the modeled
            # behaviour; the kernel's OOM counters record it.
            return
        live.append((daemon, daemon_vma))
        while len(live) > self.config.churn_live_limit:
            victim_daemon, victim_vma = live.pop(0)
            self.kernel.free_vma(victim_daemon, victim_vma)

    def sanity_check(self) -> None:
        """Full scan of the kernel-side sanitizers (no-op if off)."""
        if self.kernel is None:
            return
        buddy_sanitizer = self.kernel.buddy.sanitizer
        if buddy_sanitizer is not None:
            buddy_sanitizer.full_scan()
            buddy_sanitizer.check_accounting()
        if self.kernel.sanitizer is not None:
            self.kernel.sanitizer.full_scan()


@dataclass(frozen=True)
class CapturedScenario:
    """One scenario's complete translation log, TLB-design-independent.

    Attributes:
        config: the normalised scenario configuration (see
            :func:`scenario_config`).
        profile: the benchmark profile the trace was generated from.
        vpns: per-access virtual page numbers, shape ``(accesses,)``.
        records: the distinct walk-outcome rows in sorted order, shape
            ``(unique, RECORD_COLUMNS)`` -- see the column map at the
            top of this module.
        record_index: per-access row index into ``records``.
        inval_before: sorted access indices; ``inval_before[i]`` is the
            access the i-th shootdown precedes (``accesses`` for
            events after the final access -- they still mutate MMU
            counters before the result snapshot).
        inval_start / inval_count: the shot-down VPN ranges.
        kernel_counters: kernel counter snapshot at end of run.
        contiguity: final contiguity report of the benchmark process.
        trace_unique_pages: distinct pages in the trace.
    """

    config: "SimulationConfig"
    profile: BenchmarkProfile
    vpns: np.ndarray
    records: np.ndarray
    record_index: np.ndarray
    inval_before: np.ndarray
    inval_start: np.ndarray
    inval_count: np.ndarray
    kernel_counters: CounterSnapshot
    contiguity: ContiguityReport
    trace_unique_pages: int

    @property
    def accesses(self) -> int:
        return int(self.vpns.size)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory / pickled footprint of the log."""
        return int(
            self.vpns.nbytes
            + self.records.nbytes
            + self.record_index.nbytes
            + self.inval_before.nbytes
            + self.inval_start.nbytes
            + self.inval_count.nbytes
        )


class _CaptureRecorder:
    """Records one walk outcome per run and the shootdown events.

    A VPN's row is computed on the first access of a run whose VPN has
    no memo, and memoized until a leaf write to the benchmark page
    table touches its 8-PTE line. ``_rows`` maps each distinct row to
    its id in first-seen order, so a row that recurs after an
    invalidation maps back to its old id.
    """

    def __init__(self, engine: ScenarioEngine) -> None:
        self._page_table = engine.process.page_table
        self._bench_pid = engine.process.pid
        self._rows: Dict[tuple, int] = {}
        #: Row id and length of each run, in trace order.
        self._run_ids: List[int] = []
        self._run_lengths: List[int] = []
        #: vpn -> row id; :meth:`_on_write` drops whole 8-PTE lines.
        self._memo: Dict[int, int] = {}
        self.events: List = []
        #: Number of accesses recorded so far == the index the next
        #: shootdown precedes: events during a run's demand fault
        #: arrive before ``on_run`` and tag its first access;
        #: churn/tick events after it tag the access after its last,
        #: matching where a replayed MMU sees them.
        self.position = 0
        self.counters = CounterSet(["accesses", "records_computed"])
        bind_counterset(get_registry(), "colt_capture", self.counters)
        engine.kernel.add_invalidation_listener(self._on_invalidation)
        self._page_table.add_write_listener(self._on_write)

    def _on_invalidation(self, pid: int, start_vpn: int, count: int) -> None:
        if pid == self._bench_pid:
            self.events.append((self.position, start_vpn, count))

    def _on_write(self, start_vpn: int, count: int) -> None:
        """Forget every VPN in the PTE lines ``[start_vpn, +count)`` hits."""
        memo = self._memo
        if memo:
            line = PTES_PER_CACHE_LINE
            first = start_vpn - start_vpn % line
            end = start_vpn + count
            for vpn in range(first, end + (-end) % line):
                memo.pop(vpn, None)

    def on_run(self, start: int, vpn: int, length: int) -> None:
        """Record accesses ``[start, start + length)``, all to ``vpn``."""
        row_id = self._memo.get(vpn)
        if row_id is None:
            row_id = self._memo[vpn] = self._row_id(vpn)
        self._run_ids.append(row_id)
        self._run_lengths.append(length)
        self.position = start + length

    def _row_id(self, vpn: int) -> int:
        """Compute ``vpn``'s record; return the id of its row."""
        self.counters.increment("records_computed")
        view = self._page_table.walk_view(vpn)
        if view is None:  # pragma: no cover - faulted in by engine
            raise TranslationError(f"capture of unmapped vpn {vpn}")
        (pfn, attributes), path, line = view
        row = [pfn, int(attributes), 1 if line is None else 0, len(path)]
        row += path
        row += [-1] * (_MASK_COLUMN - len(row))
        if line is None:
            row += [0] * (RECORD_COLUMNS - _MASK_COLUMN)
        else:
            mask = 0
            pfns = [0] * PTES_PER_CACHE_LINE
            attribute_bits = [0] * PTES_PER_CACHE_LINE
            for slot, leaf in enumerate(line):
                if leaf is not None:
                    mask |= 1 << slot
                    pfns[slot] = leaf[0]
                    attribute_bits[slot] = int(leaf[1])
            row.append(mask)
            row += pfns
            row += attribute_bits
        rows = self._rows
        return rows.setdefault(tuple(row), len(rows))

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted unique-row table and the per-access index into it."""
        ids = np.repeat(
            np.asarray(self._run_ids, dtype=np.int64), self._run_lengths
        )
        self.counters.increment("accesses", ids.size)
        records, inverse = np.unique(
            np.array(list(self._rows), dtype=np.int64),
            axis=0,
            return_inverse=True,
        )
        return records, np.asarray(inverse, dtype=np.int64).ravel()[ids]


def capture_scenario(config: "SimulationConfig") -> CapturedScenario:
    """Run the OS+workload interleaving once; return its translation log.

    The input config is normalised via :func:`scenario_config`, so the
    capture is reusable across every TLB design of the same scenario.
    """
    config = scenario_config(config)
    engine = ScenarioEngine(config)
    engine.prepare()
    recorder = _CaptureRecorder(engine)
    with span(
        "capture",
        benchmark=config.benchmark,
        accesses=config.accesses,
        seed=config.seed,
    ):
        engine.run_loop(recorder.on_run)
        engine.sanity_check()

        with span("capture.finish"):
            records, record_index = recorder.finish()
            if recorder.events:
                event_array = np.asarray(recorder.events, dtype=np.int64)
            else:
                event_array = np.zeros((0, 3), dtype=np.int64)
        with span("contiguity.scan"):
            contiguity = ContiguityReport.from_process(engine.process)
    return CapturedScenario(
        config=config,
        profile=engine.profile,
        vpns=np.asarray(engine.trace.vpns, dtype=np.int64).copy(),
        records=records,
        record_index=record_index,
        inval_before=event_array[:, 0].copy(),
        inval_start=event_array[:, 1].copy(),
        inval_count=event_array[:, 2].copy(),
        kernel_counters=engine.kernel.counters.snapshot(),
        contiguity=contiguity,
        trace_unique_pages=engine.trace.unique_pages,
    )

"""Capture phase of the two-phase simulator (paper Section 5.2).

The paper's methodology is trace capture + replay: memory-reference
traces are collected once per system configuration and then replayed
through the functional TLB simulator under every design. This module is
the capture half. ``ScenarioEngine`` owns the OS+workload interleaving
-- kernel boot, aging, memhog, demand faulting, background churn,
compaction ticks -- and drives it access by access. It is shared by the
monolithic :class:`repro.sim.system.SystemSimulator` (which
attaches a live MMU) and by :func:`capture_scenario` (which attaches a
recorder instead), so the OS evolution of both paths is identical *by
construction*, not by convention.

``capture_scenario`` produces a :class:`CapturedScenario`: a compact
numpy translation log with, per access, the VPN and its full walk
outcome (PFN, attribute bits, page size, walk-path addresses and the
8-PTE cache-line window), plus the stream of TLB-shootdown events
tagged with the access index they precede, the final kernel counters
and contiguity report. Everything a :class:`CoLTDesign` MMU consumes
is in the log; nothing TLB-design-dependent is. Replaying it through
``repro.sim.replay`` is bit-identical to the monolithic run -- enforced
by ``repro.analysis.determinism --replay`` and the tier-1 tests.

Each unique walk outcome is computed once. A record reads only the
VPN's own leaf, the eight leaves of its PTE cache line and the frames of
the table nodes on its walk path, and every one of those changes goes
through a page-table leaf write -- including a demand fault that maps a
*neighbour*, which rewrites the line window without any shootdown. So
the recorder memoizes each VPN's row and, through the benchmark page
table's write listener, drops the memo of every VPN in a written 8-PTE
line. Rows are keyed by content, so the unique-row table is built as
the loop runs and a captured QUICK-scale scenario is a few MB, cheap
enough to ship to ``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.constants import PTES_PER_CACHE_LINE
from repro.common.errors import OutOfMemoryError, TranslationError
from repro.common.rng import SeedSequencer
from repro.common.statistics import CounterSet, CounterSnapshot
from repro.contiguity.scanner import ContiguityReport
from repro.core.mmu import CoLTDesign
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import obs_active, span
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


def scenario_config(config: "SimulationConfig") -> "SimulationConfig":
    """Normalise a config to its TLB-design-independent scenario.

    Every field that feeds the OS+workload interleaving is kept; the
    design and MMU geometry (which only the replay consumes) are
    cleared. Two configs with equal scenario configs share one capture.
    """
    return config.with_updates(design=CoLTDesign.BASELINE, mmu=None)


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
        """Boot the kernel, age it, start memhog, lay out the benchmark."""
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

    def _fault_batch_for(self, vpn: int) -> int:
        for start, end, batch in self._region_bounds:
            if start <= vpn < end:
                return batch
        return self.process.fault_batch

    # ------------------------------------------------------------------
    # Phase 3: the interleaved run.
    # ------------------------------------------------------------------

    def run_loop(self, on_access: Callable[[int, int], None]) -> None:
        """Step the trace, interleaving OS activity around ``on_access``.

        ``on_access(index, vpn)`` is invoked once per trace entry after
        the page is demand-faulted in; the caller decides what an
        access *means* (live MMU probe, or capture record). Background
        churn and compaction ticks fire after every ``churn_every`` /
        ``tick_every`` accesses -- i.e. first at ``period - 1``, not at
        access 0, which previously injected both before the benchmark's
        first reference.
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

        for index, vpn in enumerate(self.trace.vpns):
            vpn = int(vpn)
            if not is_populated(vpn):
                # Demand fault, at this region's allocator granularity.
                process.fault_batch = self._fault_batch_for(vpn)
                kernel.touch(process, vpn)
            on_access(index, vpn)
            if churn_every and (index + 1) % churn_every == 0:
                self._background_churn(churn_rng, live_churn)
            if tick_every and (index + 1) % tick_every == 0:
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
    """Records per-access walk outcomes and shootdown events.

    A VPN's row is computed on its first access and memoized until a
    leaf write to the benchmark page table touches its 8-PTE line.
    ``_rows`` maps each distinct row to its id in first-seen order, so
    a row that recurs after an invalidation maps back to its old id.
    """

    def __init__(self, engine: ScenarioEngine, accesses: int) -> None:
        self._page_table = engine.process.page_table
        self._bench_pid = engine.process.pid
        self._rows: Dict[tuple, int] = {}
        #: Per-access row id into ``_rows``.
        self._ids: List[int] = [0] * accesses
        #: vpn -> row id; :meth:`_on_write` drops whole 8-PTE lines.
        self._memo: Dict[int, int] = {}
        self.events: List = []
        #: Number of accesses recorded so far == the index the next
        #: shootdown precedes: events during access i's demand fault
        #: arrive before ``on_access(i)`` and tag i; churn/tick events
        #: after it tag i+1, matching where a replayed MMU sees them.
        self.position = 0
        self.counters = CounterSet(["accesses", "records_computed"])
        if obs_active():
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

    def on_access(self, index: int, vpn: int) -> None:
        row_id = self._memo.get(vpn)
        if row_id is None:
            row_id = self._memo[vpn] = self._row_id(vpn)
        self._ids[index] = row_id
        self.position = index + 1

    def _row_id(self, vpn: int) -> int:
        """Compute ``vpn``'s record; return the id of its row."""
        self.counters.increment("records_computed")
        page_table = self._page_table
        translation = page_table.lookup(vpn)
        if translation is None:  # pragma: no cover - faulted in by engine
            raise TranslationError(f"capture of unmapped vpn {vpn}")
        path = page_table.walk_path_addresses(vpn)
        row = [
            translation.pfn,
            int(translation.attributes),
            1 if translation.is_superpage else 0,
            len(path),
            *path,
        ]
        row += [-1] * (_MASK_COLUMN - len(row))
        if translation.is_superpage:
            row += [0] * (RECORD_COLUMNS - _MASK_COLUMN)
        else:
            mask = 0
            pfns = [0] * PTES_PER_CACHE_LINE
            attributes = [0] * PTES_PER_CACHE_LINE
            for offset, neighbour in enumerate(page_table.pte_cache_line(vpn)):
                if neighbour is not None:
                    mask |= 1 << offset
                    pfns[offset] = neighbour.pfn
                    attributes[offset] = int(neighbour.attributes)
            row += [mask, *pfns, *attributes]
        rows = self._rows
        return rows.setdefault(tuple(row), len(rows))

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted unique-row table and the per-access index into it."""
        self.counters.increment("accesses", len(self._ids))
        records, inverse = np.unique(
            np.array(list(self._rows), dtype=np.int64),
            axis=0,
            return_inverse=True,
        )
        ids = np.asarray(self._ids, dtype=np.int64)
        return records, np.asarray(inverse, dtype=np.int64).ravel()[ids]


def capture_scenario(config: "SimulationConfig") -> CapturedScenario:
    """Run the OS+workload interleaving once; return its translation log.

    The input config is normalised via :func:`scenario_config`, so the
    capture is reusable across every TLB design of the same scenario.
    """
    config = scenario_config(config)
    engine = ScenarioEngine(config)
    engine.prepare()
    recorder = _CaptureRecorder(engine, len(engine.trace.vpns))
    with span(
        "capture",
        benchmark=config.benchmark,
        accesses=config.accesses,
        seed=config.seed,
    ):
        engine.run_loop(recorder.on_access)
        engine.sanity_check()

    records, record_index = recorder.finish()
    if recorder.events:
        event_array = np.asarray(recorder.events, dtype=np.int64)
    else:
        event_array = np.zeros((0, 3), dtype=np.int64)
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
        contiguity=ContiguityReport.from_process(engine.process),
        trace_unique_pages=engine.trace.unique_pages,
    )

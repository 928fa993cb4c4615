"""Replay phase: stream a captured scenario through any design's MMU.

The counterpart of ``repro.sim.scenario``: given a
:class:`CapturedScenario`, rebuild a fresh TLB/MMU/cache stack for the
requested :class:`CoLTDesign` and replay the translation log through it
-- no kernel, no buddy allocator, no trace generation. The replayed
``SimulationResult`` is bit-identical to a monolithic
``SystemSimulator`` run of the same configuration (asserted by
``repro.analysis.determinism --replay`` and the tier-1 tests), because
every input the MMU observes is reproduced exactly:

* the walk outcome of each access (translation, walk-path addresses,
  8-PTE cache-line window) as the page table held it *at that access*,
  decoded once per replay into the same :class:`WalkRecord` a live walk
  builds;
* TLB shootdowns, applied before the access index they preceded in the
  capture (trailing events still land before the counter snapshot);
* the LLC pollution schedule, which the monolithic path shares.

:func:`replay_scenario` is the one replay loop every design, engine
name and sanitizer setting runs. It is a plain per-access loop: on the
QUICK design sweep a NumPy pre-scan of TLB hits bought nothing over it
once the TLBs stored interval tuples. Its one shortcut is the repeat
hit: an access to the VPN of the previous access, with no shootdown in
between, after a step that left that VPN's coverer most recently used
(see :data:`repro.core.mmu.SA_HIT`) is the same hit again and changes
no state, so it is only counted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    pollution_schedule,
)
from repro.cache.mmu_cache import MMUCache
from repro.core.mmu import FA_HIT, MMU, WALK_FA, CoLTDesign, make_mmu_config
from repro.core.performance import evaluate_performance, perfect_tlb_result
from repro.obs.trace import span
from repro.sim.scenario import (
    _LINE_ATTR_BASE,
    _LINE_PFN_BASE,
    _MASK_COLUMN,
    _PATH_BASE,
    CapturedScenario,
    scenario_config,
)
from repro.sim.system import SimulationConfig, SimulationResult
from repro.tlb.entries import COALESCING_KEY_MASK
from repro.walker.page_walker import PageWalker, WalkRecord


def decode_records(records: np.ndarray, slots: np.ndarray) -> List[WalkRecord]:
    """Decode captured record rows into :class:`WalkRecord`\\ s.

    Row ``i`` is decoded for the demanded slot ``slots[i]``: its run
    bounds are those of the maximal contiguous run of the row's line
    window around that slot. Contiguity matches
    ``Translation.is_contiguous_with``: adjacent slots chain when both
    are mapped, their PFNs advance together, and their attribute bits
    agree modulo ACCESSED/DIRTY. Pure array operations, no per-row
    Python loop.
    """
    is_sp = records[:, 2] != 0
    mask = records[:, _MASK_COLUMN]
    line_pfn = records[:, _LINE_PFN_BASE:_LINE_PFN_BASE + 8]
    line_attr = records[:, _LINE_ATTR_BASE:_LINE_ATTR_BASE + 8]
    valid = (mask[:, np.newaxis] >> np.arange(8)) & 1 != 0
    key = line_attr & COALESCING_KEY_MASK
    adj = valid[:, :-1] & valid[:, 1:]
    adj &= line_pfn[:, 1:] == line_pfn[:, :-1] + 1
    adj &= key[:, 1:] == key[:, :-1]
    run_lo = np.zeros(valid.shape, dtype=np.int64)
    run_hi = np.full(valid.shape, 7, dtype=np.int64)
    for s in range(1, 8):
        run_lo[:, s] = np.where(adj[:, s - 1], run_lo[:, s - 1], s)
    for s in range(6, -1, -1):
        run_hi[:, s] = np.where(adj[:, s], run_hi[:, s + 1], s)
    rows = np.arange(records.shape[0])
    if not (valid[rows, slots] | is_sp).all():
        raise SimulationError("captured walk record lacks its own translation")
    return list(map(WalkRecord._make, zip(
        records[:, 0].tolist(),
        records[:, 1].tolist(),
        is_sp.tolist(),
        records[:, 3].tolist(),
        records[:, _PATH_BASE:_PATH_BASE + 4].tolist(),
        run_lo[rows, slots].tolist(),
        run_hi[rows, slots].tolist(),
        mask.tolist(),
        line_pfn.tolist(),
        line_attr.tolist(),
    )))


class ReplayWalker(PageWalker):
    """A :class:`PageWalker` whose page table is a captured log.

    The caller advances :attr:`cursor` to the access index being
    replayed; a walk returns that access's decoded record. The latency
    accounting runs against this replay's own cache hierarchy and MMU
    cache, whose state evolves with this design's miss pattern, exactly
    as in the monolithic run. Records are decoded on the first walk, so
    a design that never walks (PERFECT) never decodes.
    """

    def __init__(
        self,
        scenario: CapturedScenario,
        caches: CacheHierarchy,
        mmu_cache: Optional[MMUCache] = None,
        pollution: Sequence[Tuple[int, int]] = (),
    ) -> None:
        super().__init__(None, caches, mmu_cache, pollution)
        self._scenario = scenario
        self._records = None
        self._record_of = None

    def _decode(self) -> None:
        scenario = self._scenario
        # One record per (row, demanded slot) pair the log uses.
        keys = scenario.record_index * 8 + (scenario.vpns & 7)
        unique, inverse = np.unique(keys, return_inverse=True)
        self._records = decode_records(
            scenario.records[unique >> 3], unique & 7
        )
        self._record_of = inverse.ravel()

    def record(self, vpn: int) -> WalkRecord:
        if self._records is None:
            self._decode()
        index = self.cursor
        expected = int(self._scenario.vpns[index])
        if vpn != expected:
            raise SimulationError(
                f"replay desync at access {index}: walk of vpn {vpn}, "
                f"captured vpn {expected}"
            )
        return self._records[self._record_of[index]]


def replay_scenario(
    scenario: CapturedScenario, config: SimulationConfig
) -> SimulationResult:
    """Replay a captured scenario under ``config``'s TLB design.

    ``config`` must describe the same scenario the capture ran (same
    benchmark, kernel config, seed, ...); only its ``design`` / ``mmu``
    / ``sanitize`` fields are free to differ.
    """
    if scenario_config(config) != scenario.config:
        raise SimulationError(
            f"config {config} does not match captured scenario "
            f"{scenario.config}"
        )
    mmu_config = config.mmu or make_mmu_config(config.design)
    accesses = scenario.accesses
    caches = CacheHierarchy(HierarchyConfig())
    walker = ReplayWalker(
        scenario, caches, MMUCache(),
        pollution_schedule(
            accesses, config.llc_pollution_per_access, caches.llc.num_sets
        ),
    )
    mmu = MMU(mmu_config, walker, sanitize=config.sanitize)

    before = scenario.inval_before.tolist()
    starts = scenario.inval_start.tolist()
    counts = scenario.inval_count.tolist()
    events = len(before)
    invalidate_range = mmu.invalidate_range

    with span(
        "replay",
        design=config.design.value,
        benchmark=config.benchmark,
        accesses=accesses,
    ):
        pending = 0
        if mmu_config.design is not CoLTDesign.PERFECT:
            # A perfect TLB never probes, walks or fills: only the
            # access and shootdown counts below are live.
            step = mmu.step
            counted = 0
            sa_repeats = fa_repeats = 0
            prev_vpn = -1
            outcome = WALK_FA
            next_event = before[0] if events else accesses
            for index, vpn in enumerate(scenario.vpns.tolist()):
                if index == next_event:
                    mmu.tally(index - counted, sa_repeats, fa_repeats)
                    counted = index
                    sa_repeats = fa_repeats = 0
                    while pending < events and before[pending] <= index:
                        invalidate_range(starts[pending], counts[pending])
                        pending += 1
                    next_event = before[pending] if pending < events else accesses
                    prev_vpn = -1
                if vpn == prev_vpn:
                    if outcome == FA_HIT:
                        fa_repeats += 1
                        continue
                    if outcome != WALK_FA:
                        sa_repeats += 1
                        continue
                prev_vpn = vpn
                walker.cursor = index
                outcome = step(vpn)
            mmu.tally(accesses - counted, sa_repeats, fa_repeats)
        else:
            mmu.tally(accesses)
        # Shootdowns that trailed the final access still reach the MMU
        # before its counters are snapshotted.
        while pending < events:
            invalidate_range(starts[pending], counts[pending])
            pending += 1

        if mmu.sanitizer is not None:
            mmu.sanitizer.full_scan()

    distinct_lines = int(np.unique(scenario.vpns >> 3).size)
    discount = float(distinct_lines * caches.config.dram_latency)
    performance = evaluate_performance(
        mmu,
        accesses,
        scenario.profile.core,
        compulsory_discount_cycles=discount,
    )
    return SimulationResult(
        config=config,
        profile=scenario.profile,
        accesses=accesses,
        l1_misses=mmu.l1_misses,
        l2_misses=mmu.l2_misses,
        mmu_counters=mmu.counters.snapshot(),
        kernel_counters=scenario.kernel_counters,
        performance=performance,
        perfect_performance=perfect_tlb_result(
            accesses, scenario.profile.core
        ),
        contiguity=scenario.contiguity,
        trace_unique_pages=scenario.trace_unique_pages,
    )

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
  decoded once per scenario into the same :class:`WalkRecord` a live
  walk builds;
* TLB shootdowns, applied before the access index they preceded in the
  capture (trailing events still land before the counter snapshot);
* the LLC pollution schedule, which the monolithic path shares.

:func:`replay_scenario` is the one replay loop every design, engine
name and sanitizer setting runs. What does not depend on the design is
a :class:`ReplayPlan`, built once per scenario and shared by every
design replayed from it (a one-slot cache keeps the last scenario's):
the access stream as runs of one VPN and one captured record row, cut
at every shootdown; each run's decoded walk record; and the count of
distinct lines. The loop steps a run's first access through
:meth:`MMU.step`, steps the next ones while the outcome is
``WALK_FA``, and counts the rest of the run as repeat hits in one
addition: after any other outcome the VPN's coverer is most recently
used (see :data:`repro.core.mmu.SA_HIT`), so a repeat is the same hit
again and changes no state.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.types import COALESCING_KEY_MASK
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
    run_starts,
    scenario_config,
)
from repro.sim.system import SimulationConfig, SimulationResult
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


@dataclass(frozen=True, eq=False)
class ReplayPlan:
    """Everything a replay derives from its scenario alone.

    Attributes:
        run_start / run_vpn / run_length: the access stream as maximal
            runs of one VPN and one captured record row, cut at every
            access a shootdown precedes, so shootdowns land before a
            run's first access.
        distinct_lines: distinct 8-page lines the trace touches.
        rows / run_key: the scenario's record table and each run's
            ``row * 8 + slot`` key into it, which :attr:`walk_records`
            decodes.
    """

    run_start: List[int]
    run_vpn: List[int]
    run_length: List[int]
    distinct_lines: int
    rows: np.ndarray
    run_key: np.ndarray

    @cached_property
    def walk_records(self) -> List[WalkRecord]:
        """Each run's decoded walk record, the one of every access in it.

        One record per (row, demanded slot) pair the log uses, shared
        by the runs that use it. They are decoded on the first walk, so
        replaying a scenario only under designs that never walk
        (PERFECT) decodes nothing.
        """
        unique, inverse = np.unique(self.run_key, return_inverse=True)
        records = decode_records(self.rows[unique >> 3], unique & 7)
        return list(map(records.__getitem__, inverse.ravel().tolist()))


def build_plan(scenario: CapturedScenario) -> ReplayPlan:
    """Cut ``scenario``'s log into runs of one VPN and one record row."""
    vpns = scenario.vpns
    accesses = vpns.size
    before = scenario.inval_before
    row_index = scenario.record_index
    row_changes = np.flatnonzero(row_index[1:] != row_index[:-1]) + 1
    starts = run_starts(vpns, [before[before < accesses], row_changes])
    run_vpn = vpns[starts]
    return ReplayPlan(
        run_start=starts.tolist(),
        run_vpn=run_vpn.tolist(),
        run_length=np.diff(starts, append=accesses).tolist(),
        distinct_lines=int(np.unique(vpns >> 3).size),
        rows=scenario.records,
        run_key=row_index[starts] * 8 + (run_vpn & 7),
    )


class _LastPlan:
    """The plan of the last scenario replayed in this process.

    Every caller replays scenario by scenario (the runner's chunks, the
    design sweep, ``determinism --replay``), so one slot shares each
    plan among all of a scenario's designs. The slot holds its
    scenario weakly and drops the plan when the scenario dies, so it
    keeps no scenario alive and at most one plan in memory.
    """

    def __init__(self) -> None:
        self.scenario: Optional[weakref.ref] = None
        self.plan: Optional[ReplayPlan] = None

    def get(self, scenario: CapturedScenario) -> ReplayPlan:
        if self.scenario is None or self.scenario() is not scenario:
            # Free the old plan before the new one is built.
            self.scenario = self.plan = None
            self.plan = build_plan(scenario)
            self.scenario = weakref.ref(scenario, self._drop)
        return self.plan

    def _drop(self, ref: weakref.ref) -> None:
        if self.scenario is ref:
            self.scenario = self.plan = None


_LAST_PLAN = _LastPlan()


class ReplayWalker(PageWalker):
    """A :class:`PageWalker` whose page table is a captured log.

    The caller advances :attr:`cursor` to the access index being
    stepped; a walk returns the record of the plan's run holding that
    access, which every access of the run shares (runs are cut where
    the captured row changes). The latency accounting runs against this
    replay's own cache hierarchy and MMU cache, whose state evolves
    with this design's miss pattern, exactly as in the monolithic run.
    """

    def __init__(
        self,
        plan: ReplayPlan,
        caches: CacheHierarchy,
        mmu_cache: Optional[MMUCache] = None,
        pollution: Sequence[Tuple[int, int]] = (),
    ) -> None:
        super().__init__(None, caches, mmu_cache, pollution)
        self._plan = plan

    def record(self, vpn: int) -> WalkRecord:
        plan = self._plan
        index = self.cursor
        run = bisect_right(plan.run_start, index) - 1
        expected = plan.run_vpn[run]
        if vpn != expected:
            raise SimulationError(
                f"replay desync at access {index}: walk of vpn {vpn}, "
                f"captured vpn {expected}"
            )
        return plan.walk_records[run]


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
    with span(
        "replay",
        design=config.design.value,
        benchmark=config.benchmark,
        accesses=scenario.accesses,
    ):
        return _replay(scenario, config)


def _replay(
    scenario: CapturedScenario, config: SimulationConfig
) -> SimulationResult:
    """:func:`replay_scenario`'s body, inside its ``replay`` span."""
    mmu_config = config.mmu or make_mmu_config(config.design)
    accesses = scenario.accesses
    plan = _LAST_PLAN.get(scenario)
    caches = CacheHierarchy(HierarchyConfig())
    walker = ReplayWalker(
        plan, caches, MMUCache(),
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

    pending = 0
    if mmu_config.design is not CoLTDesign.PERFECT:
        # A perfect TLB never probes, walks or fills: only the
        # access and shootdown counts below are live.
        step = mmu.step
        counted = 0
        sa_repeats = fa_repeats = 0
        next_event = before[0] if events else accesses
        for start, vpn, length in zip(
            plan.run_start, plan.run_vpn, plan.run_length
        ):
            if start == next_event:
                mmu.tally(start - counted, sa_repeats, fa_repeats)
                counted = start
                sa_repeats = fa_repeats = 0
                while pending < events and before[pending] <= start:
                    invalidate_range(starts[pending], counts[pending])
                    pending += 1
                next_event = before[pending] if pending < events else accesses
            walker.cursor = start
            outcome = step(vpn)
            if length > 1:
                index, end = start + 1, start + length
                while outcome == WALK_FA and index < end:
                    walker.cursor = index
                    outcome = step(vpn)
                    index += 1
                if outcome == FA_HIT:
                    fa_repeats += end - index
                else:
                    sa_repeats += end - index
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

    discount = float(plan.distinct_lines * caches.config.dram_latency)
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

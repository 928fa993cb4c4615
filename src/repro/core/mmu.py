"""MMU front-end: the two-level TLB hierarchy and the CoLT designs.

``MMU.translate`` implements the per-access flow of Figures 4-6:

1. the set-associative L1 TLB and the fully-associative superpage TLB
   are probed in parallel (one hit time; a miss in both is "an L1 miss");
2. the set-associative L2 TLB (inclusive of the SA L1 only) is probed;
3. on a full miss, the page walker resolves the translation, and the
   Coalescing Logic builds the fill for the configured design:

   * ``BASELINE``  -- single-translation entries; superpages go to the FA TLB;
   * ``COLT_SA``   -- coalesce into L1/L2 under the shifted indexing
     (Section 4.1);
   * ``COLT_FA``   -- coalesce (unrestricted, up to the 8-PTE line) into
     the FA TLB, echoing just the demanded translation into L2
     (Section 4.2);
   * ``COLT_ALL``  -- threshold routing between the two (Section 4.3);
   * ``PERFECT``   -- 100%-hit-rate TLB, the paper's upper bound
     (Figure 21).

Coalescing happens only on the fill path, never on hits (design
principle 2, Section 4).

TLB entries are interval tuples (``repro.tlb.entries``) and a walk's
outcome is one :class:`repro.walker.page_walker.WalkRecord`, whether
the walker read a live page table or a captured log, so this module is
the one access-and-fill implementation every simulator runs. The event
counters, and the fills by run length, add up in plain ints and fold
into :attr:`MMU.counters` and the ``colt_coalesce_run_length``
histogram at each shootdown and whenever the counters are read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.analysis.sanitizers import TLBSanitizer, resolve_sanitize
from repro.common.constants import (
    COLT_FA_TLB_ENTRIES,
    DEFAULT_COLT_SA_SHIFT,
    DEFAULT_SUPERPAGE_TLB_ENTRIES,
    PTES_PER_CACHE_LINE,
)
from repro.common.errors import ConfigurationError
from repro.common.statistics import CounterSet
from repro.common.types import LookupResult
from repro.obs.registry import bind_counterset, get_registry
from repro.core.coalescing import clip_to_group, clip_to_window
from repro.tlb.config import (
    FullyAssociativeTLBConfig,
    SetAssociativeTLBConfig,
    default_l1_config,
    default_l2_config,
)
from repro.tlb.entries import slice_to_group
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.walker.page_walker import PageWalker, WalkRecord


class CoLTDesign(enum.Enum):
    """Which TLB organisation the MMU models."""

    BASELINE = "baseline"
    COLT_SA = "colt_sa"
    COLT_FA = "colt_fa"
    COLT_ALL = "colt_all"
    PERFECT = "perfect"


@dataclass(frozen=True)
class MMUConfig:
    """Full hierarchy configuration.

    Attributes:
        design: TLB organisation (see :class:`CoLTDesign`).
        l1 / l2: set-associative TLB geometries (index_shift > 0 only
            meaningful for COLT_SA / COLT_ALL).
        superpage: fully-associative TLB geometry.
        colt_all_threshold: CoLT-All's routing threshold; runs longer
            than this go to the FA TLB (defaults to the L2 group size,
            i.e. what the SA indexing can accommodate, Section 4.3.1).
        fa_fill_l2: CoLT-FA/All's L2 echo fill (Section 7.1.3's
            ablation: disabling costs 10-20% of the miss eliminations).
        coalescing_window: maximum translations the coalescing logic may
            examine per fill; None means the natural 8-PTE cache-line
            bound (Section 4.1.4). Used by the window ablation.
        l1_latency / l2_latency: TLB hit latencies in cycles; L1 hit
            time is treated as hidden in the pipeline (0 extra cycles).
    """

    design: CoLTDesign
    l1: SetAssociativeTLBConfig
    l2: SetAssociativeTLBConfig
    superpage: FullyAssociativeTLBConfig
    colt_all_threshold: Optional[int] = None
    fa_fill_l2: bool = True
    coalescing_window: Optional[int] = None
    l1_latency: int = 0
    l2_latency: int = 7

    def __post_init__(self) -> None:
        if self.design in (CoLTDesign.BASELINE, CoLTDesign.PERFECT):
            if self.l1.index_shift or self.l2.index_shift:
                raise ConfigurationError(
                    f"{self.design.value} must not shift index bits"
                )
        if self.design is CoLTDesign.COLT_FA:
            if self.l1.index_shift or self.l2.index_shift:
                raise ConfigurationError(
                    "CoLT-FA keeps conventional set-associative indexing"
                )
        if self.l1.group_size > self.l2.group_size:
            raise ConfigurationError(
                "L1 group size must not exceed L2's: the L2 is inclusive "
                "of the SA L1, so every L1 fill must fit one L2 entry"
            )

    @property
    def effective_all_threshold(self) -> int:
        if self.colt_all_threshold is not None:
            return self.colt_all_threshold
        return self.l2.group_size


def make_mmu_config(
    design: CoLTDesign,
    sa_shift: int = DEFAULT_COLT_SA_SHIFT,
    l2_ways: int = 4,
    superpage_entries: Optional[int] = None,
    fa_fill_l2: bool = True,
    max_fa_span: Optional[int] = None,
    coalescing_window: Optional[int] = None,
    graceful_invalidation: bool = False,
    coalescing_aware_replacement: bool = False,
) -> MMUConfig:
    """Build the paper's standard configuration for a design.

    Baseline/perfect: 32/128-entry 4-way L1/L2 + 16-entry FA superpage
    TLB. CoLT-SA: index shift 2 (VPN[4-2] / VPN[6-2]). CoLT-FA / CoLT-All
    halve the FA TLB to 8 entries to pay for range-check lookup hardware
    (Section 4.2.4). The two ``graceful_invalidation`` /
    ``coalescing_aware_replacement`` flags enable the paper's
    Section 4.1.5 future-work mechanisms.
    """
    if design in (CoLTDesign.BASELINE, CoLTDesign.PERFECT):
        shift = 0
        sp_entries = superpage_entries or DEFAULT_SUPERPAGE_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(entries=sp_entries)
    elif design is CoLTDesign.COLT_SA:
        shift = sa_shift
        sp_entries = superpage_entries or DEFAULT_SUPERPAGE_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(entries=sp_entries)
    elif design is CoLTDesign.COLT_FA:
        shift = 0
        sp_entries = superpage_entries or COLT_FA_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(
            entries=sp_entries,
            allow_coalesced=True,
            merge_on_insert=True,
            **({"max_span": max_fa_span} if max_fa_span else {}),
        )
    elif design is CoLTDesign.COLT_ALL:
        shift = sa_shift
        sp_entries = superpage_entries or COLT_FA_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(
            entries=sp_entries,
            allow_coalesced=True,
            merge_on_insert=True,
            **({"max_span": max_fa_span} if max_fa_span else {}),
        )
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unknown design {design}")
    if graceful_invalidation:
        sp = replace(sp, graceful_invalidation=True)
    l1 = replace(
        default_l1_config(shift),
        graceful_invalidation=graceful_invalidation,
        coalescing_aware_replacement=coalescing_aware_replacement,
    )
    l2 = replace(
        default_l2_config(shift, ways=l2_ways),
        graceful_invalidation=graceful_invalidation,
        coalescing_aware_replacement=coalescing_aware_replacement,
    )
    return MMUConfig(
        design=design,
        l1=l1,
        l2=l2,
        superpage=sp,
        fa_fill_l2=fa_fill_l2,
        coalescing_window=coalescing_window,
    )


#: The MMU's event counters, in reporting order.
MMU_COUNTERS = (
    "accesses",
    "l1_sa_hits",
    "l1_fa_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "walks",
    "walk_latency",
    "coalesced_fills",
    "uncoalesced_fills",
    "fa_routed_fills",
    "sa_routed_fills",
    "invalidations",
)

#: Counters tallied per event in plain ints; the fill counters derive
#: from the per-run-length tally instead.
_TALLIED = tuple(
    name for name in MMU_COUNTERS
    if name not in ("coalesced_fills", "uncoalesced_fills")
)

#: Outcomes of :meth:`MMU.step`. After ``SA_HIT``, ``L2_HIT`` or
#: ``WALK`` the VPN's unique L1 SA coverer is most recently used, and
#: after ``FA_HIT`` its FA coverer is, so an immediate repeat of the VPN
#: is the same hit and changes no state. ``WALK_FA`` (an FA-routed or
#: superpage fill) leaves possibly overlapping FA entries, so which one
#: a repeat would hit -- and make MRU -- takes a probe.
SA_HIT, FA_HIT, L2_HIT, WALK, WALK_FA = range(5)


class MMU:
    """Per-access translation engine with pluggable CoLT design."""

    def __init__(
        self,
        config: MMUConfig,
        walker: "PageWalker",
        sanitize: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.design = config.design
        self.walker = walker
        self.l1 = SetAssociativeTLB(config.l1)
        self.l2 = SetAssociativeTLB(config.l2)
        self.superpage_tlb = FullyAssociativeTLB(config.superpage)
        self._l1_group = config.l1.group_size
        self._l2_group = config.l2.group_size
        self._counters = CounterSet(list(MMU_COUNTERS))
        for name in _TALLIED:
            setattr(self, "_c_" + name, 0)
        #: Fills by run length (index = translations per fill).
        self._c_runs = [0] * (PTES_PER_CACHE_LINE + 1)
        #: Optional :class:`TLBSanitizer`; ``sanitize=None`` defers to
        #: the ``COLT_SANITIZE`` environment variable.
        self.sanitizer: Optional[TLBSanitizer] = None
        if resolve_sanitize(sanitize):
            self.sanitizer = TLBSanitizer(self)
            self.sanitizer.attach()
        self._registry = get_registry()
        bind_counterset(
            self._registry, "colt_mmu", self._counters,
            design=config.design.value,
        )

    # ------------------------------------------------------------------
    # The per-access flow.
    # ------------------------------------------------------------------

    def access(self, vpn: int) -> Tuple[str, int]:
        """Translate one access; returns ``(hit_level, latency)``."""
        self._c_accesses += 1
        config = self.config
        if self.design is CoLTDesign.PERFECT:
            return "l1", config.l1_latency
        walk_cycles = self._c_walk_latency
        outcome = self.step(vpn)
        if outcome == SA_HIT:
            return "l1", config.l1_latency
        if outcome == FA_HIT:
            return "superpage", config.l1_latency
        if outcome == L2_HIT:
            return "l2", config.l2_latency
        return "walk", config.l2_latency + self._c_walk_latency - walk_cycles

    def step(self, vpn: int) -> int:
        """One access through the hierarchy (uncounted); its outcome.

        Step 1 probes the L1 SA TLB and the superpage/FA TLB (in
        parallel in hardware), step 2 the L2 (inclusive of the SA L1
        only), step 3 walks and runs the design's fill policy.
        """
        if self.l1.probe(vpn) is not None:
            self._c_l1_sa_hits += 1
            return SA_HIT
        if self.superpage_tlb.probe(vpn) is not None:
            self._c_l1_fa_hits += 1
            return FA_HIT
        self._c_l1_misses += 1
        hit = self.l2.probe(vpn)
        if hit is not None:
            self._c_l2_hits += 1
            # Copy the hitting entry down, sliced to the L1's group.
            self.l1.insert(slice_to_group(hit, vpn, self._l1_group))
            return L2_HIT
        self._c_l2_misses += 1
        record, latency, _ = self.walker.resolve(vpn)
        self._c_walks += 1
        self._c_walk_latency += latency
        outcome = self._fill(vpn, record)
        if self.sanitizer is not None:
            self.sanitizer.after_fill(vpn, record.pfn)
        return outcome

    def tally(self, accesses: int, sa_hits: int = 0, fa_hits: int = 0) -> None:
        """Count accesses a driver served without a step (repeat hits)."""
        self._c_accesses += accesses
        self._c_l1_sa_hits += sa_hits
        self._c_l1_fa_hits += fa_hits

    def translate(self, vpn: int) -> LookupResult:
        """Translate one access, returning the full translation.

        Equivalent to :meth:`access` plus an architectural page-table
        read for the translation (tests and examples use this on a live
        page table; the simulators use :meth:`access` / :meth:`step`).
        """
        hit_level, latency = self.access(vpn)
        translation = self.walker.page_table.lookup(vpn)
        return LookupResult(translation, hit_level, latency)

    # ------------------------------------------------------------------
    # Fill policies (the design-specific part).
    # ------------------------------------------------------------------

    def _fill(self, vpn: int, record: "WalkRecord") -> int:
        if record.is_superpage:
            # Superpages always live in the FA TLB, in every design.
            offset = vpn % 512
            base = vpn - offset
            self.superpage_tlb.insert(
                (base, base + 512, record.pfn - offset, record.attr, True)
            )
            return WALK_FA
        design = self.design
        if design is CoLTDesign.BASELINE:
            return self._fill_baseline(vpn, record)
        slot = vpn & 7
        lo, hi = record.run_lo, record.run_hi
        if self.config.coalescing_window is not None:
            lo, hi = clip_to_window(
                lo, hi, slot, self.config.coalescing_window
            )
        if design is CoLTDesign.COLT_SA:
            return self._fill_colt_sa(vpn, record, slot, lo, hi)
        if design is CoLTDesign.COLT_FA:
            return self._fill_colt_fa(vpn, record, slot, lo, hi)
        return self._fill_colt_all(vpn, record, slot, lo, hi)

    def _fill_baseline(self, vpn: int, record: "WalkRecord") -> int:
        entry = (vpn, vpn, record.pfn, record.attr)
        self._insert_l2(entry)
        self.l1.insert(entry)
        self._c_runs[1] += 1
        return WALK

    def _sa_entry(
        self, vpn: int, record: "WalkRecord", slot: int, lo: int, hi: int,
        group: int,
    ) -> Tuple[tuple, int]:
        """The run's slice in ``vpn``'s aligned group, and its length."""
        first, last = clip_to_group(lo, hi, slot, group)
        line_base = vpn - slot
        entry = (
            line_base + first, line_base + last,
            record.line_pfn[first], record.line_attr[first],
        )
        return entry, last - first + 1

    def _fill_colt_sa(
        self, vpn: int, record: "WalkRecord", slot: int, lo: int, hi: int
    ) -> int:
        """Coalesce within the cache line, clipped per TLB's index scheme."""
        entry, length = self._sa_entry(
            vpn, record, slot, lo, hi, self._l2_group
        )
        self._insert_l2(entry)
        self.l1.insert(
            self._sa_entry(vpn, record, slot, lo, hi, self._l1_group)[0]
        )
        self._c_runs[length] += 1
        return WALK

    def _insert_fa_run(
        self, vpn: int, record: "WalkRecord", slot: int, lo: int, hi: int
    ) -> None:
        line_base = vpn - slot
        self.superpage_tlb.insert((
            line_base + lo, line_base + hi + 1,
            record.line_pfn[lo], record.line_attr[lo], False,
        ))
        self._c_fa_routed_fills += 1
        self._c_runs[hi - lo + 1] += 1

    def _fill_colt_fa(
        self, vpn: int, record: "WalkRecord", slot: int, lo: int, hi: int
    ) -> int:
        """Unrestricted line coalescing into the FA TLB (Section 4.2.1)."""
        if hi == lo:
            return self._fill_baseline(vpn, record)
        self._insert_fa_run(vpn, record, slot, lo, hi)
        if self.config.fa_fill_l2:
            # Echo only the demanded translation into L2; the L1 is
            # left untouched (Section 4.2.1).
            self._insert_l2((vpn, vpn, record.pfn, record.attr))
        return WALK_FA

    def _fill_colt_all(
        self, vpn: int, record: "WalkRecord", slot: int, lo: int, hi: int
    ) -> int:
        """Threshold routing (Figure 6): small runs to SA, large to FA."""
        if hi - lo + 1 <= self.config.effective_all_threshold:
            self._c_sa_routed_fills += 1
            return self._fill_colt_sa(vpn, record, slot, lo, hi)
        self._insert_fa_run(vpn, record, slot, lo, hi)
        if self.config.fa_fill_l2:
            # Unlike CoLT-FA, bring as much of the run as the L2's index
            # scheme allows (Section 4.3.1).
            self._insert_l2(
                self._sa_entry(vpn, record, slot, lo, hi, self._l2_group)[0]
            )
        return WALK_FA

    def _insert_l2(self, entry: tuple) -> None:
        """Install into L2, back-invalidating L1 copies L2 no longer holds.

        The L2 is inclusive of the SA L1: when an L2 insert displaces a
        resident entry (capacity eviction or overlap replacement), any L1
        copy of a translation the L2 no longer covers must be dropped
        too, exactly as inclusive hardware back-invalidates its inner
        level. All L2 fills go through here so the invariant holds
        unconditionally, sanitizers on or off.
        """
        for victim in self.l2.insert(entry):
            self._back_invalidate(victim, entry[0], entry[1])

    def _back_invalidate(
        self, victim: tuple, kept_start: int = 0, kept_end: int = -1
    ) -> None:
        """Drop the L1 copies of ``victim``'s VPNs that L2 no longer covers.

        A displaced L2 resident lay in the set of the entry that
        displaced it, and a set's entries never overlap, so the only
        entry that can still cover one of its VPNs is that newcomer,
        ``[kept_start, kept_end]`` (empty by default). The rest are
        dropped in VPN order.
        """
        invalidate = self.l1.invalidate
        start, end = victim[0], victim[1]
        for vpn in range(start, min(end, kept_start - 1) + 1):
            invalidate(vpn)
        for vpn in range(max(start, kept_end + 1), end + 1):
            invalidate(vpn)

    # ------------------------------------------------------------------
    # Shootdowns.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> None:
        """TLB shootdown for one virtual page.

        Whole coalesced entries covering the page are flushed
        (Section 4.1.5), and the walker's MMU-cache entries for this
        address are dropped (INVLPG semantics) -- the page-table structure
        may have changed (e.g. a THP split replaces a PDE).
        """
        self._c_invalidations += 1
        self.l1.invalidate(vpn)
        # Graceful splits of a full L2 set evict residents: keep the L2
        # inclusive of the L1 for those too. No L2 entry covers any of
        # an evicted resident's VPNs.
        for victim in self.l2.invalidate(vpn):
            self._back_invalidate(victim)
        self.superpage_tlb.invalidate(vpn)
        if self.walker.mmu_cache is not None:
            self.walker.mmu_cache.invalidate_vpn(vpn)
        if self.sanitizer is not None:
            self.sanitizer.after_invalidate(vpn)

    def invalidate_range(self, start_vpn: int, count: int) -> None:
        self._fold_counters()
        for vpn in range(start_vpn, start_vpn + count):
            self.invalidate(vpn)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.superpage_tlb.flush()

    # ------------------------------------------------------------------
    # Counters and derived statistics.
    # ------------------------------------------------------------------

    def _fold_counters(self) -> None:
        """Move the plain-int tallies into the counter set and histogram."""
        increment = self._counters.increment
        for name in _TALLIED:
            attr = "_c_" + name
            delta = getattr(self, attr)
            if delta:
                increment(name, delta)
                setattr(self, attr, 0)
        runs = self._c_runs
        if any(runs):
            increment("uncoalesced_fills", runs[1])
            increment("coalesced_fills", sum(runs) - runs[1])
            design = self.design.value
            for length, count in enumerate(runs):
                if count:
                    self._registry.observe(
                        "colt_coalesce_run_length", length, count,
                        help="translations per TLB fill, by design "
                        "(1 = uncoalesced)",
                        unit="translations", design=design,
                    )
            self._c_runs = [0] * len(runs)

    @property
    def counters(self) -> CounterSet:
        """The 13 event counters (``colt_mmu``), folded up to date."""
        self._fold_counters()
        return self._counters

    @property
    def l1_misses(self) -> int:
        """Misses of the parallel L1 SA + superpage probe (paper's 'L1')."""
        return self.counters["l1_misses"]

    @property
    def l2_misses(self) -> int:
        return self.counters["l2_misses"]

    @property
    def total_walk_cycles(self) -> int:
        return self.counters["walk_latency"]

    @property
    def total_l2_hit_cycles(self) -> int:
        return self.counters["l2_hits"] * self.config.l2_latency

"""Tests for the Section 4.1.5 future-work mechanisms.

The paper defers two refinements: gracefully uncoalescing entries on
invalidation (instead of whole-entry flushes) and replacement that
de-prioritises entries with little coalescing. Both are implemented
behind configuration flags; these tests pin their semantics.
"""

from repro.common.types import PageAttributes, Translation
from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.tlb.config import (
    FullyAssociativeTLBConfig,
    SetAssociativeTLBConfig,
)
from repro.tlb.entries import CoalescedEntry, RangeEntry
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB

ATTR = int(PageAttributes.default_user())


def run_of(start_vpn, start_pfn, length):
    return [
        Translation(start_vpn + i, start_pfn + i) for i in range(length)
    ]


def pfn_of(tlb, vpn):
    hit = tlb.lookup(vpn)
    return None if hit is None else hit.pfn


class TestGracefulSAInvalidation:
    def graceful_tlb(self):
        return SetAssociativeTLB(
            SetAssociativeTLBConfig(32, 4, 2, graceful_invalidation=True)
        )

    def test_interior_invalidation_splits_entry(self):
        tlb = self.graceful_tlb()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(9)
        assert tlb.entry_for(9) is None
        # Neighbours survive with correct PPNs, as two entries.
        assert pfn_of(tlb, 8) == 100
        assert pfn_of(tlb, 10) == 102
        assert pfn_of(tlb, 11) == 103
        assert sorted(tlb.entries()) == [
            (8, 8, 100, ATTR), (10, 11, 102, ATTR),
        ]

    def test_edge_invalidation_shrinks_entry(self):
        tlb = self.graceful_tlb()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(8)
        assert tlb.entry_for(8) is None
        for vpn, ppn in ((9, 101), (10, 102), (11, 103)):
            assert pfn_of(tlb, vpn) == ppn

    def test_singleton_invalidation_leaves_nothing(self):
        tlb = self.graceful_tlb()
        tlb.insert_translation(Translation(5, 5))
        tlb.invalidate(5)
        assert tlb.occupancy == 0

    def test_default_behaviour_still_flushes_whole_entry(self):
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(32, 4, 2))
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(9)
        assert tlb.entry_for(8) is None

    def test_split_in_full_set_evicts_instead_of_raising(self):
        # One 2-way set, group 4: two resident groups fill it, so the
        # second survivor of a split must evict (the LRU group 4..7).
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(2, 2, 2, graceful_invalidation=True)
        )
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))
        tlb.insert(CoalescedEntry.from_run(run_of(4, 200, 4), 4))
        tlb.entry_for(0)  # no promotion: 0..3 stays LRU
        evicted = tlb.invalidate(1)
        assert evicted == [(4, 7, 200, ATTR)]
        assert sorted(tlb.entries()) == [
            (0, 0, 100, ATTR), (2, 3, 102, ATTR),
        ]

    def test_split_eviction_follows_coalescing_aware_victims(self):
        # With coalescing-aware replacement the second survivor evicts
        # the fewest-translation entry: the first survivor itself.
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(
            2, 2, 2, graceful_invalidation=True,
            coalescing_aware_replacement=True,
        ))
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))
        tlb.insert(CoalescedEntry.from_run(run_of(4, 200, 4), 4))
        assert tlb.invalidate(1) == [(0, 0, 100, ATTR)]
        assert sorted(tlb.entries()) == [
            (2, 3, 102, ATTR), (4, 7, 200, ATTR),
        ]


class TestGracefulFAInvalidation:
    def graceful_tlb(self, entries=8):
        return FullyAssociativeTLB(
            FullyAssociativeTLBConfig(
                entries=entries, allow_coalesced=True,
                graceful_invalidation=True,
            )
        )

    def test_interior_invalidation_splits_range(self):
        tlb = self.graceful_tlb()
        tlb.insert(RangeEntry.from_run(run_of(100, 700, 8)))
        tlb.invalidate(103)
        assert tlb.covering_entry(103) is None
        assert pfn_of(tlb, 100) == 700
        assert pfn_of(tlb, 102) == 702
        assert pfn_of(tlb, 104) == 704
        assert pfn_of(tlb, 107) == 707
        assert tlb.occupancy == 2

    def test_superpages_still_drop_whole(self):
        tlb = self.graceful_tlb()
        tlb.insert(RangeEntry.from_superpage(
            Translation(512, 1024, is_superpage=True)
        ))
        tlb.invalidate(512 + 10)
        assert tlb.occupancy == 0

    def test_split_in_full_tlb_evicts_instead_of_raising(self):
        tlb = self.graceful_tlb(entries=2)
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 4)))
        tlb.insert(RangeEntry.from_run(run_of(40, 40, 4)))
        evicted = tlb.invalidate(1)
        assert evicted == [(40, 44, 40, ATTR, False)]
        assert sorted(tlb.entries()) == [
            (0, 1, 0, ATTR, False), (2, 4, 2, ATTR, False),
        ]


class TestCoalescingAwareReplacement:
    def test_singleton_evicted_before_coalesced(self):
        # One set (4 entries, 4 ways): fill with a coalesced entry first
        # (making it LRU) and three singletons; the next insert must
        # evict a singleton, not the older coalesced entry.
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(
                4, 4, 2, coalescing_aware_replacement=True
            )
        )
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))  # LRU
        for vpn in (16, 32, 48):  # same set, different groups
            tlb.insert_translation(Translation(vpn, vpn))
        tlb.insert_translation(Translation(64, 64))
        # The coalesced entry survived despite being least recent.
        assert tlb.entry_for(0) == (0, 3, 100, ATTR)
        # The oldest singleton (16) was evicted instead.
        assert tlb.entry_for(16) is None

    def test_plain_lru_evicts_oldest_regardless(self):
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(4, 4, 2))
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))
        for vpn in (16, 32, 48, 64):
            tlb.insert_translation(Translation(vpn, vpn))
        assert tlb.entry_for(0) is None

    def test_ties_broken_by_recency(self):
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(
                4, 4, 2, coalescing_aware_replacement=True
            )
        )
        for vpn in (0, 16, 32, 48):  # four singletons
            tlb.insert_translation(Translation(vpn, vpn))
        tlb.probe(0)  # promote the oldest
        tlb.insert_translation(Translation(64, 64))
        assert tlb.entry_for(16) is None  # LRU singleton
        assert tlb.entry_for(0) == (0, 0, 0, ATTR)


class TestFactoryFlags:
    def test_make_mmu_config_propagates_flags(self):
        config = make_mmu_config(
            CoLTDesign.COLT_ALL,
            graceful_invalidation=True,
            coalescing_aware_replacement=True,
        )
        assert config.l1.graceful_invalidation
        assert config.l2.coalescing_aware_replacement
        assert config.superpage.graceful_invalidation

    def test_defaults_stay_paper_faithful(self):
        config = make_mmu_config(CoLTDesign.COLT_ALL)
        assert not config.l1.graceful_invalidation
        assert not config.l2.coalescing_aware_replacement
        assert not config.superpage.graceful_invalidation

"""Tests for the set-associative and fully-associative TLB structures."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import PageAttributes, Translation
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


class TestSAConfig:
    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeTLBConfig(entries=30, ways=4)  # not divisible
        with pytest.raises(ConfigurationError):
            SetAssociativeTLBConfig(entries=24, ways=4)  # 6 sets: not pow2
        with pytest.raises(ConfigurationError):
            SetAssociativeTLBConfig(entries=32, ways=4, index_shift=4)

    def test_group_size(self):
        config = SetAssociativeTLBConfig(entries=32, ways=4, index_shift=2)
        assert config.group_size == 4
        assert config.num_sets == 8


class TestSetAssociativeTLB:
    def conventional(self):
        return SetAssociativeTLB(SetAssociativeTLBConfig(32, 4, 0))

    def colt(self, shift=2):
        return SetAssociativeTLB(SetAssociativeTLBConfig(32, 4, shift))

    def test_miss_then_hit(self):
        tlb = self.conventional()
        assert tlb.lookup(100) is None
        tlb.insert_translation(Translation(100, 7))
        hit = tlb.lookup(100)
        assert hit.pfn == 7

    def test_conventional_indexing_maps_consecutive_vpns_apart(self):
        tlb = self.conventional()
        assert tlb.set_index_for(0) != tlb.set_index_for(1)

    def test_shifted_indexing_groups_consecutive_vpns(self):
        tlb = self.colt(shift=2)
        indexes = {tlb.set_index_for(vpn) for vpn in range(4)}
        assert len(indexes) == 1
        assert tlb.set_index_for(4) != tlb.set_index_for(3)

    def test_coalesced_entry_serves_whole_group(self):
        tlb = self.colt()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        for offset in range(4):
            assert tlb.lookup(8 + offset).pfn == 100 + offset
        assert tlb.occupancy == 1
        assert tlb.resident_translations() == 4

    def test_same_group_disjoint_entries_coexist(self):
        # Non-contiguous translations in one group occupy separate ways.
        tlb = self.colt()
        tlb.insert_translation(Translation(8, 100))
        tlb.insert_translation(Translation(9, 500))
        assert tlb.lookup(8).pfn == 100
        assert tlb.lookup(9).pfn == 500
        assert tlb.occupancy == 2

    def test_overlapping_insert_replaces_stale_copy(self):
        tlb = self.colt()
        tlb.insert_translation(Translation(8, 100))
        displaced = tlb.insert(CoalescedEntry.from_run(run_of(8, 200, 2), 4))
        assert displaced == [(8, 8, 100, ATTR)]
        assert tlb.lookup(8).pfn == 200
        assert tlb.occupancy == 1

    def test_lru_eviction_within_set(self):
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(4, 2, 0))
        # Two sets; vpns 0 and 2 share set 0.
        tlb.insert_translation(Translation(0, 1))
        tlb.insert_translation(Translation(2, 2))
        tlb.lookup(0)  # promote
        evicted = tlb.insert_translation(Translation(4, 3))
        assert evicted == [(2, 2, 2, ATTR)]
        assert tlb.lookup(0) is not None
        assert tlb.lookup(2) is None

    def test_wrong_group_size_rejected(self):
        # An entry must fit the TLB's aligned group: [2, 5] straddles
        # the group-4 boundary at 4.
        tlb = self.colt()
        with pytest.raises(ValueError):
            tlb.insert((2, 5, 0, ATTR))

    def test_invalidation_drops_whole_coalesced_entry(self):
        tlb = self.colt()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        assert tlb.entry_for(9) is not None
        assert tlb.invalidate(9) == []  # nothing evicted to make room
        # The entire entry is gone, including unaffected pages
        # (Section 4.1.5).
        for offset in range(4):
            assert tlb.lookup(8 + offset) is None
        assert tlb.occupancy == 0

    def test_invalidate_miss_returns_false(self):
        assert not self.colt().invalidate(123)

    def test_flush(self):
        tlb = self.colt()
        tlb.insert_translation(Translation(1, 1))
        tlb.flush()
        assert tlb.occupancy == 0

    def test_probe_matches_lookup(self):
        tlb = self.colt()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 3), 4))
        entry = tlb.probe(9)
        assert entry == (8, 10, 100, ATTR)
        assert entry[2] + (9 - entry[0]) == tlb.lookup(9).pfn

    def test_counters(self):
        # The TLB keeps no counters of its own: hits and misses are the
        # MMU's colt_mmu counters. A probe reports the covering entry
        # and makes it MRU; entry_for never touches recency.
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(2, 2, 0))
        tlb.insert_translation(Translation(0, 1))
        tlb.insert_translation(Translation(2, 2))
        assert tlb.entry_for(0) == (0, 0, 1, ATTR)  # no promotion
        tlb.insert_translation(Translation(4, 3))
        assert tlb.entry_for(0) is None
        assert tlb.probe(2) == (2, 2, 2, ATTR)
        assert tlb.probe(5) is None


class TestFullyAssociativeTLB:
    def baseline(self, entries=4):
        return FullyAssociativeTLB(FullyAssociativeTLBConfig(entries=entries))

    def coalescing(self, entries=4, max_span=1024):
        return FullyAssociativeTLB(
            FullyAssociativeTLBConfig(
                entries=entries,
                allow_coalesced=True,
                merge_on_insert=True,
                max_span=max_span,
            )
        )

    def test_superpage_hit_anywhere_in_range(self):
        tlb = self.baseline()
        tlb.insert(RangeEntry.from_superpage(
            Translation(512, 1024, is_superpage=True)
        ))
        hit = tlb.lookup(512 + 300)
        assert hit.pfn == 1024 + 300
        assert hit.is_superpage

    def test_miss(self):
        assert self.baseline().lookup(7) is None

    def test_lru_eviction(self):
        tlb = self.baseline(entries=2)
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 2)))
        tlb.insert(RangeEntry.from_run(run_of(100, 100, 2)))
        tlb.lookup(0)  # promote the first
        victim = tlb.insert(RangeEntry.from_run(run_of(200, 200, 2)))
        assert victim[0] == 100
        assert tlb.lookup(0) is not None
        assert tlb.lookup(100) is None

    def test_insert_time_merging_extends_ranges(self):
        tlb = self.coalescing()
        tlb.insert(RangeEntry.from_run(run_of(10, 100, 4)))
        tlb.insert(RangeEntry.from_run(run_of(14, 104, 4)))
        assert tlb.occupancy == 1
        assert tlb.covering_entry(12) == (10, 18, 100, ATTR, False)

    def test_merging_can_bridge_two_residents(self):
        tlb = self.coalescing()
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 4)))
        tlb.insert(RangeEntry.from_run(run_of(8, 8, 4)))
        tlb.insert(RangeEntry.from_run(run_of(4, 4, 4)))  # bridges both
        assert tlb.occupancy == 1
        entry = tlb.covering_entry(6)
        assert entry[1] - entry[0] == 12

    def test_merging_respects_max_span(self):
        tlb = self.coalescing(max_span=8)
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 6)))
        tlb.insert(RangeEntry.from_run(run_of(6, 6, 6)))
        assert tlb.occupancy == 2

    def test_no_merging_when_disabled(self):
        tlb = self.baseline()
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 4)))
        tlb.insert(RangeEntry.from_run(run_of(4, 4, 4)))
        assert tlb.occupancy == 2

    def test_invalidation_drops_covering_entries(self):
        tlb = self.coalescing()
        tlb.insert(RangeEntry.from_run(run_of(10, 100, 8)))
        assert tlb.covering_entry(13) is not None
        assert tlb.invalidate(13) == []
        assert tlb.lookup(10) is None
        assert tlb.occupancy == 0

    def test_resident_translations_counts_spans(self):
        tlb = self.coalescing()
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 5)))
        tlb.insert(RangeEntry.from_superpage(
            Translation(512, 1024, is_superpage=True)
        ))
        assert tlb.resident_translations() == 5 + 512

    def test_probe_matches_lookup(self):
        tlb = self.baseline()
        tlb.insert(RangeEntry.from_run(run_of(40, 400, 4)))
        entry = tlb.probe(42)
        assert entry == (40, 44, 400, ATTR, False)
        assert entry[2] + (42 - entry[0]) == tlb.lookup(42).pfn

    def test_flush(self):
        tlb = self.baseline()
        tlb.insert(RangeEntry.from_run(run_of(0, 0, 2)))
        tlb.flush()
        assert tlb.occupancy == 0

"""Tests for CoLT's TLB entry formats (interval tuples)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import PageAttributes, Translation
from repro.tlb.config import FullyAssociativeTLBConfig, SetAssociativeTLBConfig
from repro.tlb.entries import (
    CoalescedEntry,
    RangeEntry,
    merge_ranges,
    ppn_for,
    slice_to_group,
)
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB

ATTR = int(PageAttributes.default_user())


def run_of(start_vpn, start_pfn, length, attrs=PageAttributes.default_user()):
    return [
        Translation(start_vpn + i, start_pfn + i, attrs) for i in range(length)
    ]


def sa_tlb(group_size):
    shift = group_size.bit_length() - 1
    return SetAssociativeTLB(SetAssociativeTLBConfig(32, 4, shift))


class TestCoalescedEntry:
    def test_from_run_full_group(self):
        entry = CoalescedEntry.from_run(run_of(8, 100, 4), group_size=4)
        assert entry == (8, 11, 100, ATTR)
        assert entry.end - entry.start + 1 == 4
        tlb = sa_tlb(4)
        tlb.insert(entry)
        for offset in range(4):
            assert tlb.lookup(8 + offset).pfn == 100 + offset

    def test_partial_group_with_offset_base(self):
        # Translations for VPNs 10, 11 in group [8, 12).
        entry = CoalescedEntry.from_run(run_of(10, 200, 2), group_size=4)
        tlb = sa_tlb(4)
        tlb.insert(entry)
        assert tlb.group_base_for(entry.start) == 8
        assert tlb.lookup(8) is None
        assert tlb.lookup(9) is None
        assert tlb.lookup(10) is not None
        assert ppn_for(entry, 11) == 201

    def test_base_ppn_corresponds_to_first_valid_bit(self):
        entry = CoalescedEntry.from_run(run_of(9, 500, 3), group_size=4)
        assert entry.start - 8 == 1  # first valid slot of group [8, 12)
        assert entry.ppn == 500
        assert ppn_for(entry, 9) == 500
        assert ppn_for(entry, 11) == 502

    def test_ppn_for_uncovered_vpn_rejected(self):
        # A lookup outside the run misses instead of extrapolating.
        tlb = sa_tlb(4)
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 2), group_size=4))
        assert tlb.lookup(11) is None
        assert tlb.entry_for(11) is None

    def test_non_contiguous_pfns_rejected(self):
        bad = [Translation(8, 100), Translation(9, 200)]
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run(bad, group_size=4)

    def test_non_contiguous_vpns_rejected(self):
        bad = [Translation(8, 100), Translation(10, 102)]
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run(bad, group_size=4)

    def test_run_crossing_group_rejected(self):
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run(run_of(7, 100, 3), group_size=4)

    def test_valid_bits_must_be_contiguous(self):
        # An entry is one run; a hole in the translations cannot coalesce.
        holey = run_of(8, 100, 1) + run_of(10, 102, 2)
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run(holey, group_size=4)
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run([], group_size=4)

    def test_group_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CoalescedEntry.from_run(run_of(0, 0, 3), group_size=3)

    def test_misaligned_group_base_rejected(self):
        # The TLB refuses an entry that is not inside one aligned group.
        tlb = sa_tlb(4)
        with pytest.raises(ValueError):
            tlb.insert((2, 5, 0, ATTR))

    def test_translation_for(self):
        tlb = sa_tlb(4)
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), group_size=4))
        translation = tlb.lookup(10)
        assert translation.vpn == 10
        assert translation.pfn == 102
        assert translation.attributes == PageAttributes.default_user()

    def test_slice_for_smaller_group(self):
        entry = CoalescedEntry.from_run(run_of(8, 100, 4), group_size=4)
        sliced = slice_to_group(entry, 10, group_size=2)
        assert sliced == (10, 11, 102, ATTR)

    def test_slice_outside_valid_bits_is_none(self):
        entry = CoalescedEntry.from_run(run_of(10, 100, 2), group_size=4)
        assert slice_to_group(entry, 8, group_size=2) is None

    def test_slice_cannot_widen(self):
        entry = CoalescedEntry.from_run(run_of(8, 100, 2), group_size=2)
        assert slice_to_group(entry, 8, group_size=4) == entry

    def test_singleton_entry_is_baseline_format(self):
        entry = CoalescedEntry.from_run(run_of(13, 999, 1), group_size=1)
        assert entry.start == entry.end == 13
        tlb = sa_tlb(1)
        tlb.insert(entry)
        assert tlb.lookup(13).pfn == 999
        assert tlb.lookup(14) is None


class TestRangeEntry:
    def test_from_run(self):
        entry = RangeEntry.from_run(run_of(100, 700, 6))
        assert entry == (100, 106, 700, ATTR, False)
        tlb = FullyAssociativeTLB(FullyAssociativeTLBConfig(8))
        tlb.insert(entry)
        assert tlb.lookup(105) is not None
        assert tlb.lookup(106) is None
        assert ppn_for(entry, 103) == 703

    def test_non_contiguous_run_rejected(self):
        bad = [Translation(1, 1), Translation(2, 5)]
        with pytest.raises(ConfigurationError):
            RangeEntry.from_run(bad)

    def test_superpage_entry(self):
        sp = Translation(512 + 7, 1024 + 7, is_superpage=True)
        entry = RangeEntry.from_superpage(sp)
        assert entry.end - entry.base == 512
        assert entry.base == 512
        assert entry.is_superpage
        assert ppn_for(entry, 512 + 99) == 1024 + 99

    def test_from_superpage_requires_superpage(self):
        with pytest.raises(ConfigurationError):
            RangeEntry.from_superpage(Translation(0, 0))

    def test_superpage_span_enforced(self):
        tlb = FullyAssociativeTLB(FullyAssociativeTLBConfig(8))
        with pytest.raises(ValueError, match="512"):
            tlb.insert((0, 100, 0, ATTR, True))

    def test_merge_adjacent_ranges(self):
        a = RangeEntry.from_run(run_of(10, 100, 4))
        b = RangeEntry.from_run(run_of(14, 104, 4))
        merged = merge_ranges(a, b, max_span=1024)
        assert merged == (10, 18, 100, ATTR, False)
        assert ppn_for(merged, 17) == 107

    def test_merge_is_symmetric(self):
        a = RangeEntry.from_run(run_of(10, 100, 4))
        b = RangeEntry.from_run(run_of(14, 104, 4))
        assert merge_ranges(b, a, max_span=1024) == merge_ranges(
            a, b, max_span=1024
        )

    def test_vpn_adjacent_but_pfn_disjoint_not_mergeable(self):
        a = RangeEntry.from_run(run_of(10, 100, 4))
        b = RangeEntry.from_run(run_of(14, 500, 4))
        assert merge_ranges(a, b, max_span=1024) is None

    def test_max_span_limits_merging(self):
        a = RangeEntry.from_run(run_of(0, 0, 6))
        b = RangeEntry.from_run(run_of(6, 6, 6))
        assert merge_ranges(a, b, max_span=8) is None
        assert merge_ranges(a, b, max_span=12) is not None

    def test_attribute_mismatch_blocks_merge(self):
        a = RangeEntry.from_run(run_of(0, 0, 4))
        b = RangeEntry.from_run(
            run_of(4, 4, 4, attrs=PageAttributes.PRESENT)
        )
        assert merge_ranges(a, b, max_span=1024) is None
        # ACCESSED/DIRTY differences do not block a merge.
        c = RangeEntry.from_run(run_of(
            4, 4, 4,
            attrs=PageAttributes.default_user() | PageAttributes.DIRTY,
        ))
        assert merge_ranges(a, c, max_span=1024) is not None

    def test_superpages_never_merge(self):
        sp = RangeEntry.from_superpage(
            Translation(512, 1024, is_superpage=True)
        )
        adjacent = RangeEntry.from_run(run_of(1024, 1536, 4))
        assert merge_ranges(sp, adjacent, max_span=4096) is None

    def test_unmergeable_merge_raises(self):
        tlb = FullyAssociativeTLB(FullyAssociativeTLBConfig(
            8, allow_coalesced=True, merge_on_insert=True,
        ))
        # Non-adjacent ranges do not fuse; they stay separate entries.
        a = RangeEntry.from_run(run_of(0, 0, 2))
        b = RangeEntry.from_run(run_of(10, 10, 2))
        assert merge_ranges(a, b, max_span=1024) is None
        tlb.insert(a)
        tlb.insert(b)
        assert tlb.entries() == [a, b]
        # Superpages never fuse, and an overlapping one is rejected
        # before the TLB changes.
        sp = RangeEntry.from_superpage(
            Translation(512, 1024, is_superpage=True)
        )
        tlb.insert(sp)
        with pytest.raises(ValueError, match="overlapping superpage"):
            tlb.insert(sp)
        assert tlb.entries() == [a, b, sp]

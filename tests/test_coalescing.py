"""Tests for the coalescing logic (Figures 4-6's Coalescing Logic box)."""

import pytest

from repro.common.types import PageAttributes, Translation
from repro.core.coalescing import (
    clip_to_group,
    clip_to_window,
    contiguous_run_around,
    run_length_around,
)


def line(*pairs, attrs=PageAttributes.default_user()):
    return [Translation(v, p, attrs) for v, p in pairs]


class TestContiguousRunAround:
    def test_fully_contiguous_line(self):
        translations = line(*[(8 + i, 100 + i) for i in range(8)])
        run = contiguous_run_around(translations, 11)
        assert [t.vpn for t in run] == list(range(8, 16))

    def test_run_grows_both_directions(self):
        translations = line((8, 1), (9, 2), (10, 3), (11, 99))
        run = contiguous_run_around(translations, 9)
        assert [t.vpn for t in run] == [8, 9, 10]

    def test_pfn_break_stops_run(self):
        translations = line((8, 1), (9, 2), (10, 50), (11, 51))
        assert [t.vpn for t in contiguous_run_around(translations, 8)] == [8, 9]
        assert [t.vpn for t in contiguous_run_around(translations, 10)] == [10, 11]

    def test_vpn_hole_stops_run(self):
        translations = line((8, 1), (10, 3), (11, 4))
        run = contiguous_run_around(translations, 10)
        assert [t.vpn for t in run] == [10, 11]

    def test_attribute_break_stops_run(self):
        translations = line((8, 1), (9, 2)) + line(
            (10, 3), attrs=PageAttributes.PRESENT
        )
        run = contiguous_run_around(translations, 9)
        assert [t.vpn for t in run] == [8, 9]

    def test_isolated_demand_page(self):
        translations = line((8, 1), (12, 100))
        run = contiguous_run_around(translations, 12)
        assert [t.vpn for t in run] == [12]

    def test_missing_demanded_vpn_rejected(self):
        with pytest.raises(ValueError):
            contiguous_run_around(line((8, 1)), 9)

    def test_run_length_around(self):
        translations = line((8, 1), (9, 2), (10, 3))
        assert run_length_around(translations, 9) == 3


class TestClipToGroup:
    def test_clip_keeps_demanded_group(self):
        # Run 6..11 around 9, clipped to 9's aligned group of 4.
        assert clip_to_group(6, 11, 9, group_size=4) == (8, 11)

    def test_clip_to_singleton_group(self):
        assert clip_to_group(6, 7, 6, group_size=1) == (6, 6)

    def test_demanded_vpn_always_survives(self):
        lo, hi = clip_to_group(4, 7, 7, group_size=2)
        assert lo <= 7 <= hi

    def test_clip_losing_demanded_vpn_rejected(self):
        with pytest.raises(ValueError):
            clip_to_group(4, 5, 9, group_size=4)


class TestRunEndpoints:
    """Runs demanded at their own endpoints (first/last slot of a line)."""

    def test_demand_at_run_start(self):
        translations = line(*[(8 + i, 100 + i) for i in range(8)])
        run = contiguous_run_around(translations, 8)
        assert [t.vpn for t in run] == list(range(8, 16))

    def test_demand_at_run_end(self):
        translations = line(*[(8 + i, 100 + i) for i in range(8)])
        run = contiguous_run_around(translations, 15)
        assert [t.vpn for t in run] == list(range(8, 16))

    def test_singleton_at_line_start_and_end(self):
        # Neighbours exist but never chain (PFNs jump): endpoint pages
        # must come back as singleton runs, not crash the growth loops.
        translations = line((8, 1), (9, 50), (15, 90))
        assert [t.vpn for t in contiguous_run_around(translations, 8)] == [8]
        assert [t.vpn for t in contiguous_run_around(translations, 15)] == [15]


class TestClipToWindow:
    def test_short_run_unchanged(self):
        assert clip_to_window(8, 9, 8, 4) == (8, 9)

    def test_window_centres_on_demand(self):
        lo, hi = clip_to_window(0, 7, 4, 4)
        assert hi - lo + 1 == 4
        assert lo <= 4 <= hi

    def test_window_at_run_edge(self):
        assert clip_to_window(0, 7, 7, 2) == (6, 7)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            clip_to_window(0, 0, 0, 0)

    def test_window_equal_to_line_is_identity(self):
        # The natural coalescing window IS the 8-PTE cache line: a
        # window of exactly 8 must return a full-line run untouched.
        assert clip_to_window(8, 15, 11, 8) == (8, 15)

    def test_window_one_keeps_only_demand(self):
        for vpn in (8, 11, 15):
            assert clip_to_window(8, 15, vpn, 1) == (vpn, vpn)

    def test_window_wider_than_line_is_identity(self):
        # Wider-than-line windows model fetching two adjacent lines,
        # but the run itself still bounds the result.
        assert clip_to_window(8, 15, 12, 16) == (8, 15)


class TestColtAllThresholdRouting:
    """Figure 6 step 1: runs of exactly the threshold still go SA."""

    @staticmethod
    def build_mmu_with_run(run_length):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.cache.mmu_cache import MMUCache
        from repro.core.mmu import MMU, CoLTDesign, make_mmu_config
        from repro.osmem.page_table import PageTable
        from repro.walker.page_walker import PageWalker

        table = PageTable()
        # One contiguous run of the requested length at a line start,
        # then a PFN discontinuity so the run cannot grow further.
        for offset in range(run_length):
            table.map_page(1024 + offset, 5000 + offset)
        for offset in range(run_length, 8):
            table.map_page(1024 + offset, 9000 + 10 * offset)
        walker = PageWalker(table, CacheHierarchy(), MMUCache())
        return MMU(make_mmu_config(CoLTDesign.COLT_ALL), walker)

    def test_run_exactly_at_threshold_routes_sa(self):
        mmu = self.build_mmu_with_run(4)
        assert mmu.config.effective_all_threshold == 4
        mmu.access(1025)
        assert mmu.counters["sa_routed_fills"] == 1
        assert mmu.counters["fa_routed_fills"] == 0
        # The run landed in the SA hierarchy, not the FA TLB.
        assert mmu.superpage_tlb.occupancy == 0
        assert mmu.l2.entry_for(1024) is not None

    def test_run_one_past_threshold_routes_fa(self):
        mmu = self.build_mmu_with_run(5)
        mmu.access(1025)
        assert mmu.counters["fa_routed_fills"] == 1
        assert mmu.counters["sa_routed_fills"] == 0
        entry = mmu.superpage_tlb.covering_entry(1025)
        assert entry is not None and entry[1] - entry[0] == 5

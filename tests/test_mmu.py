"""Tests for the MMU front-end and the four TLB designs."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.common.errors import ConfigurationError
from repro.core.mmu import MMU, CoLTDesign, MMUConfig, make_mmu_config
from repro.osmem.page_table import PageTable
from repro.tlb.config import SetAssociativeTLBConfig
from repro.walker.page_walker import PageWalker


def build_table(contiguous_pages=64, base_vpn=1024, base_pfn=5000):
    """A page table with one perfectly contiguous region."""
    table = PageTable()
    for offset in range(contiguous_pages):
        table.map_page(base_vpn + offset, base_pfn + offset)
    return table


def build_mmu(design, table=None, **config_kwargs):
    table = table or build_table()
    walker = PageWalker(table, CacheHierarchy(), MMUCache())
    return MMU(make_mmu_config(design, **config_kwargs), walker)


class TestConfigFactory:
    def test_baseline_sizes(self):
        config = make_mmu_config(CoLTDesign.BASELINE)
        assert config.l1.entries == 32
        assert config.l2.entries == 128
        assert config.superpage.entries == 16
        assert config.l1.index_shift == 0

    def test_colt_sa_shifts_index(self):
        config = make_mmu_config(CoLTDesign.COLT_SA)
        assert config.l1.index_shift == 2
        assert config.l2.index_shift == 2
        assert config.superpage.entries == 16

    def test_colt_fa_halves_superpage_tlb(self):
        config = make_mmu_config(CoLTDesign.COLT_FA)
        assert config.superpage.entries == 8
        assert config.superpage.allow_coalesced
        assert config.superpage.merge_on_insert
        assert config.l1.index_shift == 0

    def test_colt_all_combines_both(self):
        config = make_mmu_config(CoLTDesign.COLT_ALL)
        assert config.l1.index_shift == 2
        assert config.superpage.entries == 8
        assert config.effective_all_threshold == 4

    def test_baseline_with_shift_rejected(self):
        from repro.tlb.config import (
            FullyAssociativeTLBConfig,
            default_l1_config,
            default_l2_config,
        )

        with pytest.raises(ConfigurationError):
            MMUConfig(
                design=CoLTDesign.BASELINE,
                l1=default_l1_config(2),
                l2=default_l2_config(2),
                superpage=FullyAssociativeTLBConfig(),
            )


class TestTranslationCorrectness:
    """Every design must translate correctly, whatever it caches."""

    @pytest.mark.parametrize(
        "design",
        [
            CoLTDesign.BASELINE,
            CoLTDesign.COLT_SA,
            CoLTDesign.COLT_FA,
            CoLTDesign.COLT_ALL,
            CoLTDesign.PERFECT,
        ],
    )
    def test_translations_match_page_table(self, design):
        table = build_table(64)
        mmu = build_mmu(design, table)
        import random

        rng = random.Random(7)
        for _ in range(500):
            vpn = 1024 + rng.randrange(64)
            result = mmu.translate(vpn)
            expected = table.lookup(vpn)
            assert result.translation.pfn == expected.pfn, (
                f"{design}: wrong translation for vpn {vpn}"
            )

    def test_superpage_translations_served_from_fa_tlb(self):
        table = PageTable()
        table.map_superpage(512, 2048)
        mmu = build_mmu(CoLTDesign.BASELINE, table)
        first = mmu.translate(512 + 7)
        assert first.hit_level == "walk"
        second = mmu.translate(512 + 450)
        assert second.hit_level == "superpage"
        assert second.translation.pfn == 2048 + 450


class TestBaselineFlow:
    def test_walk_then_l1_hit(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        assert mmu.translate(1024).hit_level == "walk"
        assert mmu.translate(1024).hit_level == "l1"

    def test_l2_hit_after_l1_eviction(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        # Fill more pages than L1 holds (32) but fewer than L2 (128).
        for vpn in range(1024, 1024 + 64):
            mmu.translate(vpn)
        result = mmu.translate(1024)
        assert result.hit_level == "l2"
        # And the refill restores it to L1.
        assert mmu.translate(1024).hit_level == "l1"

    def test_baseline_never_coalesces(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        for vpn in range(1024, 1024 + 16):
            mmu.translate(vpn)
        assert mmu.counters["coalesced_fills"] == 0
        assert mmu.counters["walks"] == 16


class TestColtSA:
    def test_one_walk_covers_the_group(self):
        mmu = build_mmu(CoLTDesign.COLT_SA)
        assert mmu.translate(1024).hit_level == "walk"
        # The other three group members were coalesced on the fill.
        for vpn in (1025, 1026, 1027):
            assert mmu.translate(vpn).hit_level == "l1"
        # Next group needs its own walk.
        assert mmu.translate(1028).hit_level == "walk"

    def test_coalescing_bounded_by_group_size(self):
        mmu = build_mmu(CoLTDesign.COLT_SA)
        mmu.translate(1024)
        assert mmu.l1.resident_translations() <= 4

    def test_shift_one_covers_pairs(self):
        mmu = build_mmu(CoLTDesign.COLT_SA, sa_shift=1)
        mmu.translate(1024)
        assert mmu.translate(1025).hit_level == "l1"
        assert mmu.translate(1026).hit_level == "walk"

    def test_miss_reduction_on_sequential_sweep(self):
        baseline = build_mmu(CoLTDesign.BASELINE, build_table(256))
        colt = build_mmu(CoLTDesign.COLT_SA, build_table(256))
        for mmu in (baseline, colt):
            for sweep in range(3):
                for vpn in range(1024, 1024 + 256):
                    mmu.translate(vpn)
        assert colt.counters["walks"] < baseline.counters["walks"] / 2


class TestColtFA:
    def test_coalesced_fill_goes_to_fa_tlb(self):
        mmu = build_mmu(CoLTDesign.COLT_FA)
        assert mmu.translate(1026).hit_level == "walk"
        # The FA TLB now covers the full 8-PTE line around 1026.
        assert mmu.translate(1031).hit_level == "superpage"
        assert mmu.superpage_tlb.occupancy == 1

    def test_l2_echo_holds_only_demanded_translation(self):
        mmu = build_mmu(CoLTDesign.COLT_FA)
        mmu.translate(1026)
        assert mmu.l2.resident_translations() == 1
        assert mmu.l2.entry_for(1026) is not None

    def test_uncoalescible_fill_uses_sa_tlbs(self):
        table = PageTable()
        table.map_page(100, 1)
        table.map_page(101, 77)  # not PFN-contiguous
        mmu = build_mmu(CoLTDesign.COLT_FA, table)
        mmu.translate(100)
        assert mmu.superpage_tlb.occupancy == 0
        assert mmu.translate(100).hit_level == "l1"

    def test_insertion_merging_spans_cache_lines(self):
        mmu = build_mmu(CoLTDesign.COLT_FA, build_table(64))
        # Miss in two adjacent cache lines: the entries merge.
        mmu.translate(1024)
        mmu.translate(1032)
        entry = mmu.superpage_tlb.covering_entry(1028)
        assert entry is not None
        assert entry[1] - entry[0] == 16

    def test_fa_fill_l2_ablation_flag(self):
        mmu = build_mmu(CoLTDesign.COLT_FA, fa_fill_l2=False)
        mmu.translate(1026)
        assert mmu.l2.resident_translations() == 0


class TestColtAll:
    def test_long_run_routes_to_fa(self):
        mmu = build_mmu(CoLTDesign.COLT_ALL)  # threshold 4
        mmu.translate(1024)  # 8-page run > threshold
        assert mmu.counters["fa_routed_fills"] == 1
        assert mmu.superpage_tlb.occupancy == 1
        # L2 got the truncated (group-sized) coalesced copy.
        assert mmu.l2.resident_translations() == 4

    def test_short_run_routes_to_sa(self):
        table = PageTable()
        # A 2-page run: below the threshold of 4.
        table.map_page(1024, 10)
        table.map_page(1025, 11)
        table.map_page(1026, 99)  # breaks the run
        mmu = build_mmu(CoLTDesign.COLT_ALL, table)
        mmu.translate(1024)
        assert mmu.counters["sa_routed_fills"] == 1
        assert mmu.superpage_tlb.occupancy == 0
        assert mmu.translate(1025).hit_level == "l1"

    def test_custom_threshold(self):
        config = make_mmu_config(CoLTDesign.COLT_ALL)
        config = config.__class__(
            **{**config.__dict__, "colt_all_threshold": 8}
        )
        table = build_table(64)
        walker = PageWalker(table, CacheHierarchy(), MMUCache())
        mmu = MMU(config, walker)
        mmu.translate(1024)  # 8-run now goes to SA
        assert mmu.counters["sa_routed_fills"] == 1


class TestPerfect:
    def test_never_misses(self):
        mmu = build_mmu(CoLTDesign.PERFECT)
        for vpn in range(1024, 1024 + 64):
            result = mmu.translate(vpn)
            assert result.hit_level == "l1"
        assert mmu.l1_misses == 0
        assert mmu.counters["walks"] == 0


class TestInvalidation:
    def test_shootdown_removes_from_all_structures(self):
        mmu = build_mmu(CoLTDesign.COLT_ALL)
        mmu.translate(1024)
        mmu.invalidate(1026)
        # The next access must walk again.
        assert mmu.translate(1026).hit_level == "walk"

    def test_invalidate_range(self):
        mmu = build_mmu(CoLTDesign.COLT_SA)
        mmu.translate(1024)
        mmu.invalidate_range(1024, 4)
        assert mmu.translate(1025).hit_level == "walk"

    def test_flush(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        mmu.translate(1024)
        mmu.flush()
        assert mmu.translate(1024).hit_level == "walk"

    def test_graceful_l2_split_keeps_l2_inclusive(self):
        # A one-set 2-way L2 holding groups 0..3 and 4..7: splitting
        # 0..3 around vpn 1 evicts the LRU group 4..7, so its L1 copy
        # must be back-invalidated like any other L2 eviction.
        config = make_mmu_config(
            CoLTDesign.COLT_SA, graceful_invalidation=True
        )
        tiny_l2 = SetAssociativeTLBConfig(
            2, 2, 2, graceful_invalidation=True, name="l2_tlb"
        )
        config = MMUConfig(**{**config.__dict__, "l2": tiny_l2})
        table = build_table(8, base_vpn=0, base_pfn=5000)
        walker = PageWalker(table, CacheHierarchy(), MMUCache())
        mmu = MMU(config, walker, sanitize=True)
        mmu.access(0)  # L2 and L1 hold 0..3
        mmu.access(4)  # L2 and L1 hold 4..7
        mmu.access(0)  # L1 hit; the L2's LRU entry stays 0..3
        mmu.invalidate(1)
        assert mmu.l2.entry_for(4) is None  # evicted by the split
        assert mmu.l1.entry_for(4) is None  # ... and back-invalidated
        assert mmu.l1.entry_for(0) is not None
        mmu.sanitizer.full_scan()


class TestAccounting:
    def test_l1_misses_count_parallel_probe(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        mmu.translate(1024)  # walk: counted as L1 and L2 miss
        assert mmu.l1_misses == 1
        assert mmu.l2_misses == 1
        mmu.translate(1024)
        assert mmu.l1_misses == 1

    def test_latency_accumulates_walk_cost(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        walk = mmu.translate(1024)
        hit = mmu.translate(1024)
        assert walk.latency > hit.latency
        assert mmu.total_walk_cycles > 0

    def test_l2_hit_cycles(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        for vpn in range(1024, 1024 + 64):
            mmu.translate(vpn)
        mmu.translate(1024)  # L2 hit
        assert mmu.total_l2_hit_cycles == mmu.counters["l2_hits"] * 7

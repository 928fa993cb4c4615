"""Tests for the hardware page-table walker."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.common.errors import TranslationError
from repro.osmem.page_table import PageTable
from repro.walker.page_walker import PageWalker


@pytest.fixture
def table():
    table = PageTable()
    for vpn in range(64, 96):
        table.map_page(vpn, vpn + 5000)
    table.map_superpage(1024, 8192)
    return table


@pytest.fixture
def walker(table):
    return PageWalker(table, CacheHierarchy(), MMUCache())


class TestWalks:
    def test_walk_returns_translation(self, walker):
        result = walker.walk(70)
        assert result.translation.vpn == 70
        assert result.translation.pfn == 5070

    def test_unmapped_walk_raises(self, walker):
        with pytest.raises(TranslationError):
            walker.walk(9999)

    def test_cache_line_carries_neighbours(self, walker):
        result = walker.walk(70)
        vpns = {t.vpn for t in result.cache_line_translations}
        # Line base = 70 & ~7 = 64: all eight PTEs are mapped.
        assert vpns == set(range(64, 72))

    def test_superpage_walk_has_no_coalescing_window(self, walker):
        result = walker.walk(1024 + 7)
        assert result.translation.is_superpage
        assert result.translation.pfn == 8192 + 7
        assert result.cache_line_translations == ()

    def test_record_carries_the_run_around_the_demand(self, table):
        # VPNs 64..71 map to 5064..5071: one run over the whole line.
        walker = PageWalker(table, CacheHierarchy(), MMUCache())
        record = walker.record(70)
        assert (record.run_lo, record.run_hi) == (0, 7)
        assert record.mask == 0xFF
        assert record.line_pfn[6] == 5070

    def test_pollution_lands_before_the_walk(self, table):
        caches = CacheHierarchy()
        path = table.walk_path_addresses(70)
        sets = [(address >> 6) % caches.llc.num_sets for address in path]
        assert len(set(sets)) == len(path)
        # The data stream evicts the leaf PTE's LLC set after access 0.
        walker = PageWalker(table, caches, pollution=[(0, sets[-1])])
        llc, dram = caches.config.llc.latency, caches.config.dram_latency
        assert walker.walk(70).latency == len(path) * (llc + dram)
        walker.cursor = 1  # access 1 walks after the eviction landed
        assert walker.walk(70).latency == len(path) * llc + dram

    def test_first_walk_fetches_all_levels(self, walker):
        result = walker.walk(70)
        assert result.memory_accesses == 4

    def test_mmu_cache_accelerates_second_walk(self, walker):
        first = walker.walk(70)
        second = walker.walk(71)
        assert second.memory_accesses == 1  # PDE cached: PTE fetch only
        assert second.latency < first.latency

    def test_walk_without_mmu_cache(self, table):
        walker = PageWalker(table, CacheHierarchy(), mmu_cache=None)
        assert walker.walk(70).memory_accesses == 4
        assert walker.walk(71).memory_accesses == 4

    def test_llc_warms_across_walks(self, table):
        walker = PageWalker(table, CacheHierarchy(), mmu_cache=None)
        cold = walker.walk(70).latency
        warm = walker.walk(70).latency
        assert warm < cold

    def test_counters_accumulate(self, walker):
        # Levels fetched add up per walk: a cold walk reads all four,
        # a PDE-cached one just the PTE.
        fetched = walker.walk(64).memory_accesses
        fetched += walker.walk(65).memory_accesses
        assert fetched == 5

    def test_retarget_flushes_mmu_cache(self, walker):
        walker.walk(70)
        other = PageTable()
        other.map_page(70, 1)
        walker.retarget(other)
        result = walker.walk(70)
        assert result.translation.pfn == 1
        assert result.memory_accesses == 4  # cold MMU cache again

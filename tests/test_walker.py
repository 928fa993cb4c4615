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
        record, _, _ = walker.resolve(70)
        assert record.pfn == 5070
        assert not record.is_superpage

    def test_unmapped_walk_raises(self, walker):
        with pytest.raises(TranslationError):
            walker.resolve(9999)

    def test_cache_line_carries_neighbours(self, walker):
        record = walker.record(70)
        # Line base = 70 & ~7 = 64: all eight PTEs are mapped.
        assert record.mask == 0xFF
        assert list(record.line_pfn) == list(range(5064, 5072))

    def test_superpage_walk_has_no_coalescing_window(self, walker):
        record = walker.record(1024 + 7)
        assert record.is_superpage
        assert record.pfn == 8192 + 7
        assert record.levels == 3
        assert (record.mask, tuple(record.line_pfn)) == (0, ())

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
        assert walker.resolve(70)[1] == len(path) * (llc + dram)
        walker.cursor = 1  # access 1 walks after the eviction landed
        assert walker.resolve(70)[1] == len(path) * llc + dram

    def test_first_walk_fetches_all_levels(self, walker):
        record, _, fetched = walker.resolve(70)
        assert fetched == record.levels == 4

    def test_mmu_cache_accelerates_second_walk(self, walker):
        _, first, _ = walker.resolve(70)
        _, second, fetched = walker.resolve(71)
        assert fetched == 1  # PDE cached: PTE fetch only
        assert second < first

    def test_walk_without_mmu_cache(self, table):
        walker = PageWalker(table, CacheHierarchy(), mmu_cache=None)
        assert walker.resolve(70)[2] == 4
        assert walker.resolve(71)[2] == 4

    def test_llc_warms_across_walks(self, table):
        walker = PageWalker(table, CacheHierarchy(), mmu_cache=None)
        _, cold, _ = walker.resolve(70)
        _, warm, _ = walker.resolve(70)
        assert warm < cold

    def test_counters_accumulate(self, walker):
        # Levels fetched add up per walk: a cold walk reads all four,
        # a PDE-cached one just the PTE.
        fetched = walker.resolve(64)[2]
        fetched += walker.resolve(65)[2]
        assert fetched == 5

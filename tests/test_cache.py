"""Tests for the cache model, hierarchy, and MMU page-walk cache."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.mmu_cache import MMUCache, MMUCacheConfig
from repro.common.errors import ConfigurationError


def tiny_cache(sets=4, ways=2, latency=1):
    return Cache(CacheConfig("test", sets * ways * 64, ways, latency))


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("c", 32 * 1024, 8, 4)
        assert config.num_sets == 64

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("c", 1000, 3, 1)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("c", 0, 1, 1)


class TestCache:
    def test_miss_then_hit_after_fill(self):
        cache = tiny_cache()
        assert not cache.access(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000)

    def test_same_line_addresses_share_entry(self):
        cache = tiny_cache()
        cache.fill(0x1000)
        assert cache.access(0x1004)
        assert cache.access(0x103F)

    def test_lru_eviction_within_set(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0 * 64)
        cache.fill(1 * 64)
        cache.access(0 * 64)  # promote line 0
        victim = cache.fill(2 * 64)
        assert victim == 1  # line 1 was LRU

    def test_set_mapping_is_modulo(self):
        cache = tiny_cache(sets=4, ways=1)
        cache.fill(0)
        cache.fill(4 * 64)  # same set (line 4 % 4 == 0)
        assert not cache.access(0)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.fill(0x2000)
        assert cache.invalidate(0x2000)
        assert not cache.access(0x2000)
        assert not cache.invalidate(0x2000)

    def test_counters(self):
        # Caches keep no counters; hit/miss is the return value, and a
        # miss leaves the cache untouched until the caller fills.
        cache = tiny_cache()
        assert cache.access(0) is False
        assert cache.occupancy() == 0
        cache.fill(0)
        assert cache.access(0) is True
        assert cache.lookup(0)

    def test_occupancy(self):
        cache = tiny_cache()
        assert cache.occupancy() == 0
        cache.fill(0)
        cache.fill(64)
        assert cache.occupancy() == 2

    def test_evict_lru_of_set(self):
        cache = tiny_cache(sets=2, ways=1)
        cache.fill(0)
        evicted = cache.evict_lru_of_set(0)
        assert evicted == 0
        assert cache.evict_lru_of_set(0) is None


class TestHierarchy:
    def test_pte_access_goes_straight_to_llc(self):
        hierarchy = CacheHierarchy()
        latency = hierarchy.access_pte(0x5000)
        # First access: LLC miss -> LLC latency + DRAM.
        config = hierarchy.config
        assert latency == config.llc.latency + config.dram_latency
        assert hierarchy.llc.lookup(0x5000)
        assert hierarchy.l1.occupancy() == 0
        assert hierarchy.l2.occupancy() == 0

    def test_pte_refetch_hits_llc(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_pte(0x5000)
        latency = hierarchy.access_pte(0x5000)
        assert latency == hierarchy.config.llc.latency

    def test_data_access_fills_all_levels(self):
        hierarchy = CacheHierarchy()
        cold = hierarchy.access_data(0x9000)
        warm = hierarchy.access_data(0x9000)
        assert cold > warm
        assert warm == hierarchy.config.l1.latency

    def test_data_l2_hit_path(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_data(0x9000)
        # Evict from L1 only by filling its set; easier: invalidate L1.
        hierarchy.l1.invalidate(0x9000)
        latency = hierarchy.access_data(0x9000)
        assert latency == (
            hierarchy.config.l1.latency + hierarchy.config.l2.latency
        )

    def test_dram_counter(self):
        # Both streams pay DRAM on a cold miss, and only then.
        hierarchy = CacheHierarchy()
        config = hierarchy.config
        dram = config.dram_latency
        assert hierarchy.access_pte(0) == config.llc.latency + dram
        assert hierarchy.access_data(1 << 20) >= dram
        assert hierarchy.access_pte(0) < dram
        assert hierarchy.access_data(1 << 20) < dram


class TestMMUCache:
    def test_miss_on_cold_lookup(self):
        cache = MMUCache()
        assert cache.deepest_cached_level(12345) is None

    def test_fill_walk_then_pde_hit(self):
        cache = MMUCache()
        vpn = 5 << 9  # some vpn
        cache.fill_walk(vpn, levels_visited=4)
        assert cache.deepest_cached_level(vpn) == 2

    def test_superpage_walk_caches_upper_levels_only(self):
        cache = MMUCache()
        vpn = 512
        cache.fill_walk(vpn, levels_visited=3)
        # PML4E and PDPTE cached, PDE not (it was the leaf).
        assert cache.deepest_cached_level(vpn) == 1

    def test_neighbouring_vpn_shares_pde_entry(self):
        cache = MMUCache()
        cache.fill_walk(1000, levels_visited=4)
        assert cache.deepest_cached_level(1001) == 2
        # A vpn in a different 2MB region misses the PDE but hits PDPTE.
        assert cache.deepest_cached_level(1000 + 512) == 1

    def test_lru_eviction_at_capacity(self):
        cache = MMUCache(MMUCacheConfig(entries=2))
        cache.fill(2, 0)
        cache.fill(2, 512)
        cache.fill(2, 1024)  # evicts the (2, 0) entry
        assert cache.deepest_cached_level(0) is None
        assert cache.deepest_cached_level(1024) == 2

    def test_invalidate_vpn_drops_covering_entries(self):
        cache = MMUCache()
        cache.fill_walk(1000, levels_visited=4)
        cache.invalidate_vpn(1000)
        assert cache.deepest_cached_level(1000) is None

    def test_invalidate_all(self):
        cache = MMUCache()
        cache.fill_walk(1000, levels_visited=4)
        cache.invalidate_all()
        assert len(cache) == 0

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            MMUCache().fill(3, 0)

    def test_zero_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            MMUCacheConfig(entries=0)

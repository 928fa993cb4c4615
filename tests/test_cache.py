"""Tests for the cache model, hierarchy, and MMU page-walk cache."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import CacheHierarchy
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

    def test_pte_refetch_hits_llc(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_pte(0x5000)
        latency = hierarchy.access_pte(0x5000)
        assert latency == hierarchy.config.llc.latency

    def test_dram_counter(self):
        # A PTE fetch pays DRAM on a cold miss, and only then.
        hierarchy = CacheHierarchy()
        config = hierarchy.config
        dram = config.dram_latency
        assert hierarchy.access_pte(0) == config.llc.latency + dram
        assert hierarchy.access_pte(0) < dram


class TestMMUCache:
    def test_miss_on_cold_lookup(self):
        cache = MMUCache()
        # A cold walk resumes nowhere: it fetches every level.
        assert cache.walk(12345, levels=4) == 0

    def test_fill_walk_then_pde_hit(self):
        cache = MMUCache()
        vpn = 5 << 9  # some vpn
        cache.walk(vpn, levels=4)
        # The PDE is cached: only the PTE (level 3) is fetched.
        assert cache.walk(vpn, levels=4) == 3

    def test_superpage_walk_caches_upper_levels_only(self):
        cache = MMUCache()
        vpn = 512
        cache.walk(vpn, levels=3)
        # PML4E and PDPTE cached, PDE not (it was the leaf).
        assert cache.entries() == [(0, 0), (1, 0)]
        assert cache.walk(vpn, levels=4) == 2

    def test_neighbouring_vpn_shares_pde_entry(self):
        cache = MMUCache()
        cache.walk(1000, levels=4)
        assert cache.walk(1001, levels=4) == 3
        # A vpn in a different 2MB region misses the PDE but hits PDPTE.
        assert cache.walk(1000 + 512, levels=4) == 2

    def test_lru_eviction_at_capacity(self):
        cache = MMUCache(MMUCacheConfig(entries=3))
        cache.walk(0, levels=4)
        cache.walk(512, levels=4)  # its PDE evicts the (2, 0) entry
        assert cache.entries() == [(0, 0), (1, 0), (2, 1)]
        assert cache.walk(0, levels=4) == 2

    def test_invalidate_vpn_drops_covering_entries(self):
        cache = MMUCache()
        cache.walk(1000, levels=4)
        cache.invalidate_vpn(1000)
        assert len(cache) == 0
        assert cache.walk(1000, levels=4) == 0

    def test_invalidate_all(self):
        cache = MMUCache()
        cache.walk(1000, levels=4)
        cache.invalidate_all()
        assert len(cache) == 0

    def test_invalid_level_rejected(self):
        # An x86-64 walk ends at a 1 GB, 2 MB or 4 KB leaf: 2-4 levels.
        with pytest.raises(ConfigurationError):
            MMUCache().walk(0, levels=5)

    def test_zero_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            MMUCacheConfig(entries=0)

"""Cache models: set-associative caches, the i7-like hierarchy, MMU caches."""

from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    pollution_schedule,
)
from repro.cache.mmu_cache import CACHEABLE_LEVELS, MMUCache, MMUCacheConfig

__all__ = [
    "CACHEABLE_LEVELS",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "MMUCache",
    "MMUCacheConfig",
    "pollution_schedule",
]

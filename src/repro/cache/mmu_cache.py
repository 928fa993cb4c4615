"""Unified MMU page-walk cache (paper Section 5.2.1).

The paper models "a more realistic TLB hierarchy with 22-entry MMU
caches, accessed on TLB misses to accelerate page table walks" (following
Barr, Cox and Rixner's translation-caching work). We implement a unified
page-walk cache: one fully-associative structure holding upper-level
page-table entries (PML4E, PDPTE, PDE), tagged by (level, VPN prefix),
kept in one dict in recency order (first key least recently used).

On a walk, the deepest cached level wins: a PDE hit means only the final
PTE fetch touches the memory hierarchy; a complete miss costs all four
levels. :meth:`MMUCache.walk` is the whole of a walk's business with
the cache, its lookup and its fills, in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.constants import (
    BITS_PER_LEVEL,
    DEFAULT_MMU_CACHE_ENTRIES,
    DEFAULT_MMU_CACHE_LATENCY,
)
from repro.common.errors import ConfigurationError

#: Upper levels a unified MMU cache may hold, as (level index, VPN right
#: shift): level 0 = PML4E (prefix vpn >> 27), 1 = PDPTE (vpn >> 18),
#: 2 = PDE (vpn >> 9). Level 3 (the PTE itself) lives in the TLBs.
CACHEABLE_LEVELS: Tuple[Tuple[int, int], ...] = (
    (0, 3 * BITS_PER_LEVEL),
    (1, 2 * BITS_PER_LEVEL),
    (2, 1 * BITS_PER_LEVEL),
)


@dataclass(frozen=True)
class MMUCacheConfig:
    entries: int = DEFAULT_MMU_CACHE_ENTRIES
    latency: int = DEFAULT_MMU_CACHE_LATENCY

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ConfigurationError("MMU cache needs >= 1 entry")


class MMUCache:
    """Unified, fully-associative page-walk cache with LRU replacement.

    Lines are keyed by one int per (level, VPN prefix),
    ``prefix << 2 | level``, in recency order (first key least recently
    used).
    """

    def __init__(self, config: MMUCacheConfig = MMUCacheConfig()) -> None:
        self.config = config
        self._lines: Dict[int, None] = {}

    def walk(self, vpn: int, levels: int) -> int:
        """What one walk of ``vpn`` does here; the first level it fetches.

        The deepest cached upper level is looked up and becomes most
        recently used (a level-N hit points at the level-N+1 node, so
        the walk resumes there; a PDE hit leaves only the PTE fetch, a
        complete miss all ``levels`` fetches). Then every non-leaf
        entry the walk read -- ``levels - 1`` of them, shallowest
        first -- is cached: a resident one becomes most recently used,
        a new one evicts the least recently used line of a full cache.
        The lookup's move comes first, so a fill that evicts picks the
        same victim as a separate lookup and fill would.
        """
        lines = self._lines
        # CACHEABLE_LEVELS' shifts, as literals.
        pml4e = vpn >> 27 << 2
        pdpte = vpn >> 18 << 2 | 1
        pde = vpn >> 9 << 2 | 2
        if levels == 4 and pde in lines and pdpte in lines and pml4e in lines:
            # The common walk: nothing to evict, so the fills only move
            # the three entries to the most recent end, in this order,
            # which also covers the lookup's move of the PDE.
            del lines[pml4e]
            lines[pml4e] = None
            del lines[pdpte]
            lines[pdpte] = None
            del lines[pde]
            lines[pde] = None
            return 3
        if not 2 <= levels <= 4:
            # A 1 GB, 2 MB or 4 KB leaf.
            raise ConfigurationError(
                f"a walk visits 2 to 4 levels, not {levels}"
            )
        keys = (pml4e, pdpte, pde)
        start = 0
        for level in (2, 1, 0):
            key = keys[level]
            if key in lines:
                del lines[key]
                lines[key] = None
                start = level + 1
                break
        capacity = self.config.entries
        for key in keys[:levels - 1]:
            if key in lines:
                del lines[key]
            elif len(lines) >= capacity:
                del lines[next(iter(lines))]
            lines[key] = None
        return min(start, levels - 1)

    def invalidate_vpn(self, vpn: int) -> None:
        """Drop the paging-structure entries covering one virtual page.

        Mirrors INVLPG semantics: a single-page shootdown invalidates the
        walk-cache entries for that address, not the whole structure.
        """
        lines = self._lines
        for level, shift in CACHEABLE_LEVELS:
            lines.pop(vpn >> shift << 2 | level, None)

    def invalidate_all(self) -> None:
        """Full flush (context switch / CR3 write)."""
        self._lines.clear()

    def entries(self) -> List[Tuple[int, int]]:
        """The cached ``(level, VPN prefix)`` pairs, least recent first."""
        return [(key & 3, key >> 2) for key in self._lines]

    def __len__(self) -> int:
        return len(self._lines)

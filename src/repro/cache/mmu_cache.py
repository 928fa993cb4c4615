"""Unified MMU page-walk cache (paper Section 5.2.1).

The paper models "a more realistic TLB hierarchy with 22-entry MMU
caches, accessed on TLB misses to accelerate page table walks" (following
Barr, Cox and Rixner's translation-caching work). We implement a unified
page-walk cache: one fully-associative structure holding upper-level
page-table entries (PML4E, PDPTE, PDE), tagged by (level, VPN prefix),
kept in one dict in recency order (first key least recently used).

On a walk, the deepest cached level wins: a PDE hit means only the final
PTE fetch touches the memory hierarchy; a complete miss costs all four
levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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

_LEVEL_SHIFT = dict(CACHEABLE_LEVELS)


@dataclass(frozen=True)
class MMUCacheConfig:
    entries: int = DEFAULT_MMU_CACHE_ENTRIES
    latency: int = DEFAULT_MMU_CACHE_LATENCY

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ConfigurationError("MMU cache needs >= 1 entry")


class MMUCache:
    """Unified, fully-associative page-walk cache with LRU replacement."""

    def __init__(self, config: MMUCacheConfig = MMUCacheConfig()) -> None:
        self.config = config
        self._lines: Dict[Tuple[int, int], None] = {}

    def deepest_cached_level(self, vpn: int) -> Optional[int]:
        """Deepest upper level cached for ``vpn`` (2 is best), or None.

        Deeper hits skip more of the walk: a level-2 (PDE) hit leaves only
        the PTE fetch; a level-0 (PML4E) hit leaves three fetches. The
        hitting entry becomes most recently used.
        """
        lines = self._lines
        best = None
        for level, shift in CACHEABLE_LEVELS:
            key = (level, vpn >> shift)
            if key in lines:
                best = key
        if best is None:
            return None
        del lines[best]
        lines[best] = None
        return best[0]

    def fill(self, level: int, vpn: int) -> None:
        """Cache the upper-level entry covering ``vpn`` at ``level``."""
        shift = _LEVEL_SHIFT.get(level)
        if shift is None:
            raise ConfigurationError(f"level {level} is not MMU-cacheable")
        self._install((level, vpn >> shift))

    def _install(self, key: Tuple[int, int]) -> None:
        lines = self._lines
        if key in lines:
            del lines[key]
        elif len(lines) >= self.config.entries:
            del lines[next(iter(lines))]
        lines[key] = None

    def fill_walk(self, vpn: int, levels_visited: int) -> None:
        """Cache every upper-level entry a walk of ``vpn`` read.

        Args:
            levels_visited: how many table levels the walk touched (4 for
                a full walk to a PTE, 3 for a walk ending at a 2MB PDE).
                The leaf entry itself belongs in the TLBs, so only the
                ``levels_visited - 1`` non-leaf entries are cached here.
        """
        for level, shift in CACHEABLE_LEVELS:
            if level < levels_visited - 1:
                self._install((level, vpn >> shift))

    def invalidate_vpn(self, vpn: int) -> None:
        """Drop the paging-structure entries covering one virtual page.

        Mirrors INVLPG semantics: a single-page shootdown invalidates the
        walk-cache entries for that address, not the whole structure.
        """
        lines = self._lines
        for level, shift in CACHEABLE_LEVELS:
            lines.pop((level, vpn >> shift), None)

    def invalidate_all(self) -> None:
        """Full flush (context switch / CR3 write)."""
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)

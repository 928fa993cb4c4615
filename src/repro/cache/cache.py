"""Set-associative cache model.

A deliberately simple hit/miss + latency model: the TLB study needs the
*latency* of page-table-entry fetches (which determines the TLB miss
penalty and hence the performance interpolation of Section 5.2.1), not a
full coherence or bandwidth model. Caches are physically indexed and
tagged, with true LRU per set: each set is a dict of resident line
addresses in recency order (first key least recently used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.constants import CACHE_LINE_SHIFT, CACHE_LINE_SIZE
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.latency < 0:
            raise ConfigurationError(f"invalid cache config {self}")
        if self.size_bytes % (self.ways * self.line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


class Cache:
    """One set-associative cache level with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(self._num_sets)
        ]

    def _set_of(self, line: int) -> Dict[int, None]:
        return self._sets[line % self._num_sets]

    def lookup(self, paddr: int) -> bool:
        """Probe without updating recency or filling. For diagnostics."""
        line = paddr >> CACHE_LINE_SHIFT
        return line in self._set_of(line)

    def access(self, paddr: int) -> bool:
        """Access a byte address; returns True on hit.

        A miss does *not* fill -- callers decide fill policy (the
        hierarchy fills all levels on its way back down).
        """
        line = paddr >> CACHE_LINE_SHIFT
        lines = self._sets[line % self._num_sets]
        if line in lines:
            del lines[line]
            lines[line] = None
            return True
        return False

    def fill(self, paddr: int) -> Optional[int]:
        """Install the line for ``paddr``; returns the evicted line or None."""
        line = paddr >> CACHE_LINE_SHIFT
        lines = self._sets[line % self._num_sets]
        victim = None
        if line in lines:
            del lines[line]
        elif len(lines) >= self._ways:
            victim = next(iter(lines))
            del lines[victim]
        lines[line] = None
        return victim

    def invalidate(self, paddr: int) -> bool:
        """Drop the line containing ``paddr`` if present."""
        line = paddr >> CACHE_LINE_SHIFT
        lines = self._set_of(line)
        if line in lines:
            del lines[line]
            return True
        return False

    def evict_lru_of_set(self, set_index: int) -> Optional[int]:
        """Evict the LRU line of one set (cache-pollution modelling)."""
        lines = self._sets[set_index % self._num_sets]
        if not lines:
            return None
        victim = next(iter(lines))
        del lines[victim]
        return victim

    @property
    def num_sets(self) -> int:
        return self._num_sets

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(lines) for lines in self._sets)

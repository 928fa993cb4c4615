"""Three-level cache hierarchy sized like the paper's Intel Core i7.

The hierarchy serves two access streams:

* page-table entries: per the paper (Section 4.1.1, following Barr et
  al.), "the LLC is the highest cache level for page table entries" --
  PTE fetches probe the LLC directly and fall through to DRAM;
* ordinary data: probes L1 -> L2 -> LLC -> DRAM. The TLB study does not
  need per-datum results, so the simulators model the data stream's
  pressure on the LLC with :func:`pollution_schedule` instead: data
  lines compete with PTE lines for LLC capacity, which keeps PTE-fetch
  latency realistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.constants import (
    DEFAULT_DRAM_LATENCY,
    DEFAULT_L1_CACHE_BYTES,
    DEFAULT_L1_CACHE_WAYS,
    DEFAULT_L1_LATENCY,
    DEFAULT_L2_CACHE_BYTES,
    DEFAULT_L2_CACHE_WAYS,
    DEFAULT_L2_LATENCY,
    DEFAULT_LLC_BYTES,
    DEFAULT_LLC_LATENCY,
    DEFAULT_LLC_WAYS,
)
from repro.cache.cache import Cache, CacheConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes and latencies of the three levels plus DRAM."""

    l1: CacheConfig = CacheConfig(
        "l1d", DEFAULT_L1_CACHE_BYTES, DEFAULT_L1_CACHE_WAYS, DEFAULT_L1_LATENCY
    )
    l2: CacheConfig = CacheConfig(
        "l2", DEFAULT_L2_CACHE_BYTES, DEFAULT_L2_CACHE_WAYS, DEFAULT_L2_LATENCY
    )
    llc: CacheConfig = CacheConfig(
        "llc", DEFAULT_LLC_BYTES, DEFAULT_LLC_WAYS, DEFAULT_LLC_LATENCY
    )
    dram_latency: int = DEFAULT_DRAM_LATENCY


class CacheHierarchy:
    """L1/L2/LLC + DRAM with simple inclusive fills."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.llc = Cache(config.llc)

    # ------------------------------------------------------------------
    # Page-table entry stream (LLC-only, per the paper).
    # ------------------------------------------------------------------

    def access_pte(self, paddr: int) -> int:
        """Fetch a PTE line; returns the access latency in cycles."""
        if self.llc.access(paddr):
            return self.config.llc.latency
        self.llc.fill(paddr)
        return self.config.llc.latency + self.config.dram_latency

    # ------------------------------------------------------------------
    # Data stream.
    # ------------------------------------------------------------------

    def access_data(self, paddr: int) -> int:
        """Load/store a data address; returns the access latency."""
        latency = self.config.l1.latency
        if self.l1.access(paddr):
            return latency
        latency += self.config.l2.latency
        if self.l2.access(paddr):
            self.l1.fill(paddr)
            return latency
        latency += self.config.llc.latency
        if self.llc.access(paddr):
            self.l2.fill(paddr)
            self.l1.fill(paddr)
            return latency
        latency += self.config.dram_latency
        self.llc.fill(paddr)
        self.l2.fill(paddr)
        self.l1.fill(paddr)
        return latency

    def flush(self) -> None:
        """Reset to cold caches (used between experiment phases)."""
        self.__init__(self.config)


#: Memoised schedules, keyed by :func:`pollution_schedule`'s arguments.
_POLLUTION_MEMO: Dict[Tuple[int, float, int], List[Tuple[int, int]]] = {}


def pollution_schedule(
    accesses: int, per_access: float, num_sets: int
) -> List[Tuple[int, int]]:
    """The data stream's LLC evictions as ``(access_index, set_index)``.

    A deterministic model of the benchmark's data traffic: each access
    accrues ``per_access`` expected evictions, and whole lines are
    evicted from sets visited on a fixed stride, starting from set 0 at
    every run. The eviction for access ``i`` happens *after* access
    ``i``; page walks, the only reader of LLC state, apply the
    evictions of every earlier access just before they fetch. The
    schedule is a pure function of its inputs, so it is memoised.
    """
    if per_access <= 0.0:
        return []
    key = (accesses, per_access, num_sets)
    cached = _POLLUTION_MEMO.get(key)
    if cached is not None:
        return cached
    events: List[Tuple[int, int]] = []
    budget = 0.0
    cursor = 0
    for index in range(accesses):
        budget += per_access
        if budget >= 1.0:
            lines = int(budget)
            budget -= lines
            for _ in range(lines):
                cursor = (cursor + 101) % num_sets
                events.append((index, cursor))
    _POLLUTION_MEMO[key] = events
    return events

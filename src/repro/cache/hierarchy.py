"""The memory hierarchy as page-table-entry fetches see it.

Per the paper (Section 4.1.1, following Barr et al.), "the LLC is the
highest cache level for page table entries": a PTE fetch probes the LLC
directly and falls through to DRAM. The TLB study does not need
per-datum results, so the simulators model the data stream only as its
pressure on the LLC, with :func:`pollution_schedule`: data lines
compete with PTE lines for LLC capacity, which keeps PTE-fetch latency
realistic. (The L1d/L2 geometry constants in
``repro.common.constants`` describe the modelled i7; no data access is
simulated through them.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.constants import (
    DEFAULT_DRAM_LATENCY,
    DEFAULT_LLC_BYTES,
    DEFAULT_LLC_LATENCY,
    DEFAULT_LLC_WAYS,
)
from repro.cache.cache import Cache, CacheConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """The LLC's geometry and latency, and DRAM's latency."""

    llc: CacheConfig = CacheConfig(
        "llc", DEFAULT_LLC_BYTES, DEFAULT_LLC_WAYS, DEFAULT_LLC_LATENCY
    )
    dram_latency: int = DEFAULT_DRAM_LATENCY


class CacheHierarchy:
    """The LLC + DRAM that page walks fetch PTEs through."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self.llc = Cache(config.llc)
        self._hit_latency = config.llc.latency
        self._miss_latency = config.llc.latency + config.dram_latency

    def access_pte(self, paddr: int) -> int:
        """Fetch a PTE line; returns the access latency in cycles."""
        llc = self.llc
        if llc.access(paddr):
            return self._hit_latency
        llc.fill(paddr)
        return self._miss_latency


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

"""Hardware page-table walker.

On a TLB miss the walker resolves the translation by reading page-table
entries through the memory hierarchy, accelerated by the MMU page-walk
cache (paper Section 5.2.1). Its result also carries the *coalescing
window*: the eight PTEs sharing the final fetch's 64-byte cache line,
which are the only translations CoLT's coalescing logic may examine
without issuing extra memory references (Section 4.1.4).

A walk's outcome is a :class:`WalkRecord`. :class:`PageWalker` builds
it from a live page table; ``repro.sim.replay.ReplayWalker`` reads it
from a captured log instead and shares everything else: the latency
accounting (MMU-cache skip, then one LLC fetch per remaining level) and
the data stream's LLC pollution, which is applied lazily before each
walk because walks are the LLC's only reader.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from repro.common.constants import PTES_PER_CACHE_LINE
from repro.common.errors import TranslationError
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.core.coalescing import contiguous_run_around
from repro.osmem.page_table import PageTable


class WalkRecord(NamedTuple):
    """One walk's outcome, as the MMU's fill policies read it.

    Attributes:
        pfn / attr / is_superpage: the demanded VPN's translation.
        levels: page-table levels the walk visits (3 for a superpage).
        path: the PTE address read at each level.
        run_lo / run_hi: first and last slot of the maximal contiguous
            run of the 8-PTE line around the demanded VPN's slot
            (``vpn & 7``); unused for superpages.
        mask: bit ``i`` set when slot ``i`` of the line is mapped.
        line_pfn / line_attr: PFN and attribute bits per slot (0 where
            unmapped).
    """

    pfn: int
    attr: int
    is_superpage: bool
    levels: int
    path: Sequence[int]
    run_lo: int
    run_hi: int
    mask: int
    line_pfn: Sequence[int]
    line_attr: Sequence[int]


class PageWalker:
    """Walks one process's page table through the cache hierarchy.

    Args:
        pollution: the data stream's LLC evictions as
            ``(access_index, set_index)`` pairs (see
            :func:`repro.cache.hierarchy.pollution_schedule`); the ones
            before access :attr:`cursor` land before each walk.
    """

    def __init__(
        self,
        page_table: Optional[PageTable],
        caches: CacheHierarchy,
        mmu_cache: Optional[MMUCache] = None,
        pollution: Sequence[Tuple[int, int]] = (),
    ) -> None:
        self._page_table = page_table
        self._caches = caches
        self._mmu_cache = mmu_cache
        self._pollution = pollution
        self._polluted = 0
        #: Index of the access being served; the driver loop advances it.
        self.cursor = 0

    @property
    def page_table(self) -> Optional[PageTable]:
        return self._page_table

    @property
    def mmu_cache(self) -> Optional[MMUCache]:
        return self._mmu_cache

    def record(self, vpn: int) -> WalkRecord:
        """The walk outcome of ``vpn`` in the live page table.

        Raises:
            TranslationError: the page is not mapped. The simulator
                always faults pages in before issuing accesses, so a
                failed walk indicates a bug, not demand paging.
        """
        page_table = self._page_table
        translation = page_table.lookup(vpn)
        if translation is None:
            raise TranslationError(f"walk of unmapped vpn {vpn}")
        path = page_table.walk_path_addresses(vpn)
        attr = int(translation.attributes)
        if translation.is_superpage:
            return WalkRecord(
                translation.pfn, attr, True, len(path), path, 0, 0, 0, (), ()
            )
        line = page_table.pte_cache_line(vpn)
        run = contiguous_run_around([t for t in line if t is not None], vpn)
        base = vpn - vpn % PTES_PER_CACHE_LINE
        return WalkRecord(
            translation.pfn, attr, False, len(path), path,
            run[0].vpn - base, run[-1].vpn - base,
            sum(1 << slot for slot, t in enumerate(line) if t is not None),
            [0 if t is None else t.pfn for t in line],
            [0 if t is None else int(t.attributes) for t in line],
        )

    def resolve(self, vpn: int) -> Tuple[WalkRecord, int, int]:
        """Walk ``vpn``: its record, the walk latency and the levels fetched.

        Pending pollution evictions land first. A level-N hit in the MMU
        cache points at the level-N+1 node, so the walk resumes at the
        next fetch; every remaining level is one LLC access.
        """
        pollution = self._pollution
        done = self._polluted
        if done < len(pollution):
            cursor = self.cursor
            evict = self._caches.llc.evict_lru_of_set
            while done < len(pollution) and pollution[done][0] < cursor:
                evict(pollution[done][1])
                done += 1
            self._polluted = done
        record = self.record(vpn)
        levels = record.levels
        start = 0
        latency = 0
        mmu_cache = self._mmu_cache
        if mmu_cache is not None:
            latency = mmu_cache.config.latency
            deepest = mmu_cache.deepest_cached_level(vpn)
            if deepest is not None:
                start = min(deepest + 1, levels - 1)
        access_pte = self._caches.access_pte
        path = record.path
        for level in range(start, levels):
            latency += access_pte(path[level])
        if mmu_cache is not None:
            mmu_cache.fill_walk(vpn, levels)
        return record, latency, levels - start

"""Set-associative TLB with CoLT-SA's shifted set indexing.

Set selection (Section 4.1.2): a conventional TLB with ``S`` sets indexes
with ``VPN[log2(S)-1 : 0]``, mapping consecutive VPNs to consecutive sets
and precluding coalescing. CoLT-SA left-shifts the index field by ``k``
bits -- ``VPN[k + log2(S) - 1 : k]`` -- so each aligned group of ``2**k``
consecutive VPNs shares a set and may share one coalesced entry. The low
``k`` bits select among the entry's valid bits on lookup (Figure 4).

Entries are ``(start, end, ppn, attr)`` interval tuples (see
:mod:`repro.tlb.entries`): the inclusive run of an entry's valid bits.
A group is *allowed* to occupy several ways at once: when the group's
translations are not physically contiguous they cannot share one
entry's base-PPN arithmetic, so they live in separate ways with
disjoint runs -- exactly what the hardware's tag-match + valid-bit
select lookup supports. Entries of one set never overlap (same group:
disjoint runs; different groups: disjoint VPN windows), so the first
covering entry is the only one.

Per set the TLB keeps an insertion-ordered id -> entry dict plus an LRU
list of ids (index 0 least recently used). The same class implements
the baseline TLB (``index_shift = 0``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.types import PageAttributes, Translation
from repro.tlb.config import SetAssociativeTLBConfig
from repro.tlb.entries import ppn_for


class SetAssociativeTLB:
    """L1/L2 TLB storing (possibly coalesced) entries with LRU per set."""

    def __init__(self, config: SetAssociativeTLBConfig) -> None:
        self.config = config
        #: Optional sanitizer hook (see ``repro.analysis.sanitizers``);
        #: when attached, every insert is incrementally validated.
        self.sanitizer = None
        self._shift = config.index_shift
        self._set_mask = config.num_sets - 1
        self._ways = config.ways
        self._sets: List[Dict[int, tuple]] = [
            {} for _ in range(config.num_sets)
        ]
        self._orders: List[List[int]] = [[] for _ in range(config.num_sets)]
        self._next_id = 0

    # ------------------------------------------------------------------
    # Indexing.
    # ------------------------------------------------------------------

    def set_index_for(self, vpn: int) -> int:
        """Set selection with the shifted index field."""
        return (vpn >> self._shift) & self._set_mask

    def group_base_for(self, vpn: int) -> int:
        return vpn - (vpn % self.config.group_size)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def probe(self, vpn: int) -> Optional[tuple]:
        """The entry covering ``vpn`` (made most recently used), or None."""
        index = (vpn >> self._shift) & self._set_mask
        for entry_id, entry in self._sets[index].items():
            if entry[0] <= vpn <= entry[1]:
                order = self._orders[index]
                if order[-1] != entry_id:
                    order.remove(entry_id)
                    order.append(entry_id)
                return entry
        return None

    def entry_for(self, vpn: int) -> Optional[tuple]:
        """The entry covering ``vpn``, without touching recency."""
        for entry in self._sets[(vpn >> self._shift) & self._set_mask].values():
            if entry[0] <= vpn <= entry[1]:
                return entry
        return None

    def lookup(self, vpn: int) -> Optional[Translation]:
        """:meth:`probe`, returning the translation on a hit."""
        entry = self.probe(vpn)
        if entry is None:
            return None
        return Translation(vpn, ppn_for(entry, vpn), PageAttributes(entry[3]))

    # ------------------------------------------------------------------
    # Fill.
    # ------------------------------------------------------------------

    def insert(self, entry: tuple) -> List[tuple]:
        """Install an entry; returns the entries it displaced.

        Resident entries overlapping the incoming run are replaced (the
        walk's data is fresher and includes the demanded page); disjoint
        entries of the same group coexist in other ways. The victim
        policy picks a way when the set is full.
        """
        start, end = entry[0], entry[1]
        if start >> self._shift != end >> self._shift:
            raise ValueError(
                f"entry [{start}, {end}] crosses an aligned group of "
                f"{self.config.group_size} VPNs"
            )
        index = (start >> self._shift) & self._set_mask
        bucket = self._sets[index]
        order = self._orders[index]
        displaced: List[tuple] = []
        for entry_id in list(bucket):
            resident = bucket[entry_id]
            if resident[1] >= start and resident[0] <= end:
                displaced.append(bucket.pop(entry_id))
                order.remove(entry_id)
        displaced.extend(self._install(bucket, order, entry))
        if self.sanitizer is not None:
            self.sanitizer.after_insert(self, entry)
        return displaced

    def insert_translation(self, translation: Translation) -> List[tuple]:
        """Install a single (uncoalesced) translation."""
        vpn = translation.vpn
        return self.insert(
            (vpn, vpn, translation.pfn, int(translation.attributes))
        )

    def _install(
        self, bucket: Dict[int, tuple], order: List[int], entry: tuple
    ) -> List[tuple]:
        """Add ``entry`` as MRU, evicting the victim of a full set."""
        evicted: List[tuple] = []
        if len(order) >= self._ways:
            victim = self._choose_victim(bucket, order)
            order.remove(victim)
            evicted.append(bucket.pop(victim))
        entry_id = self._next_id
        self._next_id = entry_id + 1
        bucket[entry_id] = entry
        order.append(entry_id)
        return evicted

    def _choose_victim(self, bucket: Dict[int, tuple], order: List[int]) -> int:
        """Pick the entry id to evict from a full set.

        Standard LRU by default. With coalescing-aware replacement
        (Section 4.1.5 future work) the victim is the least-recently-used
        entry among those covering the fewest translations: an entry
        representing four pages is worth more than a singleton of equal
        recency.
        """
        if not self.config.coalescing_aware_replacement:
            return order[0]
        fewest = min(entry[1] - entry[0] for entry in bucket.values())
        for entry_id in order:  # LRU -> MRU
            entry = bucket[entry_id]
            if entry[1] - entry[0] == fewest:
                return entry_id
        return order[0]  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> List[tuple]:
        """Shootdown for one page; returns the entries it evicted.

        Default behaviour per Section 4.1.5: CoLT "flush[es] out entire
        coalesced entries, losing information for pages that would be
        unaffected in standard TLBs". With graceful invalidation (the
        section's future-work idea) the entry is instead split around
        the victim page, and the (up to two) survivors re-enter through
        the fill path's victim choice -- in a full set the second
        survivor evicts a resident, which is returned.
        """
        index = (vpn >> self._shift) & self._set_mask
        bucket = self._sets[index]
        order = self._orders[index]
        evicted: List[tuple] = []
        for entry_id in list(bucket):
            entry = bucket.get(entry_id)
            if entry is None or not entry[0] <= vpn <= entry[1]:
                continue
            del bucket[entry_id]
            order.remove(entry_id)
            if self.config.graceful_invalidation:
                start, end, ppn, attr = entry
                if vpn > start:
                    evicted += self._install(
                        bucket, order, (start, vpn - 1, ppn, attr)
                    )
                if vpn < end:
                    evicted += self._install(
                        bucket, order,
                        (vpn + 1, end, ppn + (vpn + 1 - start), attr),
                    )
        return evicted

    def flush(self) -> None:
        for bucket in self._sets:
            bucket.clear()
        for order in self._orders:
            order.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def resident_translations(self) -> int:
        """Total VPNs covered (> occupancy when entries are coalesced)."""
        return sum(
            entry[1] - entry[0] + 1
            for bucket in self._sets
            for entry in bucket.values()
        )

    def entries(self) -> List[tuple]:
        return [entry for bucket in self._sets for entry in bucket.values()]

    def iter_sets(self) -> Iterator[Tuple[int, List[tuple]]]:
        """Yield ``(set_index, entries)`` pairs; sanitizer introspection."""
        for index, bucket in enumerate(self._sets):
            yield index, list(bucket.values())

    def set_entries(self, set_index: int) -> List[tuple]:
        """The entries resident in one set; sanitizer introspection."""
        return list(self._sets[set_index].values())

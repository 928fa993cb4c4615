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

Each set is one dict of resident entries in recency order (first key
least recently used), keyed by the entry tuple itself, as
:mod:`repro.cache.cache` keeps its lines. Because a set's entries never
overlap, that order never decides which entry a probe finds; it only
picks victims. The same class implements the baseline TLB
(``index_shift = 0``).
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
        self._aware = config.coalescing_aware_replacement
        #: Per set, its entries in recency order (first key LRU).
        self._sets: List[Dict[tuple, None]] = [
            {} for _ in range(config.num_sets)
        ]

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
        bucket = self._sets[(vpn >> self._shift) & self._set_mask]
        for entry in bucket:
            if entry[0] <= vpn <= entry[1]:
                del bucket[entry]
                bucket[entry] = None
                return entry
        return None

    def entry_for(self, vpn: int) -> Optional[tuple]:
        """The entry covering ``vpn``, without touching recency."""
        for entry in self._sets[(vpn >> self._shift) & self._set_mask]:
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
        policy picks a way when the set is full. The displaced entries
        come in recency order, the capacity victim last.
        """
        start, end = entry[0], entry[1]
        shift = self._shift
        if start >> shift != end >> shift:
            raise ValueError(
                f"entry [{start}, {end}] crosses an aligned group of "
                f"{self.config.group_size} VPNs"
            )
        bucket = self._sets[(start >> shift) & self._set_mask]
        displaced = []
        for resident in bucket:
            if resident[1] >= start and resident[0] <= end:
                displaced.append(resident)
        for resident in displaced:
            del bucket[resident]
        if len(bucket) >= self._ways:
            victim = (
                self._fewest_victim(bucket) if self._aware
                else next(iter(bucket))
            )
            del bucket[victim]
            displaced.append(victim)
        bucket[entry] = None
        if self.sanitizer is not None:
            self.sanitizer.after_insert(self, entry)
        return displaced

    def insert_translation(self, translation: Translation) -> List[tuple]:
        """Install a single (uncoalesced) translation."""
        vpn = translation.vpn
        return self.insert(
            (vpn, vpn, translation.pfn, int(translation.attributes))
        )

    def _install(self, bucket: Dict[tuple, None], entry: tuple) -> List[tuple]:
        """Add ``entry`` as MRU, evicting the victim of a full set."""
        evicted: List[tuple] = []
        if len(bucket) >= self._ways:
            victim = (
                self._fewest_victim(bucket) if self._aware
                else next(iter(bucket))
            )
            del bucket[victim]
            evicted.append(victim)
        bucket[entry] = None
        return evicted

    @staticmethod
    def _fewest_victim(bucket: Dict[tuple, None]) -> tuple:
        """The victim of a full set under coalescing-aware replacement.

        Standard LRU evicts the set's first entry. With
        coalescing-aware replacement (Section 4.1.5 future work) the
        victim is the least-recently-used entry among those covering
        the fewest translations: an entry representing four pages is
        worth more than a singleton of equal recency.
        """
        fewest = min(entry[1] - entry[0] for entry in bucket)
        return next(  # LRU -> MRU
            entry for entry in bucket if entry[1] - entry[0] == fewest
        )

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
        bucket = self._sets[(vpn >> self._shift) & self._set_mask]
        evicted: List[tuple] = []
        for entry in bucket:
            if entry[0] <= vpn <= entry[1]:
                break
        else:
            return evicted
        # Entries of a set never overlap: this is the only coverer.
        del bucket[entry]
        if self.config.graceful_invalidation:
            start, end, ppn, attr = entry
            if vpn > start:
                evicted += self._install(bucket, (start, vpn - 1, ppn, attr))
            if vpn < end:
                evicted += self._install(
                    bucket, (vpn + 1, end, ppn + (vpn + 1 - start), attr)
                )
        return evicted

    def drop_range(self, start: int, end: int) -> None:
        """Drop, whole, every entry covering a VPN of ``start..end``.

        The same as :meth:`invalidate` of each VPN of the range without
        graceful invalidation: one scan per set the range indexes
        (entries never leave their aligned group, so an entry covering
        one of the range's VPNs sits in that VPN's set).
        """
        shift = self._shift
        mask = self._set_mask
        sets = self._sets
        for group in range(start >> shift, (end >> shift) + 1):
            bucket = sets[group & mask]
            doomed = [
                entry for entry in bucket
                if entry[0] <= end and entry[1] >= start
            ]
            for entry in doomed:
                del bucket[entry]

    def flush(self) -> None:
        for bucket in self._sets:
            bucket.clear()

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
            for entry in bucket
        )

    def entries(self) -> List[tuple]:
        return [entry for bucket in self._sets for entry in bucket]

    def iter_sets(self) -> Iterator[Tuple[int, List[tuple]]]:
        """Yield ``(set_index, entries)`` pairs; sanitizer introspection."""
        for index, bucket in enumerate(self._sets):
            yield index, list(bucket)

    def set_entries(self, set_index: int) -> List[tuple]:
        """The entries resident in one set; sanitizer introspection."""
        return list(self._sets[set_index])

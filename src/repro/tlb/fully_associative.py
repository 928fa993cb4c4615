"""Fully-associative TLB: superpage entries and CoLT-FA range entries.

The baseline configuration caches only superpages (the small structure
x86 processors pair with their set-associative TLBs). CoLT-FA
(Section 4.2) reuses it for coalesced base-page ranges: each entry holds
a base VPN, a coalescing length, and a base PPN; lookups range-check the
requested VPN against every entry (comparator + adder logic in hardware,
Figure 5).

Entries are ``(base, end, ppn, attr, is_superpage)`` tuples with an
exclusive ``end`` (see :mod:`repro.tlb.entries`). They may overlap, so
an insertion-ordered id -> entry dict decides attribution (the first
covering entry wins) and a separate LRU list of ids (index 0 least
recently used) decides capacity eviction.

Insertion-time merging (Section 4.2.1): when a freshly-coalesced entry is
adjacent -- in both VPN and PPN space -- to a resident entry, the two fuse
into one longer range. This is how CoLT-FA spans multiple PTE cache
lines, which the paper uses to explain why CoLT-FA sometimes beats
CoLT-All (Section 7.1.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.constants import SUPERPAGE_PAGES
from repro.common.types import PageAttributes, Translation
from repro.tlb.config import FullyAssociativeTLBConfig
from repro.tlb.entries import merge_ranges, ppn_for


class FullyAssociativeTLB:
    """Small FA TLB with LRU replacement and range-check lookups."""

    def __init__(self, config: FullyAssociativeTLBConfig) -> None:
        self.config = config
        #: Optional sanitizer hook (see ``repro.analysis.sanitizers``);
        #: when attached, every insert is incrementally validated.
        self.sanitizer = None
        self._entries: Dict[int, tuple] = {}
        self._order: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def probe(self, vpn: int) -> Optional[tuple]:
        """Range-check every entry; the first coverer (made MRU) or None."""
        for entry_id, entry in self._entries.items():
            if entry[0] <= vpn < entry[1]:
                order = self._order
                if order[-1] != entry_id:
                    order.remove(entry_id)
                    order.append(entry_id)
                return entry
        return None

    def covering_entry(self, vpn: int) -> Optional[tuple]:
        """The first entry covering ``vpn``, without touching recency."""
        for entry in self._entries.values():
            if entry[0] <= vpn < entry[1]:
                return entry
        return None

    def lookup(self, vpn: int) -> Optional[Translation]:
        """:meth:`probe`, returning the translation on a hit."""
        entry = self.probe(vpn)
        if entry is None:
            return None
        return Translation(
            vpn, ppn_for(entry, vpn), PageAttributes(entry[3]), entry[4]
        )

    # ------------------------------------------------------------------
    # Fill.
    # ------------------------------------------------------------------

    def insert(self, entry: tuple) -> Optional[tuple]:
        """Install an entry; returns the LRU victim if one was evicted.

        With ``merge_on_insert`` enabled, the incoming entry is first
        fused with any adjacent resident entries (repeatedly -- the new
        range may bridge two residents). The merged entry becomes MRU.
        The paper implements this without a second TLB scan by reusing
        the initial lookup's resident-candidate matches (Section 4.2.4);
        the architectural outcome is the same.
        """
        entries = self._entries
        if entry[4]:
            base, end = entry[0], entry[1]
            if end - base != SUPERPAGE_PAGES:
                raise ValueError("superpage entries span exactly 512 pages")
            for resident in entries.values():
                if resident[4] and resident[1] > base and end > resident[0]:
                    raise ValueError("overlapping superpage entry")
        elif self.config.merge_on_insert:
            max_span = self.config.max_span
            merged = True
            while merged:
                merged = False
                for entry_id, resident in list(entries.items()):
                    fused = merge_ranges(entry, resident, max_span)
                    if fused is not None:
                        entry = fused
                        del entries[entry_id]
                        self._order.remove(entry_id)
                        merged = True
                        break
        victim = self._install(entry)
        if self.sanitizer is not None:
            self.sanitizer.after_insert(self, entry)
        return victim

    def _install(self, entry: tuple) -> Optional[tuple]:
        """Add ``entry`` as MRU, evicting the LRU entry when full."""
        victim = None
        if len(self._order) >= self.config.entries:
            victim = self._entries.pop(self._order.pop(0))
        entry_id = self._next_id
        self._next_id = entry_id + 1
        self._entries[entry_id] = entry
        self._order.append(entry_id)
        return victim

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> List[tuple]:
        """Shootdown for one page; returns the entries it evicted.

        Whole-entry invalidation by default (Section 4.2.3). With
        graceful invalidation, a coalesced range entry is split into the
        (up to two) sub-ranges around the victim page, which re-enter
        through the fill path's LRU victim choice (a full TLB evicts for
        the second survivor); superpage entries are always dropped whole
        -- the hardware mapping itself is gone.
        """
        entries = self._entries
        evicted: List[tuple] = []
        for entry_id in list(entries):
            entry = entries.get(entry_id)
            if entry is None or not entry[0] <= vpn < entry[1]:
                continue
            del entries[entry_id]
            self._order.remove(entry_id)
            if self.config.graceful_invalidation and not entry[4]:
                base, end, ppn, attr = entry[0], entry[1], entry[2], entry[3]
                survivors = []
                if vpn > base:
                    survivors.append((base, vpn, ppn, attr, False))
                if vpn + 1 < end:
                    survivors.append(
                        (vpn + 1, end, ppn + (vpn + 1 - base), attr, False)
                    )
                for survivor in survivors:
                    victim = self._install(survivor)
                    if victim is not None:
                        evicted.append(victim)
        return evicted

    def flush(self) -> None:
        self._entries.clear()
        self._order.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def entries(self) -> List[tuple]:
        return list(self._entries.values())

    def resident_translations(self) -> int:
        return sum(entry[1] - entry[0] for entry in self._entries.values())

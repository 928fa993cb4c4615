"""TLB entry formats: plain interval tuples.

Every TLB entry is a tuple the probe path indexes directly:

* :class:`CoalescedEntry` -- the CoLT-SA format (Figure 4, top) as
  ``(start, end, ppn, attr)``: the *inclusive* VPN run ``start..end``
  of the entry's valid bits, which always lies inside one naturally
  aligned group of ``2**shift`` VPNs (the valid bits of a coalesced
  entry are one contiguous run, because only contiguous translations
  coalesce); ``ppn`` is the frame of ``start`` (the first set valid
  bit) and "PPN generation logic" adds the offset. A baseline TLB
  entry is the one-VPN run ``start == end``.

* :class:`RangeEntry` -- the CoLT-FA format (Figure 5, top) as
  ``(base, end, ppn, attr, is_superpage)`` with an *exclusive* ``end``:
  range-check logic hits anywhere in ``[base, end)``. Superpage entries
  use the same shape with ``end - base == 512`` and the flag set.

``attr`` is the integer attribute bits of the run's first translation.
Both named types are tuple subclasses, so the TLBs store them and the
MMU's plain tuples alike.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.common.constants import SUPERPAGE_PAGES
from repro.common.errors import ConfigurationError
from repro.common.types import PageAttributes, Translation

#: Attribute bits that must match for two translations to coalesce --
#: the integer form of ``PageAttributes.coalescing_key``'s mask (the
#: IntFlag inversion is bounded to the defined flag universe, so this is
#: *not* ``~24``).
COALESCING_KEY_MASK = int(~(PageAttributes.ACCESSED | PageAttributes.DIRTY))


def _check_run(translations: Sequence[Translation]) -> Translation:
    """The run's first translation; raises unless VPN- and PFN-contiguous."""
    if not translations:
        raise ConfigurationError("empty translation run")
    first = translations[0]
    for offset, translation in enumerate(translations):
        if translation.vpn != first.vpn + offset:
            raise ConfigurationError("run is not VPN-contiguous")
        if translation.pfn != first.pfn + offset:
            raise ConfigurationError("run is not PFN-contiguous")
    return first


class CoalescedEntry(NamedTuple):
    """A set-associative TLB entry: inclusive run ``start..end``."""

    start: int
    end: int
    ppn: int
    attr: int

    @classmethod
    def from_run(
        cls, translations: Sequence[Translation], group_size: int
    ) -> "CoalescedEntry":
        """Build an entry from a contiguous run inside one aligned group."""
        if group_size < 1 or group_size & (group_size - 1):
            raise ConfigurationError(
                f"group_size must be a power of two, got {group_size}"
            )
        first = _check_run(translations)
        end = first.vpn + len(translations) - 1
        if first.vpn // group_size != end // group_size:
            raise ConfigurationError("run crosses the aligned group")
        return cls(first.vpn, end, first.pfn, int(first.attributes))


class RangeEntry(NamedTuple):
    """A fully-associative TLB entry: ``[base, end)`` (also superpages)."""

    base: int
    end: int
    ppn: int
    attr: int
    is_superpage: bool = False

    @classmethod
    def from_run(cls, translations: Sequence[Translation]) -> "RangeEntry":
        """Build a range entry from a contiguous run of translations."""
        first = _check_run(translations)
        return cls(
            first.vpn, first.vpn + len(translations), first.pfn,
            int(first.attributes),
        )

    @classmethod
    def from_superpage(cls, translation: Translation) -> "RangeEntry":
        """The 512-page entry of the superpage containing ``translation``."""
        if not translation.is_superpage:
            raise ConfigurationError("translation is not a superpage")
        offset = translation.vpn % SUPERPAGE_PAGES
        base = translation.vpn - offset
        return cls(
            base, base + SUPERPAGE_PAGES, translation.pfn - offset,
            int(translation.attributes), True,
        )


def ppn_for(entry: tuple, vpn: int) -> int:
    """PPN generation logic: the entry's base PPN plus the VPN offset."""
    return entry[2] + (vpn - entry[0])


def slice_to_group(entry: tuple, vpn: int, group_size: int) -> Optional[tuple]:
    """Project an SA entry onto the aligned ``group_size`` group of ``vpn``.

    Used when copying an L2 entry into an L1 TLB whose index shift is
    smaller: only the sub-group's translations survive, so slicing never
    widens an entry. Returns None when the entry covers nothing of the
    target group.
    """
    start, end, ppn, attr = entry
    base = vpn - vpn % group_size
    lo = start if start > base else base
    top = base + group_size - 1
    hi = end if end < top else top
    if lo > hi:
        return None
    return (lo, hi, ppn + (lo - start), attr)


def merge_ranges(a: tuple, b: tuple, max_span: int) -> Optional[tuple]:
    """Fuse two FA range entries into one, or None if they cannot fuse.

    Requires (Section 4.2.1): neither is a superpage, the two are
    adjacent in both VPN and PPN space, their attributes agree modulo
    ACCESSED/DIRTY, and the fused span fits the length field
    (``max_span``). The lower entry's PPN and attributes survive.
    """
    if a[4] or b[4]:
        return None
    if (a[3] & COALESCING_KEY_MASK) != (b[3] & COALESCING_KEY_MASK):
        return None
    lo, hi = (a, b) if a[0] <= b[0] else (b, a)
    if (
        lo[1] == hi[0]
        and lo[2] + (lo[1] - lo[0]) == hi[2]
        and hi[1] - lo[0] <= max_span
    ):
        return (lo[0], hi[1], lo[2], lo[3], False)
    return None

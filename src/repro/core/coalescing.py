"""Coalescing logic: turning one PTE cache line into coalesced entries.

On a TLB miss the page walk fetches a 64-byte cache line holding eight
PTEs; "these translations are brought without additional memory
references; thus we check just them for contiguity" (Section 4.1.4).
This module is that Coalescing Logic block (Figures 4-6): it finds the
maximal contiguous run of translations around the demanded one in a live
line, subject to attribute equality, and clips a run -- as an inclusive
``lo..hi`` interval of positions -- to whatever the destination TLB's
indexing scheme can hold. (``repro.sim.replay`` finds the runs of a
captured log with the same rule, as array operations.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.types import Translation


def contiguous_run_around(
    line_translations: Sequence[Translation], vpn: int
) -> List[Translation]:
    """Maximal contiguous run within one cache line containing ``vpn``.

    Two translations chain when their VPNs and PFNs advance together and
    their attribute bits match (Sections 3.1, 5.1.1). The run is grown
    left and right from the demanded translation, so the demanded page is
    always covered. Returns the run in ascending VPN order; the demanded
    translation alone if nothing chains (or the line lacks neighbours).

    Raises:
        ValueError: ``vpn`` itself is absent from the line -- the walk
            that produced the line must have resolved it.
    """
    by_vpn: Dict[int, Translation] = {t.vpn: t for t in line_translations}
    if vpn not in by_vpn:
        raise ValueError(f"demanded vpn {vpn} not present in cache line")
    run = [by_vpn[vpn]]
    # Grow left.
    left = vpn - 1
    while left in by_vpn and by_vpn[left].is_contiguous_with(run[0]):
        run.insert(0, by_vpn[left])
        left -= 1
    # Grow right.
    right = vpn + 1
    while right in by_vpn and run[-1].is_contiguous_with(by_vpn[right]):
        run.append(by_vpn[right])
        right += 1
    return run


def clip_to_group(lo: int, hi: int, demand: int, group_size: int) -> Tuple[int, int]:
    """Restrict the run ``lo..hi`` to ``demand``'s naturally-aligned group.

    CoLT-SA may only coalesce translations that "map to the same set"
    (Section 4.1.1): the aligned ``group_size``-VPN window selected by the
    shifted index bits. Positions are VPNs, or slots of an 8-PTE line
    (the line is 8-aligned, so slot groups align like VPN groups); the
    demanded position always survives the clip.

    Raises:
        ValueError: ``demand`` lies outside the run.
    """
    if not lo <= demand <= hi:
        raise ValueError(f"demanded position {demand} outside run {lo}..{hi}")
    first = demand - demand % group_size
    last = first + group_size - 1
    return (lo if lo > first else first), (hi if hi < last else last)


def clip_to_window(lo: int, hi: int, demand: int, window: int) -> Tuple[int, int]:
    """Limit the run ``lo..hi`` to ``window`` positions containing ``demand``.

    Models a hypothetical coalescing window other than the 8-PTE cache
    line (the Section 4.1.4 ablation): a narrower window behaves like a
    32-byte fetch, a wider one like fetching two adjacent lines. The
    demanded position stays inside the clipped run, centred when
    possible.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    length = hi - lo + 1
    if length <= window:
        return lo, hi
    shift = min(max(0, demand - lo - window // 2), length - window)
    return lo + shift, lo + shift + window - 1


def run_length_around(
    line_translations: Sequence[Translation], vpn: int
) -> int:
    """Length of the coalescible run around ``vpn`` (CoLT-All's threshold
    check, Figure 6 step 1)."""
    return len(contiguous_run_around(line_translations, vpn))

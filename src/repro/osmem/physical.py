"""Physical-memory frame bookkeeping.

``PhysicalMemory`` models the machine's RAM as an array of page frames and
tracks, for every frame, whether it is free or allocated, who owns it, which
virtual page it backs (the reverse mapping needed by the compaction daemon
to fix up page tables after migration), and whether it is *movable*.

Movability mirrors Linux: ordinary user pages are movable, while kernel
metadata (page-table nodes and other pinned allocations) is not. The
compaction daemon of Figure 3 only relocates movable pages, so scattering a
few pinned frames through memory is exactly what limits compaction on a
long-running system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.common.errors import AllocationError, ConfigurationError

#: Owner pid used for kernel-internal (pinned, unmovable) allocations.
KERNEL_PID = 0

#: Sentinel stored in the owner array for free frames.
NO_OWNER = -1

#: Sentinel stored in the backing-vpn array when a frame backs no page
#: (free frames and kernel frames).
NO_VPN = -1


@dataclass(frozen=True)
class FrameRange:
    """A run of physical frames ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 1:
            raise ValueError(f"invalid frame range ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        return self.start + self.length

    def frames(self) -> Iterator[int]:
        return iter(range(self.start, self.end))


class PhysicalMemory:
    """Per-frame metadata for the simulated machine's RAM.

    The class enforces the free/allocated state machine: allocating an
    already-allocated frame or freeing a free frame raises, which is how
    tests catch buddy-allocator and compaction bugs.
    """

    def __init__(self, num_frames: int) -> None:
        if num_frames < 1:
            raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
        self._num_frames = num_frames
        self._allocated = np.zeros(num_frames, dtype=bool)
        #: Set only on allocated frames: ``mark_free`` clears it.
        self._movable = np.zeros(num_frames, dtype=bool)
        self._owner = np.full(num_frames, NO_OWNER, dtype=np.int64)
        self._backing_vpn = np.full(num_frames, NO_VPN, dtype=np.int64)
        #: ``_allocated.sum()``, kept by the two state transitions: the
        #: kernel reads free memory after every allocation.
        self._allocated_count = 0

    # ------------------------------------------------------------------
    # Basic queries.
    # ------------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        return self._num_frames

    @property
    def allocated_frames(self) -> int:
        return self._allocated_count

    @property
    def free_frames(self) -> int:
        return self._num_frames - self._allocated_count

    def count_allocated(self) -> int:
        """Allocated frames counted from the frame map itself.

        :attr:`allocated_frames` reads the maintained count; the buddy
        sanitizer compares the two.
        """
        return int(self._allocated.sum())

    @property
    def allocated_map(self) -> np.ndarray:
        """The live per-frame allocated flags. Read it, never write it."""
        return self._allocated

    def is_allocated(self, pfn: int) -> bool:
        self._check_pfn(pfn)
        return bool(self._allocated[pfn])

    def is_free(self, pfn: int) -> bool:
        return not self.is_allocated(pfn)

    def is_movable(self, pfn: int) -> bool:
        self._check_pfn(pfn)
        return bool(self._allocated[pfn] and self._movable[pfn])

    def owner_of(self, pfn: int) -> int:
        """Owning pid, or NO_OWNER for free frames."""
        self._check_pfn(pfn)
        return int(self._owner[pfn])

    def backing_vpn_of(self, pfn: int) -> int:
        """Virtual page this frame backs, or NO_VPN."""
        self._check_pfn(pfn)
        return int(self._backing_vpn[pfn])

    def range_is_free(self, start: int, length: int) -> bool:
        self._check_range(start, length)
        return not self._allocated[start : start + length].any()

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------

    def mark_allocated(
        self,
        start: int,
        length: int,
        owner: int,
        movable: bool,
        backing_vpn: Optional[int] = None,
    ) -> None:
        """Transition ``[start, start+length)`` from free to allocated.

        Args:
            owner: owning pid (KERNEL_PID for kernel allocations).
            movable: whether the compaction daemon may relocate the frames.
            backing_vpn: virtual page backed by ``start``; consecutive
                frames are assumed to back consecutive virtual pages, which
                matches how the fault path installs batched allocations.
                Pass None for frames that back no virtual page.
        """
        if length == 1:
            # One frame (most migrations and reclaim): scalar writes.
            self._check_pfn(start)
            if self._allocated[start]:
                raise AllocationError(
                    f"frames in [{start}, {start + 1}) already allocated"
                )
            self._allocated[start] = True
            self._allocated_count += 1
            self._movable[start] = movable
            self._owner[start] = owner
            self._backing_vpn[start] = (
                NO_VPN if backing_vpn is None else backing_vpn
            )
            return
        self._check_range(start, length)
        region = self._allocated[start : start + length]
        if region.any():
            raise AllocationError(
                f"frames in [{start}, {start + length}) already allocated"
            )
        region[:] = True
        self._allocated_count += length
        self._movable[start : start + length] = movable
        self._owner[start : start + length] = owner
        if backing_vpn is None:
            self._backing_vpn[start : start + length] = NO_VPN
        else:
            self._backing_vpn[start : start + length] = np.arange(
                backing_vpn, backing_vpn + length, dtype=np.int64
            )

    def mark_free(self, start: int, length: int) -> None:
        """Transition ``[start, start+length)`` from allocated to free."""
        if length == 1:
            self._check_pfn(start)
            if not self._allocated[start]:
                raise AllocationError(
                    f"frames in [{start}, {start + 1}) not all allocated"
                )
            self._allocated[start] = False
            self._allocated_count -= 1
            self._movable[start] = False
            self._owner[start] = NO_OWNER
            self._backing_vpn[start] = NO_VPN
            return
        self._check_range(start, length)
        region = self._allocated[start : start + length]
        if not region.all():
            raise AllocationError(
                f"frames in [{start}, {start + length}) not all allocated"
            )
        region[:] = False
        self._allocated_count -= length
        self._movable[start : start + length] = False
        self._owner[start : start + length] = NO_OWNER
        self._backing_vpn[start : start + length] = NO_VPN

    def retag(self, pfn: int, owner: int, backing_vpn: int) -> None:
        """Update ownership metadata of an allocated frame (migration)."""
        self._check_pfn(pfn)
        if not self._allocated[pfn]:
            raise AllocationError(f"cannot retag free frame {pfn}")
        self._owner[pfn] = owner
        self._backing_vpn[pfn] = backing_vpn

    # ------------------------------------------------------------------
    # Scans used by the compaction daemon and fragmentation metrics.
    # ------------------------------------------------------------------

    def movable_frames_ascending(self) -> np.ndarray:
        """Movable allocated frames from the bottom of memory upwards.

        This is the compaction daemon's migrate scanner (Figure 3, left),
        as a snapshot array."""
        return np.flatnonzero(self._movable)

    def free_frames_descending(self) -> np.ndarray:
        """Free frames from the top of memory downwards.

        This is the compaction daemon's free scanner (Figure 3, middle),
        as a snapshot array."""
        return np.flatnonzero(~self._allocated)[::-1]

    def first_movable_from(self, pfn: int) -> Optional[int]:
        """The lowest movable frame at or above ``pfn``, if any."""
        tail = self._movable[pfn:]
        if not tail.size:
            return None
        offset = int(tail.argmax())
        return pfn + offset if tail[offset] else None

    def free_runs(self) -> List[FrameRange]:
        """Maximal runs of free frames, ascending by start."""
        free = ~self._allocated
        if not free.any():
            return []
        padded = np.concatenate(([False], free, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        starts, ends = edges[::2], edges[1::2]
        return [FrameRange(int(s), int(e - s)) for s, e in zip(starts, ends)]

    def largest_free_run(self) -> int:
        """Length of the largest free run (0 when memory is full)."""
        runs = self.free_runs()
        if not runs:
            return 0
        return max(run.length for run in runs)

    def fragmentation_index(self) -> float:
        """1 - largest_free_run / free_frames; 0 when free memory is one run.

        A standard external-fragmentation measure: near 0 means free memory
        is compact, near 1 means it is shattered into tiny runs.
        """
        free = self.free_frames
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_run() / free

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _check_pfn(self, pfn: int) -> None:
        if not 0 <= pfn < self._num_frames:
            raise AllocationError(
                f"pfn {pfn} out of range [0, {self._num_frames})"
            )

    def _check_range(self, start: int, length: int) -> None:
        if length < 1:
            raise AllocationError(f"range length must be >= 1, got {length}")
        self._check_pfn(start)
        if start + length > self._num_frames:
            raise AllocationError(
                f"range [{start}, {start + length}) exceeds memory of "
                f"{self._num_frames} frames"
            )

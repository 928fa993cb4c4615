"""Tests for physical-frame bookkeeping."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.errors import AllocationError, ConfigurationError
from repro.osmem.physical import (
    KERNEL_PID,
    NO_OWNER,
    NO_VPN,
    PhysicalMemory,
)


class TestConstruction:
    def test_all_frames_start_free(self):
        mem = PhysicalMemory(64)
        assert mem.free_frames == 64
        assert mem.allocated_frames == 0

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemory(0)


class TestAllocationStateMachine:
    def test_mark_allocated_then_free(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(4, 4, owner=1, movable=True, backing_vpn=100)
        assert mem.allocated_frames == 4
        assert mem.is_allocated(4)
        assert mem.is_free(3)
        mem.mark_free(4, 4)
        assert mem.free_frames == 16

    def test_double_allocation_rejected(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(0, 4, owner=1, movable=True)
        with pytest.raises(AllocationError):
            mem.mark_allocated(2, 4, owner=1, movable=True)

    def test_freeing_free_frames_rejected(self):
        mem = PhysicalMemory(16)
        with pytest.raises(AllocationError):
            mem.mark_free(0, 1)

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(16)
        with pytest.raises(AllocationError):
            mem.mark_allocated(14, 4, owner=1, movable=True)
        with pytest.raises(AllocationError):
            mem.is_allocated(16)


class TestOwnershipMetadata:
    def test_backing_vpns_are_consecutive(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(2, 3, owner=7, movable=True, backing_vpn=40)
        assert mem.owner_of(3) == 7
        assert [mem.backing_vpn_of(p) for p in (2, 3, 4)] == [40, 41, 42]

    def test_free_frames_have_no_owner(self):
        mem = PhysicalMemory(16)
        assert mem.owner_of(0) == NO_OWNER

    def test_kernel_frames_are_unmovable(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(0, 2, owner=KERNEL_PID, movable=False)
        assert not mem.is_movable(0)

    def test_retag_updates_reverse_map(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(5, 1, owner=1, movable=True, backing_vpn=9)
        mem.retag(5, owner=2, backing_vpn=77)
        assert mem.owner_of(5) == 2
        assert mem.backing_vpn_of(5) == 77

    def test_retag_free_frame_rejected(self):
        mem = PhysicalMemory(16)
        with pytest.raises(AllocationError):
            mem.retag(0, owner=1, backing_vpn=0)

    def test_freeing_clears_metadata(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(0, 1, owner=1, movable=True, backing_vpn=5)
        mem.mark_free(0, 1)
        assert mem.owner_of(0) == NO_OWNER
        assert mem.backing_vpn_of(0) == -1


class TestScans:
    def test_movable_scan_ascends_and_skips_pinned(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(2, 2, owner=1, movable=True, backing_vpn=0)
        mem.mark_allocated(8, 1, owner=KERNEL_PID, movable=False)
        mem.mark_allocated(12, 1, owner=1, movable=True, backing_vpn=2)
        assert list(mem.movable_frames_ascending()) == [2, 3, 12]

    def test_free_scan_descends(self):
        mem = PhysicalMemory(8)
        mem.mark_allocated(0, 6, owner=1, movable=True)
        assert list(mem.free_frames_descending()) == [7, 6]

    def test_free_runs(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(4, 4, owner=1, movable=True)
        mem.mark_allocated(12, 2, owner=1, movable=True)
        runs = mem.free_runs()
        assert [(r.start, r.length) for r in runs] == [
            (0, 4), (8, 4), (14, 2),
        ]

    def test_largest_free_run(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(6, 2, owner=1, movable=True)
        assert mem.largest_free_run() == 8

    def test_largest_free_run_full_memory_is_zero(self):
        mem = PhysicalMemory(4)
        mem.mark_allocated(0, 4, owner=1, movable=True)
        assert mem.largest_free_run() == 0

    def test_fragmentation_index_compact(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(0, 8, owner=1, movable=True)
        # Remaining free memory is one run: index 0.
        assert mem.fragmentation_index() == pytest.approx(0.0)

    def test_fragmentation_index_shattered(self):
        mem = PhysicalMemory(16)
        for start in (1, 3, 5, 7, 9, 11, 13, 15):
            mem.mark_allocated(start, 1, owner=1, movable=True)
        # Free frames alternate singly: largest run 1 of 8 free.
        assert mem.fragmentation_index() == pytest.approx(1 - 1 / 8)

    def test_range_is_free(self):
        mem = PhysicalMemory(16)
        mem.mark_allocated(4, 1, owner=1, movable=True)
        assert mem.range_is_free(0, 4)
        assert not mem.range_is_free(2, 4)


class FrameModel:
    """The frame map as plain Python lists: the oracle for the scalar
    one-frame path and the sliced n-frame path alike."""

    def __init__(self, num_frames):
        self.num_frames = num_frames
        self.allocated = [False] * num_frames
        self.movable = [False] * num_frames
        self.owner = [NO_OWNER] * num_frames
        self.backing = [NO_VPN] * num_frames
        self.count = 0

    def _check(self, start, length):
        if length < 1:
            raise AllocationError(f"range length must be >= 1, got {length}")
        if not 0 <= start < self.num_frames:
            raise AllocationError(
                f"pfn {start} out of range [0, {self.num_frames})"
            )
        if start + length > self.num_frames:
            raise AllocationError(
                f"range [{start}, {start + length}) exceeds memory of "
                f"{self.num_frames} frames"
            )

    def mark_allocated(self, start, length, owner, movable, backing_vpn):
        self._check(start, length)
        frames = range(start, start + length)
        if any(self.allocated[pfn] for pfn in frames):
            raise AllocationError(
                f"frames in [{start}, {start + length}) already allocated"
            )
        for offset, pfn in enumerate(frames):
            self.allocated[pfn] = True
            self.movable[pfn] = movable
            self.owner[pfn] = owner
            self.backing[pfn] = (
                NO_VPN if backing_vpn is None else backing_vpn + offset
            )
        self.count += length

    def mark_free(self, start, length):
        self._check(start, length)
        frames = range(start, start + length)
        if not all(self.allocated[pfn] for pfn in frames):
            raise AllocationError(
                f"frames in [{start}, {start + length}) not all allocated"
            )
        for pfn in frames:
            self.allocated[pfn] = False
            self.movable[pfn] = False
            self.owner[pfn] = NO_OWNER
            self.backing[pfn] = NO_VPN
        self.count -= length


MODEL_FRAMES = 24

frame_ops = st.lists(
    st.tuples(
        st.sampled_from(("alloc", "free")),
        st.integers(-2, MODEL_FRAMES + 1),
        # One frame half the time: the scalar path.
        st.one_of(st.just(1), st.integers(0, 6)),
        st.integers(0, 9),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 1000)),
    ),
    max_size=80,
)


@given(ops=frame_ops)
@settings(max_examples=200, deadline=None)
def test_frame_map_matches_list_model(ops):
    """Random one-frame and n-frame marks and frees, checked against the
    list model: the same errors, the four frame arrays and the count."""
    mem = PhysicalMemory(MODEL_FRAMES)
    model = FrameModel(MODEL_FRAMES)
    for op, start, length, owner, movable, backing_vpn in ops:
        if op == "alloc":
            calls = [
                (target.mark_allocated,
                 (start, length, owner, movable, backing_vpn))
                for target in (mem, model)
            ]
        else:
            calls = [
                (target.mark_free, (start, length))
                for target in (mem, model)
            ]
        errors = []
        for call, args in calls:
            try:
                call(*args)
                errors.append(None)
            except AllocationError as error:
                errors.append(str(error))
        assert errors[0] == errors[1]
        assert mem.allocated_map.tolist() == model.allocated
        assert mem._movable.tolist() == model.movable
        assert mem._owner.tolist() == model.owner
        assert mem._backing_vpn.tolist() == model.backing
        assert mem.allocated_frames == model.count == mem.count_allocated()

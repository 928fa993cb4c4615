"""Tests for the kernel facade: faulting, THP, reclaim, invalidations."""

import pytest

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.contiguity import ContiguityReport
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.physical import KERNEL_PID
from repro.osmem.vma import VMAKind


class TestConfig:
    def test_tiny_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelConfig(num_frames=16)

    def test_with_updates(self):
        config = KernelConfig(num_frames=4096)
        updated = config.with_updates(ths_enabled=False)
        assert not updated.ths_enabled
        assert updated.num_frames == 4096


class TestBoot:
    def test_reserved_frames_are_pinned_clusters(self, small_kernel):
        pinned = [
            pfn
            for pfn in range(small_kernel.config.num_frames)
            if small_kernel.physical.owner_of(pfn) == KERNEL_PID
        ]
        expected = int(4096 * small_kernel.config.kernel_reserved_fraction)
        assert len(pinned) == pytest.approx(expected, abs=64)
        for pfn in pinned:
            assert not small_kernel.physical.is_movable(pfn)

    def test_boot_is_deterministic(self):
        a = Kernel(KernelConfig(num_frames=4096, seed=5))
        b = Kernel(KernelConfig(num_frames=4096, seed=5))
        assert a.physical.free_frames == b.physical.free_frames


class TestMallocAndFault:
    def test_populate_maps_whole_extent(self, small_kernel):
        process = small_kernel.create_process("p")
        vma = small_kernel.malloc(process, 100, populate=True)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            assert process.page_table.lookup(vpn) is not None
        assert process.resident_pages == 100

    def test_lazy_malloc_populates_on_touch(self, small_kernel):
        process = small_kernel.create_process("p", fault_batch=4)
        vma = small_kernel.malloc(process, 50, populate=False)
        assert process.resident_pages == 0
        small_kernel.touch(process, vma.start_vpn)
        assert process.resident_pages == 4  # the fault batch

    def test_touch_returns_translation_and_sets_accessed(self, small_kernel):
        from repro.common.types import PageAttributes

        process = small_kernel.create_process("p")
        vma = small_kernel.malloc(process, 10, populate=False)
        translation = small_kernel.touch(process, vma.start_vpn, write=True)
        assert translation.vpn == vma.start_vpn
        refreshed = process.page_table.lookup(vma.start_vpn)
        assert refreshed.attributes & PageAttributes.ACCESSED
        assert refreshed.attributes & PageAttributes.DIRTY

    def test_populate_batch_controls_run_granularity(self, small_kernel):
        process = small_kernel.create_process("p")
        vma = small_kernel.malloc(
            process, 64, populate=True, populate_batch=4, thp_eligible=False
        )
        report = ContiguityReport.from_process(process)
        # On a pristine kernel each batch is contiguous; batches also
        # concatenate, so runs are multiples of the batch size.
        for run in report.base_page_runs:
            assert run.length % 4 == 0 or run.length == 64

    def test_fault_on_unmapped_address_raises(self, small_kernel):
        from repro.common.errors import PageFaultError

        process = small_kernel.create_process("p")
        with pytest.raises(PageFaultError):
            small_kernel.touch(process, 424242)

    def test_contiguity_emerges_on_pristine_kernel(self, tiny_kernel_no_thp):
        process = tiny_kernel_no_thp.create_process("p")
        tiny_kernel_no_thp.malloc(process, 64, populate=True)
        report = ContiguityReport.from_process(process)
        assert report.average_contiguity > 16


class TestTHP:
    def test_thp_maps_superpage_on_pristine_kernel(self, kernel_factory):
        kernel = kernel_factory(num_frames=4096, ths_enabled=True)
        process = kernel.create_process("p")
        kernel.malloc(process, 1024, populate=True)
        assert kernel.thp.counters["huge_faults"] >= 1
        report = ContiguityReport.from_process(process)
        assert report.superpage_pages >= 512

    def test_ths_off_never_maps_superpages(self, kernel_factory):
        kernel = kernel_factory(num_frames=4096, ths_enabled=False)
        process = kernel.create_process("p")
        kernel.malloc(process, 1024, populate=True)
        assert kernel.thp.counters["huge_faults"] == 0

    def test_file_backed_never_thp(self, small_kernel):
        process = small_kernel.create_process("p")
        small_kernel.malloc(
            process, 1024, populate=True, kind=VMAKind.FILE_BACKED
        )
        assert small_kernel.thp.counters["huge_faults"] == 0

    def test_thp_ineligible_region_uses_base_pages(self, small_kernel):
        process = small_kernel.create_process("p")
        small_kernel.malloc(process, 1024, populate=True, thp_eligible=False)
        assert small_kernel.thp.counters["huge_faults"] == 0

    def test_superpage_frames_are_aligned(self, small_kernel):
        process = small_kernel.create_process("p")
        small_kernel.malloc(process, 600, populate=True)
        for translation in process.iter_mappings():
            if translation.is_superpage:
                assert translation.pfn % 512 == 0


class TestFreeing:
    def test_free_vma_returns_frames(self, small_kernel):
        process = small_kernel.create_process("p")
        free_before = small_kernel.physical.free_frames
        vma = small_kernel.malloc(process, 200, populate=True)
        small_kernel.free_vma(process, vma)
        assert small_kernel.physical.free_frames == free_before
        assert process.resident_pages == 0

    def test_partial_unpopulate_splits_superpage(self, small_kernel):
        process = small_kernel.create_process("p")
        vma = small_kernel.malloc(process, 1024, populate=True)
        if small_kernel.thp.counters["huge_faults"] == 0:
            pytest.skip("no superpage created on this layout")
        chunk = small_kernel.thp.active_for(process.pid)[0]
        small_kernel.unpopulate_range(process, chunk, 16)
        # Remaining pages of the chunk survive as base pages.
        survivor = process.page_table.lookup(chunk + 100)
        assert survivor is not None
        assert not survivor.is_superpage

    def test_exit_process_releases_everything(self, small_kernel):
        free_before = small_kernel.physical.free_frames
        process = small_kernel.create_process("p")
        small_kernel.malloc(process, 700, populate=True)
        small_kernel.exit_process(process)
        # Page-table pool blocks stay with the kernel; data frames return.
        leaked = free_before - small_kernel.physical.free_frames
        assert leaked <= 2 * (1 << small_kernel.config.table_pool_order)
        assert process.pid not in [
            p.pid for p in small_kernel.processes()
        ]


class TestReclaimAndPressure:
    def test_reclaim_steals_from_victims(self, kernel_factory):
        kernel = kernel_factory(num_frames=2048, ths_enabled=False)
        victim = kernel.create_process("victim")
        kernel.malloc(victim, 1400, populate=True)
        kernel.register_reclaim_victim(victim)
        hungry = kernel.create_process("hungry")
        kernel.malloc(hungry, 700, populate=True)  # forces reclaim
        assert kernel.counters["reclaimed_pages"] > 0
        assert victim.resident_pages < 1400

    def test_oom_without_victims_raises(self, kernel_factory):
        kernel = kernel_factory(num_frames=2048, ths_enabled=False)
        process = kernel.create_process("p")
        with pytest.raises(OutOfMemoryError):
            kernel.malloc(process, 4096, populate=True)


class TestInvalidationListeners:
    def test_unmap_fires_listener(self, small_kernel):
        events = []
        small_kernel.add_invalidation_listener(
            lambda pid, vpn, count: events.append((pid, vpn, count))
        )
        process = small_kernel.create_process("p")
        vma = small_kernel.malloc(process, 8, populate=True)
        small_kernel.unpopulate_range(process, vma.start_vpn, 8)
        assert len(events) == 8
        assert all(pid == process.pid for pid, _, _ in events)

    def test_compaction_migration_fires_listener(self, kernel_factory):
        kernel = kernel_factory(num_frames=2048, ths_enabled=False)
        events = []
        kernel.add_invalidation_listener(
            lambda pid, vpn, count: events.append((pid, vpn, count))
        )
        process = kernel.create_process("p")
        kernel.malloc(process, 64, populate=True)
        migrated = kernel.compaction.run()
        assert len([e for e in events if e[0] == process.pid]) <= migrated + 1
        if migrated:
            assert events  # at least one shootdown fired


def reference_unpopulate(kernel, process, start_vpn, num_pages):
    """The page-by-page munmap: split overlapping superpages, then one
    lookup and unmap per page, freeing each run of consecutive frames
    when a hole or a frame discontinuity ends it."""
    end = start_vpn + num_pages
    for chunk in kernel.thp.active_for(process.pid):
        if chunk < end and chunk + 512 > start_vpn:
            kernel._split_chunk(process, chunk)
    run_pfn, run_len = None, 0
    for vpn in range(start_vpn, end):
        translation = process.page_table.lookup(vpn)
        if translation is not None:
            process.page_table.unmap_page(vpn)
            process.note_unpopulated(vpn)
            kernel._notify_invalidation(process.pid, vpn, 1)
            if run_len and translation.pfn == run_pfn + run_len:
                run_len += 1
                continue
        if run_len:
            kernel._free_frames(run_pfn, run_len)
        run_pfn, run_len = (
            (translation.pfn, 1) if translation is not None else (None, 0)
        )
    if run_len:
        kernel._free_frames(run_pfn, run_len)


def reference_reclaim(kernel, pages):
    """Reclaim that sorts each victim's resident set and looks up, then
    unmaps, each page."""
    freed = 0
    for pid in list(kernel._reclaim_victims):
        victim = kernel._processes[pid]
        for vpn in sorted(victim._populated):
            if freed >= pages:
                break
            translation = victim.page_table.lookup(vpn)
            if translation.is_superpage:
                kernel._split_chunk(victim, vpn - vpn % 512)
                translation = victim.page_table.lookup(vpn)
            victim.page_table.unmap_page(vpn)
            victim.note_unpopulated(vpn)
            kernel._notify_invalidation(victim.pid, vpn, 1)
            kernel._free_frames(translation.pfn, 1)
            freed += 1
        if freed >= pages:
            break
    kernel.counters.increment("reclaimed_pages", freed)
    return freed


def fragmented_process():
    """A process with a superpage followed by two PT nodes of base pages.

    The base pages arrive three at a time, interleaved with another
    process's allocations, so runs of pages break into runs of frames;
    two unmapped holes sit in the first base-page node.
    """
    kernel = Kernel(KernelConfig(num_frames=4096, ths_enabled=False, seed=99))
    process = kernel.create_process("p")
    other = kernel.create_process("other")
    base = kernel.malloc(process, 3 * 512, populate=False, align_huge=True).start_vpn
    end = base + 3 * 512
    for vpn in range(base + 512, end, 3):
        kernel.populate_range(process, vpn, min(3, end - vpn), batch=3)
        kernel.malloc(other, 1)
    assert kernel.thp.try_fault_huge(process, base)
    kernel.unpopulate_range(process, base + 600, 40)
    kernel.unpopulate_range(process, base + 700, 1)
    return kernel, process, base


def observed(operation):
    """Run ``operation(kernel, process, base)`` on a fresh fragmented
    process; return what it did and left behind."""
    kernel, process, base = fragmented_process()
    frees, events = [], []
    free_frames = kernel._free_frames

    def recording_free(pfn, length):
        frees.append((pfn, length))
        free_frames(pfn, length)

    kernel._free_frames = recording_free
    kernel.add_invalidation_listener(
        lambda pid, vpn, count: events.append((pid, vpn, count))
    )
    returned = operation(kernel, process, base)
    physical = kernel.physical
    return {
        "returned": returned,
        "frees": frees,
        "events": events,
        "free_lists": [list(blocks) for blocks in kernel.buddy._free_lists],
        "frame_map": [
            (
                physical.is_allocated(pfn), physical.is_movable(pfn),
                physical.owner_of(pfn), physical.backing_vpn_of(pfn),
            )
            for pfn in range(physical.num_frames)
        ],
        "mappings": list(process.iter_mappings()),
        "populated": sorted(process._populated),
        "table_pool": list(kernel._table_pool),
        "counters": kernel.counters.as_dict(),
    }


class TestUnpopulateMatchesPageByPage:
    @pytest.mark.parametrize(
        "offset, num_pages",
        [
            (0, 3 * 512),      # everything: split, holes, two PT nodes
            (300, 400),        # split superpage into the first PT node
            (590, 60),         # across the 40-page hole
            (690, 400),        # the 1-page hole and a node boundary
            (1000, 100),       # across the second node boundary
            (1200, 600),       # runs past the end of the mappings
            (610, 20),         # inside a hole: nothing to do
        ],
    )
    def test_same_frees_shootdowns_and_frame_state(self, offset, num_pages):
        batched = observed(
            lambda kernel, process, base: kernel.unpopulate_range(
                process, base + offset, num_pages
            )
        )
        reference = observed(
            lambda kernel, process, base: reference_unpopulate(
                kernel, process, base + offset, num_pages
            )
        )
        assert batched == reference

    def test_frames_break_runs_of_pages(self):
        """The fixture really frees runs shorter than the runs of pages."""
        result = observed(
            lambda kernel, process, base: kernel.unpopulate_range(
                process, base + 690, 400
            )
        )
        assert len(result["events"]) > 300
        assert max(length for _, length in result["frees"]) <= 6


class TestReclaimMatchesPageByPage:
    @pytest.mark.parametrize("pages", [0, 10, 600, 5000])
    def test_same_frees_shootdowns_and_frame_state(self, pages):
        """The victim's lowest pages are a superpage, then base pages."""

        def reclaiming(reclaim):
            def operation(kernel, process, base):
                kernel.register_reclaim_victim(process)
                return reclaim(kernel, pages)
            return operation

        batched = observed(reclaiming(Kernel._reclaim))
        assert batched == observed(reclaiming(reference_reclaim))
        assert batched["returned"] == min(pages, 3 * 512 - 41)

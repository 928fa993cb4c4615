"""Tests for the runtime sanitizers: each must fire on real corruption.

Every test corrupts a live structure the way a genuine bug would --
overlapping coalesced ranges, a broken buddy free list, a mismatched
PTE -- and asserts the responsible sanitizer raises ``SanitizerError``
with the invariant named. Clean-path tests assert sanitized runs behave
identically to unsanitized ones.
"""

import pytest

from repro.analysis.sanitizers import (
    BuddySanitizer,
    PageTableSanitizer,
    TLBSanitizer,
    resolve_sanitize,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.common.errors import SanitizerError
from repro.common.types import PageAttributes, Translation
from repro.core.mmu import MMU, CoLTDesign, make_mmu_config
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.page_table import PageTable
from repro.tlb.entries import RangeEntry
from repro.walker.page_walker import PageWalker


def build_mmu(design=CoLTDesign.COLT_SA, pages=64):
    table = PageTable()
    for offset in range(pages):
        table.map_page(1024 + offset, 5000 + offset)
    walker = PageWalker(table, CacheHierarchy(), MMUCache())
    return MMU(make_mmu_config(design), walker, sanitize=True)


class TestResolveSanitize:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("COLT_SANITIZE", "1")
        assert resolve_sanitize(False) is False
        monkeypatch.delenv("COLT_SANITIZE")
        assert resolve_sanitize(True) is True

    def test_env_falsey_values(self, monkeypatch):
        for value in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("COLT_SANITIZE", value)
            assert resolve_sanitize(None) is False
        monkeypatch.setenv("COLT_SANITIZE", "1")
        assert resolve_sanitize(None) is True

    def test_disabled_means_no_sanitizer_objects(self):
        table = PageTable()
        table.map_page(1024, 5000)
        walker = PageWalker(table, CacheHierarchy(), MMUCache())
        mmu = MMU(make_mmu_config(CoLTDesign.BASELINE), walker, sanitize=False)
        assert mmu.sanitizer is None
        assert mmu.l1.sanitizer is None
        assert BuddyAllocator(1024, sanitize=False).sanitizer is None
        kernel = Kernel(KernelConfig(num_frames=1024), sanitize=False)
        assert kernel.sanitizer is None


class TestTLBSanitizer:
    def test_clean_accesses_pass(self):
        mmu = build_mmu()
        for vpn in range(1024, 1088):
            mmu.access(vpn)
        mmu.sanitizer.full_scan()

    def test_overlapping_coalesced_ranges_in_set(self):
        mmu = build_mmu()
        mmu.access(1024)
        start, end, ppn, attr = mmu.l1.entry_for(1024)
        set_index = mmu.l1.set_index_for(start)
        # A second way covering the same VPN: illegal per Section 4.1.2
        # (tag match + valid-bit select would be ambiguous).
        mmu.l1._sets[set_index][999999] = (start, end, ppn + 7, attr)
        with pytest.raises(SanitizerError, match="covered by two entries"):
            mmu.sanitizer.full_scan()

    def test_wrong_set_placement(self):
        mmu = build_mmu()
        mmu.access(1024)
        entry = mmu.l1.entry_for(1024)
        home = mmu.l1.set_index_for(entry[0])
        wrong = (home + 1) % mmu.l1.config.num_sets
        del mmu.l1._sets[home][next(iter(mmu.l1._sets[home]))]
        mmu.l1._sets[wrong][999999] = entry
        with pytest.raises(SanitizerError, match="shifted index says"):
            mmu.sanitizer.full_scan()

    def test_entry_crossing_its_group_detected(self):
        mmu = build_mmu()
        mmu.access(1024)
        start, _end, ppn, attr = mmu.l1.entry_for(1024)
        set_index = mmu.l1.set_index_for(start)
        bucket = mmu.l1._sets[set_index]
        bucket[next(iter(bucket))] = (start, start + 5, ppn, attr)
        with pytest.raises(SanitizerError, match="aligned group"):
            mmu.sanitizer.full_scan()

    def test_inclusivity_break_detected(self):
        mmu = build_mmu()
        mmu.access(1024)
        # Drop the L2 copy behind the MMU's back: the L1 entry becomes
        # an inclusivity orphan.
        mmu.l2.flush()
        with pytest.raises(SanitizerError, match="inclusivity"):
            mmu.sanitizer.full_scan()

    def test_over_occupancy_detected(self):
        mmu = build_mmu()
        mmu.access(1024)
        set_index, bucket = next(
            (i, b) for i, b in enumerate(mmu.l1._sets) if b
        )
        start, end, _ppn, attr = next(iter(bucket.values()))
        # Stuff more ways than the set has, with disjoint groups that
        # still home to this set (stride num_sets * group_size).
        stride = mmu.l1.config.num_sets * mmu.l1.config.group_size
        for extra in range(mmu.l1.config.ways + 1):
            offset = (extra + 1) * stride
            bucket[1000000 + extra] = (
                start + offset, end + offset, 9000 + extra, attr
            )
        with pytest.raises(SanitizerError, match="ways"):
            mmu.sanitizer.full_scan()

    def test_fa_inconsistent_overlap_detected(self):
        mmu = build_mmu(CoLTDesign.COLT_FA)
        fa = mmu.superpage_tlb
        attrs = int(PageAttributes.default_user())
        fa._entries[1] = RangeEntry(1024, 1028, 5000, attrs)
        # Overlaps [1024, 1028) but maps it somewhere else entirely.
        fa._entries[2] = RangeEntry(1026, 1030, 8000, attrs)
        with pytest.raises(SanitizerError, match="disagree"):
            mmu.sanitizer.full_scan()

    def test_fa_misaligned_superpage_detected(self):
        mmu = build_mmu(CoLTDesign.BASELINE)
        translation = Translation(
            512, 1536, PageAttributes.default_user(), is_superpage=True
        )
        mmu.superpage_tlb.insert(RangeEntry.from_superpage(translation))
        fa = mmu.superpage_tlb
        entry_id, entry = next(iter(fa._entries.items()))
        fa._entries[entry_id] = entry._replace(
            base=entry.base + 3, end=entry.end + 3
        )
        with pytest.raises(SanitizerError, match="aligned"):
            mmu.sanitizer.full_scan()

    def test_after_insert_rejects_overlapping_insert(self):
        """The incremental hook fires at insert time, not just on scans."""
        mmu = build_mmu()
        mmu.access(1024)
        start, end, ppn, attr = mmu.l1.entry_for(1024)
        set_index = mmu.l1.set_index_for(start)
        # Plant a conflicting way, then insert a disjoint-group entry to
        # trigger the per-insert set check.
        mmu.l1._sets[set_index][999999] = (start, end, ppn + 3, attr)
        stride = mmu.l1.config.num_sets * mmu.l1.config.group_size
        with pytest.raises(SanitizerError, match="covered by two entries"):
            mmu.l1.insert((start + stride, end + stride, 7000, attr))

    def test_fill_disagreeing_with_the_walk_detected(self):
        mmu = build_mmu()
        mmu.access(1024)
        with pytest.raises(SanitizerError, match="page table says"):
            mmu.sanitizer.after_fill(1024, 5000 + 1)


class TestBuddySanitizer:
    def test_clean_alloc_free_cycle_passes(self):
        buddy = BuddyAllocator(1024, sanitize=True)
        blocks = [buddy.alloc_block(0) for _ in range(10)]
        for start in blocks:
            buddy.free_block(start, 0)
        buddy.sanitizer.full_scan()

    def test_misaligned_free_block_detected(self):
        buddy = BuddyAllocator(1024, sanitize=True)
        start = buddy.alloc_block(3)  # keep [start, start+8) out of the pool
        buddy._free_lists[1][start + 1] = None  # order-1 block at odd start
        buddy._block_order[start + 1] = 1
        with pytest.raises(SanitizerError, match="misaligned"):
            buddy.sanitizer.full_scan()

    def test_overlapping_free_blocks_detected(self):
        buddy = BuddyAllocator(1024, sanitize=True)
        start = buddy.alloc_block(3)
        buddy._free_lists[2][start] = None  # covers [start, start+4)...
        buddy._block_order[start] = 2
        buddy._free_lists[1][start + 2] = None  # ...and so does this one
        buddy._block_order[start + 2] = 1
        with pytest.raises(SanitizerError, match="overlapping"):
            buddy.sanitizer.full_scan()

    def test_unmerged_buddies_detected(self):
        buddy = BuddyAllocator(1024, sanitize=True)
        start = buddy.alloc_block(3)
        # Both halves of an order-3 block free at order 2: they must
        # have merged.
        buddy._free_lists[2][start] = None
        buddy._block_order[start] = 2
        buddy._free_lists[2][start + 4] = None
        buddy._block_order[start + 4] = 2
        with pytest.raises(SanitizerError, match="unmerged"):
            buddy.sanitizer.full_scan()

    def test_accounting_mismatch_with_physical(self):
        kernel = Kernel(KernelConfig(num_frames=1024), sanitize=True)
        sanitizer = kernel.buddy.sanitizer
        sanitizer.check_accounting()  # boot state is consistent
        # Steal a frame from the physical map without telling the buddy.
        free_pfn = next(
            pfn for pfn in range(1024) if not kernel.physical.is_allocated(pfn)
        )
        kernel.physical.mark_allocated(
            free_pfn, 1, owner=77, movable=True, backing_vpn=0
        )
        with pytest.raises(SanitizerError, match="disagrees|allocated"):
            sanitizer.check_accounting()

    def test_standalone_buddy_skips_accounting(self):
        buddy = BuddyAllocator(1024, sanitize=True)
        buddy.sanitizer.check_accounting()  # no physical linked: no-op


class TestPageTableSanitizer:
    def test_clean_faults_pass(self):
        kernel = Kernel(KernelConfig(num_frames=4096, seed=3), sanitize=True)
        process = kernel.create_process("clean")
        kernel.malloc(process, 64, populate=True)
        kernel.sanitizer.full_scan()

    def test_mismatched_pte_detected(self):
        kernel = Kernel(
            KernelConfig(num_frames=4096, ths_enabled=False, seed=3),
            sanitize=True,
        )
        process = kernel.create_process("victim")
        vma = kernel.malloc(process, 8, populate=True)
        vpn = vma.start_vpn
        pfn = process.page_table.lookup(vpn).pfn
        # The frame map now claims the frame backs a different VPN.
        kernel.physical.retag(pfn, owner=process.pid, backing_vpn=vpn + 1)
        with pytest.raises(SanitizerError, match="mismatched PTE"):
            kernel.sanitizer.full_scan()

    def test_foreign_owner_detected(self):
        kernel = Kernel(
            KernelConfig(num_frames=4096, ths_enabled=False, seed=3),
            sanitize=True,
        )
        process = kernel.create_process("victim")
        vma = kernel.malloc(process, 8, populate=True)
        vpn = vma.start_vpn
        pfn = process.page_table.lookup(vpn).pfn
        kernel.physical.retag(pfn, owner=process.pid + 40, backing_vpn=vpn)
        with pytest.raises(SanitizerError, match="owned by pid"):
            kernel.sanitizer.full_scan()

    def test_mapped_frame_in_free_pool_detected(self):
        kernel = Kernel(
            KernelConfig(num_frames=4096, ths_enabled=False, seed=3),
            sanitize=True,
        )
        process = kernel.create_process("victim")
        vma = kernel.malloc(process, 1, populate=True)
        pfn = process.page_table.lookup(vma.start_vpn).pfn
        # Double-free the frame into the buddy pool while it stays mapped.
        kernel.buddy.free_block(pfn, 0)
        with pytest.raises(SanitizerError, match="free"):
            kernel.sanitizer.full_scan()


class TestSanitizedRunsAreTransparent:
    """Sanitizers observe; they must never change simulated results."""

    def test_mmu_counters_identical_with_and_without(self):
        plain = build_mmu_for_comparison(sanitize=False)
        checked = build_mmu_for_comparison(sanitize=True)
        assert plain.counters.as_dict() == checked.counters.as_dict()
        for name in ("l1", "l2", "superpage_tlb"):
            tlb_plain = getattr(plain, name)
            tlb_checked = getattr(checked, name)
            assert tlb_plain.entries() == tlb_checked.entries()


def build_mmu_for_comparison(sanitize):
    table = PageTable()
    for offset in range(256):
        table.map_page(1024 + offset, 5000 + offset)
    walker = PageWalker(table, CacheHierarchy(), MMUCache())
    mmu = MMU(make_mmu_config(CoLTDesign.COLT_ALL), walker, sanitize=sanitize)
    for sweep in range(3):
        for vpn in range(1024, 1280, 2):
            mmu.access(vpn)
    return mmu

"""Kernel facade: the complete OS memory-management substrate.

``Kernel`` wires together the physical-memory map, the buddy allocator,
the compaction daemon, and the THP manager, and exposes the operations
the rest of the simulator needs: process creation, mmap/malloc, demand
page faults, munmap, background ticks, and reclaim.

The kernel configuration mirrors the five system settings of the paper's
characterisation study (Section 5.1.1): Transparent Hugepage Support on or
off (``ths_enabled``) and the memory-compaction ``defrag`` flag on
("normal memory compaction": compaction runs on page faults *and* as
background activity) or off ("low memory compaction": compaction only as
a last resort before OOM).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizers import PageTableSanitizer, resolve_sanitize
from repro.common.errors import ConfigurationError, OutOfMemoryError, PageFaultError
from repro.common.rng import SeedSequencer
from repro.common.statistics import CounterSet
from repro.common.types import PageAttributes, Translation
from repro.obs.registry import bind_counterset, get_registry
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.compaction import CompactionDaemon
from repro.osmem.physical import KERNEL_PID, PhysicalMemory
from repro.osmem.process import Process
from repro.osmem.thp import ThpManager
from repro.osmem.vma import VMA, VMAKind


@dataclass(frozen=True)
class KernelConfig:
    """Tunable parameters of the simulated kernel.

    Attributes:
        num_frames: physical memory size in 4KB frames.
        ths_enabled: Transparent Hugepage Support (Section 3.2.3).
        defrag_enabled: the Linux ``defrag`` flag (Section 5.1.1) --
            normal vs. low memory compaction.
        kernel_reserved_fraction: fraction of frames pinned at boot;
            models unmovable kernel pages that cap what compaction can
            achieve.
        kernel_reserved_cluster: pinned frames are reserved in clusters of
            this many frames. Linux's anti-fragmentation groups unmovable
            allocations into pageblocks, so pins cluster rather than
            scatter; this is what leaves some 2MB-aligned regions pin-free
            for THP and compaction.
        table_pool_order: page-table nodes are carved from pinned pools of
            ``2**order`` frames (the MIGRATE_UNMOVABLE pageblock model),
            instead of sprinkling single pinned frames through memory.
        fault_batch: default pages populated per demand fault.
        background_compaction_order: with defrag on, a background tick
            compacts when the buddy allocator cannot supply a block of
            this order despite ample free memory.
        background_compaction_budget: max migrations per background run.
        thp_fault_compaction_budget: max migrations for the direct
            compaction a failed hugepage fault triggers (Linux gives
            direct compaction a tight budget, which is why "aligned 2MB
            regions are rare", Section 3.2.3).
        compaction_cooldown_ticks: minimum ticks between background runs.
        kswapd_watermark: free-memory fraction kswapd maintains by
            reclaiming from victim processes (dropping aged page cache)
            before anything drastic happens.
        pressure_split_free_fraction: when free memory drops below this
            fraction *even after reclaim*, the THS splitter breaks one
            superpage per event (Section 3.2.3's pressure daemon).
        seed: root seed for the kernel's own randomness (pinned-frame
            placement).
    """

    num_frames: int = 1 << 16
    ths_enabled: bool = True
    defrag_enabled: bool = True
    kernel_reserved_fraction: float = 0.03
    kernel_reserved_cluster: int = 64
    table_pool_order: int = 5
    fault_batch: int = 16
    background_compaction_order: int = 9
    background_compaction_budget: int = 512
    thp_fault_compaction_budget: int = 768
    compaction_cooldown_ticks: int = 32
    kswapd_watermark: float = 0.06
    pressure_split_free_fraction: float = 0.03
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_frames < 1024:
            raise ConfigurationError("num_frames must be >= 1024")
        if not 0.0 <= self.kernel_reserved_fraction < 0.5:
            raise ConfigurationError("kernel_reserved_fraction out of range")
        if self.fault_batch < 1:
            raise ConfigurationError("fault_batch must be >= 1")

    def with_updates(self, **kwargs) -> "KernelConfig":
        return replace(self, **kwargs)


class Kernel:
    """The simulated operating system's memory manager."""

    def __init__(
        self,
        config: KernelConfig = KernelConfig(),
        sanitize: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.physical = PhysicalMemory(config.num_frames)
        self.buddy = BuddyAllocator(config.num_frames, sanitize=sanitize)
        #: Optional :class:`PageTableSanitizer`; ``sanitize=None`` defers
        #: to the ``COLT_SANITIZE`` environment variable.
        self.sanitizer: Optional[PageTableSanitizer] = None
        if resolve_sanitize(sanitize):
            self.sanitizer = PageTableSanitizer(self)
            if self.buddy.sanitizer is not None:
                # Give the buddy sanitizer the frame map so its quiescent
                # accounting cross-check can compare free-page tallies.
                self.buddy.sanitizer.physical = self.physical
        self._processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._reclaim_victims: List[int] = []
        self._invalidation_listeners: List = []
        self.compaction = CompactionDaemon(
            self.physical,
            self.buddy,
            self._resolve_process,
            notify_invalidation=self._notify_invalidation,
        )
        self.thp = ThpManager(
            self.physical,
            self.buddy,
            notify_invalidation=self._notify_invalidation,
        )
        self.counters = CounterSet(
            [
                "faults",
                "pages_faulted",
                "fault_compactions",
                "background_compactions",
                "oom_compactions",
                "reclaimed_pages",
                "oom_events",
                "pressure_splits",
                "pressure_compactions",
                "table_frames",
            ]
        )
        self._seeds = SeedSequencer(config.seed)
        self._table_pool: List[int] = []
        self._ticks = 0
        self._last_compaction_tick = -config.compaction_cooldown_ticks
        bind_counterset(get_registry(), "colt_kernel", self.counters)
        self._reserve_kernel_frames()

    def bind_counters(self) -> None:
        """Report the kernel's counter sets through the process registry.

        Each component binds its own set when it is constructed; a
        kernel cloned by unpickling skips construction, so the clone
        calls this to report its counts like a booted kernel.
        """
        registry = get_registry()
        bind_counterset(registry, "colt_kernel", self.counters)
        bind_counterset(registry, "colt_buddy", self.buddy.counters)
        bind_counterset(registry, "colt_compaction", self.compaction.counters)
        bind_counterset(registry, "colt_thp", self.thp.counters)

    # ------------------------------------------------------------------
    # Boot.
    # ------------------------------------------------------------------

    def _reserve_kernel_frames(self) -> None:
        """Pin clustered frame groups for kernel text/data at boot.

        Pins are placed in clusters (Linux's pageblock anti-fragmentation
        keeps unmovable allocations together), so they bound the largest
        free run compaction can produce without shattering every
        2MB-aligned region the way uniformly-scattered pins would.
        """
        count = int(self.config.num_frames * self.config.kernel_reserved_fraction)
        cluster = max(1, self.config.kernel_reserved_cluster)
        if count == 0:
            return
        rng = self._seeds.rng("kernel.pinned")
        num_clusters = max(1, count // cluster)
        slots = self.config.num_frames // cluster
        picks = rng.choice(slots, size=min(num_clusters, slots), replace=False)
        for slot in sorted(int(s) for s in picks):
            start = slot * cluster
            length = min(cluster, self.config.num_frames - start)
            self.buddy.reserve_range(start, length)
            self.physical.mark_allocated(
                start, length, owner=KERNEL_PID, movable=False, backing_vpn=None
            )

    # ------------------------------------------------------------------
    # Process lifecycle.
    # ------------------------------------------------------------------

    def create_process(
        self, name: str = "", fault_batch: Optional[int] = None
    ) -> Process:
        pid = self._next_pid
        self._next_pid += 1
        process = Process(
            pid,
            name=name,
            allocate_table_frame=self._alloc_table_frame,
            release_table_frame=self._release_table_frame,
            fault_batch=fault_batch or self.config.fault_batch,
        )
        self._processes[pid] = process
        return process

    def exit_process(self, process: Process) -> None:
        """Tear down a process, freeing every frame it owns."""
        self.thp.forget_process(process)
        for translation in list(process.iter_mappings()):
            if translation.is_superpage:
                process.page_table.unmap_superpage(translation.vpn)
                self._free_frames(translation.pfn, 512)
            else:
                process.page_table.unmap_page(translation.vpn)
                self._free_frames(translation.pfn, 1)
        self._processes.pop(process.pid, None)
        if process.pid in self._reclaim_victims:
            self._reclaim_victims.remove(process.pid)

    def processes(self) -> List[Process]:
        return list(self._processes.values())

    def _resolve_process(self, pid: int) -> Optional[Process]:
        return self._processes.get(pid)

    def add_invalidation_listener(self, listener) -> None:
        """Subscribe to TLB-shootdown events.

        ``listener(pid, start_vpn, count)`` fires whenever the kernel
        changes or removes existing translations: munmap, page migration,
        THP splits, and reclaim. The system simulator uses this to keep
        the simulated TLBs coherent with the simulated page tables.
        """
        self._invalidation_listeners.append(listener)

    def _notify_invalidation(self, pid: int, start_vpn: int, count: int) -> None:
        for listener in self._invalidation_listeners:
            listener(pid, start_vpn, count)

    def register_reclaim_victim(self, process: Process) -> None:
        """Mark a process's pages as reclaimable under memory pressure.

        Background-churn processes and memhog register here; reclaiming
        from them models swap-out without modelling a swap device.
        """
        if process.pid not in self._reclaim_victims:
            self._reclaim_victims.append(process.pid)

    def is_reclaim_victim(self, pid: int) -> bool:
        """Whether ``pid``'s pages may be reclaimed under pressure."""
        return pid in self._reclaim_victims

    # ------------------------------------------------------------------
    # Allocation API used by workloads.
    # ------------------------------------------------------------------

    def malloc(
        self,
        process: Process,
        num_pages: int,
        name: str = "heap",
        populate: bool = True,
        align_huge: Optional[bool] = None,
        kind: VMAKind = VMAKind.ANONYMOUS,
        thp_eligible: bool = True,
        populate_batch: Optional[int] = None,
    ) -> VMA:
        """Model a large malloc: one mmap'd VMA, optionally populated.

        With ``populate=True`` the whole extent is faulted immediately in
        request-sized batches -- the paper's observation that applications
        "make malloc calls that simultaneously request a number of
        physical pages together" (Section 3.2.1). With ``populate=False``
        pages arrive by demand faults of ``process.fault_batch``.
        """
        if align_huge is None:
            align_huge = self.config.ths_enabled and kind is VMAKind.ANONYMOUS
        vma = process.mmap(
            num_pages,
            kind=kind,
            name=name,
            align_huge=align_huge and thp_eligible,
            thp_eligible=thp_eligible,
        )
        if populate:
            self.populate_range(
                process, vma.start_vpn, num_pages, batch=populate_batch
            )
        return vma

    def free_vma(self, process: Process, vma: VMA) -> None:
        """munmap an entire VMA, freeing its populated frames."""
        self.unpopulate_range(process, vma.start_vpn, vma.num_pages)
        process.address_space.unmap(vma)

    def populate_range(
        self,
        process: Process,
        start_vpn: int,
        num_pages: int,
        batch: Optional[int] = None,
    ) -> None:
        """Fault in ``[start_vpn, start_vpn + num_pages)`` eagerly.

        ``batch`` is the allocation granularity: one huge malloc requests
        everything at once (batch=None), while a program that builds its
        data structure node by node effectively performs thousands of
        small allocations in address order (batch=1..16). The granularity
        decides how much contiguity the buddy allocator can hand over in
        one piece.
        """
        vpn = start_vpn
        end = start_vpn + num_pages
        while vpn < end:
            if process.is_populated(vpn):
                vpn += 1
                continue
            limit = end - vpn if batch is None else min(batch, end - vpn)
            faulted = self._fault_at(process, vpn, batch_limit=limit)
            vpn += faulted

    def unpopulate_range(self, process: Process, start_vpn: int, num_pages: int) -> None:
        """Unmap and free any populated pages in the range.

        Superpages overlapping the range are split first (as Linux does on
        partial munmap), then their pages inside the range are freed --
        pages outside the range survive as residually-contiguous 4KB
        mappings.
        """
        end = start_vpn + num_pages
        # Split overlapping superpages first.
        for chunk in self.thp.active_for(process.pid):
            if chunk < end and chunk + 512 > start_vpn:
                self._split_chunk(process, chunk)
        removed = process.page_table.unmap_run(start_vpn, num_pages)
        process.note_unpopulated(start_vpn, num_pages)
        # Shoot down page by page; free each maximal run of pages that
        # is contiguous in both VPN and PFN.
        notify, pid = self._notify_invalidation, process.pid
        run_vpn = run_pfn = run_len = 0
        for vpn, pfn in removed:
            notify(pid, vpn, 1)
            if vpn == run_vpn + run_len and pfn == run_pfn + run_len:
                run_len += 1
                continue
            if run_len:
                self._free_frames(run_pfn, run_len)
            run_vpn, run_pfn, run_len = vpn, pfn, 1
        if run_len:
            self._free_frames(run_pfn, run_len)

    # ------------------------------------------------------------------
    # Demand faulting.
    # ------------------------------------------------------------------

    def touch(self, process: Process, vpn: int, write: bool = False) -> Translation:
        """Ensure ``vpn`` is populated; returns its translation.

        This is the access path used by the system simulator: an access to
        an unpopulated page takes a demand fault that populates up to
        ``process.fault_batch`` pages.
        """
        if not process.is_populated(vpn):
            process.address_space.require(vpn)
            self._fault_at(process, vpn, batch_limit=process.fault_batch)
        translation = process.page_table.lookup(vpn)
        if translation is None:  # pragma: no cover - internal invariant
            raise PageFaultError(f"vpn {vpn} still unmapped after fault")
        process.page_table.mark_accessed(vpn, dirty=write)
        return translation

    def _fault_at(self, process: Process, vpn: int, batch_limit: int) -> int:
        """Handle a fault at ``vpn``; returns pages populated (>= 1)."""
        faulted = self._do_fault_at(process, vpn, batch_limit)
        if self.sanitizer is not None:
            # The fault is fully retired here -- page table, frame map and
            # buddy allocator are mutually quiescent -- so this is the
            # sanctioned point for cross-structure checks.
            self.sanitizer.after_fault(process, vpn)
        return faulted

    def _do_fault_at(self, process: Process, vpn: int, batch_limit: int) -> int:
        self.counters.increment("faults")
        vma = process.address_space.require(vpn)

        # 1. THP path: a fully-unpopulated, fully-contained 2MB chunk of
        #    an anonymous VMA gets one shot at an order-9 block.
        if self.config.ths_enabled:
            chunk = self.thp.eligible_chunk(process, vma, vpn)
            if chunk is not None and batch_limit >= 1:
                if self.thp.try_fault_huge(process, chunk):
                    self.counters.increment("pages_faulted", 512)
                    self._after_allocation()
                    return max(1, chunk + 512 - vpn)
                if self.config.defrag_enabled:
                    # Linux's defrag-on-fault: compact, then retry once.
                    self.counters.increment("fault_compactions")
                    self.compaction.run(
                        max_migrations=self.config.thp_fault_compaction_budget,
                        until_free_order=9,
                    )
                    if self.thp.try_fault_huge(process, chunk):
                        self.counters.increment("pages_faulted", 512)
                        self._after_allocation()
                        return max(1, chunk + 512 - vpn)

        # 2. Base-page path: allocate a batch of frames, as contiguous as
        #    the buddy allocator can manage, and map them consecutively.
        #    With THS on, never populate past the next 2MB boundary of an
        #    anonymous VMA in one batch -- each fresh chunk must get its
        #    own hugepage attempt, as on Linux.
        if self.config.ths_enabled and vma.kind is VMAKind.ANONYMOUS:
            next_chunk = (vpn // 512 + 1) * 512
            batch_limit = min(batch_limit, next_chunk - vpn)
        batch = process.unpopulated_run_from(vpn, batch_limit)
        batch = max(1, batch)
        runs = self._alloc_with_recovery(batch)
        map_run = process.page_table.map_run
        attributes = PageAttributes.default_user()
        mapped = 0
        for start_pfn, length in runs:
            first = vpn + mapped
            self.physical.mark_allocated(
                start_pfn,
                length,
                owner=process.pid,
                movable=True,
                backing_vpn=first,
            )
            map_run(first, start_pfn, length, attributes)
            process.note_populated(first, length)
            mapped += length
        self.counters.increment("pages_faulted", mapped)
        self._after_allocation()
        return mapped

    def _alloc_with_recovery(self, pages: int) -> List[Tuple[int, int]]:
        """Best-effort contiguous allocation with compaction/reclaim retry."""
        try:
            return self.buddy.alloc_run_best_effort(pages)
        except OutOfMemoryError:
            pass
        # Direct reclaim, then compaction (even with defrag off: this is
        # the last-resort path, not the opportunistic one).
        self.counters.increment("oom_events")
        freed = self._reclaim(pages * 2)
        if self.config.defrag_enabled or freed == 0:
            self.counters.increment("oom_compactions")
            self.compaction.run()
        try:
            return self.buddy.alloc_run_best_effort(pages)
        except OutOfMemoryError as exc:
            raise OutOfMemoryError(
                f"cannot satisfy {pages}-page fault after reclaim "
                f"({self.physical.free_frames} frames free)"
            ) from exc

    def _reclaim(self, pages: int) -> int:
        """Free up to ``pages`` frames from registered victim processes.

        Each victim gives up its lowest resident pages first, one page
        and one frame at a time.
        """
        freed = 0
        for pid in list(self._reclaim_victims):
            victim = self._processes.get(pid)
            if victim is None:
                continue
            active = set(self.thp.active_for(pid))
            unmap_run = victim.page_table.unmap_run
            for vpn in victim.populated_vpns(pages - freed):
                chunk = vpn - vpn % 512
                if chunk in active:
                    active.discard(chunk)
                    self._split_chunk(victim, chunk)
                for _, pfn in unmap_run(vpn, 1):
                    victim.note_unpopulated(vpn)
                    self._notify_invalidation(victim.pid, vpn, 1)
                    self._free_frames(pfn, 1)
                    freed += 1
            if freed >= pages:
                break
        self.counters.increment("reclaimed_pages", freed)
        return freed

    def _after_allocation(self) -> None:
        """Pressure checks that follow every allocation."""
        self._maintain_watermark()

    def _maintain_watermark(self) -> None:
        """kswapd: reclaim to the watermark; split THPs as a last resort.

        Reclaim under pressure frees *scattered* frames, so kswapd pairs
        it with a budgeted compaction run whenever high-order blocks are
        missing (Linux's watermark boosting). This coupling is the
        mechanism behind the paper's surprising Section 6.4 result:
        moderate memhog load *increases* the contiguity the benchmark
        receives, because the compaction daemon runs far more often.
        """
        total = self.config.num_frames
        target = int(self.config.kswapd_watermark * total)
        under_pressure = self.physical.free_frames < target
        if under_pressure:
            self._reclaim(target - self.physical.free_frames)
        order = self.config.background_compaction_order
        if (
            under_pressure
            and self.config.defrag_enabled
            and self.physical.free_frames >= (1 << (order - 2))
            and not self.buddy.can_allocate(order - 2)
        ):
            self.counters.increment("pressure_compactions")
            self.compaction.run(
                max_migrations=self.config.background_compaction_budget,
                until_free_order=order - 2,
            )
        split_floor = self.config.pressure_split_free_fraction * total
        if self.physical.free_frames < split_floor:
            if self.thp.split_one(self._resolve_process):
                self.counters.increment("pressure_splits")

    def _split_chunk(self, process: Process, chunk_base: int) -> None:
        """Split one specific superpage of ``process``."""
        key_chunks = self.thp.active_for(process.pid)
        if chunk_base in key_chunks:
            # Remove from the THP manager's book and split.
            self.thp.forget_chunk(process.pid, chunk_base)
            process.page_table.split_superpage(chunk_base)
            self._notify_invalidation(process.pid, chunk_base, 512)

    # ------------------------------------------------------------------
    # Background activity.
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """One unit of background kernel activity.

        With ``defrag`` on, the compaction daemon runs whenever the buddy
        allocator cannot supply a high-order block despite ample free
        memory (Section 5.1.1: the flag "triggers the memory compaction
        daemon both on page faults and as system background activity").
        The THS splitter runs whenever free memory is under pressure.
        """
        self._ticks += 1
        order = self.config.background_compaction_order
        needs_compaction = (
            self.config.defrag_enabled
            and self.physical.free_frames >= (1 << order)
            and not self.buddy.can_allocate(order)
            and self._ticks - self._last_compaction_tick
            >= self.config.compaction_cooldown_ticks
        )
        if needs_compaction:
            self._last_compaction_tick = self._ticks
            self.counters.increment("background_compactions")
            self.compaction.run(
                max_migrations=self.config.background_compaction_budget,
                until_free_order=order,
            )
        self._maintain_watermark()

    # ------------------------------------------------------------------
    # Frame plumbing.
    # ------------------------------------------------------------------

    def _free_frames(self, start_pfn: int, length: int) -> None:
        self.physical.mark_free(start_pfn, length)
        self.buddy.free_run(start_pfn, length)

    def _alloc_table_frame(self) -> int:
        """Pinned frame for a page-table node, carved from a pooled block.

        Carving table frames from pinned pool blocks (rather than single
        buddy pages) models Linux's MIGRATE_UNMOVABLE pageblocks: the
        pins stay clustered instead of shotgunning holes through the
        movable zone, which would make compaction useless.
        """
        if not self._table_pool:
            order = self.config.table_pool_order
            try:
                start = self.buddy.alloc_block(order)
            except OutOfMemoryError:
                start = self.buddy.alloc_block(0)
                order = 0
            length = 1 << order
            self.physical.mark_allocated(
                start, length, owner=KERNEL_PID, movable=False, backing_vpn=None
            )
            self._table_pool.extend(range(start, start + length))
        self.counters.increment("table_frames")
        return self._table_pool.pop()

    def _release_table_frame(self, pfn: int) -> None:
        # Returned to the pinned pool; pool blocks are never handed back
        # to the buddy allocator (matching how sparingly Linux drains
        # unmovable pageblocks).
        self._table_pool.append(pfn)

"""Runtime sanitizers: dynamic enforcement of simulator invariants.

Every figure the repo regenerates rests on structural invariants that
nothing on the hot path re-checks: the L2 TLB stays inclusive of the
set-associative L1, coalesced entries never overlap, the buddy free
lists stay disjoint and order-aligned, and the page tables agree with
the physical-memory ownership map. A silent break in any of them would
corrupt results without failing a test.

The sanitizers in this module attach to the live structures through
lightweight hook points (a single ``is not None`` check on the hot
path when disabled) and run two kinds of checks:

* **incremental** -- O(1)-ish validations of the object just touched,
  on every fill / fault / allocator operation;
* **full scans** -- complete structure walks every
  :data:`FULL_SCAN_EVERY` events, plus on demand (the system
  simulator runs one at the end of every sanitized run).

Enable with ``COLT_SANITIZE=1`` (any value but an off-word), or pass
``sanitize=True`` to the structures' constructors /
``SimulationConfig``. Violations raise
:class:`repro.common.errors.SanitizerError`. Sanitizers only read
simulator state, so enabling them never changes simulation results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common import knobs
from repro.common.constants import SUPERPAGE_PAGES
from repro.common.errors import SanitizerError
from repro.common.statistics import CounterSet
from repro.tlb.entries import ppn_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.mmu import MMU
    from repro.osmem.buddy import BuddyAllocator
    from repro.osmem.kernel import Kernel

#: Events between full-structure scans, unless a sanitizer's ``every``
#: says otherwise.
FULL_SCAN_EVERY = 4096


def sanitizers_enabled() -> bool:
    """True when ``COLT_SANITIZE`` requests sanitized execution."""
    return knobs.SANITIZE.on()


def resolve_sanitize(explicit: Optional[bool]) -> bool:
    """Resolve a constructor's ``sanitize`` argument against the env."""
    if explicit is None:
        return sanitizers_enabled()
    return bool(explicit)


class Sanitizer:
    """Base class: violation reporting + periodic full scans."""

    name = "sanitizer"

    def __init__(self, every: Optional[int] = None) -> None:
        self.every = every if every is not None else FULL_SCAN_EVERY
        self._events = 0
        self.counters = CounterSet(
            ["incremental_checks", "full_scans", "violations"]
        )

    def fail(self, message: str) -> None:
        """Record and raise an invariant violation."""
        self.counters.increment("violations")
        raise SanitizerError(f"{self.name}: {message}")

    def event(self) -> None:
        """Count one incremental check; full-scan every ``every`` events."""
        self.counters.increment("incremental_checks")
        self._events += 1
        if self._events % self.every == 0:
            self.full_scan()

    def full_scan(self) -> None:
        """Walk the whole structure; raise on any violated invariant."""
        raise NotImplementedError


class TLBSanitizer(Sanitizer):
    """Checks the two-level TLB hierarchy after fills and shootdowns.

    Invariants enforced (Sections 4.1-4.3 of the paper plus the repo's
    own inclusive-L2 design):

    * the L2 TLB is inclusive of the set-associative L1: every VPN with
      a valid L1 slot is covered by L2, with the same PPN;
    * no two entries of one set cover the same VPN (coalesced ranges in
      a set are disjoint), and overlapping FA range entries never
      disagree on a translation;
    * per-set occupancy never exceeds the associativity, and FA
      occupancy never exceeds the entry count;
    * every set-associative entry is one run inside an aligned group of
      the TLB's group size and sits in the set the CoLT-SA shifted index
      selects for that group (Section 4.1.2's placement rule);
    * a filled translation agrees with the walk that resolved it.
    """

    name = "tlb-sanitizer"

    def __init__(self, mmu: "MMU", every: Optional[int] = None) -> None:
        super().__init__(every)
        self.mmu = mmu

    def attach(self) -> None:
        """Register this sanitizer on the MMU's three TLB structures."""
        self.mmu.l1.sanitizer = self
        self.mmu.l2.sanitizer = self
        self.mmu.superpage_tlb.sanitizer = self

    # -- incremental ---------------------------------------------------

    def after_insert(self, tlb, entry) -> None:
        """Validate one TLB insert, at the inserting TLB's hook point.

        Deliberately does not call :meth:`event`: inserts fire mid-fill,
        before the MMU has restored cross-TLB invariants (L1
        back-invalidation follows the L2 insert), so only local checks
        are legal here. :meth:`after_fill` runs at the consistent point.
        """
        self.counters.increment("incremental_checks")
        if tlb is self.mmu.superpage_tlb:
            self._check_fa_overlap(tlb, entry)
        else:
            self._check_set_disjoint(tlb, entry)

    def _check_set_disjoint(self, tlb, entry) -> None:
        """No two entries of the touched set may cover the same VPN."""
        set_index = tlb.set_index_for(entry[0])
        covered = set()
        for start, end, _ppn, _attr in tlb.set_entries(set_index):
            for vpn in range(start, end + 1):
                if vpn in covered:
                    self.fail(
                        f"set {set_index} of the {tlb.config.name}: vpn "
                        f"{vpn} covered by two entries after insert "
                        f"(overlapping coalesced ranges)"
                    )
                covered.add(vpn)

    def _check_fa_overlap(self, fa, entry) -> None:
        """Overlapping FA residents must agree with the inserted entry."""
        base, end, ppn, _attr, is_superpage = entry
        for resident in fa.entries():
            if resident is entry:
                continue
            if resident[1] <= base or end <= resident[0]:
                continue
            if resident[4] and is_superpage:
                self.fail(
                    f"overlapping superpage entries at {base} "
                    f"and {resident[0]} after insert"
                )
            if resident[2] - resident[0] != ppn - base:
                self.fail(
                    f"inserted fa range [{base},{end}) -> {ppn} "
                    f"contradicts resident [{resident[0]},{resident[1]}) "
                    f"-> {resident[2]}"
                )

    def after_fill(self, vpn: int, pfn: int) -> None:
        """Validate the structures the fill of ``vpn`` just touched.

        ``pfn`` is the frame the walk resolved -- the architectural page
        table's answer at the time of the walk, live or captured.
        """
        mmu = self.mmu
        covered = False
        for tlb_name, entry in (
            ("l1", mmu.l1.entry_for(vpn)),
            ("l2", mmu.l2.entry_for(vpn)),
            ("fa", mmu.superpage_tlb.covering_entry(vpn)),
        ):
            if entry is None:
                continue
            covered = True
            got = ppn_for(entry, vpn)
            if got != pfn:
                self.fail(
                    f"{tlb_name} entry maps vpn {vpn} to ppn {got}, page "
                    f"table says {pfn}"
                )
        if not covered:
            self.fail(f"fill of vpn {vpn} left it resident in no TLB")
        self._check_inclusive_at(vpn)
        self._check_occupancy()
        self.event()

    def after_invalidate(self, vpn: int) -> None:
        """After a shootdown, ``vpn`` must be gone from every TLB."""
        mmu = self.mmu
        for tlb_name, entry in (
            ("l1", mmu.l1.entry_for(vpn)),
            ("l2", mmu.l2.entry_for(vpn)),
            ("fa", mmu.superpage_tlb.covering_entry(vpn)),
        ):
            if entry is not None:
                self.fail(
                    f"vpn {vpn} still covered by {tlb_name} after shootdown"
                )
        self.event()

    def _check_inclusive_at(self, vpn: int) -> None:
        l1_entry = self.mmu.l1.entry_for(vpn)
        if l1_entry is None:
            return
        l2_entry = self.mmu.l2.entry_for(vpn)
        if l2_entry is None:
            self.fail(f"L1 covers vpn {vpn} but L2 does not (inclusivity)")
        if ppn_for(l2_entry, vpn) != ppn_for(l1_entry, vpn):
            self.fail(
                f"L1/L2 disagree on vpn {vpn}: {ppn_for(l1_entry, vpn)} vs "
                f"{ppn_for(l2_entry, vpn)}"
            )

    def _check_occupancy(self) -> None:
        mmu = self.mmu
        for label, tlb in (("l1", mmu.l1), ("l2", mmu.l2)):
            if tlb.occupancy > tlb.config.entries:
                self.fail(
                    f"{label} occupancy {tlb.occupancy} exceeds capacity "
                    f"{tlb.config.entries}"
                )
        fa = mmu.superpage_tlb
        if fa.occupancy > fa.config.entries:
            self.fail(
                f"fa occupancy {fa.occupancy} exceeds capacity "
                f"{fa.config.entries}"
            )

    # -- full scan -----------------------------------------------------

    def full_scan(self) -> None:
        self.counters.increment("full_scans")
        mmu = self.mmu
        self._scan_set_associative("l1", mmu.l1)
        self._scan_set_associative("l2", mmu.l2)
        self._scan_fully_associative(mmu.superpage_tlb)
        self._scan_inclusivity()

    def _scan_set_associative(self, label: str, tlb) -> None:
        config = tlb.config
        group = config.group_size
        for set_index, entries in tlb.iter_sets():
            if len(entries) > config.ways:
                self.fail(
                    f"{label} set {set_index} holds {len(entries)} entries "
                    f"but has {config.ways} ways"
                )
            covered = set()
            for start, end, _ppn, _attr in entries:
                if start > end or start // group != end // group:
                    self.fail(
                        f"{label} entry [{start}, {end}] is not a run "
                        f"inside one aligned group of {group} VPNs"
                    )
                home = tlb.set_index_for(start)
                if home != set_index:
                    self.fail(
                        f"{label} entry for group {start - start % group} "
                        f"found in set {set_index}, shifted index says "
                        f"{home}"
                    )
                for vpn in range(start, end + 1):
                    if vpn in covered:
                        self.fail(
                            f"{label} set {set_index}: vpn {vpn} covered by "
                            f"two entries (overlapping coalesced ranges)"
                        )
                    covered.add(vpn)

    def _scan_fully_associative(self, fa) -> None:
        entries = fa.entries()
        for base, end, _ppn, _attr, is_superpage in entries:
            span = end - base
            if is_superpage:
                if span != SUPERPAGE_PAGES:
                    self.fail(f"fa superpage entry spans {span} pages")
                if base % SUPERPAGE_PAGES:
                    self.fail(
                        f"fa superpage entry base vpn {base} is not "
                        f"512-page aligned"
                    )
            else:
                if span > fa.config.max_span:
                    self.fail(
                        f"fa range entry span {span} exceeds max "
                        f"span {fa.config.max_span}"
                    )
                if span > 1 and not fa.config.allow_coalesced:
                    self.fail(
                        "fa TLB holds a coalesced range entry but "
                        "allow_coalesced is off"
                    )
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                if a[1] <= b[0] or b[1] <= a[0]:
                    continue
                if a[4] and b[4]:
                    self.fail(
                        f"fa TLB holds overlapping superpage entries at "
                        f"{a[0]} and {b[0]}"
                    )
                if a[2] - a[0] != b[2] - b[0]:
                    self.fail(
                        f"fa TLB holds overlapping range entries that "
                        f"disagree: [{a[0]},{a[1]}) -> {a[2]} vs "
                        f"[{b[0]},{b[1]}) -> {b[2]}"
                    )

    def _scan_inclusivity(self) -> None:
        mmu = self.mmu
        for entry in mmu.l1.entries():
            for vpn in range(entry[0], entry[1] + 1):
                l2_entry = mmu.l2.entry_for(vpn)
                if l2_entry is None:
                    self.fail(
                        f"L1 covers vpn {vpn} but L2 does not (inclusivity)"
                    )
                if ppn_for(l2_entry, vpn) != ppn_for(entry, vpn):
                    self.fail(
                        f"L1/L2 disagree on vpn {vpn}: "
                        f"{ppn_for(entry, vpn)} vs {ppn_for(l2_entry, vpn)}"
                    )


class BuddySanitizer(Sanitizer):
    """Checks the buddy allocator's free lists after every operation.

    Invariants (Section 3.2.1's structure):

    * every free block is naturally aligned and lies inside memory;
    * free blocks are pairwise disjoint;
    * no block and its buddy are both free at the same order (they
      would have merged);
    * the free-page accounting sums consistently, and -- when the
      sanitizer is linked to a :class:`PhysicalMemory` -- the buddy's
      free pool exactly complements the frames physical memory records
      as allocated.
    """

    name = "buddy-sanitizer"

    def __init__(
        self,
        buddy: "BuddyAllocator",
        physical=None,
        every: Optional[int] = None,
    ) -> None:
        super().__init__(every)
        self.buddy = buddy
        #: Linked by the kernel; standalone allocators leave it None.
        self.physical = physical

    # -- incremental ---------------------------------------------------

    def after_op(self) -> None:
        """Cheap bookkeeping check after one alloc/free operation."""
        free = self.buddy.free_pages
        if free > self.buddy.num_frames:
            self.fail(
                f"free pages {free} exceed total frames "
                f"{self.buddy.num_frames}"
            )
        self.event()

    # -- full scan -----------------------------------------------------

    def full_scan(self) -> None:
        self.counters.increment("full_scans")
        buddy = self.buddy
        snapshot = buddy.free_list_snapshot()
        order_of = {}
        for order, starts in snapshot.items():
            for start in starts:
                order_of[start] = order
        seen_end = -1
        for start, order in sorted(order_of.items()):
            size = 1 << order
            if start % size:
                self.fail(
                    f"free block {start} misaligned for order {order}"
                )
            if start + size > buddy.num_frames:
                self.fail(
                    f"free block [{start}, {start + size}) extends past "
                    f"end of memory ({buddy.num_frames} frames)"
                )
            if start < seen_end:
                self.fail(
                    f"overlapping free blocks around frame {start}"
                )
            seen_end = start + size
            if order < buddy.max_order - 1:
                buddy_start = start ^ size
                if order_of.get(buddy_start) == order:
                    self.fail(
                        f"unmerged buddies at order {order}: {start} and "
                        f"{buddy_start}"
                    )
        total = sum(
            len(starts) << order for order, starts in snapshot.items()
        )
        if total != buddy.free_pages:
            self.fail(
                f"free list holds {total} pages but accounting says "
                f"{buddy.free_pages}"
            )

    def check_accounting(self) -> None:
        """Cross-check the free pool against physical-memory state.

        Only valid at kernel-level quiescent points: mid-operation the
        buddy allocator legitimately runs ahead of the frame map.
        """
        if self.physical is None:
            return
        counted = self.physical.count_allocated()
        if self.physical.allocated_frames != counted:
            self.fail(
                f"physical memory's allocated-frame count "
                f"({self.physical.allocated_frames}) disagrees with its "
                f"frame map ({counted} frames allocated)"
            )
        if self.buddy.free_pages != self.physical.free_frames:
            self.fail(
                f"buddy free pool ({self.buddy.free_pages} pages) "
                f"disagrees with physical memory "
                f"({self.physical.free_frames} free frames)"
            )
        for order, starts in self.buddy.free_list_snapshot().items():
            for start in starts:
                if not self.physical.range_is_free(start, 1 << order):
                    self.fail(
                        f"free block [{start}, {start + (1 << order)}) "
                        f"contains frames physical memory marks allocated"
                    )


class PageTableSanitizer(Sanitizer):
    """Checks page-table <-> physical-frame agreement for a kernel.

    Invariants:

    * every mapped 4KB page's frame is allocated, owned by the mapping
      process, and records the mapping VPN as its backing page;
    * no mapped frame sits in the buddy allocator's free pool;
    * superpage leaves are 512-page aligned in both VPN and PFN space
      (Section 2.2's alignment requirement), and own all 512 frames.
    """

    name = "page-table-sanitizer"

    def __init__(self, kernel: "Kernel", every: Optional[int] = None) -> None:
        super().__init__(every)
        self.kernel = kernel

    # -- incremental ---------------------------------------------------

    def after_fault(self, process, vpn: int) -> None:
        """Validate the translation a fault just installed."""
        translation = process.page_table.lookup(vpn)
        if translation is None:
            # A reclaim victim's fresh page may be reclaimed by the
            # watermark pass before the fault returns; that is legal.
            if self.kernel.is_reclaim_victim(process.pid):
                self.event()
                return
            self.fail(
                f"fault for pid {process.pid} vpn {vpn} installed no "
                f"translation"
            )
        self._check_translation(process, translation)
        buddy_sanitizer = self.kernel.buddy.sanitizer
        if buddy_sanitizer is not None:
            buddy_sanitizer.check_accounting()
        self.event()

    def _check_translation(self, process, translation) -> None:
        physical = self.kernel.physical
        vpn, pfn = translation.vpn, translation.pfn
        if translation.is_superpage:
            base_vpn = vpn - vpn % SUPERPAGE_PAGES
            base_pfn = pfn - (vpn - base_vpn)
            if base_pfn % SUPERPAGE_PAGES:
                self.fail(
                    f"superpage at vpn {base_vpn} backed by misaligned "
                    f"frame {base_pfn}"
                )
            probes = (base_pfn, base_pfn + SUPERPAGE_PAGES - 1)
        else:
            probes = (pfn,)
            if physical.backing_vpn_of(pfn) != vpn:
                self.fail(
                    f"frame {pfn} backs vpn "
                    f"{physical.backing_vpn_of(pfn)} per the frame map, "
                    f"but the page table maps vpn {vpn} to it "
                    f"(mismatched PTE)"
                )
        for probe in probes:
            if not physical.is_allocated(probe):
                self.fail(
                    f"vpn {vpn} maps frame {probe}, which is free"
                )
            owner = physical.owner_of(probe)
            if owner != process.pid:
                self.fail(
                    f"vpn {vpn} of pid {process.pid} maps frame {probe} "
                    f"owned by pid {owner}"
                )
            if self.kernel.buddy.is_frame_free(probe):
                self.fail(
                    f"mapped frame {probe} also sits in the buddy free "
                    f"pool"
                )

    # -- full scan -----------------------------------------------------

    def full_scan(self) -> None:
        self.counters.increment("full_scans")
        for process in self.kernel.processes():
            for translation in process.page_table.iter_mappings():
                self._check_translation(process, translation)
        buddy_sanitizer = self.kernel.buddy.sanitizer
        if buddy_sanitizer is not None:
            buddy_sanitizer.check_accounting()

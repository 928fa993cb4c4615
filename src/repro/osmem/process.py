"""Process model: address space + page table + population tracking.

A :class:`Process` owns its virtual address space and page table. It does
*not* allocate physical memory itself -- page faults are handled by the
kernel (``repro.osmem.kernel``), which decides between THP, batched buddy
allocation, compaction, and reclaim. The process records which virtual
pages are populated so the fault path and the THP daemon can make the
same decisions Linux makes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Set

from repro.common.constants import SUPERPAGE_PAGES
from repro.common.types import Translation
from repro.osmem.page_table import PageTable
from repro.osmem.vma import VMA, AddressSpace, VMAKind


class Process:
    """A simulated process.

    Args:
        pid: process id; must be unique and nonzero (0 is the kernel).
        name: human-readable label (benchmark name, "memhog", ...).
        allocate_table_frame / release_table_frame: kernel-provided frame
            source for page-table nodes.
        fault_batch: how many pages the fault path populates around a
            faulting page in one go. Applications that allocate large
            structures up front effectively fault in large batches (the
            paper's Section 3.2.1 malloc argument); pointer-heavy
            allocators fault nearly one page at a time.
    """

    def __init__(
        self,
        pid: int,
        name: str = "",
        allocate_table_frame: Optional[Callable[[], int]] = None,
        release_table_frame: Optional[Callable[[int], None]] = None,
        fault_batch: int = 16,
    ) -> None:
        if pid <= 0:
            raise ValueError(f"pid must be positive, got {pid}")
        if fault_batch < 1:
            raise ValueError(f"fault_batch must be >= 1, got {fault_batch}")
        self.pid = pid
        self.name = name or f"pid{pid}"
        self.fault_batch = fault_batch
        self.address_space = AddressSpace()
        self.page_table = PageTable(allocate_table_frame, release_table_frame)
        self._populated: Set[int] = set()

    # ------------------------------------------------------------------
    # Population bookkeeping (maintained by the kernel's fault path).
    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._populated)

    def is_populated(self, vpn: int) -> bool:
        return vpn in self._populated

    def note_populated(self, vpn: int, count: int = 1) -> None:
        self._populated.update(range(vpn, vpn + count))

    def note_unpopulated(self, vpn: int, count: int = 1) -> None:
        self._populated.difference_update(range(vpn, vpn + count))

    def unpopulated_run_from(self, vpn: int, limit: int) -> int:
        """Length of the unpopulated run starting at ``vpn``, capped.

        The fault path uses this to size its batch: it never populates
        past an already-present page or the end of the VMA.
        """
        vma = self.address_space.require(vpn)
        run = 0
        while (
            run < limit
            and vpn + run < vma.end_vpn
            and (vpn + run) not in self._populated
        ):
            run += 1
        return run

    def chunk_is_unpopulated(self, chunk_base: int) -> bool:
        """True when no page of the 2MB chunk at ``chunk_base`` is present.

        THS only maps a superpage over a hole; a single populated page in
        the chunk forces the base-page path.
        """
        return all(
            (chunk_base + offset) not in self._populated
            for offset in range(SUPERPAGE_PAGES)
        )

    # ------------------------------------------------------------------
    # Address-space operations (thin wrappers; allocation is the kernel's).
    # ------------------------------------------------------------------

    def mmap(
        self,
        num_pages: int,
        kind: VMAKind = VMAKind.ANONYMOUS,
        name: str = "",
        align_huge: bool = False,
        thp_eligible: bool = True,
    ) -> VMA:
        return self.address_space.map(
            num_pages, kind, name, align_huge, thp_eligible
        )

    def translate(self, vpn: int) -> Optional[Translation]:
        """Current translation for ``vpn``, or None if not yet faulted in."""
        return self.page_table.lookup(vpn)

    def iter_mappings(self) -> Iterator[Translation]:
        return self.page_table.iter_mappings()

    def populated_vpns(self, limit: int) -> List[int]:
        """The ``limit`` lowest resident virtual pages, ascending (reclaim)."""
        return heapq.nsmallest(limit, self._populated)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Process(pid={self.pid}, name={self.name!r}, "
            f"resident={self.resident_pages})"
        )

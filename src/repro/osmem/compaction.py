"""Memory-compaction daemon (paper Figure 3, Section 3.2.2).

The daemon defragments physical memory the way Linux's ``kcompactd``/
``compact_zone`` does: a *migrate scanner* walks from the bottom of
physical memory collecting movable allocated pages, a *free scanner*
walks from the top collecting free frames, and pages are migrated from
the former to the latter until the scanners meet. The result is that
movable data accumulates at the top of memory and free frames coalesce
at the bottom, where the buddy allocator merges them into large blocks.

Migration must preserve virtual-memory semantics, so the daemon uses the
reverse mapping stored in :class:`~repro.osmem.physical.PhysicalMemory`
(frame -> owning pid + backed vpn) and a caller-supplied process registry
to rewrite the owning page table after each copy. Pinned frames (kernel
allocations, page-table nodes) are never moved -- exactly the frames that
limit compaction on real systems.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional

import numpy as np

from repro.common.statistics import CounterSet
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import span
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.physical import KERNEL_PID, PhysicalMemory

#: Callback resolving a pid to the object holding its page table. The
#: object must expose ``page_table`` with ``move_page``.
ProcessResolver = Callable[[int], object]


class CompactionDaemon:
    """Two-scanner compaction over a (physmem, buddy) pair."""

    def __init__(
        self,
        physical: PhysicalMemory,
        buddy: BuddyAllocator,
        resolve_process: ProcessResolver,
        notify_invalidation=None,
    ) -> None:
        self._physical = physical
        self._buddy = buddy
        self._resolve_process = resolve_process
        # Called as (pid, vpn, count) after each migration rewrites a PTE;
        # the system simulator uses it to issue TLB shootdowns.
        self._notify_invalidation = notify_invalidation
        self.counters = CounterSet(
            ["runs", "pages_migrated", "pages_skipped", "aborted_runs"]
        )
        bind_counterset(get_registry(), "colt_compaction", self.counters)
        # Linux's compact_zone resumes scanning where the previous run
        # stopped; without the cursor, budgeted runs would re-migrate the
        # same low-memory pages forever.
        self._migrate_cursor = 0

    def run(
        self,
        max_migrations: Optional[int] = None,
        until_free_order: Optional[int] = None,
    ) -> int:
        """One compaction pass; returns the number of pages migrated.

        Args:
            max_migrations: stop after this many migrations (the daemon is
                incremental on real systems; None means run to completion,
                i.e. until the scanners meet).
            until_free_order: stop as soon as the buddy allocator can
                satisfy a block of this order -- Linux's ``compact_zone``
                equally stops once the allocation that triggered it can
                succeed, which is what keeps real compaction from ever
                producing a perfectly-defragmented machine.
        """
        with span(
            "compaction.run",
            cat="os",
            max_migrations=max_migrations,
            until_free_order=until_free_order,
        ) as span_args:
            migrated = self._run(max_migrations, until_free_order)
            span_args["migrated"] = migrated
            return migrated

    def _run(
        self,
        max_migrations: Optional[int],
        until_free_order: Optional[int],
    ) -> int:
        """Both scanners work on snapshots taken at the start of the run.

        A frame this run frees (a migrated source) or fills (a target)
        never enters either scan, so after the migrate scanner wraps it
        cannot hand a page a frame freed earlier in the same run. Each
        snapshot is one NumPy array and the loop turns an element into
        an int only when it reaches it, so the Python work of a run is
        the frames it visits, not the size of memory. A run the buddy
        allocator already satisfies takes no snapshot at all.
        """
        self.counters.increment("runs")
        physical = self._physical
        if (
            until_free_order is not None
            and (max_migrations is None or max_migrations > 0)
            and self._buddy.can_allocate(until_free_order)
        ):
            # The loop would stop at its first source: step past it.
            first = physical.first_movable_from(self._migrate_cursor)
            if first is None:
                first = physical.first_movable_from(0)
            if first is not None:
                self._migrate_cursor = first + 1
            return 0
        movable = physical.movable_frames_ascending()
        if not movable.size:
            return 0
        # Resume at the cursor, wrapping once past the end.
        split = int(np.searchsorted(movable, self._migrate_cursor))
        free_candidates = physical.free_frames_descending()
        free_count = free_candidates.size
        allocated = physical.allocated_map
        migrated = 0
        check_interval = 32
        free_index = 0

        for source in chain(movable[split:], movable[:split]):
            source = int(source)
            self._migrate_cursor = source + 1
            if max_migrations is not None and migrated >= max_migrations:
                self.counters.increment("aborted_runs")
                break
            if (
                until_free_order is not None
                and migrated % check_interval == 0
                and self._buddy.can_allocate(until_free_order)
            ):
                break
            # Advance the free scanner past frames we already consumed
            # or that a page-table node took since the snapshot.
            while (
                free_index < free_count
                and allocated[free_candidates[free_index]]
            ):
                free_index += 1
            if free_index >= free_count:
                break
            target = int(free_candidates[free_index])
            if target <= source:
                # Scanners met: everything below is as compact as it gets.
                break
            if self._migrate(source, target):
                migrated += 1
                free_index += 1
            else:
                self.counters.increment("pages_skipped")
        self.counters.increment("pages_migrated", migrated)
        return migrated

    def _migrate(self, source: int, target: int) -> bool:
        """Move one movable page from ``source`` to ``target``.

        Returns False when the page cannot be migrated (owner vanished or
        the mapping is part of a superpage, which Linux migrates as a unit
        and we conservatively skip).

        The PTE is checked and rewritten by one descent
        (:meth:`PageTable.move_page`) before the target is claimed. The
        rewrite takes nothing from the buddy allocator or the frame map
        (a PT node it re-creates takes back the table frame its prune
        just returned to the kernel's pool), so claiming afterwards
        leaves every structure as claiming first did.
        """
        pid = self._physical.owner_of(source)
        vpn = self._physical.backing_vpn_of(source)
        if pid in (KERNEL_PID, -1) or vpn < 0:
            return False
        process = self._resolve_process(pid)
        if process is None:
            return False
        # A stale reverse map (should not happen) or a superpage fails
        # the move.
        if not process.page_table.move_page(vpn, source, target):
            return False
        # Claim the target frame out of the buddy free pool, then
        # release the source.
        self._buddy.reserve_range(target, 1)
        self._physical.mark_allocated(
            target, 1, owner=pid, movable=True, backing_vpn=vpn
        )
        self._physical.mark_free(source, 1)
        self._buddy.free_run(source, 1)
        if self._notify_invalidation is not None:
            self._notify_invalidation(pid, vpn, 1)
        return True

"""Tests for the memory-compaction daemon (Figure 3)."""

from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.osmem.buddy import BuddyAllocator
from repro.osmem.compaction import CompactionDaemon
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.page_table import PageTable
from repro.osmem.physical import KERNEL_PID, PhysicalMemory


def make_fragmented_kernel(ths=False):
    """A kernel whose free memory alternates with movable allocations."""
    kernel = Kernel(
        KernelConfig(
            num_frames=2048,
            ths_enabled=ths,
            kernel_reserved_fraction=0.0,
        )
    )
    process = kernel.create_process("frag", fault_batch=2)
    # Fill essentially all of memory, then free alternating regions, so
    # free space exists only as scattered 8-page holes.
    vmas = [kernel.malloc(process, 8, populate=True) for _ in range(240)]
    for vma in vmas[::2]:
        kernel.free_vma(process, vma)
    return kernel, process


class TestMigration:
    def test_compaction_grows_largest_free_run(self):
        kernel, _ = make_fragmented_kernel()
        before = kernel.physical.largest_free_run()
        kernel.compaction.run()
        after = kernel.physical.largest_free_run()
        assert after > before

    def test_compaction_preserves_translations(self):
        kernel, process = make_fragmented_kernel()
        snapshot = {
            t.vpn: t.attributes for t in process.iter_mappings()
        }
        kernel.compaction.run()
        for vpn, attrs in snapshot.items():
            translation = process.page_table.lookup(vpn)
            assert translation is not None, f"vpn {vpn} lost"
            assert translation.attributes == attrs
            # The frame must agree with the reverse map.
            assert kernel.physical.backing_vpn_of(translation.pfn) == vpn

    def test_compaction_preserves_frame_accounting(self):
        kernel, _ = make_fragmented_kernel()
        free_before = kernel.physical.free_frames
        kernel.compaction.run()
        assert kernel.physical.free_frames == free_before
        kernel.buddy.check_invariants()

    def test_migrated_pages_move_toward_top(self):
        kernel, process = make_fragmented_kernel()
        kernel.compaction.run()
        # After full compaction, movable pages should occupy higher
        # frames than the largest free run's start.
        runs = kernel.physical.free_runs()
        largest = max(runs, key=lambda r: r.length)
        movable_below = [
            p
            for p in kernel.physical.movable_frames_ascending()
            if p < largest.start
        ]
        # Most movable pages sit above the big free run (a few stragglers
        # are fine: the scanners stop when they meet).
        total_movable = len(list(kernel.physical.movable_frames_ascending()))
        assert len(movable_below) < total_movable / 2


class TestBudgetsAndCursor:
    def test_max_migrations_bounds_work(self):
        kernel, _ = make_fragmented_kernel()
        migrated = kernel.compaction.run(max_migrations=5)
        assert migrated <= 5

    def test_until_free_order_stops_early(self):
        kernel, _ = make_fragmented_kernel()
        kernel.compaction.run(until_free_order=4)
        assert kernel.buddy.can_allocate(4)

    def test_cursor_makes_progress_across_budgeted_runs(self):
        kernel, _ = make_fragmented_kernel()
        first = kernel.compaction.run(max_migrations=3)
        second = kernel.compaction.run(max_migrations=3)
        # Two budgeted runs migrate different pages (cursor advanced), so
        # total migrations accumulate.
        assert kernel.compaction.counters["pages_migrated"] == first + second

    def test_empty_memory_is_a_noop(self):
        kernel = Kernel(
            KernelConfig(num_frames=1024, kernel_reserved_fraction=0.0)
        )
        assert kernel.compaction.run() == 0


class TestPinsAndSuperpages:
    def test_pinned_pages_never_move(self):
        kernel = Kernel(KernelConfig(num_frames=2048, seed=3))
        pinned_before = {
            pfn
            for pfn in range(2048)
            if kernel.physical.is_allocated(pfn)
            and not kernel.physical.is_movable(pfn)
        }
        process = kernel.create_process("p")
        kernel.malloc(process, 300, populate=True, thp_eligible=False)
        kernel.compaction.run()
        for pfn in pinned_before:
            assert kernel.physical.is_allocated(pfn)
            assert not kernel.physical.is_movable(pfn)

    def test_superpages_are_skipped(self):
        kernel = Kernel(
            KernelConfig(num_frames=4096, kernel_reserved_fraction=0.0)
        )
        process = kernel.create_process("p")
        kernel.malloc(process, 600, populate=True)
        assert kernel.thp.counters["huge_faults"] >= 1
        base = process.page_table.superpage_base(
            kernel.thp.active_for(process.pid)[0]
        )
        kernel.compaction.run()
        # The superpage mapping is untouched.
        after = process.page_table.superpage_base(base.vpn)
        assert after is not None
        assert after.pfn == base.pfn


# ---------------------------------------------------------------------------
# In-place PTE rewrite against the unmap + map pair it replaced.
# ---------------------------------------------------------------------------


def pair_migrate(daemon, source, target):
    """``_migrate`` as it was: ``lookup``, claim the target, then
    ``unmap_run`` + ``map_page`` (three descents; oracle)."""
    physical = daemon._physical
    pid = physical.owner_of(source)
    vpn = physical.backing_vpn_of(source)
    if pid in (KERNEL_PID, -1) or vpn < 0:
        return False
    process = daemon._resolve_process(pid)
    if process is None:
        return False
    page_table = process.page_table
    translation = page_table.lookup(vpn)
    if (
        translation is None
        or translation.pfn != source
        or translation.is_superpage
    ):
        return False
    daemon._buddy.reserve_range(target, 1)
    physical.mark_allocated(
        target, 1, owner=pid, movable=True, backing_vpn=vpn
    )
    page_table.unmap_run(vpn, 1)
    page_table.map_page(vpn, target, translation.attributes)
    physical.mark_free(source, 1)
    daemon._buddy.free_run(source, 1)
    if daemon._notify_invalidation is not None:
        daemon._notify_invalidation(pid, vpn, 1)
    return True


def observed_kernel():
    """A fragmented kernel plus a process whose one page is alone in
    its PT node (and in its whole page table), and the lists its page
    -table writes and shootdowns are recorded into."""
    kernel, process = make_fragmented_kernel()
    for translation in list(process.iter_mappings())[::3]:
        process.page_table.mark_accessed(translation.vpn, dirty=True)
    lone = kernel.create_process("lone")
    kernel.malloc(lone, 1, populate=True)
    writes, shootdowns = [], []
    for owner in (process, lone):
        owner.page_table.add_write_listener(
            lambda start, count, pid=owner.pid: writes.append(
                (pid, start, count)
            )
        )
    kernel.add_invalidation_listener(
        lambda *event: shootdowns.append(event)
    )
    return kernel, lone, writes, shootdowns


def collapsed(writes):
    """``writes`` with each run of repeated calls reported once: the
    pair reports a rewritten PTE twice (unmap, then map), the in-place
    rewrite once (a lone page still goes through the pair)."""
    return [w for i, w in enumerate(writes) if i == 0 or w != writes[i - 1]]


def kernel_state(kernel):
    physical = kernel.physical
    return (
        {
            process.pid: [
                (t.vpn, t.pfn, t.attributes, t.is_superpage,
                 tuple(process.page_table.walk_path_addresses(t.vpn)))
                for t in process.iter_mappings()
            ]
            for process in kernel.processes()
        },
        list(kernel._table_pool),
        kernel.counters["table_frames"],
        kernel.buddy.free_list_snapshot(),
        [
            (physical.is_allocated(pfn), physical.owner_of(pfn),
             physical.backing_vpn_of(pfn))
            for pfn in range(physical.num_frames)
        ],
        kernel.compaction.counters.as_dict(),
    )


class TestInPlaceMigration:
    def test_equals_unmap_map_pair(self, monkeypatch):
        """Leaves, walk paths, listener calls, table-frame pool order and
        the table-frame count all match the pair, lone page included."""
        kernel, lone, writes, shootdowns = observed_kernel()
        (before,) = lone.iter_mappings()
        frames_before = kernel.counters["table_frames"]
        migrated = kernel.compaction.run()
        (after,) = lone.iter_mappings()
        assert after.pfn != before.pfn  # the lone page did move
        # Its whole path was pruned and re-created: three table frames.
        assert kernel.counters["table_frames"] == frames_before + 3

        oracle, _, oracle_writes, oracle_shootdowns = observed_kernel()
        daemon = oracle.compaction
        monkeypatch.setattr(
            daemon, "_migrate",
            lambda source, target: pair_migrate(daemon, source, target),
        )
        assert daemon.run() == migrated
        assert kernel_state(kernel) == kernel_state(oracle)
        assert shootdowns == oracle_shootdowns
        assert collapsed(writes) == collapsed(oracle_writes)
        assert len(oracle_writes) > len(writes)

    def test_stale_or_superpage_mapping_writes_nothing(self):
        table = PageTable()
        table.map_page(5, 50)
        table.map_superpage(512, 1024)
        writes = []
        table.add_write_listener(lambda *call: writes.append(call))
        assert not table.move_page(5, 51, 60)  # another frame
        assert not table.move_page(6, 51, 60)  # unmapped
        assert not table.move_page(512 + 3, 1027, 60)  # in a superpage
        assert writes == []
        assert table.lookup(5).pfn == 50


# ---------------------------------------------------------------------------
# Oracle: the run against a reference with list snapshots.
# ---------------------------------------------------------------------------

#: Owner of the oracle machine's movable pages, and a pid that owns
#: movable frames but has no process, so ``_migrate`` skips them.
OWNER_PID = 7
GONE_PID = 8
VPN_BASE = 1 << 20


def reference_run(daemon, max_migrations, until_free_order):
    """A compaction run with list snapshots and a linear cursor search.

    The scans are rebuilt frame by frame from ``is_movable`` and
    ``is_free``, so the reference shares no scan code with the daemon.
    """
    physical = daemon._physical
    daemon.counters.increment("runs")
    migrated = 0
    check_interval = 32
    frames = range(physical.num_frames)
    movable = [pfn for pfn in frames if physical.is_movable(pfn)]
    if not movable:
        return 0
    split = 0
    while split < len(movable) and movable[split] < daemon._migrate_cursor:
        split += 1
    free_candidates = [pfn for pfn in reversed(frames) if physical.is_free(pfn)]
    free_index = 0
    for source in movable[split:] + movable[:split]:
        daemon._migrate_cursor = source + 1
        if max_migrations is not None and migrated >= max_migrations:
            daemon.counters.increment("aborted_runs")
            break
        if (
            until_free_order is not None
            and migrated % check_interval == 0
            and daemon._buddy.can_allocate(until_free_order)
        ):
            break
        while (
            free_index < len(free_candidates)
            and not physical.is_free(free_candidates[free_index])
        ):
            free_index += 1
        if free_index >= len(free_candidates):
            break
        target = free_candidates[free_index]
        if target <= source:
            break
        if daemon._migrate(source, target):
            migrated += 1
            free_index += 1
        else:
            daemon.counters.increment("pages_skipped")
    daemon.counters.increment("pages_migrated", migrated)
    return migrated


def oracle_machine(states, cursor):
    """A daemon over a frame map: F free, M movable, P pinned, S skipped.

    Page-table nodes come from a private frame source, so only
    migrations change the frame map. Returns the daemon and the list
    its ``_migrate`` calls are recorded into as (source, target, moved).
    """
    physical = PhysicalMemory(len(states))
    buddy = BuddyAllocator(len(states))
    table = PageTable()
    processes = {OWNER_PID: SimpleNamespace(page_table=table)}
    for pfn, state in enumerate(states):
        if state == "F":
            continue
        buddy.reserve_range(pfn, 1)
        if state == "M":
            table.map_page(VPN_BASE + pfn, pfn)
            physical.mark_allocated(
                pfn, 1, owner=OWNER_PID, movable=True,
                backing_vpn=VPN_BASE + pfn,
            )
        elif state == "S":
            physical.mark_allocated(
                pfn, 1, owner=GONE_PID, movable=True, backing_vpn=pfn
            )
        else:
            physical.mark_allocated(pfn, 1, owner=KERNEL_PID, movable=False)
    daemon = CompactionDaemon(physical, buddy, processes.get)
    daemon._migrate_cursor = cursor
    calls = []
    migrate = daemon._migrate

    def recording_migrate(source, target):
        moved = migrate(source, target)
        calls.append((source, target, moved))
        return moved

    daemon._migrate = recording_migrate
    return daemon, calls


def frame_map(daemon):
    physical = daemon._physical
    return [
        (
            physical.is_allocated(pfn),
            physical.is_movable(pfn),
            physical.owner_of(pfn),
            physical.backing_vpn_of(pfn),
        )
        for pfn in range(physical.num_frames)
    ]


def assert_matches_reference(states, cursor, runs):
    """Every run of ``runs`` agrees with the reference, run by run."""
    daemon, calls = oracle_machine(states, cursor)
    oracle, oracle_calls = oracle_machine(states, cursor)
    for max_migrations, until_free_order in runs:
        got = daemon.run(max_migrations, until_free_order)
        want = reference_run(oracle, max_migrations, until_free_order)
        assert got == want
        assert calls == oracle_calls
        assert daemon._migrate_cursor == oracle._migrate_cursor
        assert daemon.counters.as_dict() == oracle.counters.as_dict()
        assert frame_map(daemon) == frame_map(oracle)
        assert (
            daemon._buddy.free_list_snapshot()
            == oracle._buddy.free_list_snapshot()
        )
    return calls


@st.composite
def compaction_cases(draw):
    frames = draw(st.integers(16, 160))
    states = draw(
        st.lists(st.sampled_from("FMPS"), min_size=frames, max_size=frames)
    )
    cursor = draw(st.integers(0, frames))
    runs = draw(
        st.lists(
            st.tuples(
                st.none() | st.integers(0, frames),
                st.none() | st.integers(0, 6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return states, cursor, runs


class TestAgainstReference:
    @given(case=compaction_cases())
    @settings(max_examples=150, deadline=None)
    def test_random_frame_maps(self, case):
        assert_matches_reference(*case)

    def test_wrapped_run_never_reuses_a_frame_it_freed(self):
        """Free frames above the cursor run out before the wrap, so the
        wrapped source finds no target: the frames the run freed at
        16-19 are not candidates."""
        states = "PP" + "M" * 4 + "P" * 10 + "M" * 4 + "F" * 4 + "P" * 8
        calls = assert_matches_reference(states, 16, [(None, None)])
        assert calls == [
            (16, 23, True), (17, 22, True), (18, 21, True), (19, 20, True)
        ]

    def test_run_that_wraps_past_the_end(self):
        states = "M" * 6 + "F" * 20 + "M" * 2 + "F" * 4
        calls = assert_matches_reference(states, 27, [(None, None)])
        sources = [source for source, _, _ in calls]
        assert sources == [27, 0, 1, 2, 3, 4, 5]

    def test_satisfied_run_migrates_nothing_but_steps_the_cursor(self):
        states = "F" * 16 + "MPMM" * 4
        daemon, calls = oracle_machine(states, 21)
        assert daemon.run(until_free_order=3) == 0
        assert calls == []
        # The first movable frame at or after 21 is 22.
        assert daemon._migrate_cursor == 23
        assert_matches_reference(states, 21, [(None, 3), (None, 3)])
        # Past the last movable frame the cursor wraps to the lowest.
        assert_matches_reference(states, 40, [(None, 3)])

"""Tests for the x86-64 four-level page table."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.constants import PTES_PER_CACHE_LINE, SUPERPAGE_PAGES
from repro.common.errors import TranslationError
from repro.common.types import PageAttributes
from repro.osmem.page_table import PageTable, level_index


class TestLevelIndex:
    def test_leaf_index_is_low_nine_bits(self):
        assert level_index(0b1_0000_0011, 3) == 0b1_0000_0011 & 0x1FF

    def test_root_index(self):
        vpn = 5 << 27
        assert level_index(vpn, 0) == 5

    def test_pd_index(self):
        vpn = 7 << 9
        assert level_index(vpn, 2) == 7


class TestBasicMapping:
    def test_map_then_lookup(self):
        table = PageTable()
        table.map_page(1000, 77)
        translation = table.lookup(1000)
        assert translation.pfn == 77
        assert not translation.is_superpage

    def test_unmapped_lookup_is_none(self):
        assert PageTable().lookup(123) is None

    def test_double_map_rejected(self):
        table = PageTable()
        table.map_page(5, 1)
        with pytest.raises(TranslationError):
            table.map_page(5, 2)

    def test_unmap_returns_translation(self):
        table = PageTable()
        table.map_page(5, 9)
        removed = table.unmap_page(5)
        assert removed.pfn == 9
        assert table.lookup(5) is None

    def test_unmap_missing_rejected(self):
        with pytest.raises(TranslationError):
            PageTable().unmap_page(5)

    def test_mapped_pages_counter(self):
        table = PageTable()
        for vpn in range(10):
            table.map_page(vpn, vpn + 100)
        assert table.mapped_pages == 10
        table.unmap_page(3)
        assert table.mapped_pages == 9

    def test_vpn_out_of_canonical_space_rejected(self):
        with pytest.raises(TranslationError):
            PageTable().map_page(1 << 40, 0)

    def test_distant_vpns_use_distinct_subtrees(self):
        table = PageTable()
        table.map_page(0, 1)
        table.map_page(1 << 30, 2)
        assert table.lookup(0).pfn == 1
        assert table.lookup(1 << 30).pfn == 2


class TestSuperpages:
    def test_map_superpage_and_lookup_interior_page(self):
        table = PageTable()
        table.map_superpage(512, 2048)
        inner = table.lookup(512 + 17)
        assert inner.is_superpage
        assert inner.pfn == 2048 + 17

    def test_superpage_alignment_enforced(self):
        table = PageTable()
        with pytest.raises(TranslationError):
            table.map_superpage(100, 512)
        with pytest.raises(TranslationError):
            table.map_superpage(512, 100)

    def test_superpage_base_query(self):
        table = PageTable()
        table.map_superpage(1024, 4096)
        base = table.superpage_base(1024 + 300)
        assert base.vpn == 1024
        assert base.pfn == 4096

    def test_superpage_base_none_for_base_pages(self):
        table = PageTable()
        table.map_page(7, 7)
        assert table.superpage_base(7) is None

    def test_mapped_pages_counts_superpage_as_512(self):
        table = PageTable()
        table.map_superpage(0, 0)
        assert table.mapped_pages == SUPERPAGE_PAGES

    def test_split_superpage_preserves_frames(self):
        table = PageTable()
        table.map_superpage(512, 5120)
        table.split_superpage(512)
        for offset in (0, 100, 511):
            translation = table.lookup(512 + offset)
            assert not translation.is_superpage
            assert translation.pfn == 5120 + offset

    def test_unmap_superpage(self):
        table = PageTable()
        table.map_superpage(512, 1024)
        removed = table.unmap_superpage(512)
        assert removed.is_superpage
        assert table.lookup(512) is None

    def test_pd_slot_conflict_rejected(self):
        table = PageTable()
        table.map_page(512, 1)  # creates a PT under the PD slot
        with pytest.raises(TranslationError):
            table.map_superpage(512, 1024)


class TestAttributes:
    def test_set_attributes(self):
        table = PageTable()
        table.map_page(3, 3)
        table.set_attributes(3, PageAttributes.PRESENT)
        assert table.lookup(3).attributes == PageAttributes.PRESENT

    def test_mark_accessed_sets_bits(self):
        table = PageTable()
        table.map_page(3, 3, PageAttributes.PRESENT)
        table.mark_accessed(3, dirty=True)
        attrs = table.lookup(3).attributes
        assert attrs & PageAttributes.ACCESSED
        assert attrs & PageAttributes.DIRTY

    def test_mark_accessed_on_superpage_hits_pde(self):
        table = PageTable()
        table.map_superpage(512, 1024, PageAttributes.PRESENT)
        table.mark_accessed(512 + 44)
        assert table.lookup(512).attributes & PageAttributes.ACCESSED

    def test_mark_accessed_unmapped_rejected(self):
        with pytest.raises(TranslationError):
            PageTable().mark_accessed(5)


class TestWalkerSupport:
    def test_walk_path_has_four_levels_for_base_page(self):
        table = PageTable()
        table.map_page(12345, 1)
        assert len(table.walk_path_addresses(12345)) == 4

    def test_walk_path_has_three_levels_for_superpage(self):
        table = PageTable()
        table.map_superpage(512, 1024)
        assert len(table.walk_path_addresses(512 + 5)) == 3

    def test_walk_path_addresses_are_distinct_frames(self):
        table = PageTable()
        table.map_page(999, 1)
        addresses = table.walk_path_addresses(999)
        frames = {addr // 4096 for addr in addresses}
        assert len(frames) == 4  # four distinct table nodes

    def test_pte_cache_line_alignment(self):
        table = PageTable()
        for vpn in range(16, 32):
            table.map_page(vpn, vpn + 1000)
        line = table.pte_cache_line(19)
        assert len(line) == PTES_PER_CACHE_LINE
        assert [t.vpn for t in line] == list(range(16, 24))

    def test_pte_cache_line_has_none_for_holes(self):
        table = PageTable()
        table.map_page(8, 1)
        table.map_page(10, 2)
        line = table.pte_cache_line(8)
        assert line[0] is not None
        assert line[1] is None
        assert line[2] is not None

    def test_pte_cache_line_never_crosses_pt_page(self):
        table = PageTable()
        # VPNs 504..511 and 512.. live in different PT nodes; the line
        # for 510 covers only [504, 512).
        for vpn in range(504, 516):
            table.map_page(vpn, vpn)
        line = table.pte_cache_line(510)
        assert [t.vpn for t in line if t] == list(range(504, 512))


class TestIterationAndPruning:
    def test_iter_mappings_in_vpn_order(self):
        table = PageTable()
        for vpn in (500, 3, 80000, 77):
            table.map_page(vpn, vpn)
        vpns = [t.vpn for t in table.iter_mappings()]
        assert vpns == sorted(vpns)

    def test_iter_includes_superpages_once(self):
        table = PageTable()
        table.map_page(3, 3)
        table.map_superpage(512, 1024)
        entries = list(table.iter_mappings())
        assert len(entries) == 2
        assert entries[1].is_superpage

    def test_unmap_prunes_empty_nodes(self):
        release_log = []
        counter = iter(range(10_000, 20_000))
        table = PageTable(
            allocate_frame=lambda: next(counter),
            release_frame=release_log.append,
        )
        table.map_page(12345, 1)
        table.unmap_page(12345)
        # The PT, PD and PDPT nodes all became empty and were released.
        assert len(release_log) == 3

    def test_prune_keeps_shared_nodes(self):
        table = PageTable()
        table.map_page(100, 1)
        table.map_page(101, 2)
        table.unmap_page(100)
        assert table.lookup(101).pfn == 2


def _listen(table):
    writes = []
    table.add_write_listener(lambda *write: writes.append(write))
    return writes


def _mutate(table):
    """Drive every mutator once (plus a split) on ``table``."""
    table.map_page(3, 30)
    table.map_page(4, 31)
    table.set_attributes(3, PageAttributes.PRESENT)
    table.mark_accessed(3, dirty=True)
    table.unmap_page(4)
    table.map_superpage(512, 1024)
    table.mark_accessed(512 + 44)
    table.split_superpage(512)
    table.map_superpage(2048, 4096)
    table.unmap_superpage(2048)


class TestWriteListener:
    @pytest.mark.parametrize(
        "setup, operation, expected",
        [
            (lambda t: None, lambda t: t.map_page(3, 30), [(3, 1)]),
            (lambda t: t.map_page(3, 30), lambda t: t.unmap_page(3), [(3, 1)]),
            (
                lambda t: t.map_page(3, 30),
                lambda t: t.set_attributes(3, PageAttributes.PRESENT),
                [(3, 1)],
            ),
            (
                lambda t: t.map_page(3, 30),
                lambda t: t.mark_accessed(3),
                [(3, 1)],
            ),
            (
                lambda t: None,
                lambda t: t.map_superpage(512, 1024),
                [(512, SUPERPAGE_PAGES)],
            ),
            (
                lambda t: t.map_superpage(512, 1024),
                lambda t: t.unmap_superpage(512),
                [(512, SUPERPAGE_PAGES)],
            ),
        ],
        ids=[
            "map_page", "unmap_page", "set_attributes", "mark_accessed",
            "map_superpage", "unmap_superpage",
        ],
    )
    def test_each_mutator_fires_once(self, setup, operation, expected):
        table = PageTable()
        setup(table)
        writes = _listen(table)
        operation(table)
        assert writes == expected

    def test_mark_accessed_inside_superpage_reports_whole_pde(self):
        table = PageTable()
        table.map_superpage(512, 1024)
        writes = _listen(table)
        table.mark_accessed(512 + 44, dirty=True)
        assert writes == [(512, SUPERPAGE_PAGES)]

    def test_split_superpage_covers_all_pages(self):
        table = PageTable()
        table.map_superpage(512, 1024)
        writes = _listen(table)
        table.split_superpage(512)
        covered = set()
        for start, count in writes:
            covered.update(range(start, start + count))
        assert covered == set(range(512, 512 + SUPERPAGE_PAGES))
        assert writes[0] == (512, SUPERPAGE_PAGES)  # the PDE goes first

    def test_rejected_write_fires_nothing(self):
        table = PageTable()
        table.map_page(3, 30)
        writes = _listen(table)
        with pytest.raises(TranslationError):
            table.map_page(3, 31)
        with pytest.raises(TranslationError):
            table.unmap_page(9)
        assert writes == []

    def test_every_listener_sees_every_write(self):
        table = PageTable()
        first, second = _listen(table), _listen(table)
        _mutate(table)
        assert first == second
        # Seven writes, the split's PDE plus its one 512-PTE run, then
        # two more.
        assert len(first) == 7 + 2 + 2

    def test_table_without_listener_behaves_as_before(self):
        plain, observed = PageTable(), PageTable()
        writes = _listen(observed)
        _mutate(plain)
        _mutate(observed)
        assert writes
        assert list(plain.iter_mappings()) == list(observed.iter_mappings())
        assert plain.mapped_pages == observed.mapped_pages
        for vpn in (3, 512, 512 + 44, 1023):
            assert plain.walk_path_addresses(vpn) == (
                observed.walk_path_addresses(vpn)
            )
            assert plain.pte_cache_line(vpn) == observed.pte_cache_line(vpn)


# ---------------------------------------------------------------------------
# Run mutators against a page-by-page reference.
# ---------------------------------------------------------------------------

#: Two PDs' worth of VPN space around a PD boundary: runs drawn here
#: cross PT-node and PD boundaries.
PD_PAGES = SUPERPAGE_PAGES * SUPERPAGE_PAGES
WINDOW = range(PD_PAGES - 3 * SUPERPAGE_PAGES, PD_PAGES + 3 * SUPERPAGE_PAGES)


class RecordingFrames:
    """A frame source that reuses released frames (last in, first out,
    like the kernel's table pool) and logs every allocate and release."""

    def __init__(self):
        self.log = []
        self._pool = []
        self._next = 1 << 20

    def allocate(self):
        if self._pool:
            frame = self._pool.pop()
        else:
            frame, self._next = self._next, self._next + 1
        self.log.append(("allocate", frame))
        return frame

    def release(self, frame):
        self._pool.append(frame)
        self.log.append(("release", frame))


def recorded_table():
    frames = RecordingFrames()
    table = PageTable(frames.allocate, frames.release)
    return table, frames, _listen(table)


def reference_map_run(table, vpn, pfn, count, attributes):
    """``map_run`` as one ``map_page`` per page, after checking them all."""
    if any(table.lookup(page) is not None for page in range(vpn, vpn + count)):
        raise TranslationError(f"run at {vpn} overlaps a mapping")
    for offset in range(count):
        table.map_page(vpn + offset, pfn + offset, attributes)


def reference_unmap_run(table, vpn, count):
    """``unmap_run`` as one ``lookup`` + ``unmap_page`` per mapped page."""
    translations = [table.lookup(page) for page in range(vpn, vpn + count)]
    if any(t is not None and t.is_superpage for t in translations):
        raise TranslationError(f"run at {vpn} reaches into a superpage")
    removed = []
    for translation in translations:
        if translation is not None:
            table.unmap_page(translation.vpn)
            removed.append((translation.vpn, translation.pfn))
    return removed


def written_lines(writes):
    """The 8-PTE lines a listener's ``(start, count)`` calls cover."""
    return {
        vpn // PTES_PER_CACHE_LINE
        for start, count in writes
        for vpn in range(start, start + count)
    }


def table_state(table, frames, vpns):
    return (
        list(table.iter_mappings()),
        table.mapped_pages,
        [table.walk_path_addresses(vpn) for vpn in vpns],
        list(frames.log),
    )


_RUNS = st.tuples(
    st.sampled_from(["map", "unmap", "superpage", "split"]),
    st.integers(WINDOW.start, WINDOW.stop - 1),
    st.integers(1, 2 * SUPERPAGE_PAGES + 4),
    st.integers(0, 1 << 16),
)


REJECTED = "rejected"


def apply(table, operation, map_run, unmap_run):
    """Apply one drawn operation; :data:`REJECTED` when the table raises."""
    kind, vpn, count, pfn = operation
    chunk = vpn - vpn % SUPERPAGE_PAGES
    try:
        if kind == "map":
            return map_run(table, vpn, pfn, count, PageAttributes(pfn & 0x7F))
        if kind == "unmap":
            return unmap_run(table, vpn, count)
        if kind == "superpage":
            return table.map_superpage(chunk, pfn * SUPERPAGE_PAGES)
        return table.split_superpage(chunk)
    except TranslationError:
        return REJECTED


class TestRunsMatchPageByPage:
    @given(operations=st.lists(_RUNS, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_random_runs(self, operations):
        subject, subject_frames, subject_writes = recorded_table()
        reference, reference_frames, reference_writes = recorded_table()
        for operation in operations:
            del subject_writes[:], reference_writes[:]
            before = table_state(subject, subject_frames, [])
            result = apply(
                subject, operation,
                lambda t, *args: t.map_run(*args),
                lambda t, *args: t.unmap_run(*args),
            )
            expected = apply(
                reference, operation, reference_map_run, reference_unmap_run
            )
            assert result == expected
            _, vpn, count, _ = operation
            touched = range(vpn - 1, vpn + count + 1)
            assert table_state(subject, subject_frames, touched) == (
                table_state(reference, reference_frames, touched)
            )
            assert written_lines(subject_writes) == (
                written_lines(reference_writes)
            )
            if expected == REJECTED:
                # A rejected operation writes nothing and tells no
                # listener.
                assert subject_writes == []
                assert table_state(subject, subject_frames, []) == before

    def test_run_across_a_pd_boundary_descends_per_node(self):
        table, frames, writes = recorded_table()
        start = PD_PAGES - 700
        table.map_run(start, 5000, 1400)
        # One listener call per PT node the run touches.
        assert writes == [
            (start, 188), (PD_PAGES - 512, 512),
            (PD_PAGES, 512), (PD_PAGES + 512, 188),
        ]
        assert [t.pfn - t.vpn for t in table.iter_mappings()] == (
            [5000 - start] * 1400
        )
        del writes[:]
        removed = table.unmap_run(start + 10, 1380)
        assert removed == [
            (vpn, vpn - start + 5000) for vpn in range(start + 10, start + 1390)
        ]
        assert table.mapped_pages == 20

    def test_unmap_run_skips_holes_and_reports_written_runs(self):
        table, _, writes = recorded_table()
        table.map_run(100, 900, 4)
        table.map_run(110, 950, 4)
        del writes[:]
        assert table.unmap_run(98, 20) == [
            (100, 900), (101, 901), (102, 902), (103, 903),
            (110, 950), (111, 951), (112, 952), (113, 953),
        ]
        assert writes == [(100, 4), (110, 4)]
        assert table.unmap_run(98, 20) == []

    def test_rejected_run_writes_and_allocates_nothing(self):
        table, frames, writes = recorded_table()
        # The conflict sits in the second PT node, past a missing one.
        table.map_page(PD_PAGES + 3, 1)
        del writes[:]
        before = table_state(table, frames, [])
        with pytest.raises(TranslationError, match=f"vpn {PD_PAGES + 3}"):
            table.map_run(PD_PAGES - 600, 7, 700)
        assert writes == []
        assert table_state(table, frames, []) == before

    def test_run_into_a_superpage_is_rejected_whole(self):
        table, frames, writes = recorded_table()
        table.map_superpage(PD_PAGES, 0)
        before = table_state(table, frames, [])
        del writes[:]
        for operation in (
            lambda: table.map_run(PD_PAGES - 4, 7, 8),
            lambda: table.unmap_run(PD_PAGES - 4, 8),
        ):
            with pytest.raises(TranslationError, match="superpage"):
                operation()
        assert writes == []
        assert table_state(table, frames, []) == before

"""Tests for the contiguity scanner and its reports.

The scanner finds run breaks with array operations; the per-translation
loop it replaced is kept here as :func:`reference_scan`, and generated
page tables must scan identically through both.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.types import ContiguityRun, PageAttributes, Translation
from repro.contiguity.scanner import (
    ContiguityReport,
    scan_arrays,
    scan_process,
    scan_translations,
)
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.page_table import PageTable


def reference_scan(translations):
    """The per-:class:`Translation` scan loop (oracle)."""
    runs = []
    start = previous = None
    length = 0
    for translation in translations:
        if translation.is_superpage:
            if start is not None:
                runs.append(ContiguityRun(start.vpn, start.pfn, length))
            start = previous = None
            runs.append(ContiguityRun(
                translation.vpn, translation.pfn, 512, from_superpage=True
            ))
            continue
        if previous is not None and previous.is_contiguous_with(translation):
            previous = translation
            length += 1
        else:
            if start is not None:
                runs.append(ContiguityRun(start.vpn, start.pfn, length))
            start = previous = translation
            length = 1
    if start is not None:
        runs.append(ContiguityRun(start.vpn, start.pfn, length))
    return runs


def translations(*specs):
    return [Translation(v, p) for v, p in specs]


class TestScanTranslations:
    def test_single_run(self):
        runs = scan_translations(translations((1, 10), (2, 11), (3, 12)))
        assert len(runs) == 1
        assert runs[0].start_vpn == 1
        assert runs[0].start_pfn == 10
        assert runs[0].length == 3

    def test_pfn_break_starts_new_run(self):
        runs = scan_translations(translations((1, 10), (2, 50), (3, 51)))
        assert [(r.start_vpn, r.length) for r in runs] == [(1, 1), (2, 2)]

    def test_vpn_hole_starts_new_run(self):
        runs = scan_translations(translations((1, 10), (5, 11)))
        assert len(runs) == 2

    def test_paper_definition_example(self):
        # Section 3.1: virtual 1,2,3 -> physical 58,59,60 is 3-contiguity.
        runs = scan_translations(translations((1, 58), (2, 59), (3, 60)))
        assert runs[0].length == 3

    def test_attribute_mismatch_breaks_run(self):
        mapped = [
            Translation(1, 10, PageAttributes.PRESENT),
            Translation(2, 11, PageAttributes.PRESENT | PageAttributes.WRITABLE),
        ]
        assert len(scan_translations(mapped)) == 2

    def test_superpages_become_flagged_runs(self):
        mapped = [
            Translation(1, 10),
            Translation(512, 1024, is_superpage=True),
            Translation(1024 + 1, 2000),
        ]
        runs = scan_translations(mapped)
        assert len(runs) == 3
        superpage_run = runs[1]
        assert superpage_run.from_superpage
        assert superpage_run.length == 512

    def test_empty_input(self):
        assert scan_translations([]) == []

    def test_page_after_a_superpage_base_never_joins_it(self):
        """Not a page-table layout, but the scan takes any sequence."""
        mapped = [Translation(512, 1024, is_superpage=True),
                  Translation(513, 1025)]
        runs = scan_translations(mapped)
        assert runs == reference_scan(mapped)
        assert [r.length for r in runs] == [512, 1]


class TestContiguityReport:
    def report_from(self, *lengths, superpage_pages=0):
        runs = []
        vpn = 0
        for length in lengths:
            runs.append(ContiguityRun(vpn, vpn + 100_000, length))
            vpn += length + 3
        if superpage_pages:
            runs.append(
                ContiguityRun(1 << 20, 1 << 21, superpage_pages,
                              from_superpage=True)
            )
        return ContiguityReport.from_runs(runs)

    def test_totals(self):
        report = self.report_from(4, 2, superpage_pages=512)
        assert report.total_pages == 4 + 2 + 512
        assert report.superpage_pages == 512

    def test_superpages_excluded_from_average(self):
        with_sp = self.report_from(4, 4, superpage_pages=512)
        without = self.report_from(4, 4)
        assert with_sp.average_contiguity == without.average_contiguity

    def test_cdf_excludes_superpages(self):
        report = self.report_from(4, superpage_pages=512)
        assert report.cdf().at(4) == pytest.approx(1.0)

    def test_fraction_with_contiguity_at_least(self):
        # 8 pages in an 8-run, 2 in a 2-run: 80% at >= 8.
        report = self.report_from(8, 2)
        assert report.fraction_with_contiguity_at_least(8) == pytest.approx(0.8)
        assert report.fraction_with_contiguity_at_least(1) == pytest.approx(1.0)
        assert report.fraction_with_contiguity_at_least(9) == pytest.approx(0.0)

    def test_fraction_on_empty_base_pages(self):
        report = self.report_from(superpage_pages=512)
        assert report.fraction_with_contiguity_at_least(1) == 0.0

    def test_from_process_roundtrip(self):
        kernel = Kernel(KernelConfig(num_frames=2048, ths_enabled=False))
        process = kernel.create_process("p")
        kernel.malloc(process, 64, populate=True)
        report = ContiguityReport.from_process(process)
        assert report.total_pages == 64
        assert report.average_contiguity >= 1.0
        # The scanner agrees with a fresh scan.
        assert len(report.runs) == len(scan_process(process))


_USER = PageAttributes.default_user()

#: Attribute bits a generated page may carry: the default, two that
#: differ from it only in ACCESSED/DIRTY (which never break a run), and
#: two that differ in other bits (which always do).
ATTRIBUTES = (
    _USER,
    _USER | PageAttributes.ACCESSED,
    _USER | PageAttributes.ACCESSED | PageAttributes.DIRTY,
    _USER & ~PageAttributes.WRITABLE,
    _USER | PageAttributes.GLOBAL,
)


@st.composite
def page_tables(draw):
    """A page table of base-page runs and superpages, with gaps.

    Mapping starts just below a 512-page PT-node boundary, so runs cross
    node boundaries. A base run's frames either continue the previous
    run's (so only its attributes can break contiguity) or jump.
    """
    table = PageTable()
    vpn = 512 - draw(st.integers(0, 24))
    pfn = draw(st.integers(0, 1 << 16))
    for _ in range(draw(st.integers(0, 12))):
        vpn += draw(st.sampled_from([0, 0, 0, 1, 3, 500]))
        if draw(st.integers(0, 4)) == 0:
            vpn += -vpn % 512
            base_pfn = 512 * draw(st.integers(0, 1 << 10))
            table.map_superpage(vpn, base_pfn, draw(st.sampled_from(ATTRIBUTES)))
            vpn += 512
            continue
        if draw(st.booleans()):
            pfn = draw(st.integers(0, 1 << 16))
        attributes = draw(st.sampled_from(ATTRIBUTES))
        for _ in range(draw(st.integers(1, 40))):
            table.map_page(vpn, pfn, attributes)
            vpn += 1
            pfn += 1
            if draw(st.integers(0, 9)) == 0:
                attributes = draw(st.sampled_from(ATTRIBUTES))
    return table


class TestArrayScanMatchesReference:
    @given(table=page_tables())
    @settings(max_examples=200, deadline=None)
    def test_generated_page_tables(self, table):
        mappings = list(table.iter_mappings())
        expected = reference_scan(mappings)
        vpn, pfn, attributes, is_superpage = table.leaf_arrays()
        assert vpn.tolist() == [t.vpn for t in mappings]
        assert pfn.tolist() == [t.pfn for t in mappings]
        assert attributes.tolist() == [int(t.attributes) for t in mappings]
        assert is_superpage.tolist() == [t.is_superpage for t in mappings]
        assert scan_arrays(vpn, pfn, attributes, is_superpage) == expected
        assert scan_translations(mappings) == expected

    def test_accessed_dirty_never_break_a_run(self):
        table = PageTable()
        for offset, attributes in enumerate(ATTRIBUTES[:3]):
            table.map_page(510 + offset, 90 + offset, attributes)
        (run,) = scan_arrays(*table.leaf_arrays())
        assert (run.start_vpn, run.length) == (510, 3)

    def test_superpage_beside_contiguous_base_pages(self):
        """Frames that continue across a superpage still break there."""
        table = PageTable()
        table.map_page(511, 1023)
        table.map_superpage(512, 1024)
        table.map_page(1024, 1536)
        runs = scan_arrays(*table.leaf_arrays())
        assert [(r.start_vpn, r.length, r.from_superpage) for r in runs] == [
            (511, 1, False), (512, 512, True), (1024, 1, False),
        ]
        assert runs == reference_scan(table.iter_mappings())

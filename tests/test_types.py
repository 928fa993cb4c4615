"""Tests for the core value types (translations, runs, attributes)."""

import pytest

from repro.common.constants import PAGE_SIZE
from repro.common.types import (
    ContiguityRun,
    MemoryAccess,
    PageAttributes,
    Translation,
)


class TestPageAttributes:
    def test_default_user_attributes(self):
        attrs = PageAttributes.default_user()
        assert attrs & PageAttributes.PRESENT
        assert attrs & PageAttributes.WRITABLE
        assert attrs & PageAttributes.USER

    def test_coalescing_key_ignores_accessed_dirty(self):
        base = PageAttributes.default_user()
        touched = base | PageAttributes.ACCESSED | PageAttributes.DIRTY
        assert base.coalescing_key() == touched.coalescing_key()

    def test_coalescing_key_distinguishes_protection(self):
        writable = PageAttributes.PRESENT | PageAttributes.WRITABLE
        readonly = PageAttributes.PRESENT
        assert writable.coalescing_key() != readonly.coalescing_key()


class TestTranslation:
    def test_addresses(self):
        t = Translation(vpn=3, pfn=10)
        assert t.virtual_address == 3 * PAGE_SIZE
        assert t.physical_address == 10 * PAGE_SIZE

    def test_negative_page_numbers_rejected(self):
        with pytest.raises(ValueError):
            Translation(vpn=-1, pfn=0)
        with pytest.raises(ValueError):
            Translation(vpn=0, pfn=-1)

    def test_contiguity_requires_both_spaces(self):
        a = Translation(vpn=1, pfn=50)
        assert a.is_contiguous_with(Translation(vpn=2, pfn=51))
        # Virtual-only contiguity does not count (Section 3.1).
        assert not a.is_contiguous_with(Translation(vpn=2, pfn=60))
        # Physical-only contiguity does not count either.
        assert not a.is_contiguous_with(Translation(vpn=5, pfn=51))

    def test_contiguity_requires_matching_attributes(self):
        a = Translation(1, 50, PageAttributes.PRESENT | PageAttributes.WRITABLE)
        b = Translation(2, 51, PageAttributes.PRESENT)
        assert not a.is_contiguous_with(b)

    def test_contiguity_tolerates_accessed_dirty_difference(self):
        base = PageAttributes.default_user()
        a = Translation(1, 50, base)
        b = Translation(2, 51, base | PageAttributes.DIRTY)
        assert a.is_contiguous_with(b)

    def test_superpages_never_chain(self):
        a = Translation(0, 0, is_superpage=True)
        b = Translation(1, 1)
        assert not a.is_contiguous_with(b)


class TestContiguityRun:
    def test_run_bounds(self):
        run = ContiguityRun(start_vpn=10, start_pfn=100, length=4)
        assert run.end_vpn == 14
        assert run.contains_vpn(10)
        assert run.contains_vpn(13)
        assert not run.contains_vpn(14)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            ContiguityRun(0, 0, 0)


class TestMemoryAccess:
    def test_virtual_address_combines_page_and_offset(self):
        access = MemoryAccess(vpn=2, offset=128)
        assert access.virtual_address == 2 * PAGE_SIZE + 128


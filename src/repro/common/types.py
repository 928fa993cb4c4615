"""Core value types shared across the simulator.

The simulator passes around a small set of immutable value objects:
translations (one VPN -> PFN mapping with attribute bits), memory accesses,
and contiguity runs. Keeping these as frozen dataclasses makes the data
flow between the OS substrate, the page walker, and the TLB models explicit
and easy to test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.constants import PAGE_SHIFT


class AccessType(enum.Enum):
    """Kind of memory access issued by a workload."""

    READ = "read"
    WRITE = "write"


class PageAttributes(enum.IntFlag):
    """Page-table attribute bits relevant to coalescing.

    The paper requires contiguous translations to share the same page
    attributes and flags before they may be coalesced (Section 5.1.1), and
    a coalesced TLB entry carries a single set of attribute bits
    (Section 4.1.5). We model the attribute bits that commonly differ
    between neighbouring Linux PTEs.
    """

    NONE = 0
    PRESENT = 1
    WRITABLE = 2
    USER = 4
    ACCESSED = 8
    DIRTY = 16
    NO_EXECUTE = 32
    GLOBAL = 64

    @classmethod
    def default_user(cls) -> "PageAttributes":
        """Attributes of a freshly-faulted anonymous user page."""
        return _DEFAULT_USER

    def coalescing_key(self) -> int:
        """Bits that must match for two translations to coalesce.

        ACCESSED/DIRTY are hardware-managed and excluded: real CoLT
        hardware coalesces around the demand translation whose A/D bits
        the walk itself just set, so they are not a differentiator.
        """
        return int(self) & COALESCING_KEY_MASK


#: The mask of :meth:`PageAttributes.coalescing_key`, as an int (the
#: IntFlag inversion is bounded to the defined flag universe, so this is
#: *not* ``~24``).
COALESCING_KEY_MASK = int(~(PageAttributes.ACCESSED | PageAttributes.DIRTY))

#: :meth:`PageAttributes.default_user`, built once: every faulted page
#: carries it, and each ``Flag`` OR costs a Python-level call.
_DEFAULT_USER = (
    PageAttributes.PRESENT
    | PageAttributes.WRITABLE
    | PageAttributes.USER
    | PageAttributes.NO_EXECUTE
)


@dataclass(frozen=True)
class Translation:
    """A single virtual-to-physical page translation.

    Attributes:
        vpn: virtual page number.
        pfn: physical frame number.
        attributes: PTE attribute bits.
        is_superpage: True if this translation covers a 2MB superpage, in
            which case ``vpn``/``pfn`` name the first 4KB page of the
            superpage and the mapping spans 512 consecutive pages.
    """

    vpn: int
    pfn: int
    attributes: PageAttributes = PageAttributes.default_user()
    is_superpage: bool = False

    def __post_init__(self) -> None:
        if self.vpn < 0 or self.pfn < 0:
            raise ValueError(
                f"negative page number in translation ({self.vpn}, {self.pfn})"
            )

    @property
    def virtual_address(self) -> int:
        """Byte address of the first byte of the virtual page."""
        return self.vpn << PAGE_SHIFT

    @property
    def physical_address(self) -> int:
        """Byte address of the first byte of the physical frame."""
        return self.pfn << PAGE_SHIFT

    def is_contiguous_with(self, other: "Translation") -> bool:
        """True if ``other`` immediately follows this translation.

        Contiguity per the paper's definition (Section 3.1) requires both
        the virtual and the physical page numbers to advance together, and
        (Section 5.1.1) the attribute bits to match.
        """
        return (
            other.vpn == self.vpn + 1
            and other.pfn == self.pfn + 1
            and other.attributes.coalescing_key()
            == self.attributes.coalescing_key()
            and not self.is_superpage
            and not other.is_superpage
        )


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference issued by a workload.

    Attributes:
        vpn: virtual page number touched.
        access_type: read or write.
        offset: byte offset within the page (used by the data-cache model).
    """

    vpn: int
    access_type: AccessType = AccessType.READ
    offset: int = 0

    @property
    def virtual_address(self) -> int:
        return (self.vpn << PAGE_SHIFT) | self.offset


@dataclass(frozen=True)
class ContiguityRun:
    """A maximal run of contiguous translations found by the scanner.

    Attributes:
        start_vpn: first virtual page of the run.
        start_pfn: first physical frame of the run.
        length: number of pages in the run (>= 1).
        from_superpage: True when the run is a bona fide superpage mapping
            (these are excluded from the paper's contiguity CDFs, which
            report non-superpage pages only).
    """

    start_vpn: int
    start_pfn: int
    length: int
    from_superpage: bool = False

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"run length must be >= 1, got {self.length}")

    @property
    def end_vpn(self) -> int:
        """One past the last virtual page in the run."""
        return self.start_vpn + self.length

    def contains_vpn(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn


@dataclass
class WalkResult:
    """Outcome of a page-table walk.

    Carries the requested translation plus the other translations that
    shared its PTE cache line -- the only candidates CoLT may coalesce
    without extra memory references (Section 4.1.4).
    """

    translation: Translation
    cache_line_translations: tuple = ()
    latency: int = 0
    memory_accesses: int = 0

    def neighbours(self) -> tuple:
        """Translations from the cache line other than the requested one."""
        return tuple(
            t for t in self.cache_line_translations
            if t.vpn != self.translation.vpn
        )


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a TLB hierarchy lookup for a single access."""

    translation: Optional[Translation]
    hit_level: str  # "l1", "superpage", "l2", "walk"
    latency: int = 0

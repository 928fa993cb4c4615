"""Page-table contiguity scanner (paper Section 5.1.1).

The paper instruments the kernel to "scan the page table looking for
instances of contiguous address translations" every five seconds. This
module is that instrumentation for the simulated kernel: it walks a
process's page table in VPN order and extracts maximal runs where the
virtual and physical page numbers advance together *and* the attribute
bits match (the paper's hardware-friendly extra constraint).

Superpage mappings are recorded separately: the paper's CDFs cover
non-superpage pages only ("the distribution of contiguities experienced
by non-superpage pages", Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.common.cdfs import WeightedCDF, average_contiguity, contiguity_cdf
from repro.common.constants import SUPERPAGE_PAGES
from repro.common.types import COALESCING_KEY_MASK, ContiguityRun, Translation
from repro.osmem.process import Process


def scan_arrays(
    vpn: np.ndarray, pfn: np.ndarray, attributes: np.ndarray,
    is_superpage: np.ndarray,
) -> List[ContiguityRun]:
    """Extract maximal contiguity runs from VPN-ordered leaf arrays.

    A page joins its predecessor's run when both are base pages, their
    VPNs and PFNs each advance by one, and their attribute bits agree
    outside ACCESSED/DIRTY (``Translation.is_contiguous_with``). Every
    superpage is a run of its own flagged ``from_superpage`` (length
    512); it never merges with neighbouring base pages, matching how the
    paper separates superpages from intermediate contiguity.
    """
    count = vpn.size
    if not count:
        return []
    base = ~is_superpage
    key = attributes & COALESCING_KEY_MASK
    joins = np.zeros(count, dtype=bool)
    joins[1:] = (
        (vpn[1:] == vpn[:-1] + 1)
        & (pfn[1:] == pfn[:-1] + 1)
        & (key[1:] == key[:-1])
        & base[1:]
        & base[:-1]
    )
    starts = np.flatnonzero(~joins)
    lengths = np.diff(starts, append=count)
    superpage = is_superpage[starts]
    lengths[superpage] = SUPERPAGE_PAGES
    return list(map(
        ContiguityRun,
        vpn[starts].tolist(),
        pfn[starts].tolist(),
        lengths.tolist(),
        superpage.tolist(),
    ))


def scan_translations(translations: Iterable[Translation]) -> List[ContiguityRun]:
    """Extract maximal contiguity runs from VPN-ordered translations."""
    translations = list(translations)
    count = len(translations)

    def column(field: str) -> np.ndarray:
        return np.fromiter(
            (getattr(t, field) for t in translations), dtype=np.int64,
            count=count,
        )

    return scan_arrays(
        column("vpn"), column("pfn"), column("attributes"),
        column("is_superpage").astype(bool),
    )


def scan_process(process: Process) -> List[ContiguityRun]:
    """Scan one process's page table for contiguity runs."""
    return scan_arrays(*process.page_table.leaf_arrays())


@dataclass(frozen=True)
class ContiguityReport:
    """Summary of one scan, matching the paper's reported metrics."""

    runs: tuple
    total_pages: int
    superpage_pages: int

    @classmethod
    def from_runs(cls, runs: Iterable[ContiguityRun]) -> "ContiguityReport":
        runs = tuple(runs)
        total = sum(r.length for r in runs)
        superpages = sum(r.length for r in runs if r.from_superpage)
        return cls(runs, total, superpages)

    @classmethod
    def from_process(cls, process: Process) -> "ContiguityReport":
        return cls.from_runs(scan_process(process))

    @property
    def base_page_runs(self) -> List[ContiguityRun]:
        """Runs of non-superpage pages -- what Figures 7-15 plot."""
        return [r for r in self.runs if not r.from_superpage]

    @property
    def average_contiguity(self) -> float:
        """Page-weighted average contiguity over non-superpage pages.

        The number printed in the legends of Figures 7-15 (e.g.
        "Mcf(20.3)") and plotted in Figures 16-17.
        """
        return average_contiguity(r.length for r in self.base_page_runs)

    def cdf(self) -> WeightedCDF:
        """Page-weighted CDF over non-superpage run lengths."""
        return contiguity_cdf(r.length for r in self.base_page_runs)

    def fraction_with_contiguity_at_least(self, threshold: int) -> float:
        """Fraction of non-superpage pages in runs of >= ``threshold``.

        Used for the paper's "15% of non-superpage pages actually have
        over 512-page contiguity" observation (Section 6.1).
        """
        base = self.base_page_runs
        total = sum(r.length for r in base)
        if total == 0:
            return 0.0
        qualifying = sum(r.length for r in base if r.length >= threshold)
        return qualifying / total

"""Ablations the paper discusses in prose.

* ``abl_l2fill`` -- Section 7.1.3: CoLT-FA / CoLT-All with and without
  the L2 echo fill. The paper reports the echo is worth an extra 10-20%
  of miss eliminations.
* ``abl_window`` -- Section 4.1.4: the coalescing window is bounded by
  the 8-PTE cache line; we sweep hypothetical windows of 2, 4 and 8 to
  show how much of CoLT's benefit the free cache-line fetch captures.
* ``abl_fasize`` -- Section 4.2.4: the paper conservatively halves the
  fully-associative TLB for CoLT-FA; this ablation shows what a
  full-size 16-entry CoLT-FA would deliver.
* ``abl_futurework`` -- Section 4.1.5 defers two refinements to future
  work: gracefully uncoalescing entries on invalidation instead of
  flushing them whole, and replacement that prefers evicting entries
  with less coalescing. Both are implemented behind flags; this
  ablation measures what the paper left on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.sim.runner import ExperimentRunner
from repro.experiments.scale import ExperimentScale
from repro.experiments.table import Column, ResultTable, item
from repro.experiments.tlb_figs import Variant, run_variants

_FA, _ALL = CoLTDesign.COLT_FA, CoLTDesign.COLT_ALL


@dataclass(frozen=True)
class AblationRow:
    benchmark: str
    variants: Dict[str, float]  # variant name -> % of baseline L2 misses
                                # eliminated


#: Ablation id -> (name, variant name -> (design, MMU config)).
ABLATIONS: Dict[str, Tuple[str, Mapping[str, Variant]]] = {
    "abl_l2fill": ("L2 echo fill (Section 7.1.3)", {
        "fa_with_l2fill": (_FA, make_mmu_config(_FA, fa_fill_l2=True)),
        "fa_no_l2fill": (_FA, make_mmu_config(_FA, fa_fill_l2=False)),
        "all_with_l2fill": (_ALL, make_mmu_config(_ALL, fa_fill_l2=True)),
        "all_no_l2fill": (_ALL, make_mmu_config(_ALL, fa_fill_l2=False)),
    }),
    "abl_window": ("coalescing window (Section 4.1.4)", {
        f"fa_window_{window}": (
            _FA, make_mmu_config(_FA, coalescing_window=window)
        )
        for window in (2, 4, 8)
    }),
    "abl_futurework": ("future-work mechanisms (Section 4.1.5)", {
        "all_paper": (_ALL, make_mmu_config(_ALL)),
        "all_graceful_inval": (
            _ALL, make_mmu_config(_ALL, graceful_invalidation=True)
        ),
        "all_aware_replace": (
            _ALL, make_mmu_config(_ALL, coalescing_aware_replacement=True)
        ),
        "all_both": (_ALL, make_mmu_config(
            _ALL,
            graceful_invalidation=True,
            coalescing_aware_replacement=True,
        )),
    }),
    "abl_fasize": ("FA TLB size (Section 4.2.4)", {
        "fa_8_entries": (_FA, make_mmu_config(_FA, superpage_entries=8)),
        "fa_16_entries": (_FA, make_mmu_config(_FA, superpage_entries=16)),
    }),
}


def run_ablation(
    ablation_id: str, scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    """Run one ablation's variants and report their L2 eliminations."""
    name, variants = ABLATIONS[ablation_id]
    eliminated = run_variants(scale, runner, variants)
    rows = tuple(
        AblationRow(benchmark, eliminated[benchmark][1])
        for benchmark in scale.benchmarks
    )
    columns = tuple(
        Column(variant, item("variants", variant), 18) for variant in variants
    )
    return ResultTable(
        f"Ablation: {name} (L2 miss elimination %)", columns, rows
    )

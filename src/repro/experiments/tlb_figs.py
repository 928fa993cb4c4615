"""Figures 18-21: CoLT's TLB miss eliminations and performance gains.

All four figures run on the simulation environment (fresh kernel per
benchmark, Section 5.2) with the paper's simulated hierarchy: 32/128
-entry 4-way L1/L2 TLBs, 16-entry superpage TLB (8 for CoLT-FA/All).

* Figure 18 -- % of baseline L1 and L2 misses eliminated by CoLT-SA,
  CoLT-FA and CoLT-All.
* Figure 19 -- CoLT-SA with the index field left-shifted by 1, 2, 3.
* Figure 20 -- fixed-size L2 associativity study: 4-way CoLT-SA vs
  8-way without CoLT vs 8-way CoLT-SA.
* Figure 21 -- runtime improvement over the baseline for a perfect TLB
  and each CoLT design, via the serialised-walk interpolation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Hashable, Mapping, Optional, Tuple

from repro.common.statistics import percent_eliminated
from repro.core.mmu import CoLTDesign, MMUConfig, make_mmu_config
from repro.sim.runner import ExperimentRunner
from repro.experiments.environments import simulation_config
from repro.experiments.scale import ExperimentScale
from repro.experiments.table import Column, ResultTable, item

#: Figure 18 / 21 design order.
COLT_DESIGNS = (CoLTDesign.COLT_SA, CoLTDesign.COLT_FA, CoLTDesign.COLT_ALL)

#: A variant of a benchmark's simulation config: its (design, MMU config).
Variant = Tuple[CoLTDesign, Optional[MMUConfig]]


def run_variants(
    scale: ExperimentScale,
    runner: ExperimentRunner,
    variants: Mapping[Hashable, Variant],
) -> Dict[str, Tuple[Dict[Hashable, float], Dict[Hashable, float]]]:
    """% of each benchmark's baseline L1 and L2 misses each variant
    eliminates.

    Every benchmark's baseline and its ``variants`` run in one batch.
    Returns benchmark -> ({variant key: L1 %}, {variant key: L2 %}).
    """
    grid = {}
    for benchmark in scale.benchmarks:
        base = simulation_config(benchmark, scale)
        grid[benchmark, None] = base
        for key, (design, mmu) in variants.items():
            grid[benchmark, key] = base.with_updates(design=design, mmu=mmu)
    results = runner.run_grid(grid)
    eliminated = {}
    for benchmark in scale.benchmarks:
        baseline = results[benchmark, None]
        eliminated[benchmark] = tuple(
            {
                key: percent_eliminated(
                    getattr(baseline, misses),
                    getattr(results[benchmark, key], misses),
                )
                for key in variants
            }
            for misses in ("l1_misses", "l2_misses")
        )
    return eliminated


@dataclass(frozen=True)
class Fig18Row:
    benchmark: str
    l1_eliminated: Dict[str, float]  # design value -> %
    l2_eliminated: Dict[str, float]


_FIG18_COLUMNS = (
    Column("SA L1%", item("l1_eliminated", "colt_sa"), 7),
    Column("FA L1%", item("l1_eliminated", "colt_fa"), 7),
    Column("All L1%", item("l1_eliminated", "colt_all"), 8),
    Column("SA L2%", item("l2_eliminated", "colt_sa"), 7, sep="   "),
    Column("FA L2%", item("l2_eliminated", "colt_fa"), 7),
    Column("All L2%", item("l2_eliminated", "colt_all"), 8),
)


def run_fig18(
    scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    eliminated = run_variants(scale, runner, {
        design.value: (design, None) for design in COLT_DESIGNS
    })
    rows = tuple(
        Fig18Row(benchmark, *eliminated[benchmark])
        for benchmark in scale.benchmarks
    )
    return ResultTable(
        "Fig 18: % baseline TLB misses eliminated", _FIG18_COLUMNS, rows
    )


@dataclass(frozen=True)
class Fig19Row:
    benchmark: str
    l1_eliminated: Dict[int, float]  # shift -> %
    l2_eliminated: Dict[int, float]


def run_fig19(
    scale: ExperimentScale,
    runner: ExperimentRunner,
    shifts: Tuple[int, ...] = (1, 2, 3),
) -> ResultTable:
    eliminated = run_variants(scale, runner, {
        shift: (
            CoLTDesign.COLT_SA,
            make_mmu_config(CoLTDesign.COLT_SA, sa_shift=shift),
        )
        for shift in shifts
    })
    rows = tuple(
        Fig19Row(benchmark, *eliminated[benchmark])
        for benchmark in scale.benchmarks
    )
    # No Average line; the L2 group starts after a wider separator.
    columns = tuple(
        Column(f"{level.upper()} s={shift}%",
               item(f"{level}_eliminated", shift), 8,
               sep="   " if level == "l2" and shift == shifts[0] else " ",
               averaged=False)
        for level in ("l1", "l2")
        for shift in shifts
    )
    return ResultTable("Fig 19: CoLT-SA index left-shift sweep", columns, rows)


@dataclass(frozen=True)
class Fig20Row:
    """% of the 4-way baseline's L2 misses eliminated by each variant."""

    benchmark: str
    colt_sa_4way: float
    no_colt_8way: float
    colt_sa_8way: float


_FIG20_COLUMNS = (
    Column("4way CoLT-SA%", attrgetter("colt_sa_4way"), 14),
    Column("8way no CoLT%", attrgetter("no_colt_8way"), 14),
    Column("8way CoLT-SA%", attrgetter("colt_sa_8way"), 14),
)


def run_fig20(
    scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    sa, baseline = CoLTDesign.COLT_SA, CoLTDesign.BASELINE
    eliminated = run_variants(scale, runner, {
        "colt_sa_4way": (sa, make_mmu_config(sa, l2_ways=4)),
        "no_colt_8way": (baseline, make_mmu_config(baseline, l2_ways=8)),
        "colt_sa_8way": (sa, make_mmu_config(sa, l2_ways=8)),
    })
    rows = tuple(
        Fig20Row(benchmark, **eliminated[benchmark][1])
        for benchmark in scale.benchmarks
    )
    return ResultTable(
        "Fig 20: L2 misses eliminated vs 4-way baseline", _FIG20_COLUMNS, rows
    )


@dataclass(frozen=True)
class Fig21Row:
    benchmark: str
    improvements: Dict[str, float]  # design value (incl. "perfect") -> %


#: Figure 21's designs, each measured against the baseline.
_FIG21_DESIGNS = (CoLTDesign.PERFECT,) + COLT_DESIGNS

_FIG21_COLUMNS = tuple(
    Column(design.value, item("improvements", design.value), 9)
    for design in _FIG21_DESIGNS
)


def run_fig21(
    scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    results = runner.run_grid({
        (benchmark, design): simulation_config(benchmark, scale, design)
        for benchmark in scale.benchmarks
        for design in (CoLTDesign.BASELINE,) + _FIG21_DESIGNS
    })
    rows = []
    for benchmark in scale.benchmarks:
        baseline = results[benchmark, CoLTDesign.BASELINE].performance
        improvements = {}
        for design in _FIG21_DESIGNS:
            result = results[benchmark, design]
            # PERFECT's runtime is the perfect-TLB bound of its run.
            performance = (
                result.perfect_performance
                if design is CoLTDesign.PERFECT
                else result.performance
            )
            improvements[design.value] = performance.improvement_over(
                baseline
            )
        rows.append(Fig21Row(benchmark, improvements))
    return ResultTable(
        "Fig 21: runtime improvement over baseline (%)",
        _FIG21_COLUMNS,
        tuple(rows),
    )

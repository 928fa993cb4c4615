"""Figures 7-17: page-allocation contiguity characterisation.

Figures 7-9, 10-12 and 13-15 plot per-benchmark CDFs of contiguity under
three kernel settings; their legends carry the page-weighted average
contiguity. Figures 16 and 17 plot how that average responds to memhog
load (0/25/50%) with THS on and off respectively.

All of these run on the characterisation environment (aged, loaded
machine), and all statistics cover *non-superpage* pages only, exactly
as the paper's scanner reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Tuple

from repro.common.cdfs import PAPER_CDF_POINTS
from repro.sim.runner import ExperimentRunner
from repro.workloads.benchmarks import CONTIGUITY_PAPER_AVG
from repro.experiments.environments import characterization_config
from repro.experiments.scale import ExperimentScale
from repro.experiments.table import Column, ResultTable, item

#: The three kernel settings of Figures 7-15, keyed by experiment id.
CDF_CONFIGS: Dict[str, Tuple[bool, bool]] = {
    # id -> (ths_enabled, defrag_enabled)
    "fig7_9": (True, True),     # THS on, normal compaction (Linux default)
    "fig10_12": (False, True),  # THS off, normal compaction
    "fig13_15": (False, False), # THS off, low compaction (worst case)
}

#: Index into CONTIGUITY_PAPER_AVG tuples for each configuration.
_PAPER_INDEX = {"fig7_9": 0, "fig10_12": 1, "fig13_15": 2}

#: The CDF points the tables print (rows carry all of PAPER_CDF_POINTS).
_PRINTED_POINTS = (1, 4, 16, 64, 256, 1024)

#: The memhog loads of Figures 16 and 17, as fractions of memory.
_MEMHOG_LOADS = (0.0, 0.25, 0.50)


@dataclass(frozen=True)
class ContiguityCDFRow:
    """One benchmark's contiguity distribution (one CDF curve)."""

    benchmark: str
    average_contiguity: float
    paper_average: float
    cdf_points: Dict[int, float]
    superpage_pages: int
    total_pages: int


#: The Average line is the figure legends' 'Average(...)' entry.
_CDF_COLUMNS = (
    Column("avg", attrgetter("average_contiguity"), 8),
    Column("paper", attrgetter("paper_average"), 8, ".2f", averaged=False),
) + tuple(
    Column(f"<={point}", item("cdf_points", point), 6, ".2f",
           sep="  " if point == _PRINTED_POINTS[0] else " ",
           averaged=False)
    for point in _PRINTED_POINTS
)


def run_contiguity_cdfs(
    config_id: str, scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    """Regenerate one of the three CDF figure groups."""
    ths, defrag = CDF_CONFIGS[config_id]
    paper_index = _PAPER_INDEX[config_id]
    results = runner.run_grid({
        benchmark: characterization_config(
            benchmark, scale, ths_enabled=ths, defrag_enabled=defrag
        )
        for benchmark in scale.benchmarks
    })
    rows = []
    for benchmark in scale.benchmarks:
        report = results[benchmark].contiguity
        rows.append(
            ContiguityCDFRow(
                benchmark=benchmark,
                average_contiguity=report.average_contiguity,
                paper_average=CONTIGUITY_PAPER_AVG[benchmark][paper_index],
                cdf_points=report.cdf().evaluate(PAPER_CDF_POINTS),
                superpage_pages=report.superpage_pages,
                total_pages=report.total_pages,
            )
        )
    title = (
        f"Contiguity CDFs [{config_id}]: THS {'on' if ths else 'off'}, "
        f"{'normal' if defrag else 'low'} compaction"
    )
    return ResultTable(title, _CDF_COLUMNS, tuple(rows))


@dataclass(frozen=True)
class MemhogRow:
    """One benchmark's average contiguity across memhog loads."""

    benchmark: str
    no_memhog: float
    memhog_25: float
    memhog_50: float


_MEMHOG_COLUMNS = (
    Column("no memhog", attrgetter("no_memhog"), 10),
    Column("memhog 25%", attrgetter("memhog_25"), 11),
    Column("memhog 50%", attrgetter("memhog_50"), 11),
)


def run_memhog_figure(
    figure: str, scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    """Regenerate Figure 16 (THS on) or Figure 17 (THS off)."""
    if figure not in ("fig16", "fig17"):
        raise ValueError(f"figure must be fig16 or fig17, got {figure!r}")
    ths = figure == "fig16"
    results = runner.run_grid({
        (benchmark, fraction): characterization_config(
            benchmark, scale, ths_enabled=ths, memhog_fraction=fraction
        )
        for benchmark in scale.benchmarks
        for fraction in _MEMHOG_LOADS
    })
    rows = tuple(
        MemhogRow(benchmark, *(
            results[benchmark, fraction].contiguity.average_contiguity
            for fraction in _MEMHOG_LOADS
        ))
        for benchmark in scale.benchmarks
    )
    title = (
        f"Average contiguity vs load [{figure}]: THS "
        f"{'on' if ths else 'off'}"
    )
    return ResultTable(title, _MEMHOG_COLUMNS, rows)

"""Table 1: baseline L1/L2 TLB MPMI with THS enabled and disabled.

The paper's Table 1 is measured with on-chip performance counters on the
real, loaded machine; we run the same configurations (THS on vs off,
normal compaction, no memhog) on the characterisation environment and
report the baseline TLB hierarchy's misses per million instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Tuple

from repro.sim.runner import ExperimentRunner
from repro.workloads.benchmarks import TABLE1_PAPER_MPMI, get_benchmark
from repro.experiments.environments import characterization_config
from repro.experiments.scale import ExperimentScale
from repro.experiments.table import Column, ResultTable, item


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's measured-vs-paper MPMI."""

    benchmark: str
    suite: str
    l1_mpmi_ths_on: float
    l2_mpmi_ths_on: float
    l1_mpmi_ths_off: float
    l2_mpmi_ths_off: float
    paper: Tuple[int, int, int, int]


def _columns() -> Tuple[Column, ...]:
    """Suite, then each measured MPMI beside its paper value."""
    columns = [Column("Suite", attrgetter("suite"), 8, "s", averaged=False)]
    for index, (name, field) in enumerate((
        ("L1on", "l1_mpmi_ths_on"),
        ("L2on", "l2_mpmi_ths_on"),
        ("L1off", "l1_mpmi_ths_off"),
        ("L2off", "l2_mpmi_ths_off"),
    )):
        columns += [
            Column(name, attrgetter(field), 8, ".0f", averaged=False),
            Column(f"{name} (paper)", item("paper", index), 8, "d",
                   header="(paper)", averaged=False),
        ]
    return tuple(columns)


def run_table1(
    scale: ExperimentScale, runner: ExperimentRunner
) -> ResultTable:
    """Regenerate Table 1 at the given scale."""
    results = runner.run_grid({
        (benchmark, ths): characterization_config(
            benchmark, scale, ths_enabled=ths
        )
        for benchmark in scale.benchmarks
        for ths in (True, False)
    })
    rows = tuple(
        Table1Row(
            benchmark=benchmark,
            suite=get_benchmark(benchmark).suite,
            l1_mpmi_ths_on=results[benchmark, True].l1_mpmi,
            l2_mpmi_ths_on=results[benchmark, True].l2_mpmi,
            l1_mpmi_ths_off=results[benchmark, False].l1_mpmi,
            l2_mpmi_ths_off=results[benchmark, False].l2_mpmi,
            paper=TABLE1_PAPER_MPMI[benchmark],
        )
        for benchmark in scale.benchmarks
    )
    return ResultTable(None, _columns(), rows)

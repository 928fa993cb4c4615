"""Experiment registry: every table and figure, runnable by id."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import ExperimentError
from repro.obs.trace import span
from repro.sim.runner import ExperimentRunner
from repro.experiments.ablations import run_ablation
from repro.experiments.contiguity_figs import (
    run_contiguity_cdfs,
    run_memhog_figure,
)
from repro.experiments.scale import ExperimentScale
from repro.experiments.table import ResultTable
from repro.experiments.table1 import run_table1
from repro.experiments.tlb_figs import (
    run_fig18,
    run_fig19,
    run_fig20,
    run_fig21,
)


@dataclass(frozen=True)
class Experiment:
    """One registered paper artefact."""

    id: str
    title: str
    fn: Callable[[ExperimentScale, ExperimentRunner], ResultTable]

    def run(
        self, scale: ExperimentScale, runner: Optional[ExperimentRunner] = None
    ) -> ResultTable:
        with span(
            f"experiment.{self.id}", cat="experiment", accesses=scale.accesses
        ):
            return self.fn(scale, runner or ExperimentRunner())


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "table1",
            "Table 1: baseline L1/L2 TLB MPMI, THS on vs off",
            run_table1,
        ),
        Experiment(
            "fig7_9",
            "Figures 7-9: contiguity CDFs, THS on + normal compaction",
            partial(run_contiguity_cdfs, "fig7_9"),
        ),
        Experiment(
            "fig10_12",
            "Figures 10-12: contiguity CDFs, THS off + normal compaction",
            partial(run_contiguity_cdfs, "fig10_12"),
        ),
        Experiment(
            "fig13_15",
            "Figures 13-15: contiguity CDFs, THS off + low compaction",
            partial(run_contiguity_cdfs, "fig13_15"),
        ),
        Experiment(
            "fig16",
            "Figure 16: average contiguity vs memhog load, THS on",
            partial(run_memhog_figure, "fig16"),
        ),
        Experiment(
            "fig17",
            "Figure 17: average contiguity vs memhog load, THS off",
            partial(run_memhog_figure, "fig17"),
        ),
        Experiment(
            "fig18",
            "Figure 18: % baseline TLB misses eliminated by CoLT designs",
            run_fig18,
        ),
        Experiment(
            "fig19",
            "Figure 19: CoLT-SA index left-shift sweep (1, 2, 3 bits)",
            run_fig19,
        ),
        Experiment(
            "fig20",
            "Figure 20: L2 associativity study (4/8-way, with/without CoLT)",
            run_fig20,
        ),
        Experiment(
            "fig21",
            "Figure 21: runtime improvement (perfect / SA / FA / All)",
            run_fig21,
        ),
        Experiment(
            "abl_l2fill",
            "Ablation (Section 7.1.3): CoLT-FA/All L2 echo fill",
            partial(run_ablation, "abl_l2fill"),
        ),
        Experiment(
            "abl_window",
            "Ablation (Section 4.1.4): coalescing window 2/4/8",
            partial(run_ablation, "abl_window"),
        ),
        Experiment(
            "abl_futurework",
            "Ablation (Section 4.1.5): graceful uncoalescing + "
            "coalescing-aware replacement",
            partial(run_ablation, "abl_futurework"),
        ),
        Experiment(
            "abl_fasize",
            "Ablation (Section 4.2.4): CoLT-FA TLB 8 vs 16 entries",
            partial(run_ablation, "abl_fasize"),
        ),
    )
}


def experiment_ids() -> Tuple[str, ...]:
    """Every registered experiment id, in paper-artefact order."""
    return tuple(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None


def resolve_experiments(ids: Sequence[str]) -> Tuple[Experiment, ...]:
    """Resolve experiment ids (or the single id ``all``) to entries.

    Unknown ids raise :class:`ExperimentError` before anything runs, so
    a typo in the last id of a long command fails fast instead of after
    an hour of simulation.
    """
    if list(ids) == ["all"]:
        return tuple(EXPERIMENTS.values())
    return tuple(get_experiment(experiment_id) for experiment_id in ids)


"""The benchmark's three workloads: set-up and one timed pass each.

Every pass returns the digest of each result it produced, keyed by a
stable name, plus the simulated accesses it processed. Digests hash the
simulated outputs only (figure rows, miss counts, MMU counters and the
performance model), which are deterministic in the seed.

* ``paper_figs``   -- QUICK fig18 then fig21, serial, vector engine,
  no result store: 5 captures and 25 replays.
* ``design_sweep`` -- set-up captures the five QUICK scenarios; the pass
  replays 11 MMU variants per scenario through the scalar engine, then
  through the vector engine, and checks each vector result against its
  scalar twin.
* ``contiguity``   -- QUICK fig7_9 with two pool workers and a fresh,
  empty result store per pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.experiments.environments import simulation_config
from repro.experiments.registry import get_experiment
from repro.experiments.scale import QUICK, ExperimentScale
from repro.sim.runner import ExperimentRunner
from repro.sim.store import ResultStore
import repro.sim.engine.vector as vector_engine
import repro.sim.replay as scalar_engine
import repro.sim.scenario as scenario_module


def digest(payload) -> str:
    """Short stable hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def row_digest(row) -> str:
    """Digest of a figure-row dataclass (every field)."""
    return digest(dataclasses.asdict(row))


def result_digest(result) -> str:
    """Digest of one simulation result's simulated outputs."""
    return digest({
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "mmu": dict(result.mmu_counters.values),
        "performance": dataclasses.asdict(result.performance),
    })


def quick_scale(seed: int) -> ExperimentScale:
    return QUICK.with_updates(seed=seed)


@dataclass
class PassOutput:
    """What one timed pass produced."""

    digests: Dict[str, str]
    accesses: int
    #: Keys of results that failed a check inside the pass itself.
    failed: List[str] = field(default_factory=list)
    runner: Optional[ExperimentRunner] = None


@dataclass
class Workload:
    name: str
    #: Worker processes the pass may use.
    jobs: int
    setup: Callable[[int], object]
    run_pass: Callable[[object, Path], PassOutput]


def _runner_accesses(runner: ExperimentRunner) -> int:
    """Accesses captured plus replayed by a runner that started empty."""
    captured = sum(s.accesses for s in runner._scenarios.values())
    replayed = sum(config.accesses for config in runner._cache)
    return captured + replayed


def _figure_digests(figure: str, result) -> Dict[str, str]:
    return {f"{figure}/{row.benchmark}": row_digest(row) for row in result.rows}


# ----------------------------------------------------------------------
# paper_figs
# ----------------------------------------------------------------------


def _paper_setup(seed: int):
    return quick_scale(seed), get_experiment("fig18"), get_experiment("fig21")


def _paper_pass(state, scratch: Path) -> PassOutput:
    scale, fig18, fig21 = state
    runner = ExperimentRunner(jobs=1, engine="vector")
    digests = _figure_digests("fig18", fig18.run(scale, runner))
    digests.update(_figure_digests("fig21", fig21.run(scale, runner)))
    return PassOutput(digests, _runner_accesses(runner), runner=runner)


# ----------------------------------------------------------------------
# design_sweep
# ----------------------------------------------------------------------


def sweep_variants() -> Tuple[Tuple[str, CoLTDesign, object], ...]:
    """The 11 MMU variants replayed per scenario (label, design, mmu).

    The five designs of Figs 18/21, the Fig 19 index shifts and Fig 20
    associativities not already among them (shift 2 and 4-way are the
    paper's CoLT-SA), and the FA-size and L2-echo variants of
    ``examples/colt_design_space.py``.
    """
    sa, fa = CoLTDesign.COLT_SA, CoLTDesign.COLT_FA
    base = CoLTDesign.BASELINE
    return (
        ("baseline", base, None),
        ("colt_sa", sa, None),
        ("colt_fa", fa, None),
        ("colt_all", CoLTDesign.COLT_ALL, None),
        ("perfect", CoLTDesign.PERFECT, None),
        ("sa_shift1", sa, make_mmu_config(sa, sa_shift=1)),
        ("sa_shift3", sa, make_mmu_config(sa, sa_shift=3)),
        ("baseline_8way", base, make_mmu_config(base, l2_ways=8)),
        ("sa_8way", sa, make_mmu_config(sa, l2_ways=8)),
        ("fa_16entry", fa, make_mmu_config(fa, superpage_entries=16)),
        ("fa_no_echo", fa, make_mmu_config(fa, fa_fill_l2=False)),
    )


def _sweep_setup(seed: int):
    scale = quick_scale(seed)
    captures = []
    for benchmark in scale.benchmarks:
        base = simulation_config(benchmark, scale)
        scenario = scenario_module.capture_scenario(base)
        configs = [
            (f"{benchmark}/{label}", base.with_updates(design=design, mmu=mmu))
            for label, design, mmu in sweep_variants()
        ]
        captures.append((scenario, configs))
    return captures


def _sweep_pass(captures, scratch: Path) -> PassOutput:
    # Look the engines up at call time so a traced run sees its wrappers.
    scalar: Dict[str, object] = {}
    for scenario, configs in captures:
        for key, config in configs:
            scalar[key] = scalar_engine.replay_scenario(scenario, config)
    digests: Dict[str, str] = {}
    failed: List[str] = []
    accesses = 0
    for scenario, configs in captures:
        for key, config in configs:
            vector = vector_engine.vector_replay_scenario(scenario, config)
            twin = scalar[key]
            accesses += twin.accesses + vector.accesses
            digests[key] = result_digest(twin)
            if result_digest(vector) != digests[key]:
                failed.append(key)
    return PassOutput(digests, accesses, failed)


# ----------------------------------------------------------------------
# contiguity
# ----------------------------------------------------------------------


def _contiguity_setup(seed: int):
    return quick_scale(seed), get_experiment("fig7_9")


def _contiguity_pass(state, scratch: Path) -> PassOutput:
    scale, fig7_9 = state
    store_dir = scratch / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        runner = ExperimentRunner(
            jobs=2, engine="vector", store=ResultStore(store_dir)
        )
        digests = _figure_digests("fig7_9", fig7_9.run(scale, runner))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return PassOutput(digests, _runner_accesses(runner), runner=runner)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper_figs", 1, _paper_setup, _paper_pass),
        Workload("design_sweep", 1, _sweep_setup, _sweep_pass),
        Workload("contiguity", 2, _contiguity_setup, _contiguity_pass),
    )
}

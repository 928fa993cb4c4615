"""The replay loop reproduces pinned reference outputs, under every name.

There is one replay loop (``repro.sim.replay.replay_scenario``); the
benchmark harness also reaches it as
``repro.sim.engine.vector.vector_replay_scenario`` and through
``ExperimentRunner(engine="vector")``. These tests pin its results to
``tests/fixtures/replay_reference.json``: miss counts, the 13 MMU
counters, the performance model and the coalescing run-length
histogram of QUICK mcf under the five designs, and of a churn-heavy
small scenario under the five designs and seven MMU-override knobs.
The fixture was written by the object-model TLB simulator this loop
replaced; a deliberate behaviour change must regenerate it and say so.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.sanitizers import TLBSanitizer
from repro.common.errors import ConfigurationError
from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import PROFILE_ENV, reset_tracing
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.engine import replay_with_engine, resolve_engine
from repro.sim.engine.vector import vector_replay_scenario
from repro.sim.faults import FaultPlan
from repro.sim.replay import replay_scenario
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import capture_scenario
from repro.sim.system import SimulationConfig
from repro.experiments.environments import simulation_config
from repro.experiments.scale import QUICK

REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "replay_reference.json").read_text(
        encoding="utf-8"
    )
)

ALL_DESIGNS = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
    CoLTDesign.PERFECT,
)

#: The MMU-override knobs of the reference, by fixture key.
KNOBS = {
    "graceful-invalidation": (
        CoLTDesign.COLT_ALL, dict(graceful_invalidation=True)
    ),
    "coalescing-aware-replacement": (
        CoLTDesign.COLT_ALL, dict(coalescing_aware_replacement=True)
    ),
    "coalescing-window": (CoLTDesign.COLT_SA, dict(coalescing_window=4)),
    "no-l2-echo": (CoLTDesign.COLT_FA, dict(fa_fill_l2=False)),
    "fa-span-16": (CoLTDesign.COLT_FA, dict(max_fa_span=16)),
    "l2-8way": (CoLTDesign.COLT_ALL, dict(l2_ways=8)),
    "sa-shift-3": (CoLTDesign.COLT_SA, dict(sa_shift=3)),
}


def small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.COLT_ALL,
        kernel=KernelConfig(num_frames=4096),
        accesses=4000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def small_configs():
    """Every small-scenario config of the reference, by fixture key."""
    configs = {
        f"small/{design.value}": small_config(design=design)
        for design in ALL_DESIGNS
    }
    for name, (design, overrides) in KNOBS.items():
        configs[f"small/{name}"] = small_config().with_updates(
            design=design, mmu=make_mmu_config(design, **overrides)
        )
    return configs


def assert_matches_reference(key, result):
    reference = REFERENCE[key]
    assert result.l1_misses == reference["l1_misses"]
    assert result.l2_misses == reference["l2_misses"]
    assert dict(result.mmu_counters.values) == reference["mmu_counters"]
    assert dataclasses.asdict(result.performance) == reference["performance"]


def assert_identical(a, b):
    assert a.accesses == b.accesses
    assert a.l1_misses == b.l1_misses
    assert a.l2_misses == b.l2_misses
    assert a.mmu_counters.values == b.mmu_counters.values
    assert a.performance == b.performance
    assert a.contiguity == b.contiguity


@pytest.fixture(scope="module")
def quick_scenario():
    """One QUICK-scale capture, shared by every reference test."""
    return capture_scenario(simulation_config(QUICK.benchmarks[0], QUICK))


@pytest.fixture(scope="module")
def small_scenario():
    """A churn-heavy small capture: shootdowns land mid-log."""
    return capture_scenario(small_config())


class TestBitIdentity:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_quick_scale_all_designs(self, quick_scenario, design):
        config = simulation_config(
            QUICK.benchmarks[0], QUICK
        ).with_updates(design=design)
        result = replay_scenario(quick_scenario, config)
        assert_matches_reference(f"quick/{design.value}", result)
        assert_identical(result, vector_replay_scenario(quick_scenario, config))

    @pytest.mark.parametrize("name", list(KNOBS))
    def test_mmu_override_knobs(self, small_scenario, name):
        """Every fill-policy/TLB-shape knob reproduces the reference."""
        config = small_configs()[f"small/{name}"]
        assert_matches_reference(
            f"small/{name}", replay_scenario(small_scenario, config)
        )

    def test_shootdowns_split_epochs(self, small_scenario):
        """Shootdowns mid-log end the repeat-hit shortcut's stretches."""
        before = small_scenario.inval_before.tolist()
        assert before, "scenario must carry shootdowns"
        n = small_scenario.accesses
        assert any(0 < b < n for b in before), (
            "regression guard: the captured churn must land shootdowns "
            "strictly inside the access log"
        )
        for design in ALL_DESIGNS:
            result = replay_scenario(small_scenario, small_config(design=design))
            assert_matches_reference(f"small/{design.value}", result)
            assert result.mmu_counters["invalidations"] == sum(
                small_scenario.inval_count.tolist()
            )

    def test_coalescing_histograms_identical(
        self, small_scenario, monkeypatch
    ):
        """The run-length histogram matches the reference, per design."""
        monkeypatch.setenv(PROFILE_ENV, "1")
        reset_tracing()
        try:
            for key, config in small_configs().items():
                set_registry(MetricsRegistry())
                replay_scenario(small_scenario, config)
                entry = get_registry().snapshot(reset=True).get(
                    "colt_coalesce_run_length"
                )
                series = [
                    {name: s[name] for name in ("labels", "counts", "count", "sum")}
                    for s in (entry["series"] if entry else [])
                ]
                assert series == REFERENCE[key]["histogram"], key
        finally:
            set_registry(None)
            monkeypatch.delenv(PROFILE_ENV)
            reset_tracing()


class TestEngineSelection:
    def test_resolve_engine_rejects_unknown(self):
        assert resolve_engine(None) == "scalar"
        assert resolve_engine("vector") == "vector"
        with pytest.raises(ConfigurationError):
            resolve_engine("turbo")

    def test_runner_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(engine="turbo")

    def test_sanitized_runs_take_the_scalar_path(self, monkeypatch):
        """Sanitized replays run the one loop, full scan included."""
        scans = []
        full_scan = TLBSanitizer.full_scan

        def counting_scan(self):
            scans.append(self)
            full_scan(self)

        monkeypatch.setattr(TLBSanitizer, "full_scan", counting_scan)
        config = small_config(sanitize=True)
        scenario = capture_scenario(config)
        for engine in ("scalar", "vector"):
            scans.clear()
            result = replay_with_engine(scenario, config, engine=engine)
            assert_matches_reference("small/colt_all", result)
            assert scans, f"{engine}: no TLBSanitizer.full_scan ran"


class TestRunnerIntegration:
    def test_vector_runner_matches_scalar_baseline(self):
        """The full fan-out path, under both harness names."""
        base = small_config(accesses=1500, design=CoLTDesign.BASELINE)
        scalar = ExperimentRunner(jobs=1).run_designs(base)
        vector = ExperimentRunner(jobs=1, engine="vector").run_designs(base)
        assert scalar == vector

    def test_faulted_vector_run_matches_scalar_baseline(self):
        """Chaos case: a faulted run under the vector name recovers to
        the fault-free results -- retries re-enter the replay loop."""
        base = small_config(accesses=1500, design=CoLTDesign.BASELINE)
        scalar = ExperimentRunner(
            jobs=1, policy=RetryPolicy(max_retries=0)
        ).run_designs(base)
        runner = ExperimentRunner(
            jobs=2,
            engine="vector",
            policy=RetryPolicy(max_retries=3, backoff_s=0.01),
            faults=FaultPlan.parse("raise@replay:0"),
        )
        assert runner.run_designs(base) == scalar
        assert runner.resilience_counters.as_dict()["retries"] >= 1

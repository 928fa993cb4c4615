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

The loop steps runs of one VPN; :func:`reference_replay` keeps the
per-access loop it replaced as an oracle, and hypothesis-drawn edits of
the small capture (repeated accesses, extra shootdowns) must replay
identically through both. The last tests pin the lifetime of the
per-scenario replay plan.
"""

import dataclasses
import gc
import json
import pickle
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.sanitizers import TLBSanitizer
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    pollution_schedule,
)
from repro.cache.mmu_cache import MMUCache
from repro.common.errors import ConfigurationError
from repro.core.mmu import FA_HIT, MMU, WALK_FA, CoLTDesign, make_mmu_config
from repro.core.performance import evaluate_performance
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim import replay
from repro.sim.engine import replay_with_engine, resolve_engine
from repro.sim.engine.vector import vector_replay_scenario
from repro.sim.faults import FaultPlan
from repro.sim.replay import ReplayWalker, build_plan, replay_scenario
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

    def test_coalescing_histograms_identical(self, small_scenario):
        """The run-length histogram matches the reference, per design."""
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


# ----------------------------------------------------------------------
# The per-access loop as an oracle for the run-length loop.
# ----------------------------------------------------------------------


def reference_replay(scenario, config):
    """Replay ``scenario`` one access at a time; the test-only oracle.

    This is the loop :func:`replay_scenario` ran before it stepped runs:
    an access is stepped unless it repeats the last stepped VPN with no
    shootdown in between and the last outcome was not ``WALK_FA``; a
    skipped access counts as an FA hit after ``FA_HIT`` and as an SA hit
    otherwise. Returns the simulated outputs :func:`outputs` compares.
    """
    mmu_config = config.mmu or make_mmu_config(config.design)
    accesses = scenario.accesses
    caches = CacheHierarchy(HierarchyConfig())
    walker = ReplayWalker(
        build_plan(scenario), caches, MMUCache(),
        pollution_schedule(
            accesses, config.llc_pollution_per_access, caches.llc.num_sets
        ),
    )
    mmu = MMU(mmu_config, walker, sanitize=config.sanitize)
    before = scenario.inval_before.tolist()
    starts = scenario.inval_start.tolist()
    counts = scenario.inval_count.tolist()
    events = len(before)
    pending = 0
    if mmu_config.design is not CoLTDesign.PERFECT:
        counted = 0
        sa_repeats = fa_repeats = 0
        prev_vpn = -1
        outcome = WALK_FA
        next_event = before[0] if events else accesses
        for index, vpn in enumerate(scenario.vpns.tolist()):
            if index == next_event:
                mmu.tally(index - counted, sa_repeats, fa_repeats)
                counted = index
                sa_repeats = fa_repeats = 0
                while pending < events and before[pending] <= index:
                    mmu.invalidate_range(starts[pending], counts[pending])
                    pending += 1
                next_event = before[pending] if pending < events else accesses
                prev_vpn = -1
            if vpn == prev_vpn:
                if outcome == FA_HIT:
                    fa_repeats += 1
                    continue
                if outcome != WALK_FA:
                    sa_repeats += 1
                    continue
            prev_vpn = vpn
            walker.cursor = index
            outcome = mmu.step(vpn)
        mmu.tally(accesses - counted, sa_repeats, fa_repeats)
    else:
        mmu.tally(accesses)
    while pending < events:
        mmu.invalidate_range(starts[pending], counts[pending])
        pending += 1
    lines = np.unique(scenario.vpns >> 3).size
    performance = evaluate_performance(
        mmu, accesses, scenario.profile.core,
        compulsory_discount_cycles=float(lines * caches.config.dram_latency),
    )
    return mmu.l1_misses, mmu.l2_misses, mmu.counters.snapshot(), performance


def outputs(result):
    """The simulated outputs of a :class:`SimulationResult`."""
    return (
        result.l1_misses, result.l2_misses, result.mmu_counters,
        result.performance,
    )


def with_histogram(replay_fn, scenario, config):
    """``replay_fn``'s outputs plus the run-length histogram it observed."""
    set_registry(MetricsRegistry())
    try:
        produced = replay_fn(scenario, config)
        entry = get_registry().snapshot(reset=True).get(
            "colt_coalesce_run_length"
        )
    finally:
        set_registry(None)
    return produced, entry["series"] if entry else []


def repeat_accesses(scenario, repeats):
    """``scenario`` with access ``i`` repeated ``repeats[i]`` more times.

    The copies follow the original at once, in both ``vpns`` and
    ``record_index``; shootdowns that preceded later accesses move with
    them.
    """
    extra = np.zeros(scenario.accesses, dtype=np.int64)
    for index, times in repeats.items():
        extra[index] = times
    shift = np.concatenate(([0], np.cumsum(extra)))
    return dataclasses.replace(
        scenario,
        vpns=np.repeat(scenario.vpns, extra + 1),
        record_index=np.repeat(scenario.record_index, extra + 1),
        inval_before=scenario.inval_before + shift[scenario.inval_before],
    )


def add_shootdowns(scenario, shootdowns):
    """``scenario`` with extra ``(before, start, count)`` shootdowns."""
    added = np.asarray(shootdowns, dtype=np.int64).reshape(-1, 3)
    before = np.concatenate((scenario.inval_before, added[:, 0]))
    order = np.argsort(before, kind="stable")
    return dataclasses.replace(
        scenario,
        inval_before=before[order],
        inval_start=np.concatenate(
            (scenario.inval_start, added[:, 1])
        )[order],
        inval_count=np.concatenate(
            (scenario.inval_count, added[:, 2])
        )[order],
    )


@st.composite
def log_edits(draw, scenario):
    """Repeated accesses and extra shootdowns for ``scenario``'s log."""
    n = scenario.accesses
    repeats = draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(1, 4), min_size=1, max_size=8,
    ))
    edited = repeat_accesses(scenario, repeats)
    vpns = edited.vpns
    n = edited.accesses
    # Accesses that repeat their predecessor sit inside a run; the
    # others start one.
    inside = np.flatnonzero(vpns[1:] == vpns[:-1]) + 1
    first = np.flatnonzero(vpns[1:] != vpns[:-1]) + 1
    targets = (
        [int(i) for i in draw(st.lists(
            st.sampled_from(inside), min_size=1, max_size=3))]
        + [int(i) for i in draw(st.lists(
            st.sampled_from(first), max_size=2))]
        + [n] * draw(st.integers(0, 1))
    )
    shootdowns = []
    for target in targets:
        vpn = int(vpns[min(target, n - 1)])
        low = draw(st.integers(0, 1))
        shootdowns.append((target, vpn - low, low + draw(st.integers(1, 2))))
    return add_shootdowns(edited, shootdowns)


def assert_replays_as_per_access(scenario):
    """Every design and knob of the reference: the run-length loop and
    the per-access loop agree, run-length histograms included."""
    for key, config in small_configs().items():
        got, got_histogram = with_histogram(replay_scenario, scenario, config)
        want, want_histogram = with_histogram(
            reference_replay, scenario, config
        )
        assert outputs(got) == want, key
        assert got_histogram == want_histogram, key


class TestRunLengthLoop:
    def test_unedited_log_replays_as_per_access(self, small_scenario):
        assert_replays_as_per_access(small_scenario)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_edited_logs_replay_as_per_access(self, small_scenario, data):
        """Repeated accesses, and shootdowns at a run's first access,
        inside a run and after the last access."""
        assert_replays_as_per_access(data.draw(log_edits(small_scenario)))


# ----------------------------------------------------------------------
# The per-scenario replay plan.
# ----------------------------------------------------------------------


def fresh_copy(scenario):
    """An equal scenario under a new identity: it gets its own plan."""
    return pickle.loads(pickle.dumps(scenario))


class TestReplayPlan:
    def test_interleaved_scenarios_replay_as_fresh(self, small_scenario):
        """A, then B, then A again: each equals a replay of a copy that
        never shared a plan."""
        other = capture_scenario(small_config(seed=12, accesses=2000))
        a_config = small_config(design=CoLTDesign.COLT_FA)
        b_config = small_config(
            seed=12, accesses=2000, design=CoLTDesign.COLT_FA
        )
        first = replay_scenario(small_scenario, a_config)
        middle = replay_scenario(other, b_config)
        again = replay_scenario(small_scenario, a_config)
        assert outputs(first) == outputs(again)
        assert outputs(first) == outputs(
            replay_scenario(fresh_copy(small_scenario), a_config)
        )
        assert outputs(middle) == outputs(
            replay_scenario(fresh_copy(other), b_config)
        )

    def test_records_are_decoded_on_the_first_walk(self, small_scenario):
        scenario = fresh_copy(small_scenario)
        replay_scenario(scenario, small_config(design=CoLTDesign.PERFECT))
        plan = replay._LAST_PLAN.plan
        assert "walk_records" not in vars(plan)
        replay_scenario(scenario, small_config(design=CoLTDesign.BASELINE))
        assert replay._LAST_PLAN.plan is plan
        assert "walk_records" in vars(plan)

    def test_replay_leaves_the_pickle_unchanged(self, small_scenario):
        scenario = fresh_copy(small_scenario)
        pickled = pickle.dumps(scenario)
        replay_scenario(scenario, small_config())
        assert pickle.dumps(scenario) == pickled

    def test_plan_does_not_keep_its_scenario_alive(self, small_scenario):
        scenario = fresh_copy(small_scenario)
        replay_scenario(scenario, small_config())
        ref = replay._LAST_PLAN.scenario
        assert ref() is scenario
        del scenario
        gc.collect()
        assert ref() is None
        assert replay._LAST_PLAN.plan is None

    def test_sanitized_replay_after_plain_one_scans(
        self, small_scenario, monkeypatch
    ):
        """The shared plan carries no sanitizer state: a sanitized
        replay after a plain one of the same scenario still runs its
        full scan."""
        scans = []
        full_scan = TLBSanitizer.full_scan

        def counting_scan(self):
            scans.append(self)
            full_scan(self)

        monkeypatch.setattr(TLBSanitizer, "full_scan", counting_scan)
        monkeypatch.setenv("COLT_SANITIZE", "0")
        plain = replay_scenario(small_scenario, small_config())
        plan = replay._LAST_PLAN.plan
        assert not scans
        monkeypatch.setenv("COLT_SANITIZE", "1")
        sanitized = replay_scenario(small_scenario, small_config())
        assert replay._LAST_PLAN.plan is plan
        assert scans
        assert outputs(sanitized) == outputs(plain)

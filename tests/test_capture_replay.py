"""Capture/replay split: bit-equivalence, capture-once, store, schedules.

The two-phase executor (``repro.sim.scenario`` + ``repro.sim.replay`` +
``repro.sim.runner``) is only a valid optimisation if it is *invisible*
in the results: every design's replay must be bit-identical to the
legacy monolithic run, the OS must be captured exactly once per
scenario, and the disk store must hand equal results to concurrent
processes. These tests pin each of those properties.

The capture loop steps runs of one VPN; :func:`reference_capture` keeps
the per-access loop it replaced as an oracle, and hypothesis-edited
traces must capture identically through both.
"""

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.determinism import check_replay_equivalence
from repro.cache.hierarchy import pollution_schedule
from repro.common.errors import SimulationError, TaskExecutionError
from repro.contiguity.scanner import ContiguityReport
from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.experiments.contiguity_figs import CDF_CONFIGS
from repro.experiments.registry import get_experiment
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim import runner as runner_module
from repro.sim import scenario as scenario_module
from repro.sim.replay import replay_scenario
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import (
    RECORD_COLUMNS,
    CapturedScenario,
    ScenarioEngine,
    capture_scenario,
    prefix_key,
    scenario_config,
)
from repro.sim.store import ResultStore, config_key
from repro.sim.system import SimulationConfig, simulate
from repro.experiments.environments import (
    characterization_config,
    simulation_config,
)
from repro.experiments.scale import QUICK
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkProfile, RegionSpec
from repro.workloads.patterns import PhaseSpec

from test_contiguity import reference_scan

ALL_DESIGNS = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
    CoLTDesign.PERFECT,
)


def small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.BASELINE,
        kernel=KernelConfig(num_frames=4096),
        accesses=4000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _results_identical(a, b) -> bool:
    return (
        a.l1_misses == b.l1_misses
        and a.l2_misses == b.l2_misses
        and a.mmu_counters.values == b.mmu_counters.values
        and a.kernel_counters.values == b.kernel_counters.values
        and a.performance == b.performance
        and a.contiguity == b.contiguity
    )


@pytest.fixture(scope="module")
def quick_scenario():
    """One QUICK-scale capture, shared by every equivalence test."""
    return capture_scenario(simulation_config(QUICK.benchmarks[0], QUICK))


class TestReplayEquivalence:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_quick_scale_bit_identical(self, quick_scenario, design):
        """Replays must match the monolithic run bit for bit, per design."""
        config = simulation_config(
            QUICK.benchmarks[0], QUICK
        ).with_updates(design=design)
        monolithic = simulate(config)
        replayed = replay_scenario(quick_scenario, config)
        assert replayed.l1_misses == monolithic.l1_misses
        assert replayed.l2_misses == monolithic.l2_misses
        assert replayed.mmu_counters.values == monolithic.mmu_counters.values
        assert _results_identical(replayed, monolithic)

    def test_equivalence_with_shootdowns(self):
        """Memhog pressure produces splits/reclaim; events must line up."""
        config = small_config(memhog_fraction=0.4, accesses=3000)
        scenario = capture_scenario(config)
        colt = config.with_updates(design=CoLTDesign.COLT_ALL)
        assert _results_identical(
            replay_scenario(scenario, colt), simulate(colt)
        )

    def test_determinism_harness_replay_mode(self):
        digests = check_replay_equivalence(
            small_config(accesses=2000),
            designs=(CoLTDesign.BASELINE, CoLTDesign.COLT_ALL),
        )
        assert set(digests) == {"baseline", "colt_all"}

    def test_replay_rejects_mismatched_scenario(self, quick_scenario):
        with pytest.raises(SimulationError):
            replay_scenario(quick_scenario, small_config())

    def test_scenario_config_is_design_independent(self):
        a = scenario_config(small_config(design=CoLTDesign.COLT_FA))
        b = scenario_config(small_config(design=CoLTDesign.PERFECT))
        assert a == b
        assert a.design is CoLTDesign.BASELINE
        assert a.mmu is None


def count_kernel_boots(monkeypatch):
    """A list that gains one entry per ``Kernel.__init__`` call."""
    constructions = []
    original = Kernel.__init__

    def counting_init(self, *args, **kwargs):
        constructions.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "__init__", counting_init)
    return constructions


#: QUICK's benchmarks on a quarter-size machine with a short trace:
#: aging, memhog reclaim and pressure compaction all still run, at a
#: fraction of QUICK's cost.
SMALL_QUICK = QUICK.with_updates(
    accesses=2_000, num_frames=1 << 13, footprint_scale=0.075
)


class TestCaptureOnce:
    def test_run_designs_boots_one_kernel(self, monkeypatch):
        """The whole point of the split: 5 designs, 1 OS capture."""
        constructions = count_kernel_boots(monkeypatch)
        runner = ExperimentRunner(jobs=1)
        results = runner.run_designs(
            small_config(accesses=1500, scale=0.1), ALL_DESIGNS
        )
        assert len(results) == len(ALL_DESIGNS)
        assert len(constructions) == 1

    def test_batch_boots_one_kernel_per_prefix(self, monkeypatch):
        """Five benchmarks on one machine: one boot, four clones."""
        constructions = count_kernel_boots(monkeypatch)
        ExperimentRunner(jobs=1).run_batch([
            simulation_config(benchmark, SMALL_QUICK)
            for benchmark in SMALL_QUICK.benchmarks
        ])
        assert len(constructions) == 1

    def test_fig16_boots_one_kernel_per_memhog_level(self, monkeypatch):
        constructions = count_kernel_boots(monkeypatch)
        get_experiment("fig16").run(SMALL_QUICK, ExperimentRunner(jobs=1))
        assert len(constructions) == 3

    def test_runner_memoises_identical_configs(self):
        runner = ExperimentRunner()
        config = small_config(accesses=1500, scale=0.1)
        assert runner.run(config) is runner.run(config)

    def test_runner_monolithic_mode_matches(self):
        config = small_config(accesses=1500, scale=0.1)
        split = ExperimentRunner().run(config)
        assert _results_identical(split, simulate(config))


#: One setting per kind of prefix the experiments build: the simulation
#: environment, each CDF kernel setting, both memhog loads, sanitized.
PREFIX_SETTINGS = {
    "simulation": simulation_config,
    **{
        config_id: (
            lambda benchmark, scale, ths=ths, defrag=defrag:
            characterization_config(
                benchmark, scale, ths_enabled=ths, defrag_enabled=defrag
            )
        )
        for config_id, (ths, defrag) in CDF_CONFIGS.items()
    },
    "memhog25": lambda benchmark, scale: characterization_config(
        benchmark, scale, memhog_fraction=0.25
    ),
    "memhog50": lambda benchmark, scale: characterization_config(
        benchmark, scale, memhog_fraction=0.5
    ),
    "sanitized": lambda benchmark, scale: simulation_config(
        benchmark, scale
    ).with_updates(sanitize=True),
}

#: For every ``SimulationConfig`` field, a value unlike ``small_config``'s.
FIELD_CHANGES = {
    "benchmark": "sjeng",
    "design": CoLTDesign.COLT_ALL,
    "kernel": KernelConfig(num_frames=4096, seed=5),
    "memhog_fraction": 0.25,
    "accesses": 3000,
    "scale": 0.5,
    "seed": 12,
    "mmu": make_mmu_config(CoLTDesign.COLT_SA, sa_shift=1),
    "aging": None,
    "tick_every": 500,
    "churn_every": 0,
    "churn_pages": 8,
    "churn_live_limit": 4,
    "llc_pollution_per_access": 0.5,
    "sanitize": True,
}

#: The fields kernel boot, aging and memhog read.
PREFIX_FIELDS = {"kernel", "aging", "memhog_fraction", "seed", "sanitize"}


def prefix_bytes(config: SimulationConfig) -> bytes:
    """The pickled boot+aging+memhog prefix ``config`` builds."""
    engine = ScenarioEngine(config)
    engine._build_prefix()
    return pickle.dumps((engine.kernel, engine._daemons))


class TestPrefixSharing:
    """A batch builds each prefix once; its clones change nothing."""

    @pytest.mark.parametrize("setting", sorted(PREFIX_SETTINGS))
    def test_cloned_capture_equals_fresh_capture(self, monkeypatch, setting):
        first, second = (
            PREFIX_SETTINGS[setting](benchmark, SMALL_QUICK)
            for benchmark in SMALL_QUICK.benchmarks[:2]
        )
        constructions = count_kernel_boots(monkeypatch)
        runner = ExperimentRunner(jobs=1)
        runner.run_batch([first, second])
        assert len(constructions) == 1  # the second capture is a clone
        cloned = runner._scenarios[scenario_config(second)]
        assert pickle.dumps(cloned) == pickle.dumps(capture_scenario(second))

    def test_key_is_exactly_what_the_prefix_reads(self):
        base = small_config(sanitize=False)
        fields = {field.name for field in dataclasses.fields(base)}
        assert set(FIELD_CHANGES) == fields
        built = prefix_bytes(base)
        for name, value in FIELD_CHANGES.items():
            changed = dataclasses.replace(base, **{name: value})
            in_key = prefix_key(changed) != prefix_key(base)
            assert in_key == (name in PREFIX_FIELDS), name
            assert (prefix_bytes(changed) != built) == in_key, name

    def test_no_cache_outlives_the_batch(self):
        ExperimentRunner(jobs=1).run_batch([small_config(accesses=1500)])
        assert scenario_module._PREFIXES is None

    def test_no_cache_outlives_a_failing_batch(self, monkeypatch):
        seen = []

        def failing_capture(config):
            seen.append(scenario_module._PREFIXES is not None)
            raise SimulationError("capture failed")

        monkeypatch.setattr(runner_module, "capture_scenario", failing_capture)
        runner = ExperimentRunner(jobs=1, policy=RetryPolicy(max_retries=0))
        with pytest.raises(TaskExecutionError):
            runner.run_batch([small_config(accesses=1500)])
        assert seen == [True]
        assert scenario_module._PREFIXES is None


#: Two demand-faulted regions. The random phase over 4-page fault
#: batches keeps mapping pages into PTE lines whose other slots were
#: already captured, which changes their line window without any
#: shootdown; the 16-page sequential phase faults whole lines.
DEMAND_PROFILE = BenchmarkProfile(
    name="demand_fault",
    suite="spec",
    regions=(
        RegionSpec("heap", 12000, populate=False, fault_batch=4),
        RegionSpec("stream", 12000, populate=False, fault_batch=16),
    ),
    phases=(
        PhaseSpec("random", "heap", weight=0.5, accesses_per_page=2),
        PhaseSpec("sequential", "stream", weight=0.5, accesses_per_page=2),
    ),
)


class _RecomputingRecorder:
    """Oracle for the capture memo: recomputes every access's record."""

    def __init__(self, engine: ScenarioEngine) -> None:
        self._page_table = engine.process.page_table
        self.records = np.zeros(
            (len(engine.trace.vpns), RECORD_COLUMNS), dtype=np.int64
        )

    def on_access(self, index: int, vpn: int) -> None:
        page_table = self._page_table
        translation = page_table.lookup(vpn)
        row = self.records[index]
        row[0] = translation.pfn
        row[1] = int(translation.attributes)
        row[2] = 1 if translation.is_superpage else 0
        path = page_table.walk_path_addresses(vpn)
        row[3] = len(path)
        row[4:4 + len(path)] = path
        row[4 + len(path):8] = -1
        if not translation.is_superpage:
            mask = 0
            for offset, neighbour in enumerate(
                page_table.pte_cache_line(vpn)
            ):
                if neighbour is not None:
                    mask |= 1 << offset
                    row[9 + offset] = neighbour.pfn
                    row[17 + offset] = int(neighbour.attributes)
            row[8] = mask


@pytest.fixture
def demand_profile(monkeypatch):
    monkeypatch.setitem(BENCHMARKS, DEMAND_PROFILE.name, DEMAND_PROFILE)


@pytest.fixture
def recorders(monkeypatch):
    """Capture recorders built during the test, each with an oracle.

    The oracle is stepped by the same ``run_loop`` call just before the
    memoized recorder, once for every access of the run, so both read
    the same page-table state.
    """
    built = []

    class WithOracle(scenario_module._CaptureRecorder):
        def __init__(self, engine) -> None:
            super().__init__(engine)
            self.oracle = _RecomputingRecorder(engine)
            built.append(self)

        def on_run(self, start: int, vpn: int, length: int) -> None:
            for index in range(start, start + length):
                self.oracle.on_access(index, vpn)
            super().on_run(start, vpn, length)

    monkeypatch.setattr(scenario_module, "_CaptureRecorder", WithOracle)
    return built


class TestCaptureMemo:
    """The memoized recorder must equal recomputing on every access."""

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: simulation_config("demand_fault", QUICK),
            lambda: characterization_config(
                "demand_fault",
                QUICK.with_updates(accesses=10_000),
                memhog_fraction=0.5,
            ),
            lambda: simulation_config("cactusadm", QUICK),
        ],
        ids=["demand_faults", "memhog_reclaim", "cactusadm_shootdowns"],
    )
    def test_memo_matches_per_access_recompute(
        self, demand_profile, recorders, make_config
    ):
        captured = capture_scenario(make_config())
        (recorder,) = recorders
        records, record_index = np.unique(
            recorder.oracle.records, axis=0, return_inverse=True
        )
        record_index = np.asarray(record_index, dtype=np.int64).ravel()
        assert captured.records.dtype == records.dtype
        assert captured.records.shape == records.shape
        assert captured.records.tobytes() == records.tobytes()
        assert captured.record_index.dtype == record_index.dtype
        assert captured.record_index.tobytes() == record_index.tobytes()

    def test_memo_computes_a_row_for_few_accesses(self, recorders):
        scenario = capture_scenario(simulation_config("mcf", QUICK))
        (recorder,) = recorders
        assert recorder.counters["accesses"] == scenario.accesses
        computed = recorder.counters["records_computed"]
        assert scenario.records.shape[0] <= computed
        # One row per distinct page: 3,643 of 30,000 accesses.
        assert computed < 0.15 * scenario.accesses


def reference_capture(config: SimulationConfig) -> CapturedScenario:
    """The per-access capture loop the run-length loop replaced (oracle).

    Every access checks its page's population (faulting it in if
    needed) and recomputes its record through ``lookup``,
    ``walk_path_addresses`` and ``pte_cache_line``; churn and ticks fire
    when ``(index + 1)`` reaches a multiple of their period; contiguity
    comes from the per-translation scan.
    """
    config = scenario_config(config)
    engine = ScenarioEngine(config)
    engine.prepare()
    kernel, process = engine.kernel, engine.process
    oracle = _RecomputingRecorder(engine)
    events = []
    position = 0

    def on_invalidation(pid: int, start_vpn: int, count: int) -> None:
        if pid == process.pid:
            events.append((position, start_vpn, count))

    kernel.add_invalidation_listener(on_invalidation)
    churn_rng = engine._seeds.rng("run.churn")
    live_churn = []
    for index, vpn in enumerate(engine.trace.vpns.tolist()):
        if not process.is_populated(vpn):
            process.fault_batch = engine._fault_batch_for(vpn)
            kernel.touch(process, vpn)
        oracle.on_access(index, vpn)
        position = index + 1
        if config.churn_every and position % config.churn_every == 0:
            engine._background_churn(churn_rng, live_churn)
        if config.tick_every and position % config.tick_every == 0:
            kernel.tick()
    engine.sanity_check()
    records, record_index = np.unique(
        oracle.records, axis=0, return_inverse=True
    )
    event_array = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    return CapturedScenario(
        config=config,
        profile=engine.profile,
        vpns=np.asarray(engine.trace.vpns, dtype=np.int64).copy(),
        records=records,
        record_index=np.asarray(record_index, dtype=np.int64).ravel(),
        inval_before=event_array[:, 0].copy(),
        inval_start=event_array[:, 1].copy(),
        inval_count=event_array[:, 2].copy(),
        kernel_counters=kernel.counters.snapshot(),
        contiguity=ContiguityReport.from_runs(
            reference_scan(process.iter_mappings())
        ),
        trace_unique_pages=engine.trace.unique_pages,
    )


def assert_same_capture(got: CapturedScenario, want: CapturedScenario) -> None:
    for field in dataclasses.fields(CapturedScenario):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@st.composite
def trace_edits(draw, config):
    """``(first, length)`` overwrites: accesses ``first + 1 ..
    first + length`` repeat access ``first``'s VPN. One edit per period
    starts just before a churn or tick boundary, so its run straddles
    it."""
    accesses = config.accesses
    edits = draw(st.lists(
        st.tuples(st.integers(0, accesses - 2), st.integers(1, 150)),
        max_size=6,
    ))
    for period in (config.churn_every, config.tick_every):
        boundary = period * draw(st.integers(1, (accesses - 1) // period))
        edits.append(
            (boundary - draw(st.integers(1, 3)),
             draw(st.integers(2, 2 * period)))
        )
    return edits


def edited_trace_generator(edits):
    """``generate_trace`` with ``edits`` applied to the stream."""
    generate = scenario_module.generate_trace

    def generate_edited(*args, **kwargs):
        trace = generate(*args, **kwargs)
        vpns = trace.vpns.copy()
        for first, length in edits:
            vpns[first + 1:first + 1 + length] = vpns[first]
        return dataclasses.replace(trace, vpns=vpns)

    return generate_edited


#: Churn and ticks every few dozen accesses, with shootdowns: the
#: demand-faulting profile (compaction migrates its pages) and
#: cactusADM on the simulation machine.
RUN_LOOP_CONFIGS = {
    "demand_faults": lambda: simulation_config(
        "demand_fault", QUICK.with_updates(accesses=3000)
    ).with_updates(churn_every=48, tick_every=100),
    "cactusadm_shootdowns": lambda: simulation_config(
        "cactusadm", QUICK.with_updates(accesses=3000)
    ).with_updates(churn_every=40, tick_every=50),
}


class TestRunLengthCapture:
    """The run-length capture loop equals the per-access one."""

    @pytest.mark.parametrize("setting", sorted(RUN_LOOP_CONFIGS))
    def test_unedited_trace(self, demand_profile, setting):
        config = RUN_LOOP_CONFIGS[setting]()
        captured = capture_scenario(config)
        assert captured.inval_before.size > 0
        assert_same_capture(captured, reference_capture(config))

    @pytest.mark.parametrize("setting", sorted(RUN_LOOP_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_edited_traces(self, setting, data):
        """Repeated VPNs, and runs that straddle churn and tick periods."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(BENCHMARKS, DEMAND_PROFILE.name, DEMAND_PROFILE)
            config = RUN_LOOP_CONFIGS[setting]()
            edits = data.draw(trace_edits(config))
            patch.setattr(
                scenario_module, "generate_trace",
                edited_trace_generator(edits),
            )
            assert_same_capture(
                capture_scenario(config), reference_capture(config)
            )


def _store_worker(store_dir: str, config: SimulationConfig):
    """Run one config against a shared disk store (worker process)."""
    runner = ExperimentRunner(store=ResultStore(store_dir))
    return runner.run(config)


class TestResultStore:
    def test_two_processes_return_equal_results(self, tmp_path):
        config = small_config(accesses=1500, scale=0.1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_store_worker, str(tmp_path), config)
                for _ in range(2)
            ]
            first, second = [future.result() for future in futures]
        assert _results_identical(first, second)
        assert first == second
        # The store now serves later runners without simulating.
        assert ResultStore(tmp_path).load(config) == first

    def test_roundtrip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(accesses=1500, scale=0.1)
        assert store.load(config) is None
        result = ExperimentRunner(store=store).run(config)
        assert store.load(config) == result
        assert len(store) == 1
        assert store.clear() == 1
        assert store.load(config) is None

    def test_key_covers_every_config_field(self):
        base = small_config()
        assert config_key(base) == config_key(small_config())
        for changed in (
            base.with_updates(design=CoLTDesign.COLT_SA),
            base.with_updates(seed=12),
            base.with_updates(kernel=KernelConfig(num_frames=8192)),
            base.with_updates(tick_every=1000),
        ):
            assert config_key(changed) != config_key(base)

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(accesses=1500, scale=0.1)
        ExperimentRunner(store=store).run(config)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        assert store.load(config) is None
        assert ExperimentRunner(store=store).run(config) is not None


class TestSchedules:
    """The churn/tick schedules start at their period, not at access 0."""

    def test_tick_count_is_floor_accesses_over_period(self, monkeypatch):
        config = small_config(
            accesses=1999, tick_every=1000, churn_every=0
        )
        engine = ScenarioEngine(config)
        engine.prepare()
        ticks = []
        original = Kernel.tick

        def counting_tick(self):
            ticks.append(1)
            return original(self)

        monkeypatch.setattr(Kernel, "tick", counting_tick)
        engine.run_loop(lambda start, vpn, length: None)
        # 1999 accesses at period 1000: one tick (after access 999).
        # The pre-fix schedule fired at access 0 and 1000 -- two ticks,
        # one of them before the benchmark's first reference.
        assert len(ticks) == 1999 // 1000

    def test_churn_count_is_floor_accesses_over_period(self, monkeypatch):
        config = small_config(accesses=100, churn_every=48, tick_every=0)
        engine = ScenarioEngine(config)
        engine.prepare()
        churns = []
        monkeypatch.setattr(
            ScenarioEngine,
            "_background_churn",
            lambda self, rng, live: churns.append(1),
        )
        engine.run_loop(lambda start, vpn, length: None)
        assert len(churns) == 100 // 48

    def test_pollution_cursor_initialised_in_init(self):
        # The set cursor starts at 0 on every run (explicit state, not
        # carried over), so a fresh schedule walks the same sets.
        assert pollution_schedule(3, 1.0, 1024) == [
            (0, 101), (1, 202), (2, 303),
        ]

    def test_fractional_pollution_budget_accumulates(self):
        assert pollution_schedule(4, 0.5, 64) == [(1, 37), (3, 10)]
        assert pollution_schedule(4, 0.0, 64) == []

"""Capture/replay split: bit-equivalence, capture-once, store, schedules.

The two-phase executor (``repro.sim.scenario`` + ``repro.sim.replay`` +
``repro.sim.runner``) is only a valid optimisation if it is *invisible*
in the results: every design's replay must be bit-identical to the
legacy monolithic run, the OS must be captured exactly once per
scenario, and the disk store must hand equal results to concurrent
processes. These tests pin each of those properties.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis.determinism import check_replay_equivalence
from repro.cache.hierarchy import pollution_schedule
from repro.common.errors import SimulationError
from repro.core.mmu import CoLTDesign
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim import scenario as scenario_module
from repro.sim.replay import replay_scenario
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import (
    RECORD_COLUMNS,
    ScenarioEngine,
    capture_scenario,
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


class TestCaptureOnce:
    def test_run_designs_boots_one_kernel(self, monkeypatch):
        """The whole point of the split: 5 designs, 1 OS capture."""
        constructions = []
        original = Kernel.__init__

        def counting_init(self, *args, **kwargs):
            constructions.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, "__init__", counting_init)
        runner = ExperimentRunner(jobs=1)
        results = runner.run_designs(
            small_config(accesses=1500, scale=0.1), ALL_DESIGNS
        )
        assert len(results) == len(ALL_DESIGNS)
        assert len(constructions) == 1

    def test_runner_memoises_identical_configs(self):
        runner = ExperimentRunner()
        config = small_config(accesses=1500, scale=0.1)
        assert runner.run(config) is runner.run(config)

    def test_runner_monolithic_mode_matches(self):
        config = small_config(accesses=1500, scale=0.1)
        split = ExperimentRunner().run(config)
        assert _results_identical(split, simulate(config))


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
    memoized recorder, so both read the same page-table state.
    """
    built = []

    class WithOracle(scenario_module._CaptureRecorder):
        def __init__(self, engine, accesses) -> None:
            super().__init__(engine, accesses)
            self.oracle = _RecomputingRecorder(engine)
            built.append(self)

        def on_access(self, index: int, vpn: int) -> None:
            self.oracle.on_access(index, vpn)
            super().on_access(index, vpn)

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
        engine.run_loop(lambda index, vpn: None)
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
        engine.run_loop(lambda index, vpn: None)
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

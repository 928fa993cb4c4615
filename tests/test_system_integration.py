"""Integration tests: the full-system simulator end to end."""

import pytest

from repro.core.mmu import CoLTDesign
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.runner import ExperimentRunner
from repro.sim.system import SimulationConfig, SystemSimulator, simulate


def small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.BASELINE,
        kernel=KernelConfig(num_frames=4096),
        accesses=4000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(Exception):
            small_config(accesses=0)
        with pytest.raises(Exception):
            small_config(memhog_fraction=1.5)

    def test_config_is_hashable_for_caching(self):
        a = small_config()
        b = small_config()
        assert a == b
        assert hash(a) == hash(b)
        assert a != small_config(seed=12)


class TestEndToEnd:
    def test_simulate_produces_consistent_result(self):
        result = simulate(small_config())
        assert result.accesses == 4000
        assert result.l1_misses >= result.l2_misses
        assert result.l1_misses == result.mmu_counters["l1_misses"]
        assert result.performance.total_cycles > 0
        assert result.trace_unique_pages > 0
        assert "gobmk" in result.summary()

    def test_determinism(self):
        a = simulate(small_config())
        b = simulate(small_config())
        assert a.l1_misses == b.l1_misses
        assert a.l2_misses == b.l2_misses
        assert a.average_contiguity == b.average_contiguity

    def test_os_state_identical_across_designs(self):
        """The paper's apples-to-apples property: the TLB design must not
        perturb the OS, so contiguity and kernel counters match exactly
        between a baseline and a CoLT run of the same scenario."""
        base = simulate(small_config(design=CoLTDesign.BASELINE))
        colt = simulate(small_config(design=CoLTDesign.COLT_ALL))
        assert base.average_contiguity == colt.average_contiguity
        assert (
            base.kernel_counters["pages_faulted"]
            == colt.kernel_counters["pages_faulted"]
        )

    def test_perfect_design_has_zero_misses(self):
        result = simulate(small_config(design=CoLTDesign.PERFECT))
        assert result.l1_misses == 0
        assert result.l2_misses == 0

    def test_memhog_run(self):
        result = simulate(
            small_config(memhog_fraction=0.25, accesses=2000)
        )
        assert result.kernel_counters["pages_faulted"] > 0

    def test_every_benchmark_profile_simulates(self):
        from repro.workloads.benchmarks import TABLE1_ORDER

        for name in TABLE1_ORDER:
            result = simulate(
                small_config(benchmark=name, accesses=1500, scale=0.1)
            )
            assert result.accesses == 1500, name


class TestRunner:
    def test_runner_caches_identical_configs(self):
        runner = ExperimentRunner()
        config = small_config()
        first = runner.run(config)
        second = runner.run(config)
        assert first is second


class TestShootdownPlumbing:
    def test_mmu_sees_kernel_invalidations(self):
        simulator = SystemSimulator(
            small_config(memhog_fraction=0.4, accesses=3000)
        )
        simulator.prepare()
        result = simulator.run()
        # Under heavy memhog pressure the kernel splits/migrates/reclaims;
        # any of those events against the benchmark must reach the MMU.
        # (This asserts the plumbing exists; event counts vary by seed.)
        assert result.mmu_counters["invalidations"] >= 0

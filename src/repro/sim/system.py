"""Full-system simulation: OS substrate + workload + MMU, end to end.

``SystemSimulator`` reproduces the paper's methodology (Section 5.2) in
one object:

1. boot a kernel with the chosen THS/defrag configuration, age it like a
   long-running machine, optionally start memhog (Section 5.1.1's system
   configurations);
2. create the benchmark process, execute its memory plan (up-front
   mallocs populate eagerly; other regions fault on demand), and
   generate its access trace from the profile's phase mixture;
3. stream the trace through the MMU of the configured CoLT design, with
   OS activity (demand faults, background churn, compaction ticks, THP
   splits, reclaim) interleaved and TLB shootdowns propagated.

Because the OS evolution is deterministic in the seed and independent of
the TLB design, running the same configuration with different designs
yields identical page tables and traces -- the comparisons of Figures
18-21 are therefore apples-to-apples, exactly like the paper's replayed
traces.

The OS side lives in :class:`repro.sim.scenario.ScenarioEngine`, which
this monolithic simulator shares with the capture+replay pipeline
(``repro.sim.scenario`` / ``repro.sim.replay``); ``SystemSimulator``
attaches a live MMU to the engine's access stream, the capture path
attaches a recorder. :func:`simulate` remains the one-call monolithic
entry point; batch work should go through
:class:`repro.sim.runner.ExperimentRunner`, which captures each
scenario once and replays it per design, in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.common.errors import ConfigurationError, WorkloadError
from repro.common.statistics import CounterSnapshot
from repro.contiguity.scanner import ContiguityReport
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    pollution_schedule,
)
from repro.cache.mmu_cache import MMUCache
from repro.core.mmu import MMU, CoLTDesign, MMUConfig, make_mmu_config
from repro.core.performance import (
    PerformanceResult,
    evaluate_performance,
    perfect_tlb_result,
)
from repro.obs.trace import span
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.memhog import AgingProfile
from repro.osmem.process import Process
from repro.sim.scenario import ScenarioEngine
from repro.walker.page_walker import PageWalker
from repro.workloads.benchmarks import BenchmarkProfile, get_benchmark
from repro.workloads.trace import Trace, scaled_region_pages


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulated run depends on.

    Attributes:
        benchmark: profile name (see ``repro.workloads.BENCHMARKS``).
        design: TLB organisation to simulate.
        kernel: kernel configuration (THS / defrag / memory size / seed).
        memhog_fraction: 0 disables memhog; 0.25 / 0.50 reproduce the
            paper's load studies (Sections 6.4-6.5).
        accesses: length of the access trace.
        scale: footprint scale factor applied to region sizes.
        seed: root seed for workload and churn randomness.
        mmu: explicit MMU configuration; None derives the paper-standard
            one for ``design`` via :func:`make_mmu_config`.
        aging: aging profile; None skips aging (pristine machine).
        tick_every: accesses between kernel background ticks (0
            disables; the first tick fires after ``tick_every``
            accesses, not before the first reference).
        churn_every: accesses between background-process allocations
            during the run (0 disables). Live-system churn competes with
            the benchmark for buddy blocks, which is what keeps demand
            -faulted contiguity at realistic levels.
        churn_pages: size of each churn allocation.
        churn_live_limit: live churn allocations before the oldest is
            freed.
        llc_pollution_per_access: expected LLC lines evicted per access
            by the benchmark's data traffic (a proxy for routing every
            load/store through the cache model).
        sanitize: attach the runtime sanitizers of
            ``repro.analysis.sanitizers`` to the TLBs, buddy allocator
            and page tables. ``None`` (the default) defers to the
            ``COLT_SANITIZE`` environment variable; simulated behaviour
            is identical either way, sanitizers only observe.
    """

    benchmark: str = "mcf"
    design: CoLTDesign = CoLTDesign.BASELINE
    kernel: KernelConfig = field(default_factory=KernelConfig)
    memhog_fraction: float = 0.0
    accesses: int = 200_000
    scale: float = 1.0
    seed: int = 42
    mmu: Optional[MMUConfig] = None
    aging: Optional[AgingProfile] = field(default_factory=AgingProfile)
    tick_every: int = 2_000
    churn_every: int = 48
    churn_pages: int = 24
    churn_live_limit: int = 32
    llc_pollution_per_access: float = 0.01
    sanitize: Optional[bool] = None

    def __post_init__(self) -> None:
        """Reject impossible runs at construction, not hours in.

        Campaign resubmission makes late failures expensive: a config
        that cannot ever simulate should fail here with a message that
        says what to change, not after its capture wave is scheduled.
        """
        if self.accesses < 1:
            raise ConfigurationError(
                f"accesses must be >= 1, got {self.accesses} -- an "
                "empty trace has nothing to measure"
            )
        if not 0.0 <= self.memhog_fraction < 1.0:
            raise ConfigurationError(
                f"memhog_fraction must be in [0, 1), got "
                f"{self.memhog_fraction}"
            )
        if self.scale <= 0:
            raise ConfigurationError(
                f"scale must be positive, got {self.scale}"
            )
        for knob in (
            "tick_every", "churn_every", "churn_pages", "churn_live_limit"
        ):
            value = getattr(self, knob)
            if value < 0:
                raise ConfigurationError(
                    f"{knob} must be >= 0 (0 disables it), got {value}"
                )
        if self.churn_every > 0 and self.churn_pages < 1:
            raise ConfigurationError(
                "churn is enabled (churn_every="
                f"{self.churn_every}) but churn_pages is "
                f"{self.churn_pages}; each churn allocation needs >= 1 "
                "page, or set churn_every=0 to disable churn"
            )
        if self.llc_pollution_per_access < 0:
            raise ConfigurationError(
                "llc_pollution_per_access must be >= 0, got "
                f"{self.llc_pollution_per_access}"
            )
        try:
            profile = get_benchmark(self.benchmark)
        except WorkloadError as exc:
            raise ConfigurationError(str(exc)) from None
        footprint = sum(
            scaled_region_pages(profile, self.scale).values()
        )
        if footprint > self.kernel.num_frames:
            raise ConfigurationError(
                f"benchmark {self.benchmark!r} at scale {self.scale} "
                f"maps {footprint} pages but physical memory is only "
                f"{self.kernel.num_frames} frames; lower scale or "
                "raise kernel.num_frames"
            )

    def with_updates(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)


@dataclass
class SimulationResult:
    """Outputs of one run."""

    config: SimulationConfig
    profile: BenchmarkProfile
    accesses: int
    l1_misses: int
    l2_misses: int
    mmu_counters: CounterSnapshot
    kernel_counters: CounterSnapshot
    performance: PerformanceResult
    perfect_performance: PerformanceResult
    contiguity: ContiguityReport
    trace_unique_pages: int

    @property
    def l1_mpmi(self) -> float:
        return self.l1_misses * 1e6 / self.performance.instructions

    @property
    def l2_mpmi(self) -> float:
        return self.l2_misses * 1e6 / self.performance.instructions

    @property
    def average_contiguity(self) -> float:
        return self.contiguity.average_contiguity

    def summary(self) -> str:
        cfg = self.config
        return (
            f"{self.profile.name} [{cfg.design.value}] "
            f"THS={'on' if cfg.kernel.ths_enabled else 'off'} "
            f"defrag={'on' if cfg.kernel.defrag_enabled else 'off'} "
            f"memhog={cfg.memhog_fraction:.0%}: "
            f"L1 MPMI {self.l1_mpmi:.0f}, L2 MPMI {self.l2_mpmi:.0f}, "
            f"avg contiguity {self.average_contiguity:.1f}, "
            f"CPI {self.performance.cpi:.3f}"
        )


class SystemSimulator:
    """Boots, loads, and runs one configuration end to end (monolithic).

    The OS substrate is a :class:`ScenarioEngine`; this class adds the
    live MMU, whose walker reads the live page table and applies the
    LLC-pollution schedule, to the engine's access stream.
    ``kernel`` / ``process`` / ``trace`` are views onto the engine.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self._engine = ScenarioEngine(config)
        self.profile = self._engine.profile
        self.mmu: Optional[MMU] = None
        self._caches: Optional[CacheHierarchy] = None

    @property
    def kernel(self) -> Optional[Kernel]:
        return self._engine.kernel

    @property
    def process(self) -> Optional[Process]:
        return self._engine.process

    @property
    def trace(self) -> Optional[Trace]:
        return self._engine.trace

    def prepare(self) -> None:
        """Boot the kernel, age it, start memhog, lay out the benchmark."""
        self._engine.prepare()
        self.mmu = self._build_mmu()

    def _build_mmu(self) -> MMU:
        config = self.config
        mmu_config = config.mmu or make_mmu_config(config.design)
        caches = CacheHierarchy(HierarchyConfig())
        walker = PageWalker(
            self.process.page_table, caches, MMUCache(),
            pollution_schedule(
                len(self.trace.vpns), config.llc_pollution_per_access,
                caches.llc.num_sets,
            ),
        )
        mmu = MMU(mmu_config, walker, sanitize=config.sanitize)

        bench_pid = self.process.pid

        def on_invalidation(pid: int, start_vpn: int, count: int) -> None:
            if pid == bench_pid:
                mmu.invalidate_range(start_vpn, count)

        self.kernel.add_invalidation_listener(on_invalidation)
        self._caches = caches
        return mmu

    def run(self) -> SimulationResult:
        """Execute the access stream; returns the collected results."""
        if self.kernel is None:
            self.prepare()
        mmu = self.mmu
        access = mmu.access
        walker = mmu.walker

        def on_access(index: int, vpn: int) -> None:
            walker.cursor = index
            access(vpn)

        with span(
            "simulate",
            design=self.config.design.value,
            benchmark=self.config.benchmark,
            accesses=self.config.accesses,
        ):
            self._engine.run_loop(on_access)

            # A parting full sweep: if anything drifted during the run,
            # fail here rather than hand back silently-corrupt statistics.
            self.sanity_check()

        # Discount the DRAM cost of compulsory PTE-line fetches: every
        # design pays them once per distinct line, and at the paper's
        # trace lengths they are negligible (see repro.core.performance).
        trace = self.trace
        distinct_lines = int(np.unique(trace.vpns >> 3).size)
        discount = float(
            distinct_lines * self._caches.config.dram_latency
        )
        performance = evaluate_performance(
            mmu,
            len(trace.vpns),
            self.profile.core,
            compulsory_discount_cycles=discount,
        )
        return SimulationResult(
            config=self.config,
            profile=self.profile,
            accesses=len(trace.vpns),
            l1_misses=mmu.l1_misses,
            l2_misses=mmu.l2_misses,
            mmu_counters=mmu.counters.snapshot(),
            kernel_counters=self.kernel.counters.snapshot(),
            performance=performance,
            perfect_performance=perfect_tlb_result(
                len(trace.vpns), self.profile.core
            ),
            contiguity=ContiguityReport.from_process(self.process),
            trace_unique_pages=trace.unique_pages,
        )

    def sanity_check(self) -> None:
        """Force a full scan of every attached sanitizer (no-op if off).

        Raises :class:`repro.common.errors.SanitizerError` on the first
        violated invariant.
        """
        if self.mmu is not None and self.mmu.sanitizer is not None:
            self.mmu.sanitizer.full_scan()
        self._engine.sanity_check()


def simulate(config: SimulationConfig) -> SimulationResult:
    """One-call convenience wrapper: prepare + run (monolithic path)."""
    simulator = SystemSimulator(config)
    simulator.prepare()
    return simulator.run()

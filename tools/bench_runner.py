"""Runner smoke benchmark: the parallel capture+replay pipeline.

Times the fig18 + fig21 pipeline at QUICK scale under
``ExperimentRunner(jobs=N)`` -- one OS capture per benchmark, one TLB
replay per design, fanned across a process pool -- and writes a
``BENCH_runner.json`` artifact with wall-clock per figure and the
aggregate simulated accesses/second. That plain parallel run is the
reference the overhead gates below divide by.

A second, ungated phase exercises the on-disk result store in a
temporary directory -- one cold pipeline populating it, one warm
pipeline replaying from it -- and records the store's
hit/miss/eviction/save counters plus the warm-over-cold speedup in the
artifact's ``store`` section (``--skip-store`` omits it).
``--max-trace-overhead X`` adds a ``COLT_TRACE=1`` run of the parallel
pipeline and fails if traced wall-clock exceeds ``X`` times the
untraced parallel time. ``--max-resilience-overhead X`` does the same
for the resilience layer: it re-times the parallel pipeline with a
retry policy, per-task deadline and a never-matching fault plan
attached, and fails if the fault-free machinery costs more than ``X``
times the plain parallel run.

``--min-vector-speedup X`` arms a separate replay-engine phase: every
QUICK benchmark is captured once, then replayed under all five designs
by both the scalar oracle and the vectorized engine
(``repro.sim.engine``). The phase cross-checks bit-identity of every
result pair, writes the per-benchmark timings and aggregate replay
speedup to ``BENCH_vector.json`` (``--vector-output``), and fails if
the aggregate speedup falls below ``X`` (CI runs with
``--min-vector-speedup 5.0``; pass ``0`` to just record numbers).

Benchmarking needs ``time.perf_counter``, so this file sits on the
determinism lint's ``WALL_CLOCK_ALLOW`` list; the timings go to the
artifact and the terminal only -- nothing here feeds back into
simulation results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.mmu import CoLTDesign  # noqa: E402
from repro.obs.trace import TRACE_ENV, reset_tracing  # noqa: E402
from repro.sim.engine.vector import vector_replay_scenario  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402
from repro.sim.replay import replay_scenario  # noqa: E402
from repro.sim.resilience import RetryPolicy  # noqa: E402
from repro.sim.runner import ExperimentRunner  # noqa: E402
from repro.sim.scenario import capture_scenario, scenario_config  # noqa: E402
from repro.sim.store import ResultStore  # noqa: E402
from repro.experiments.environments import simulation_config  # noqa: E402
from repro.experiments.registry import get_experiment  # noqa: E402
from repro.experiments.scale import QUICK  # noqa: E402

FIGURES = ("fig18", "fig21")


def _time_pipeline(runner: ExperimentRunner) -> dict:
    """Run the figure pipeline under ``runner``; return per-figure timings."""
    timings = {}
    for figure_id in FIGURES:
        experiment = get_experiment(figure_id)
        started = time.perf_counter()
        experiment.run(QUICK, runner)
        timings[figure_id] = time.perf_counter() - started
    return timings


def _simulated_accesses(runner: ExperimentRunner) -> int:
    """Total trace accesses the runner's cached results account for."""
    return sum(config.accesses for config in runner._cache)


def _store_phase(jobs: int) -> dict:
    """Cold-populate then warm-replay a throwaway result store."""
    with tempfile.TemporaryDirectory(prefix="colt-bench-store-") as tmp:
        cold_runner = ExperimentRunner(jobs=jobs, store=ResultStore(tmp))
        started = time.perf_counter()
        _time_pipeline(cold_runner)
        cold_s = time.perf_counter() - started
        cold = cold_runner.store_summary()

        warm_runner = ExperimentRunner(jobs=jobs, store=ResultStore(tmp))
        started = time.perf_counter()
        _time_pipeline(warm_runner)
        warm_s = time.perf_counter() - started
        warm = warm_runner.store_summary()
        entries = len(warm_runner.store)

    return {
        "entries": entries,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 3) if warm_s > 0 else None,
        "cold": {k: round(v, 3) for k, v in cold.items()},
        "warm": {k: round(v, 3) for k, v in warm.items()},
    }


def _traced_phase(jobs: int) -> dict:
    """Time the parallel pipeline with ``COLT_TRACE=1`` exported."""
    os.environ[TRACE_ENV] = "1"
    reset_tracing()
    try:
        runner = ExperimentRunner(jobs=jobs)
        started = time.perf_counter()
        _time_pipeline(runner)
        traced_s = time.perf_counter() - started
        events = len(runner.trace_events())
    finally:
        os.environ.pop(TRACE_ENV, None)
        reset_tracing()
    return {"total_s": round(traced_s, 3), "events": events}


def _resilience_phase(jobs: int) -> dict:
    """Time the pipeline with the full resilience machinery armed.

    The fault plan targets an index no QUICK batch reaches, so nothing
    fires -- this measures the overhead of per-task submission, deadline
    waits and fault-plan checks on the happy path.
    """
    runner = ExperimentRunner(
        jobs=jobs,
        policy=RetryPolicy(max_retries=3, backoff_s=0.05, timeout_s=600.0),
        faults=FaultPlan.parse("raise@replay:999983"),
    )
    started = time.perf_counter()
    _time_pipeline(runner)
    total = time.perf_counter() - started
    counts = runner.resilience_counters.as_dict()
    return {"total_s": round(total, 3), "tasks": counts["tasks"]}


def _results_identical(scalar, vector) -> bool:
    return (
        scalar.l1_misses == vector.l1_misses
        and scalar.l2_misses == vector.l2_misses
        and scalar.mmu_counters.values == vector.mmu_counters.values
        and scalar.performance == vector.performance
    )


def _vector_phase() -> dict:
    """Replay every QUICK benchmark with both engines; time and verify.

    One capture per benchmark (untimed), then all five designs replayed
    scalar and vector. The vector replay is timed best-of-two so the
    first call's cache warmup does not punish the aggregate; every
    scalar/vector result pair is cross-checked for bit-identity.
    """
    designs = tuple(CoLTDesign)
    benchmarks = {}
    scalar_total = vector_total = 0.0
    replayed_accesses = 0
    identical = True
    for benchmark in QUICK.benchmarks:
        base = simulation_config(benchmark, QUICK)
        scenario = capture_scenario(base)
        replayed_accesses += scenario.accesses * len(designs)
        scalar_s = vector_s = 0.0
        for design in designs:
            config = base.with_updates(design=design)
            started = time.perf_counter()
            scalar = replay_scenario(scenario, config)
            scalar_s += time.perf_counter() - started
            best = None
            for _ in range(2):
                started = time.perf_counter()
                vector = vector_replay_scenario(scenario, config)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            vector_s += best
            if not _results_identical(scalar, vector):
                identical = False
                print(
                    f"FAIL: vector result diverges from scalar for "
                    f"{benchmark}/{design.value}", file=sys.stderr,
                )
        benchmarks[benchmark] = {
            "scalar_s": round(scalar_s, 3),
            "vector_s": round(vector_s, 3),
            "speedup": round(scalar_s / vector_s, 3) if vector_s else None,
        }
        scalar_total += scalar_s
        vector_total += vector_s
    return {
        "scale": "quick",
        "designs": [design.value for design in designs],
        "replayed_accesses": replayed_accesses,
        "benchmarks": benchmarks,
        "scalar_total_s": round(scalar_total, 3),
        "vector_total_s": round(vector_total, 3),
        "speedup": (
            round(scalar_total / vector_total, 3) if vector_total else None
        ),
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time parallel capture+replay on the fig18+fig21 "
                    "QUICK pipeline, and gate its overheads."
    )
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
        help="worker processes for the capture/replay pool "
             "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--output", default="BENCH_runner.json", metavar="FILE",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--skip-store", action="store_true",
        help="skip the cold/warm result-store phase",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=None, metavar="X",
        help="also run the pipeline with COLT_TRACE=1 and fail if "
             "traced wall-clock exceeds X times the untraced parallel "
             "time",
    )
    parser.add_argument(
        "--max-resilience-overhead", type=float, default=None, metavar="X",
        help="also run the pipeline with retries/deadlines/a dormant "
             "fault plan armed and fail if it exceeds X times the "
             "plain parallel time",
    )
    parser.add_argument(
        "--min-vector-speedup", type=float, default=None, metavar="X",
        help="also time scalar-vs-vector replay over every QUICK "
             "benchmark and design, verify bit-identity, and fail if "
             "the aggregate replay speedup is below X (0: record-only)",
    )
    parser.add_argument(
        "--vector-output", default="BENCH_vector.json", metavar="FILE",
        help="where to write the vector-phase JSON artifact",
    )
    args = parser.parse_args(argv)

    print(f"benchmarking fig18+fig21 at QUICK scale (jobs={args.jobs})")

    parallel_runner = ExperimentRunner(jobs=args.jobs)
    par_started = time.perf_counter()
    par_timings = _time_pipeline(parallel_runner)
    par_total = time.perf_counter() - par_started
    accesses = _simulated_accesses(parallel_runner)

    scenarios = len(
        {scenario_config(config) for config in parallel_runner._cache}
    )
    report = {
        "scale": "quick",
        "jobs": args.jobs,
        "figures": list(FIGURES),
        "simulation_runs": len(parallel_runner._cache),
        "scenarios_captured": scenarios,
        "simulated_accesses": accesses,
        "parallel_replay": {
            "wall_clock_s": {k: round(v, 3) for k, v in par_timings.items()},
            "total_s": round(par_total, 3),
            "accesses_per_sec": round(accesses / par_total, 1),
        },
    }

    if not args.skip_store:
        report["store"] = _store_phase(args.jobs)

    trace_overhead = None
    if args.max_trace_overhead is not None:
        report["traced"] = _traced_phase(args.jobs)
        trace_overhead = (
            report["traced"]["total_s"] / par_total if par_total > 0 else 0.0
        )
        report["traced"]["overhead_ratio"] = round(trace_overhead, 3)
        report["traced"]["max_overhead_ratio"] = args.max_trace_overhead

    resilience_overhead = None
    if args.max_resilience_overhead is not None:
        report["resilience"] = _resilience_phase(args.jobs)
        resilience_overhead = (
            report["resilience"]["total_s"] / par_total
            if par_total > 0 else 0.0
        )
        report["resilience"]["overhead_ratio"] = round(
            resilience_overhead, 3
        )
        report["resilience"]["max_overhead_ratio"] = (
            args.max_resilience_overhead
        )

    vector_report = None
    if args.min_vector_speedup is not None:
        vector_report = _vector_phase()
        vector_report["min_speedup"] = args.min_vector_speedup
        with open(args.vector_output, "w") as handle:
            json.dump(vector_report, handle, indent=2)
            handle.write("\n")

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"parallel replay   : {par_total:8.2f}s "
          f"({report['parallel_replay']['accesses_per_sec']:.0f} acc/s)")
    if "store" in report:
        store = report["store"]
        print(f"store cold/warm   : {store['cold_s']:8.2f}s / "
              f"{store['warm_s']:.2f}s "
              f"({store['warm_speedup']}x warm speedup, "
              f"{store['warm']['hits']:.0f} hits, "
              f"{store['entries']} entries)")
    if trace_overhead is not None:
        print(f"traced overhead   : {trace_overhead:8.2f}x "
              f"({report['traced']['events']} events, threshold "
              f"{args.max_trace_overhead}x)")
    if resilience_overhead is not None:
        print(f"resilience ovrhd  : {resilience_overhead:8.2f}x "
              f"({report['resilience']['tasks']} tasks, threshold "
              f"{args.max_resilience_overhead}x)")
    if vector_report is not None:
        print(f"vector replay     : {vector_report['scalar_total_s']:8.2f}s "
              f"scalar / {vector_report['vector_total_s']:.2f}s vector = "
              f"{vector_report['speedup']}x (threshold "
              f"{args.min_vector_speedup}x); wrote {args.vector_output}")
    print(f"wrote {args.output}")

    failed = False
    if (
        trace_overhead is not None
        and trace_overhead > args.max_trace_overhead
    ):
        print(f"FAIL: traced overhead {trace_overhead:.2f}x > allowed "
              f"{args.max_trace_overhead}x", file=sys.stderr)
        failed = True
    if (
        resilience_overhead is not None
        and resilience_overhead > args.max_resilience_overhead
    ):
        print(f"FAIL: resilience overhead {resilience_overhead:.2f}x > "
              f"allowed {args.max_resilience_overhead}x", file=sys.stderr)
        failed = True
    if vector_report is not None:
        if not vector_report["identical"]:
            print("FAIL: vector engine diverged from the scalar oracle",
                  file=sys.stderr)
            failed = True
        elif vector_report["speedup"] < args.min_vector_speedup:
            print(f"FAIL: vector replay speedup "
                  f"{vector_report['speedup']:.2f}x < required "
                  f"{args.min_vector_speedup}x", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

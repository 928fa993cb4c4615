"""Resilience overhead gate for the parallel capture+replay pipeline.

Times the fig18 + fig21 pipeline at QUICK scale under
``ExperimentRunner(jobs=N)`` -- one OS capture per benchmark, one TLB
replay per design, fanned across a process pool -- then re-times it
with a retry policy, a per-task deadline and a never-matching fault
plan attached, i.e. the happy-path cost of ``ResilientExecutor``, and
fails when that run costs more than ``--max-resilience-overhead X``
(default 1.3) times the plain parallel run.

Store, throughput and per-layer timings live in ``perfbench/``.
Benchmarking needs ``time.perf_counter``, so this file sits on the
determinism lint's ``WALL_CLOCK_ALLOW`` list; the timings go to the
terminal only -- nothing here feeds back into simulation results.

    PYTHONPATH=src python tools/bench_runner.py --jobs 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.sim.faults import FaultPlan  # noqa: E402
from repro.sim.resilience import RetryPolicy  # noqa: E402
from repro.sim.runner import ExperimentRunner  # noqa: E402
from repro.experiments.registry import get_experiment  # noqa: E402
from repro.experiments.scale import QUICK  # noqa: E402

FIGURES = ("fig18", "fig21")


def _time_pipeline(runner: ExperimentRunner) -> float:
    """Wall-clock seconds to run the figure pipeline under ``runner``."""
    started = time.perf_counter()
    for figure_id in FIGURES:
        get_experiment(figure_id).run(QUICK, runner)
    return time.perf_counter() - started


def _resilient_seconds(jobs: int) -> float:
    """The parallel pipeline with the resilience machinery armed.

    The fault plan targets an index no QUICK batch reaches, so nothing
    fires -- this measures per-task submission, deadline waits and
    fault-plan checks on the happy path.
    """
    runner = ExperimentRunner(
        jobs=jobs,
        policy=RetryPolicy(max_retries=3, backoff_s=0.05, timeout_s=600.0),
        faults=FaultPlan.parse("raise@replay:999983"),
    )
    return _time_pipeline(runner)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate the resilience overhead of the fig18+fig21 "
                    "QUICK pipeline against its plain parallel run."
    )
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
        help="worker processes for the capture/replay pool "
             "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--max-resilience-overhead", type=float, default=1.3, metavar="X",
        help="fail if the run with retries/deadlines/a dormant fault "
             "plan armed exceeds X times the plain run "
             "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    print(f"fig18+fig21 at QUICK scale (jobs={args.jobs})")
    plain = _time_pipeline(ExperimentRunner(jobs=args.jobs))
    print(f"plain parallel run : {plain:8.2f}s")
    seconds = _resilient_seconds(args.jobs)
    bound = args.max_resilience_overhead
    ratio = seconds / plain
    verdict = "ok" if ratio <= bound else "FAIL"
    print(f"resilience run     : {seconds:8.2f}s = {ratio:.2f}x "
          f"(bound {bound}x) {verdict}")
    return 1 if ratio > bound else 0


if __name__ == "__main__":
    raise SystemExit(main())

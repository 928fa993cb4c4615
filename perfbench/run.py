"""Benchmark entry point: one workload, timed passes, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload paper_figs --seed 42 --seconds 30 --trace 0

The workload's inputs derive from ``--seed`` (it becomes the QUICK
scale's ``seed``). After set-up, the run repeats timed passes, each on a
fresh runner, until ``--seconds`` would be exceeded (at least one pass),
and reports medians. Times are normalised to host speed, so that they
read as seconds on a reference host and the shared host's drift
cancels: a short fixed kernel (``perfbench/calibrate.py``) is timed
before and after every capture and replay, in this process and in pool
workers, and a pass's times are scaled by its steps' mean speed factor.
The sampling itself is taken out of the times. Every result of every
pass is digested and checked
against ``perfbench/references.json`` when that file has the seed;
otherwise each pass must reproduce the run's first pass exactly. In
``design_sweep`` each vector result must also equal its scalar twin.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs an
untimed warm-up pass, then alternates untraced and traced passes and
prints the per-layer metrics of the traced ones, including the tracing
overhead; its figures are not normalised. Set-up time is the median
over three processes (this one and two set-up probes that stop when
set-up is done), each timed from the first statement of this script
and normalised by its captures (``design_sweep``) or, when set-up has
none, by a calibration made right after it.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the host record.
The exit code is 1 when any result fails its check, 2 when the
repository's sources are missing.
"""

from __future__ import annotations

import time

#: Set-up is timed from here, the script's first statement.
STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
#: Scratch space (result stores, worker span files), inside the checkout.
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
#: Variables that would change what or how the simulator runs.
HERMETIC_ENV = (
    "COLT_ENGINE", "COLT_EPOCH_MAX", "COLT_FAULTS", "COLT_TRACE",
    "COLT_PROFILE", "COLT_SANITIZE", "COLT_SANITIZE_EVERY", "COLT_RETRIES",
    "COLT_TASK_TIMEOUT", "COLT_BACKOFF", "COLT_RESULT_CACHE", "REPRO_SCALE",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def bootstrap() -> bool:
    """Make ``repro`` and the benchmark modules importable, hermetically.

    Returns False (after saying why) when the checkout has no sources.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    return True


def steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def load_reference(workload: str, seed: int):
    if not REFERENCES.is_file():
        return None
    seeds = json.loads(REFERENCES.read_text(encoding="utf-8"))["seeds"]
    return seeds.get(str(seed), {}).get(workload)


class Checker:
    """Counts checked results and the ones that differ from expectation."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, output) -> None:
        expected = self.reference if self.reference is not None else self.first
        keys = set(output.digests)
        if expected is not None:
            keys |= set(expected)
        for key in sorted(keys):
            self.attempted += 1
            bad = key in output.failed or (
                expected is not None
                and expected.get(key) != output.digests.get(key)
            )
            if bad:
                self.failed += 1
                self.mismatches.append(key)
        if self.first is None:
            self.first = dict(output.digests)


def setup_probe(workload: str, seed: int) -> float:
    """Run set-up in a fresh process; return its normalised set-up time."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def normalised_setup(setup_s: float, meter) -> float:
    """Set-up time, without kernel sampling, in reference seconds."""
    reading = meter.take()
    if reading.steps:
        factor = reading.factor
    else:
        factor = calibrate.REFERENCE_S / calibrate.calibrate()
    return (setup_s - reading.own_sampling_s) * factor


def timed_pass(workload, state, scratch):
    # Collect the previous pass's garbage outside the timed region.
    gc.collect()
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    output = workload.run_pass(state, scratch)
    wall = time.perf_counter() - started
    return output, wall, cpu_seconds() - cpu0


def run_untraced(workload, state, scratch, seconds, checker, meter):
    """Timed passes until ``seconds`` would pass; medians of normalised times.

    Each pass's wall and CPU time lose the kernel sampling done during
    it (worker sampling counts against wall time shared over the pool's
    workers) and are then scaled by the speed factor of its steps.
    """
    walls, rates, cpus, raw, factors = [], [], [], [], []
    began = time.perf_counter()
    while True:
        output, wall, cpu = timed_pass(workload, state, scratch)
        reading = meter.take()
        checker.check(output)
        if not walls:
            # Set-up plus one pass, whatever the number of passes.
            peak = peak_rss_mb()
        sampling = reading.own_sampling_s
        wall -= sampling + reading.worker_sampling_s / workload.jobs
        cpu -= sampling + reading.worker_sampling_s
        raw.append(wall)
        factors.append(reading.factor)
        walls.append(wall * reading.factor)
        rates.append(output.accesses / walls[-1])
        cpus.append(cpu * reading.factor)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(raw) > seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "sim_accesses_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }, {"pass_walls_s": raw, "speed_factors": factors}


def run_traced(workload, state, scratch, seconds, checker):
    import tracing
    from layers import layer_metrics

    tracer = tracing.Tracer(spool=scratch / "spool")
    plain, traced, samples = [], [], []
    began = time.perf_counter()
    # Untimed warm-up: a process's first pass runs about 5% slower on
    # paper_figs, which would bias the overhead ratio of the first pair.
    checker.check(timed_pass(workload, state, scratch)[0])
    while True:
        output, wall, _ = timed_pass(workload, state, scratch)
        checker.check(output)
        plain.append(wall)
        with tracing.instrument(tracer):
            with tracer.span("pass"):
                output, wall, _ = timed_pass(workload, state, scratch)
        checker.check(output)
        traced.append(wall)
        samples.append(layer_metrics(tracer.take(), tracer.owner_pid, output, workload))
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"pass_walls_s": plain + traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not bootstrap():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scratch = SCRATCH / str(os.getpid())
    # The traced run reports raw times: its spans must not hold sampling.
    meter = None if args.trace else calibrate.Meter(scratch / "meter")
    metered = calibrate.instrument(meter) if meter else contextlib.nullcontext()
    try:
        with metered:
            state = workload.setup(args.seed)
            setup_s = None
            if meter is not None:
                setup_s = normalised_setup(time.perf_counter() - STARTED, meter)
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            return measure(args, workload, state, scratch, meter, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload, state, scratch, meter, setup_s) -> int:
    """Timed or traced passes after set-up; print the metrics."""
    import numpy

    scratch.mkdir(parents=True, exist_ok=True)
    checker = Checker(load_reference(args.workload, args.seed))
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }
    steal0 = steal_ticks()
    if args.trace:
        from layers import PER_LAYER_UNITS as units

        metrics, timings = run_traced(
            workload, state, scratch, args.seconds, checker
        )
    else:
        metrics, timings = run_untraced(
            workload, state, scratch, args.seconds, checker, meter
        )
        samples = [setup_s] + [
            setup_probe(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics["setup_s"] = statistics.median(samples)
        host["setup_samples_s"] = samples
        units = END_TO_END_UNITS
    host["steal_ticks"] = steal_ticks() - steal0
    host.update(timings)
    host["referenced"] = checker.reference is not None

    failed_frac = checker.failed / checker.attempted
    for name, unit in units.items():
        print(f"{args.workload:13s} {name:34s} {metrics[name]:14.6g} {unit}")
    print(f"{args.workload:13s} {'failed_frac':34s} {failed_frac:14.6g} ratio")
    for key in checker.mismatches:
        print(f"FAIL: {args.workload} result {key} failed its check",
              file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

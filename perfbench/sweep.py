"""Run the benchmark over several seeds, interleaving workloads.

Each round runs every workload once with the round's seed, in an order
rotated by one per round, so a slow patch of the host spreads over all
workloads instead of landing on one. Every run's result line and host
record (nproc, versions, load average, steal ticks) go to ``--out`` as
one JSON line; the summary gives, per workload and metric, the median,
the quartiles and their spread as a share of the median, which is what
a metric's bound in ``BENCHMARK.json`` is held against. Run from the
repository root:

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30 --trace 0 \\
        --out .bench_build/sweep.jsonl --summary perfbench/results/e2e.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from make_references import parse_seeds  # noqa: E402

WORKLOADS = ("paper_figs", "design_sweep", "contiguity")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "exit": done.returncode,
        "elapsed_s": time.perf_counter() - started,
    }
    if done.returncode in (0, 1) and len(lines) >= 2:
        record["host"] = json.loads(lines[-2])["host"]
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def summarize(records) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and "result" in r]
        values = {}
        for record in runs:
            for name, metric in record["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        metrics = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = (
                statistics.quantiles(series, n=4) if len(series) > 1
                else (median, median, median)
            )
            metrics[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(series),
            }
        summary[workload] = {
            "runs": len(runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "steal_ticks": sum(r["host"]["steal_ticks"] for r in runs),
            "metrics": metrics,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_build/sweep.jsonl")
    parser.add_argument("--summary", default=None,
                        help="also write the summary JSON here")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for round_index, seed in enumerate(parse_seeds(args.seeds)):
        shift = round_index % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            record = run_once(workload, seed, args.seconds, args.trace)
            records.append(record)
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            metrics = record.get("result", {}).get("metrics", {})
            wall = metrics.get("wall_s", {}).get("value")
            print(f"seed {seed:3d} {workload:13s} exit {record['exit']} "
                  f"elapsed {record['elapsed_s']:6.1f}s"
                  + (f" wall_s {wall:.3f}" if wall else ""), flush=True)
    summary = summarize(records)
    for workload, entry in summary.items():
        print(f"\n{workload}: {entry['runs']} runs, "
              f"all correct: {entry['all_correct']}, "
              f"steal ticks: {entry['steal_ticks']}")
        for name, stats in entry["metrics"].items():
            print(f"  {name:34s} median {stats['median']:12.6g}  "
                  f"spread {100 * stats['spread']:6.2f}%")
    if args.summary:
        Path(args.summary).parent.mkdir(parents=True, exist_ok=True)
        Path(args.summary).write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failed = any(r["exit"] != 0 for r in records)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

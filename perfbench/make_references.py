"""Regenerate ``perfbench/references.json``, the committed result digests.

Runs one pass of every workload per seed and records the digest of each
result. Only run this when a change is meant to alter simulated
results; the benchmark counts any other change in a digest as a failed
result. Run from the repository root:

    python3 perfbench/make_references.py --seeds 0-15 42
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def parse_seeds(tokens):
    seeds = []
    for token in tokens:
        low, _, high = token.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["0-15", "42"],
                        help="seeds or inclusive ranges such as 0-15")
    args = parser.parse_args(argv)
    if not run.bootstrap():
        return 2
    from workloads import WORKLOADS

    seeds = {}
    scratch = run.SCRATCH / "references"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for seed in parse_seeds(args.seeds):
            entry = {}
            for name, workload in WORKLOADS.items():
                output = workload.run_pass(workload.setup(seed), scratch)
                if output.failed:
                    print(f"error: seed {seed} {name}: results failed their "
                          f"in-pass check: {output.failed}", file=sys.stderr)
                    return 1
                entry[name] = output.digests
            seeds[str(seed)] = entry
            print(f"seed {seed}: {sum(map(len, entry.values()))} digests",
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.REFERENCES.write_text(
        json.dumps({"seeds": seeds}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

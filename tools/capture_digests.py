#!/usr/bin/env python
"""Content digests of every distinct QUICK capture: a byte-identity gate.

Captures the 40 distinct scenarios the QUICK experiments replay or
scan -- 5 benchmarks x 8 scenario configs (the simulation environment;
the three CDF kernel settings of Figures 7-15; memhog 25% and 50% with
THS on and off, Figures 16-17) -- and prints one SHA-256 per scenario
over its content: the int64 log arrays (shape and bytes), the kernel
counters, the contiguity report and ``trace_unique_pages``.

Captures run inside one prefix cache, as ``ExperimentRunner.run_batch``
does, so each boot+aging+memhog prefix is built once and cloned for
its other benchmarks.

Print the digests (JSON)::

    PYTHONPATH=src python tools/capture_digests.py > digests.json

Gate against a committed set (exit 1 names every scenario that
differs, is missing or is new)::

    PYTHONPATH=src python tools/capture_digests.py \\
        --check tools/capture_digests_quick.json
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.contiguity_figs import CDF_CONFIGS  # noqa: E402
from repro.experiments.environments import (  # noqa: E402
    characterization_config,
    simulation_config,
)
from repro.experiments.scale import QUICK  # noqa: E402
from repro.sim.scenario import (  # noqa: E402
    CapturedScenario,
    capture_scenario,
    close_prefix_cache,
    open_prefix_cache,
)
from repro.sim.system import SimulationConfig  # noqa: E402

_ARRAYS = (
    "vpns", "records", "record_index",
    "inval_before", "inval_start", "inval_count",
)


def scenarios() -> List[Tuple[str, SimulationConfig]]:
    """``(name, config)`` of every distinct QUICK scenario, prefix by prefix."""
    settings: List[Tuple[str, dict]] = [
        (config_id, {"ths_enabled": ths, "defrag_enabled": defrag})
        for config_id, (ths, defrag) in CDF_CONFIGS.items()
    ]
    for figure, ths in (("fig16", True), ("fig17", False)):
        for percent in (25, 50):
            settings.append((
                f"{figure}_memhog{percent}",
                {"ths_enabled": ths, "memhog_fraction": percent / 100},
            ))
    named = [
        (f"{benchmark}/simulation", simulation_config(benchmark, QUICK))
        for benchmark in QUICK.benchmarks
    ]
    for label, kwargs in settings:
        named += [
            (
                f"{benchmark}/{label}",
                characterization_config(benchmark, QUICK, **kwargs),
            )
            for benchmark in QUICK.benchmarks
        ]
    return named


def digest(scenario: CapturedScenario) -> str:
    """SHA-256 over what a capture hands to replay and to the figures."""
    sha = hashlib.sha256()
    for name in _ARRAYS:
        array = getattr(scenario, name)
        sha.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        sha.update(array.tobytes())
    counters = sorted(scenario.kernel_counters.values.items())
    report = scenario.contiguity
    sha.update(repr((
        counters,
        [dataclasses.astuple(run) for run in report.runs],
        report.total_pages,
        report.superpage_pages,
        scenario.trace_unique_pages,
    )).encode())
    return sha.hexdigest()


def capture_digests() -> Dict[str, str]:
    open_prefix_cache()
    try:
        return {
            name: digest(capture_scenario(config))
            for name, config in scenarios()
        }
    finally:
        close_prefix_cache()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/capture_digests.py",
        description="Digest every distinct QUICK capture; optionally "
                    "gate them against a committed set.",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="FILE",
        help="compare with the digests in FILE; exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    digests = capture_digests()
    if args.check is None:
        print(json.dumps(digests, indent=2))
        return 0
    expected = json.loads(args.check.read_text(encoding="utf-8"))
    problems = [
        f"{name}: {expected.get(name, 'missing')} -> {digests.get(name, 'missing')}"
        for name in sorted(set(expected) | set(digests))
        if expected.get(name) != digests.get(name)
    ]
    for line in problems:
        print(f"DIFFERS {line}")
    print(
        f"capture digests: {len(digests) - len(problems)}/{len(digests)} "
        f"match {args.check}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures for the benchmark harness.

``test_figures.py`` regenerates each of the paper's tables and figures
and prints the same rows the paper reports. The scale comes from
``REPRO_SCALE`` (quick by default here, so ``pytest benchmarks/
--benchmark-only`` completes in minutes; set ``REPRO_SCALE=default`` or
``full`` to reproduce the committed EXPERIMENTS.md numbers).
"""

import pytest

from repro.experiments.scale import QUICK, scale_from_env
from repro.sim.runner import ExperimentRunner


@pytest.fixture(scope="session")
def scale():
    return scale_from_env(default=QUICK)


@pytest.fixture(scope="session")
def runner():
    """Session-scoped runner so experiments share cached simulations."""
    return ExperimentRunner()


def run_and_print(benchmark, experiment, scale, runner, capsys=None):
    """Run one experiment under pytest-benchmark and print its table.

    With a ``capsys`` fixture supplied, the table prints through pytest's
    capture so ``pytest benchmarks/ --benchmark-only`` shows the paper's
    rows without needing ``-s``.
    """
    result = benchmark.pedantic(
        experiment.run, args=(scale, runner), rounds=1, iterations=1
    )
    if capsys is not None:
        with capsys.disabled():
            print(f"\n=== {experiment.title} ===")
            print(result.format_table())
    else:
        print(f"\n=== {experiment.title} ===")
        print(result.format_table())
    return result

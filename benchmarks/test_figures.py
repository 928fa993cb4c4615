"""Benchmarks: regenerate every table and figure of the paper.

One case per registered experiment id, in paper-artefact order. Each
prints the same rows the paper reports; see EXPERIMENTS.md for the
committed paper-vs-measured comparison at default scale. Two ablation
cases also check the paper's prose claim on their Average cells.
"""

import pytest

from repro.experiments.registry import experiment_ids, get_experiment

from conftest import run_and_print

#: Experiment id -> (column, column it must match or beat on average).
AVERAGE_CLAIMS = {
    # Section 4.1.4: the cache-line window (8) beats the half-line
    # window (4) -- the paper's justification for the free line fetch.
    "abl_window": ("fa_window_8", "fa_window_4"),
    # Section 4.2.4: CoLT-FA's FA TLB at 16 entries vs its conservative 8.
    "abl_fasize": ("fa_16_entries", "fa_8_entries"),
}


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_figure(benchmark, scale, runner, capsys, experiment_id):
    experiment = get_experiment(experiment_id)
    result = run_and_print(benchmark, experiment, scale, runner, capsys)
    assert [row.benchmark for row in result.rows] == list(scale.benchmarks)
    if experiment_id in AVERAGE_CLAIMS:
        better, worse = AVERAGE_CLAIMS[experiment_id]
        assert result.average(better) >= result.average(worse)

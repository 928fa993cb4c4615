"""Integration tests for the experiment harnesses (tiny scale)."""

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict

import pytest

from repro.common.errors import ConfigurationError, ExperimentError
from repro.experiments.__main__ import main
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.scale import QUICK, ExperimentScale, scale_from_env
from repro.experiments.table import Column, ResultTable, item
from repro.sim.runner import ExperimentRunner

#: A scale small enough for the test suite.
TINY = ExperimentScale(
    accesses=2500,
    num_frames=4096,
    footprint_scale=0.12,
    benchmarks=("gobmk", "povray"),
    seed=5,
)


@pytest.fixture(scope="module")
def runner():
    """Module-scoped runner: experiments share cached simulations."""
    return ExperimentRunner()


def column_names(result):
    return [column.name for column in result.columns]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig7_9", "fig10_12", "fig13_15", "fig16", "fig17",
            "fig18", "fig19", "fig20", "fig21",
            "abl_l2fill", "abl_window", "abl_fasize", "abl_futurework",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")


class TestScales:
    def test_env_scale_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert scale_from_env() == QUICK

    def test_env_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env(TINY) == TINY

    def test_env_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ConfigurationError, match="REPRO_SCALE"):
            scale_from_env()


class TestCommandLineErrors:
    """A user error ends the run before anything runs: exit 2 and one
    ``error:`` line naming what was wrong, not a traceback."""

    @pytest.mark.parametrize("argv, scale, named", [
        (["fig99"], None, "'fig99'"),
        (["fig18"], "galactic", "REPRO_SCALE='galactic'"),
    ], ids=["unknown-id", "unknown-scale"])
    def test_one_error_line(self, monkeypatch, capsys, argv, scale, named):
        if scale is None:
            monkeypatch.delenv("REPRO_SCALE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SCALE", scale)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and named in errors[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""


@dataclass(frozen=True)
class _Row:
    benchmark: str
    suite: str
    misses: int
    ratio: float
    eliminated: Dict[str, float]


#: Two hand-built rows under five columns: a left-aligned string column,
#: a column group separator, and non-averaged columns in the middle
#: and at the end of the Average line.
HAND_BUILT = ResultTable(
    "Hand-built: two rows",
    (
        Column("suite", attrgetter("suite"), 6, "s", header="Suite",
               averaged=False),
        Column("misses", attrgetter("misses"), 7, "d", averaged=False),
        Column("ratio", attrgetter("ratio"), 6, ".2f"),
        Column("SA%", item("eliminated", "colt_sa"), 6, sep="   "),
        Column("FA%", item("eliminated", "colt_fa"), 6, averaged=False),
    ),
    (
        _Row("mcf", "spec", 1200, 0.25, {"colt_sa": 10.0, "colt_fa": 12.5}),
        _Row("tigr", "bio", 300, 0.75, {"colt_sa": -5.0, "colt_fa": 7.0}),
    ),
)


class TestResultTable:
    def test_rendered_text(self):
        assert HAND_BUILT.format_table() == "\n".join([
            "Hand-built: two rows",
            "Benchmark   Suite   misses  ratio      SA%    FA%",
            "-------------------------------------------------",
            "mcf         spec      1200   0.25     10.0   12.5",
            "tigr        bio        300   0.75     -5.0    7.0",
            "Average                      0.50      2.5",
        ])

    def test_no_title_and_no_averaged_column_print_neither(self):
        table = ResultTable(
            None, (Column("misses", attrgetter("misses"), 7, "d",
                          averaged=False),), HAND_BUILT.rows,
        )
        assert table.format_table().splitlines() == [
            "Benchmark    misses",
            "-------------------",
            "mcf            1200",
            "tigr            300",
        ]

    def test_cell_reads_the_row(self):
        assert HAND_BUILT.cell("tigr", "misses") == 300
        assert HAND_BUILT.cell("mcf", "SA%") == 10.0
        assert HAND_BUILT.cell("mcf", "suite") == "spec"

    def test_average_is_the_row_mean(self):
        assert HAND_BUILT.average("SA%") == (10.0 + -5.0) / 2
        assert HAND_BUILT.average("FA%") == (12.5 + 7.0) / 2
        assert HAND_BUILT.average("misses") == (1200 + 300) / 2

    def test_unknown_column_names_it(self):
        with pytest.raises(KeyError, match="'L3%'"):
            HAND_BUILT.cell("mcf", "L3%")
        with pytest.raises(KeyError, match="'L3%'"):
            HAND_BUILT.average("L3%")

    def test_unknown_benchmark_names_it(self):
        with pytest.raises(KeyError, match="'gcc'"):
            HAND_BUILT.cell("gcc", "SA%")


class TestTable1:
    def test_rows_and_formatting(self, runner):
        result = get_experiment("table1").run(TINY, runner)
        assert [r.benchmark for r in result.rows] == ["gobmk", "povray"]
        for row in result.rows:
            assert row.l1_mpmi_ths_on >= 0
            assert result.cell(row.benchmark, "L1on") == row.l1_mpmi_ths_on
            assert len(row.paper) == 4
            assert result.cell(row.benchmark, "L2off (paper)") == row.paper[3]
        table = result.format_table()
        assert "gobmk" in table
        assert "L1on" in table


class TestContiguityFigures:
    def test_cdf_experiment(self, runner):
        result = get_experiment("fig7_9").run(TINY, runner)
        assert "THS on" in result.title
        for row in result.rows:
            assert result.cell(row.benchmark, "avg") >= 1.0
            assert result.cell(row.benchmark, "<=1024") == pytest.approx(1.0)
        assert result.average("avg") >= 1.0
        assert "Contiguity" in result.format_table()

    def test_low_compaction_config(self, runner):
        result = get_experiment("fig13_15").run(TINY, runner)
        assert result.title.endswith("THS off, low compaction")

    def test_memhog_figure(self, runner):
        result = get_experiment("fig16").run(TINY, runner)
        assert result.title.endswith("THS on")
        assert column_names(result) == [
            "no memhog", "memhog 25%", "memhog 50%",
        ]
        assert all(result.average(name) >= 1.0
                   for name in column_names(result))
        assert "memhog" in result.format_table()


class TestTLBFigures:
    def test_fig18_structure(self, runner):
        result = get_experiment("fig18").run(TINY, runner)
        for row in result.rows:
            assert set(row.l1_eliminated) == {
                "colt_sa", "colt_fa", "colt_all",
            }
        # Averages are finite numbers.
        assert isinstance(result.average("SA L1%"), float)

    def test_fig19_shift_sweep(self, runner):
        result = get_experiment("fig19").run(TINY, runner)
        assert column_names(result) == [
            f"{level} s={shift}%"
            for level in ("L1", "L2") for shift in (1, 2, 3)
        ]
        for row in result.rows:
            assert set(row.l1_eliminated) == {1, 2, 3}

    def test_fig20_columns(self, runner):
        result = get_experiment("fig20").run(TINY, runner)
        assert len(result.columns) == 3
        # 8-way without CoLT is weaker than 8-way with CoLT (the paper's
        # headline for Figure 20).
        assert (
            result.average("8way CoLT-SA%") >= result.average("8way no CoLT%")
        )

    def test_fig21_includes_perfect_bound(self, runner):
        result = get_experiment("fig21").run(TINY, runner)
        for row in result.rows:
            perfect = result.cell(row.benchmark, "perfect")
            assert perfect >= result.cell(row.benchmark, "colt_sa")
            assert perfect >= 0


class TestAblations:
    def test_l2fill_variants(self, runner):
        result = get_experiment("abl_l2fill").run(TINY, runner)
        assert set(column_names(result)) == {
            "fa_with_l2fill", "fa_no_l2fill",
            "all_with_l2fill", "all_no_l2fill",
        }

    def test_window_monotone_on_average(self, runner):
        result = get_experiment("abl_window").run(TINY, runner)
        # A wider window can only find more coalescible translations.
        assert (
            result.average("fa_window_8")
            >= result.average("fa_window_2") - 1e-9
        )

    def test_fasize_variants(self, runner):
        result = get_experiment("abl_fasize").run(TINY, runner)
        assert "fa_16_entries" in column_names(result)

"""Tests for the persistent run-history series (repro.obs.history)
and the ``tools/obs_history.py`` CLI (trend / diff / gate)."""

import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common import knobs
from repro.common.errors import ConfigurationError
from repro.experiments.__main__ import main as experiments_main
from repro.obs.history import (
    BASELINE_SCHEMA,
    HISTORY_SCHEMA,
    append_record,
    build_record,
    diff_records,
    flatten_record,
    gate_history,
    gate_record,
    history_enabled,
    history_path,
    load_baseline,
    load_history,
    select_records,
)
from repro.obs.logging import ROOT_LOGGER
from repro.obs.registry import set_registry
from repro.obs.trace import reset_tracing

REPO_ROOT = Path(__file__).resolve().parent.parent


def _record(**overrides):
    fields = dict(
        ts=1_700_000_000.0,
        status="ok",
        figure="fig18",
        scale="quick",
        fingerprint="abc123",
        wall={"total": 12.5, "fig18": 11.0},
        counters={"colt_mmu_accesses": 600000.0, "colt_mmu_walks": 21919.0},
        store={"hits": 0.0, "misses": 20.0, "hit_ratio": 0.0},
        telemetry=True,
        jobs=2,
    )
    fields.update(overrides)
    return build_record(**fields)


def _baseline(**overrides):
    base = {
        "schema": BASELINE_SCHEMA,
        "match": {"figure": "fig18", "scale": "quick"},
        "exact_counters": {"colt_mmu_accesses": 600000.0},
        "ceilings": {"wall.total": 100.0},
        "floors": {},
    }
    base.update(overrides)
    return base


class TestRecords:
    def test_build_record_stamps_schema_and_sorts(self):
        record = _record()
        assert record["schema"] == HISTORY_SCHEMA
        assert list(record["counters"]) == sorted(record["counters"])
        assert record["wall"]["total"] == 12.5

    def test_build_record_rejects_unknown_status(self):
        with pytest.raises(ConfigurationError, match="status"):
            _record(status="exploded")

    def test_append_and_load_round_trip(self, tmp_path):
        path = history_path(tmp_path)
        assert path == tmp_path / "history" / "history.jsonl"
        append_record(path, _record())
        append_record(path, _record(status="failed", ts=1_700_000_100.0))
        records = load_history(path)
        assert [r["status"] for r in records] == ["ok", "failed"]

    def test_append_preserves_unknown_lines_verbatim(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        append_record(path, _record())
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "not json at all"
        assert len(load_history(path)) == 1  # bad line skipped on load

    def test_append_rejects_foreign_schema(self, tmp_path):
        with pytest.raises(ConfigurationError, match="schema"):
            append_record(tmp_path / "h.jsonl", {"schema": "nope"})

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_select_records_filters_coordinates(self):
        records = [
            _record(),
            _record(figure="table1"),
            _record(scale="default"),
        ]
        assert len(select_records(records, figure="fig18")) == 2
        assert len(select_records(records, figure="fig18",
                                  scale="quick")) == 1
        assert select_records(records, scale="full") == []
        assert all("engine" not in record for record in records)

    def test_history_enabled_env(self, monkeypatch):
        monkeypatch.delenv("COLT_HISTORY", raising=False)
        assert history_enabled()
        for off in ("0", "off", "false", "NO"):
            monkeypatch.setenv("COLT_HISTORY", off)
            assert not history_enabled()
        monkeypatch.setenv("COLT_HISTORY", "1")
        assert history_enabled()


class TestDiff:
    def test_flatten_produces_dotted_numeric_paths(self):
        flat = flatten_record(_record())
        assert flat["wall.total"] == 12.5
        assert flat["counters.colt_mmu_walks"] == 21919.0
        assert "ts" not in flat  # timestamps never count as drift
        assert flat["telemetry"] == 1.0

    def test_diff_reports_only_changes(self):
        a = _record()
        b = _record(wall={"total": 13.0, "fig18": 11.0},
                    counters={"colt_mmu_accesses": 600000.0,
                              "colt_mmu_walks": 21920.0})
        rows = {row["path"]: row for row in diff_records(a, b)}
        assert rows["wall.total"]["delta"] == pytest.approx(0.5)
        assert rows["counters.colt_mmu_walks"]["delta"] == 1.0
        assert "counters.colt_mmu_accesses" not in rows

    def test_diff_handles_one_sided_paths(self):
        a = _record()
        b = _record(counters={"colt_mmu_accesses": 600000.0})
        rows = {row["path"]: row for row in diff_records(a, b)}
        row = rows["counters.colt_mmu_walks"]
        assert row["a"] == 21919.0 and row["b"] is None
        assert row["delta"] is None


class TestGate:
    def test_gate_passes_matching_record(self):
        assert gate_record(_record(), _baseline()) == []

    def test_gate_fails_on_counter_drift(self):
        record = _record(counters={"colt_mmu_accesses": 600001.0})
        problems = gate_record(record, _baseline())
        assert len(problems) == 1
        assert "drifted" in problems[0]
        assert "colt_mmu_accesses" in problems[0]

    def test_gate_fails_on_missing_counter(self):
        record = _record(counters={})
        problems = gate_record(record, _baseline())
        assert any("missing" in p for p in problems)

    def test_gate_fails_on_wall_ceiling(self):
        record = _record(wall={"total": 101.0})
        problems = gate_record(record, _baseline())
        assert any("exceeds ceiling" in p for p in problems)

    def test_gate_floor_checked_only_when_present(self):
        baseline = _baseline(floors={"store.hit_ratio": 0.5})
        assert gate_record(_record(store=None), baseline) == []  # no store
        cold = _record(store={"hits": 0.0, "misses": 20.0, "hit_ratio": 0.0})
        assert any(
            "below floor" in p for p in gate_record(cold, baseline)
        )

    def test_gate_requires_ok_status(self):
        problems = gate_record(_record(status="failed"), _baseline())
        assert any("status" in p for p in problems)

    def test_gate_history_picks_newest_matching(self):
        records = [
            _record(counters={"colt_mmu_accesses": 1.0}),  # old, drifted
            _record(scale="default"),                      # wrong scale
            _record(),                                     # newest match
        ]
        record, problems = gate_history(records, _baseline())
        assert problems == []
        assert record is records[2]

    def test_gate_history_reports_no_match(self):
        record, problems = gate_history(
            [_record(figure="table1")], _baseline()
        )
        assert record is None
        assert any("no history record matches" in p for p in problems)

    def test_load_baseline_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema": "wrong"}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_baseline(path)
        path.write_text(json.dumps(_baseline()), encoding="utf-8")
        assert load_baseline(path)["match"]["figure"] == "fig18"

    def test_committed_baseline_is_loadable(self):
        baseline = load_baseline(REPO_ROOT / "tools" / "history_baseline.json")
        assert baseline["match"] == {"figure": "fig18", "scale": "quick"}
        assert len(baseline["exact_counters"]) >= 30
        assert baseline["ceilings"]["wall.total"] > 0


class TestCli:
    def _run(self, tmp_path, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "obs_history.py"),
             *argv],
            capture_output=True, text=True, cwd=tmp_path,
        )

    def test_cli_trend_gate_and_perturbed_rejection(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(history, _record())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_baseline()), encoding="utf-8")

        trend = self._run(tmp_path, "--history", str(history))
        assert trend.returncode == 0
        assert "fig18" in trend.stdout

        ok = self._run(
            tmp_path, "--history", str(history),
            "--gate", "--baseline", str(baseline),
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "GATE OK" in ok.stdout

        # Perturb one bit-identity counter: the gate must reject.
        append_record(
            history, _record(counters={"colt_mmu_accesses": 600001.0,
                                       "colt_mmu_walks": 21919.0})
        )
        bad = self._run(
            tmp_path, "--history", str(history),
            "--gate", "--baseline", str(baseline),
        )
        assert bad.returncode == 1
        assert "GATE FAIL" in bad.stdout
        assert "colt_mmu_accesses" in bad.stdout

    def test_cli_diff(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(history, _record())
        append_record(history, _record(wall={"total": 14.0}))

        diff = self._run(
            tmp_path, "--history", str(history), "--diff", "0", "-1"
        )
        assert diff.returncode == 0
        assert "wall.total" in diff.stdout

    def test_cli_missing_history_exits_2(self, tmp_path):
        result = self._run(tmp_path, "--history", str(tmp_path / "no.jsonl"))
        assert result.returncode == 2



@pytest.fixture
def in_process_cli(monkeypatch):
    """The experiments CLI, run in this process at QUICK scale.

    The CLI installs its own tracer, registry and ``colt`` log handler;
    all three are put back afterwards.
    """
    monkeypatch.setenv(knobs.SCALE.name, "quick")
    monkeypatch.delenv(knobs.HISTORY.name, raising=False)
    logger = logging.getLogger(ROOT_LOGGER)
    handlers, level, propagate = (
        logger.handlers[:], logger.level, logger.propagate
    )
    yield experiments_main
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate
    reset_tracing()
    set_registry(None)


class TestPlainRunRecord:
    def test_record_says_where_the_time_went(self, tmp_path, in_process_cli):
        """A plain QUICK fig18 run records per-phase self time."""
        argv = ["fig18", "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert in_process_cli(argv) == 0
        (record,) = load_history(history_path(tmp_path))
        phases = record["phases"]
        for name in ("aging", "capture", "compaction.run", "replay"):
            assert phases[name]["self_s"] > 0, name
            assert phases[name]["count"] >= 1, name
        # The five benchmarks share one prefix: one boot, one aging.
        assert phases["kernel.boot"]["count"] == 1
        assert phases["aging"]["count"] == 1
        assert phases["capture"]["count"] == 5

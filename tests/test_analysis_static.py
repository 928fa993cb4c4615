"""Tests for the project-wide static analysis framework.

Covers the shared pragma implementation (edge cases the refactor must
not regress), call-graph worker/thread/signal coloring on synthetic
fixtures, SARIF/JSON round-trips, baseline add/expire semantics, and
the repo-level guarantees: ``colt-analyze`` runs clean against the checked-in baseline
and the generated docs are fresh.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.static.baseline import Baseline, BaselineEntry
from repro.analysis.static.cli import main
from repro.analysis.static.concurrency import ConcurrencyPass
from repro.analysis.static.docs import check_docs
from repro.analysis.static.hygiene import ExceptionHygienePass
from repro.analysis.static.lint_rules import LintPass
from repro.analysis.static.model import ProjectModel
from repro.analysis.static.passes import (
    Finding,
    fingerprint_findings,
    run_passes,
)
from repro.analysis.static.sarif import (
    from_json,
    from_sarif,
    to_json,
    to_sarif,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def project_of(*sources):
    """ProjectModel from (path, source) pairs."""
    return ProjectModel.from_sources(list(sources))


def rules_of(findings):
    return [f.rule for f in findings]


@pytest.fixture(scope="module")
def repo_project():
    return ProjectModel.from_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tools"]
    )


# ---------------------------------------------------------------------------
# Pragmas (the one shared implementation)
# ---------------------------------------------------------------------------

class TestPragmas:
    def run_lint(self, source, path="src/repro/m.py"):
        return run_passes(project_of((path, source)), [LintPass()])

    def test_multi_rule_pragma_suppresses_both(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock,float-eq\n"
        )
        assert self.run_lint(source) == []

    def test_multi_rule_pragma_is_not_a_wildcard(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5  # colt-lint: disable=wall-clock\n"
        )
        assert rules_of(self.run_lint(source)) == ["float-eq"]

    def test_disable_all(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5  # colt-lint: disable=all\n"
        )
        assert self.run_lint(source) == []

    def test_pragma_on_decorated_def(self):
        source = (
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "@deco\n"
            "def f(x=[]):  # colt-lint: disable=mutable-default\n"
            "    return x\n"
        )
        assert self.run_lint(source) == []

    def test_decorated_def_without_pragma_still_fires(self):
        source = (
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "@deco\n"
            "def f(x=[]):\n"
            "    return x\n"
        )
        assert rules_of(self.run_lint(source)) == ["mutable-default"]

    def test_pragma_applies_to_every_pass(self):
        source = (
            "import signal\n"
            "import logging\n"
            "LOG = logging.getLogger()\n"
            "def handler(signum, frame):\n"
            "    LOG.warning('x')  # colt-lint: disable=signal-handler-work\n"
            "signal.signal(2, handler)\n"
        )
        project = project_of(("src/repro/sim/x.py", source))
        assert run_passes(project, [ConcurrencyPass()]) == []


# ---------------------------------------------------------------------------
# Call graph: worker / thread / signal coloring
# ---------------------------------------------------------------------------

WORKER_MOD = """\
from repro.work.helpers import mutate_state

def run_task(payload, attempt):
    return mutate_state(payload)

def local_only(payload):
    return payload

def schedule(pool):
    pool.submit(run_task, 1)
"""

HELPER_MOD = """\
_STATE = None

def mutate_state(payload):
    global _STATE
    _STATE = payload
    return payload

def untouched(payload):
    global _STATE
    _STATE = payload
    return payload
"""


class TestWorkerReachability:
    def make_project(self):
        return project_of(
            ("src/repro/work/pool.py", WORKER_MOD),
            ("src/repro/work/helpers.py", HELPER_MOD),
        )

    def test_cross_module_reachability_colored(self):
        project = self.make_project()
        colored = project.worker_reachable()
        assert ("repro.work.helpers", "mutate_state") in colored
        assert ("repro.work.pool", "local_only") not in colored

    def test_worker_global_mutation_flagged_with_root(self):
        project = self.make_project()
        findings = run_passes(project, [ConcurrencyPass()])
        # mutate_state is reachable from the submitted task; untouched
        # has the same global write but no path from a worker root.
        assert rules_of(findings) == ["worker-global-mutation"]
        assert "mutate_state" in findings[0].message
        assert "run_task" in findings[0].message
        assert "untouched" not in findings[0].message

    def test_taskspec_fn_and_initializer_are_roots(self):
        source = (
            "def init_worker():\n"
            "    global A\n"
            "    A = 1\n"
            "def task(x):\n"
            "    global B\n"
            "    B = x\n"
            "def launch(pool):\n"
            "    spec = TaskSpec(fn=task)\n"
            "    pool.start(initializer=init_worker)\n"
            "    return spec\n"
        )
        project = project_of(("src/repro/work/spec.py", source))
        colored = project.worker_reachable()
        assert ("repro.work.spec", "init_worker") in colored
        assert ("repro.work.spec", "task") in colored

    def test_signal_handler_registration(self):
        source = (
            "import signal\n"
            "def on_term(signum, frame):\n"
            "    pass\n"
            "signal.signal(15, on_term)\n"
        )
        project = project_of(("src/repro/sim/sig.py", source))
        handlers = [info.key[1] for info in project.signal_handlers()]
        assert handlers == ["on_term"]

    def test_signal_handler_work_flagged_but_flags_allowed(self):
        source = (
            "import signal\n"
            "class Coord:\n"
            "    def __init__(self):\n"
            "        signal.signal(15, self._handle)\n"
            "    def _handle(self, signum, frame):\n"
            "        self._stop.set()\n"
            "        self._journal.flush()\n"
        )
        project = project_of(("src/repro/sim/sig.py", source))
        findings = run_passes(project, [ConcurrencyPass()])
        assert rules_of(findings) == ["signal-handler-work"]
        assert "flush" in findings[0].message

    def test_unlocked_thread_write_flagged_locked_write_clean(self):
        template = (
            "import threading\n"
            "class Monitor:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.level = 0\n"
            "        t = threading.Thread(target=self._run)\n"
            "        t.start()\n"
            "    def _run(self):\n"
            "        {write}\n"
            "    def read(self):\n"
            "        with self._lock:\n"
            "            return self.level\n"
        )
        unlocked = template.format(write="self.level = 1")
        locked = template.format(
            write="with self._lock:\n            self.level = 1"
        )
        bad = run_passes(
            project_of(("src/repro/sim/mon.py", unlocked)),
            [ConcurrencyPass()],
        )
        assert rules_of(bad) == ["unlocked-shared-state"]
        assert "self.level" in bad[0].message
        good = run_passes(
            project_of(("src/repro/sim/mon.py", locked)),
            [ConcurrencyPass()],
        )
        assert good == []


# ---------------------------------------------------------------------------
# Exception hygiene
# ---------------------------------------------------------------------------

class TestExceptionHygiene:
    def run_hygiene(self, body, path="src/repro/sim/h.py"):
        return run_passes(
            project_of((path, body)), [ExceptionHygienePass()]
        )

    def test_overbroad_unmitigated(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        x = 1\n"
        )
        assert rules_of(self.run_hygiene(source)) == ["overbroad-except"]

    def test_broad_but_logged_is_mitigated(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        _LOG.warning('boom: %s', exc)\n"
        )
        assert self.run_hygiene(source) == []

    def test_narrow_silent_flagged(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except OSError:\n"
            "        pass\n"
        )
        assert rules_of(self.run_hygiene(source)) == ["silent-except"]

    def test_out_of_scope_module_ignored(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert self.run_hygiene(source, "src/repro/core/mmu2.py") == []


# ---------------------------------------------------------------------------
# SARIF / JSON round-trips
# ---------------------------------------------------------------------------

FINDINGS = [
    Finding("src/repro/a.py", 3, 4, "wall-clock", "reads time"),
    Finding("src/repro/b.py", 10, 0, "silent-except", "swallows | pipes"),
]


class TestSerialization:
    def test_sarif_round_trip(self):
        pairs = [(f, f"fp{i}") for i, f in enumerate(FINDINGS)]
        document = to_sarif(pairs, {"wall-clock": "time read"})
        assert document["version"] == "2.1.0"
        assert from_sarif(document) == FINDINGS

    def test_sarif_fingerprints_and_rules(self):
        document = to_sarif([(FINDINGS[0], "abcd")], {})
        run = document["runs"][0]
        assert run["results"][0]["partialFingerprints"] == {
            "coltAnalyze/v1": "abcd"
        }
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "wall-clock"
        ]

    def test_json_round_trip(self):
        pairs = [(f, None) for f in FINDINGS]
        assert from_json(to_json(pairs)) == FINDINGS

    def test_sarif_survives_json_serialization(self):
        pairs = [(f, "x") for f in FINDINGS]
        text = json.dumps(to_sarif(pairs, {}))
        assert from_sarif(json.loads(text)) == FINDINGS


# ---------------------------------------------------------------------------
# Fingerprints + baseline add/expire
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_stable_under_line_shift(self):
        bad_line = "import random\n"
        before = project_of(("src/repro/x.py", bad_line))
        after = project_of(("src/repro/x.py", "# a comment\n" + bad_line))
        fp_before = fingerprint_findings(
            before, run_passes(before, [LintPass()])
        )
        fp_after = fingerprint_findings(
            after, run_passes(after, [LintPass()])
        )
        assert fp_before[0][1] == fp_after[0][1]
        assert fp_before[0][0].line != fp_after[0][0].line

    def test_identical_lines_get_distinct_fingerprints(self):
        project = project_of(("src/repro/x.py", "import random\nimport random\n"))
        pairs = fingerprint_findings(
            project, run_passes(project, [LintPass()])
        )
        assert len(pairs) == 2
        assert pairs[0][1] != pairs[1][1]


class TestBaseline:
    def test_match_partitions_new_suppressed_expired(self):
        entry = BaselineEntry("fp0", "wall-clock", "a.py", 3, "why")
        stale = BaselineEntry("gone", "float-eq", "b.py", 9, "old")
        baseline = Baseline([entry, stale])
        match = baseline.match([(FINDINGS[0], "fp0"), (FINDINGS[1], "fp9")])
        assert [fp for _, fp in match.suppressed] == ["fp0"]
        assert [fp for _, fp in match.new] == ["fp9"]
        assert [e.fingerprint for e in match.expired] == ["gone"]

    def test_updated_keeps_justifications_and_drops_expired(self):
        baseline = Baseline([
            BaselineEntry("fp0", "wall-clock", "a.py", 3, "real reason"),
            BaselineEntry("gone", "float-eq", "b.py", 9, "old"),
        ])
        updated = baseline.updated(
            [(FINDINGS[0], "fp0"), (FINDINGS[1], "fp9")]
        )
        by_fp = {e.fingerprint: e for e in updated.entries}
        assert set(by_fp) == {"fp0", "fp9"}
        assert by_fp["fp0"].justification == "real reason"
        assert by_fp["fp9"].justification.startswith("TODO")

    def test_cli_baseline_lifecycle(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import random\n", encoding="utf-8")
        bl = tmp_path / "baseline.json"
        # New finding without a baseline: fail.
        assert main([str(target), "--baseline", str(bl)]) == 1
        # Admit it, then the same tree is clean.
        assert main(
            [str(target), "--baseline", str(bl), "--update-baseline"]
        ) == 0
        assert bl.exists()
        assert main([str(target), "--baseline", str(bl)]) == 0
        # Fix the finding: the entry expires (reported, but exit 0).
        target.write_text("X = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert main([str(target), "--baseline", str(bl)]) == 0
        out = capsys.readouterr().out
        assert "expired" in out

    def test_cli_exit_two_on_missing_path(self, tmp_path):
        assert main([str(tmp_path / "nope.py"), "--no-baseline"]) == 2


# ---------------------------------------------------------------------------
# Repo-level guarantees
# ---------------------------------------------------------------------------

class TestRepoIsClean:
    def test_colt_analyze_clean_with_baseline(self, capsys):
        code = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")])
        out = capsys.readouterr().out
        assert code == 0, out
        # The baseline is load-bearing, not empty.
        assert "baselined" in out

    def test_baseline_entries_are_justified(self):
        baseline = Baseline.load(REPO_ROOT / "tools" / "analysis_baseline.json")
        assert baseline.entries, "expected a non-empty baseline"
        for entry in baseline.entries:
            assert entry.justification, entry.fingerprint
            assert not entry.justification.startswith("TODO"), entry.path

    def test_generated_docs_are_fresh(self, repo_project):
        assert check_docs(REPO_ROOT) == []

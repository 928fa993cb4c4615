"""Tests for the project-wide static analysis framework.

Covers the shared pragma implementation (edge cases the refactor must
not regress), call-graph worker/thread/signal coloring on synthetic
fixtures, the ``colt-analyze`` exit codes, and the repo-level
guarantees: ``colt-analyze`` runs clean, every pragma says why, the
generated docs are fresh, and the simulator does not import the
analyzer.
"""

import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

from repro.analysis.static.cli import main
from repro.analysis.static.concurrency import ConcurrencyPass
from repro.analysis.static.docs import check_docs
from repro.analysis.static.hygiene import ExceptionHygienePass
from repro.analysis.static.lint_rules import LintPass
from repro.analysis.static.model import ProjectModel, iter_python_files
from repro.analysis.static.passes import run_passes

REPO_ROOT = Path(__file__).resolve().parents[1]


def project_of(*sources):
    """ProjectModel from (path, source) pairs."""
    return ProjectModel.from_sources(list(sources))


def rules_of(findings):
    return [f.rule for f in findings]


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

    def test_reasoned_multi_rule_pragma_suppresses_both(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock,float-eq -- why\n"
        )
        assert self.run_lint(source) == []

    def test_reason_is_not_read_as_a_rule(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock -- float-eq\n"
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
# The colt-analyze command
# ---------------------------------------------------------------------------

class TestCli:
    def test_cli_exit_two_on_missing_path(self, tmp_path):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_cli_reasoned_pragma_accepts_the_only_finding(
        self, tmp_path, capsys
    ):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random  # colt-lint: disable=rng-module-state -- why\n",
            encoding="utf-8",
        )
        assert main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Repo-level guarantees
# ---------------------------------------------------------------------------

class TestRepoIsClean:
    def test_colt_analyze_clean(self, capsys):
        code = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_every_pragma_gives_a_reason(self):
        pragmas = []
        for path in iter_python_files(
            [REPO_ROOT / "src", REPO_ROOT / "tools"]
        ):
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if (
                    token.type == tokenize.COMMENT
                    and "colt-lint: disable=" in token.string
                ):
                    pragmas.append((f"{path}:{token.start[0]}", token.string))
        assert pragmas, "expected at least one pragma"
        unreasoned = [
            where for where, comment in pragmas
            if not comment.partition(" -- ")[2].strip()
        ]
        assert unreasoned == []

    def test_generated_docs_are_fresh(self):
        assert check_docs(REPO_ROOT) == []


def test_simulator_does_not_import_tooling():
    """Simulator processes and pool workers load no analyzer or server."""
    code = (
        "import sys\n"
        "import repro.sim.runner, repro.experiments.registry\n"
        "print(*sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    unwanted = [
        name for name in loaded
        if name.startswith("repro.analysis.static")
        or name in ("repro.obs.serve", "http.server")
    ]
    assert unwanted == []

"""Tests for the determinism lint: every rule, the pragma, the CLI, the repo.

Each rule gets fixtures proving it fires on a violation and stays quiet
on the sanctioned alternative. The repo tests lint ``src`` and ``tools``
and demand a clean bill; every allow-list entry must still be needed,
every pragma must say why, the generated docs must be fresh, and the
simulator must not import the lint.
"""

import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis.static.cli import main
from repro.analysis.static.docs import check_docs
from repro.analysis.static.lint_rules import (
    PRINT_ALLOW,
    RAW_ENV_ALLOW,
    RNG_CONSTRUCTION_ALLOW,
    RULES,
    WALL_CLOCK_ALLOW,
    iter_python_files,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(source, path="sim/module.py"):
    return [d.rule for d in lint_source(path, source)]


class TestRngModuleState:
    def test_import_random_flagged(self):
        assert rules_of("import random\n") == ["rng-module-state"]

    def test_from_random_flagged(self):
        assert rules_of("from random import shuffle\n") == ["rng-module-state"]

    def test_np_random_module_state_flagged(self):
        source = "import numpy as np\nnp.random.seed(3)\n"
        assert rules_of(source) == ["rng-module-state"]

    def test_np_random_aliased_import_flagged(self):
        source = "import numpy\nnumpy.random.shuffle([1])\n"
        assert rules_of(source) == ["rng-module-state"]

    def test_from_numpy_random_flagged(self):
        source = "from numpy.random import default_rng\n"
        assert rules_of(source) == ["rng-module-state"]

    def test_default_rng_allowed_in_rng_module(self):
        source = "from numpy.random import default_rng\n"
        assert rules_of(source, "src/repro/common/rng.py") == []

    def test_generator_type_import_allowed(self):
        source = "from numpy.random import Generator, SeedSequence\n"
        assert rules_of(source) == []

    def test_np_random_generator_annotation_allowed(self):
        source = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n    return rng\n"
        )
        assert rules_of(source) == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of("import time\ntime.time()\n") == ["wall-clock"]

    def test_perf_counter_flagged(self):
        assert rules_of("import time\ntime.perf_counter()\n") == ["wall-clock"]

    def test_from_time_import_flagged(self):
        assert rules_of("from time import time\n") == ["wall-clock"]

    def test_datetime_now_flagged(self):
        source = "from datetime import datetime\ndatetime.now()\n"
        assert rules_of(source) == ["wall-clock"]

    def test_datetime_module_path_flagged(self):
        source = "import datetime\ndatetime.datetime.now()\n"
        assert rules_of(source) == ["wall-clock"]

    def test_allow_listed_files_pass(self):
        source = "import time\nt = time.perf_counter()\n"
        assert rules_of(source, "repro/experiments/__main__.py") == []
        assert rules_of(source, "tools/bench_runner.py") == []

    def test_time_sleep_not_flagged(self):
        # sleep blocks but does not read the clock into results.
        assert rules_of("import time\ntime.sleep(1)\n") == []


class TestFloatEq:
    def test_float_equality_flagged(self):
        assert rules_of("ok = rate == 0.5\n", "m.py") == ["float-eq"]

    def test_float_inequality_flagged(self):
        assert rules_of("ok = rate != 1.5\n", "m.py") == ["float-eq"]

    def test_negative_float_flagged(self):
        assert rules_of("ok = x == -0.25\n", "m.py") == ["float-eq"]

    def test_int_equality_allowed(self):
        assert rules_of("ok = count == 5\n", "m.py") == []

    def test_float_comparison_operators_allowed(self):
        assert rules_of("ok = rate < 0.5 or rate >= 0.9\n", "m.py") == []


class TestPragma:
    def test_disable_single_rule(self):
        source = "import time\nt = time.time()  # colt-lint: disable=wall-clock\n"
        assert rules_of(source) == []

    def test_disable_all(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5  # colt-lint: disable=all\n"
        )
        assert rules_of(source) == []

    def test_disable_wrong_rule_keeps_diagnostic(self):
        source = "x = rate == 0.5  # colt-lint: disable=wall-clock\n"
        assert rules_of(source) == ["float-eq"]

    def test_multi_rule_pragma_suppresses_both(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock,float-eq\n"
        )
        assert rules_of(source) == []

    def test_multi_rule_pragma_is_not_a_wildcard(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5  # colt-lint: disable=wall-clock\n"
        )
        assert rules_of(source) == ["float-eq"]

    def test_reasoned_multi_rule_pragma_suppresses_both(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock,float-eq -- why\n"
        )
        assert rules_of(source) == []

    def test_reason_is_not_read_as_a_rule(self):
        source = (
            "import time\n"
            "ok = time.time() == 0.5"
            "  # colt-lint: disable=wall-clock -- float-eq\n"
        )
        assert rules_of(source) == ["float-eq"]


class TestNoPrint:
    LIB = "src/repro/sim/module.py"

    def test_print_in_library_code_flagged(self):
        assert rules_of("print('hi')\n", self.LIB) == ["no-print"]

    def test_main_modules_exempt(self):
        source = "print('usage: ...')\n"
        assert rules_of(source, "src/repro/experiments/__main__.py") == []

    def test_allow_listed_cli_tools_exempt(self):
        source = "print('diagnostic')\n"
        assert rules_of(source, "src/repro/analysis/static/cli.py") == []
        assert rules_of(source, "src/repro/analysis/determinism.py") == []

    def test_outside_repro_tree_exempt(self):
        assert rules_of("print('x')\n", "tools/helper.py") == []

    def test_pragma_escapes(self):
        source = "print('x')  # colt-lint: disable=no-print\n"
        assert rules_of(source, self.LIB) == []

    def test_method_named_print_allowed(self):
        # Only the builtin is banned; attribute calls are not.
        assert rules_of("writer.print('x')\n", self.LIB) == []


class TestRawEnvRead:
    LIB = "src/repro/sim/module.py"

    def test_environ_get_flagged(self):
        source = "import os\nv = os.environ.get('COLT_X')\n"
        assert rules_of(source, self.LIB) == ["raw-env-read"]

    def test_environ_subscript_load_flagged(self):
        source = "import os\nv = os.environ['COLT_X']\n"
        assert rules_of(source, self.LIB) == ["raw-env-read"]

    def test_getenv_flagged(self):
        source = "import os\nv = os.getenv('COLT_X')\n"
        assert rules_of(source, self.LIB) == ["raw-env-read"]

    def test_aliased_imports_flagged(self):
        source = (
            "import os as o\n"
            "from os import environ as env, getenv\n"
            "a = o.environ.get('A')\n"
            "b = env['B']\n"
            "c = getenv('C')\n"
        )
        assert rules_of(source, self.LIB) == ["raw-env-read"] * 3

    def test_writes_and_copies_allowed(self):
        source = (
            "import os\n"
            "os.environ['COLT_X'] = '1'\n"
            "del os.environ['COLT_X']\n"
            "os.environ.pop('COLT_X', None)\n"
            "env = dict(os.environ)\n"
        )
        assert rules_of(source, self.LIB) == []

    def test_knobs_module_allowed(self):
        source = "import os\nv = os.environ.get('COLT_X')\n"
        assert rules_of(source, "src/repro/common/knobs.py") == []

    def test_pragma_escapes(self):
        source = (
            "import os\n"
            "v = os.environ.get('X')  # colt-lint: disable=raw-env-read\n"
        )
        assert rules_of(source, self.LIB) == []


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0

    def test_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "rng-module-state" in out and "bad.py:1" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_reasoned_pragma_accepts_the_only_finding(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random  # colt-lint: disable=rng-module-state -- why\n",
            encoding="utf-8",
        )
        assert main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_directory_recursion(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("import random\n")
        files = list(iter_python_files([tmp_path]))
        assert len(files) == 1
        assert len(lint_paths([tmp_path])) == 1

    def test_syntax_error_reported(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        diagnostics = lint_paths([broken])
        assert [d.rule for d in diagnostics] == ["syntax-error"]


class TestRepoIsClean:
    def test_src_and_tools_lint_clean(self):
        findings = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tools"])
        assert findings == [], "\n".join(f.render() for f in findings)

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
        unreasoned = [
            where for where, comment in pragmas
            if not comment.partition(" -- ")[2].strip()
        ]
        assert unreasoned == []

    def test_generated_docs_are_fresh(self):
        assert check_docs(REPO_ROOT) == []

    def test_all_rules_have_fixture_coverage(self):
        # Guard against adding a rule without tests: the rule tuple is
        # what this suite is organised around.
        assert set(RULES) == {
            "rng-module-state",
            "wall-clock",
            "float-eq",
            "no-print",
            "raw-env-read",
        }


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_fires_somewhere(rule):
    """Belt and braces: one violating snippet per rule."""
    samples = {
        "rng-module-state": ("import random\n", "sim/module.py"),
        "wall-clock": ("import time\ntime.time()\n", "sim/module.py"),
        "float-eq": ("ok = x == 0.5\n", "sim/module.py"),
        "no-print": ("print('x')\n", "src/repro/sim/module.py"),
        "raw-env-read": ("import os\nos.getenv('X')\n", "sim/module.py"),
    }
    source, path = samples[rule]
    assert rules_of(source, path) == [rule]


#: Every allow-list entry, with the rule its list exempts from.
ALLOW_CASES = [
    (entry, rule)
    for entries, rule in (
        (WALL_CLOCK_ALLOW, "wall-clock"),
        (PRINT_ALLOW, "no-print"),
        (RNG_CONSTRUCTION_ALLOW, "rng-module-state"),
        (RAW_ENV_ALLOW, "raw-env-read"),
    )
    for entry in entries
]


@pytest.mark.parametrize(
    "entry, rule", ALLOW_CASES,
    ids=[f"{rule}:{entry}" for entry, rule in ALLOW_CASES],
)
def test_allow_list_entry_is_needed(entry, rule):
    """An entry names one real file that would break its list's rule."""
    matches = [
        path for path in iter_python_files(
            [REPO_ROOT / "src", REPO_ROOT / "tools"]
        )
        if path.as_posix().endswith(entry)
    ]
    assert len(matches) == 1, matches
    source = matches[0].read_text(encoding="utf-8")
    assert rule in rules_of(source, "src/repro/sim/module.py")


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

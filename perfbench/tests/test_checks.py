"""Output checks: perturbed digests count as failed results."""

import subprocess
import shutil
import sys
from pathlib import Path

from run import Checker
from workloads import PassOutput


def output(digests, failed=()):
    return PassOutput(dict(digests), accesses=1, failed=list(failed))


def test_perturbed_digest_counts_as_failed():
    checker = Checker({"fig18/mcf": "aaaa", "fig18/milc": "bbbb"})
    checker.check(output({"fig18/mcf": "aaaa", "fig18/milc": "bbbX"}))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.mismatches == ["fig18/milc"]


def test_missing_and_in_pass_failures_count():
    checker = Checker({"a": "1", "b": "2"})
    checker.check(output({"a": "1"}))
    assert (checker.attempted, checker.failed) == (2, 1)
    checker.check(output({"a": "1", "b": "2"}, failed=["a"]))
    assert (checker.attempted, checker.failed) == (4, 2)


def test_without_reference_later_passes_must_repeat_the_first():
    checker = Checker(None)
    checker.check(output({"a": "1", "b": "2"}))
    assert checker.failed == 0
    checker.check(output({"a": "1", "b": "3"}))
    assert (checker.attempted, checker.failed) == (4, 1)


def test_fails_without_sources(tmp_path):
    shutil.copytree(
        Path(__file__).resolve().parent.parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""

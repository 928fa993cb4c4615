"""Tests for the environment knobs: one accessor, one failure mode.

Every knob is exercised through the public function that consumes it,
so a consumer that stops reading through its ``Knob`` (and regrows its
own parsing) fails here, not in a long run. The run-level knobs are
read by the CLI alone, so no library constructor reads them behind its
caller's back.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.analysis.sanitizers import sanitizers_enabled
from repro.common import knobs
from repro.common.errors import ConfigurationError
from repro.experiments.scale import scale_from_env
from repro.obs.history import history_enabled
from repro.sim.faults import FaultPlan

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


#: (knob name, value, reader, expected value or exception type).
CASES = [
    ("COLT_SANITIZE", "none", sanitizers_enabled, False),
    ("COLT_FAULTS", "  ", FaultPlan.from_env, None),
    ("COLT_HISTORY", "", history_enabled, True),
    ("REPRO_SCALE", "galactic", scale_from_env, ConfigurationError),
]


@pytest.mark.parametrize(
    "name, value, read, expected",
    CASES,
    ids=[f"{name}={value!r}" for name, value, _, _ in CASES],
)
def test_knob_value(monkeypatch, name, value, read, expected):
    for knob in knobs.ALL:
        monkeypatch.delenv(knob.name, raising=False)
    monkeypatch.setenv(name, value)
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected, match=re.escape(name)) as info:
            read()
        if expected is ConfigurationError:
            assert repr(value) in str(info.value)
    else:
        assert read() == expected


def test_every_knob_has_a_case():
    assert {name for name, *_ in CASES} == {k.name for k in knobs.ALL}


def test_every_knob_is_read_outside_the_knobs_module():
    """A ``Knob`` nothing reads is dead: delete it or read it."""
    attrs = {
        knob: attr for attr, knob in vars(knobs).items()
        if isinstance(knob, knobs.Knob)
    }
    assert set(attrs) == set(knobs.ALL)
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in PACKAGE.rglob("*.py")
        if path != PACKAGE / "common" / "knobs.py"
    )
    unread = [
        knob.name for knob, attr in attrs.items()
        if not re.search(rf"\bknobs\.{attr}\b", text)
    ]
    assert unread == []


def _callers(reader: str) -> set:
    """Modules under ``src/repro`` that call ``reader``, however
    qualified (``history_enabled()``, ``history.history_enabled()``)."""
    callers = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                if called == reader or called.endswith("." + reader):
                    callers.add(path.relative_to(PACKAGE).as_posix())
    return callers


@pytest.mark.parametrize("reader", ["FaultPlan.from_env", "history_enabled"])
def test_run_knobs_are_read_by_the_cli_alone(reader):
    """The CLI reads the fault plan and the history switch once and
    hands them on; a library constructor that reads either behind its
    caller's back fails here."""
    assert _callers(reader) == {"experiments/__main__.py"}

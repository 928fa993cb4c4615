"""Tests for the environment knobs: one accessor, one failure mode.

Every knob is exercised through the public function that consumes it,
so a consumer that stops reading through its ``Knob`` (and regrows its
own parsing) fails here, not in a long run.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.sanitizers import sanitizers_enabled
from repro.common import knobs
from repro.common.errors import ConfigurationError
from repro.experiments.scale import scale_from_env
from repro.obs.history import history_enabled
from repro.obs.serve import telemetry_port_from_env
from repro.sim.faults import FaultPlan
from repro.sim.resilience import RetryPolicy, resolve_dump_dir
from repro.sim.store import ResultStore

REPO_ROOT = Path(__file__).resolve().parents[1]


#: (knob name, value, reader, expected value or exception type).
CASES = [
    ("COLT_SANITIZE", "none", sanitizers_enabled, False),
    ("COLT_RESULT_CACHE", "false", ResultStore.from_env, None),
    ("COLT_RESULT_CACHE", "", ResultStore.from_env, None),
    ("COLT_FAULTS", "  ", FaultPlan.from_env, None),
    ("COLT_RETRIES", "abc", RetryPolicy.from_env, ConfigurationError),
    ("COLT_RETRIES", "-3", lambda: RetryPolicy.from_env().max_retries, 0),
    ("COLT_TASK_TIMEOUT", "abc", RetryPolicy.from_env, ConfigurationError),
    ("COLT_DUMP_DIR", " ", resolve_dump_dir, Path(".colt-cache/dumps")),
    ("COLT_TELEMETRY_PORT", "abc", telemetry_port_from_env,
     ConfigurationError),
    ("COLT_HISTORY", "", history_enabled, True),
    ("REPRO_SCALE", "galactic", scale_from_env, ValueError),
]


@pytest.mark.parametrize(
    "name, value, read, expected",
    CASES,
    ids=[f"{name}={value!r}" for name, value, _, _ in CASES],
)
def test_knob_value(monkeypatch, tmp_path, name, value, read, expected):
    monkeypatch.chdir(tmp_path)  # a store/dump dir lands here, if any
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
    package = REPO_ROOT / "src" / "repro"
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in package.rglob("*.py")
        if path != package / "common" / "knobs.py"
    )
    unread = [
        knob.name for knob, attr in attrs.items()
        if not re.search(rf"\bknobs\.{attr}\b", text)
    ]
    assert unread == []

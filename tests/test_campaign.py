"""Campaigns: atomic writes, the experiment loop, shutdown.

The invariants pinned here are the robustness contract of the CLI's
experiment loop (``repro.experiments.__main__.run_experiments``),
``repro.sim.shutdown`` and ``repro.common.atomicio``:

* an artifact write killed at any point leaves the old file intact;
* the experiment loop keeps each result object and prints its table,
  carries on past an experiment that failed permanently, and stops
  between experiments on a signal or an injected fault; rerunning the
  same experiments then completes;
* the first signal asks for a graceful stop, the second hard-aborts;
  a pooled wave it interrupts still yields every finished task first;
* rerunning a finished CLI run recomputes nothing: every simulation
  comes back from the store and the printed table is unchanged;
* a CLI run that raises still restores the signal handlers and
  appends a ``failed`` history record.
"""

import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.common import knobs
from repro.common.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.common.errors import (
    InjectedFaultError,
    ShutdownRequested,
    TaskExecutionError,
)
from repro.experiments.__main__ import (
    CAMPAIGN_COUNTERS,
    main as experiments_main,
    run_experiments,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.scale import DEFAULT, QUICK
from repro.obs.history import history_path, load_history
from repro.obs.logging import ROOT_LOGGER
from repro.obs.trace import current_tracer, reset_tracing
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.sim.faults import FaultPlan
from repro.sim.resilience import ResilientExecutor, TaskSpec
from repro.sim.runner import ExperimentRunner
from repro.sim.shutdown import SHUTDOWN_EXIT_CODE, ShutdownCoordinator
from repro.sim.store import ResultStore, run_fingerprint


@pytest.fixture
def fresh_obs():
    """Fresh obs state (tracer and registry) around the test."""
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------


class TestAtomicIO:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"a": 1})
        assert path.read_text() == '{"a": 1}\n'
        atomic_write_text(path, "plain\n")
        assert path.read_text() == "plain\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_kill_between_write_and_replace_keeps_old_file(
        self, tmp_path, monkeypatch
    ):
        """Simulate dying mid-write: the visible file never changes."""
        path = tmp_path / "artifact.json"
        atomic_write_bytes(path, b"old and complete")

        def exploding_replace(src, dst):
            raise OSError("killed between write and replace")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"new but doomed")
        monkeypatch.undo()
        assert path.read_bytes() == b"old and complete"
        # The raising writer cleaned its temp file up.
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            atomic_write_text(path, "never lands")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_nonexistent_directory_raises_untouched(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "no" / "dir" / "f.txt", "x")


# ---------------------------------------------------------------------------
# The campaign fingerprint.
# ---------------------------------------------------------------------------


class TestCampaignFingerprint:
    def test_fingerprint_covers_scale_ids_and_constants(self):
        @dataclass(frozen=True)
        class FakeScale:
            accesses: int = 1000

        base = run_fingerprint(FakeScale(), ["a", "b"])
        assert base == run_fingerprint(FakeScale(), ["a", "b"])
        assert base != run_fingerprint(FakeScale(2000), ["a", "b"])
        assert base != run_fingerprint(FakeScale(), ["a"])

    def test_fingerprint_payload_is_pinned(self):
        """History records written before and after a refactor of the
        fingerprint's home must stay comparable."""
        assert run_fingerprint(QUICK, ["fig18"]) == (
            "7f0d48fe4ae677f1fdc3ad6f8503955521d2b8435b82c98eb5bccd17f9641f15"
        )
        assert run_fingerprint(DEFAULT, list(EXPERIMENTS)) == (
            "9d5df69925e5fb9dc436cb4c48dda49a3b8819115e6a380bd3878d28cee67151"
        )


# ---------------------------------------------------------------------------
# Shutdown coordinator.
# ---------------------------------------------------------------------------


#: The ``src`` directory, for child interpreters.
_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Child for the hard-abort test: installs the coordinator, reports the
#: first signal, then waits (bounded) for the second one to kill it.
_HARD_ABORT_CHILD = """
import time
from repro.sim.shutdown import ShutdownCoordinator
shutdown = ShutdownCoordinator().install()
print("ready", flush=True)
deadline = time.monotonic() + 30.0
while not shutdown.requested and time.monotonic() < deadline:
    time.sleep(0.01)
print("graceful", shutdown.signal_name, flush=True)
while time.monotonic() < deadline:
    time.sleep(0.01)
raise SystemExit(3)
"""


class TestShutdownCoordinator:
    def test_programmatic_request(self):
        shutdown = ShutdownCoordinator()
        assert not shutdown.requested
        shutdown.check()  # no-op before a request
        shutdown.request("TEST")
        assert shutdown.requested
        with pytest.raises(ShutdownRequested) as exc_info:
            shutdown.check()
        assert exc_info.value.signal_name == "TEST"

    def test_real_signal_sets_flag_and_restore_uninstalls(self):
        shutdown = ShutdownCoordinator()
        with shutdown:
            os.kill(os.getpid(), signal.SIGINT)
            # Delivery is synchronous for a self-signal on the main
            # thread once any bytecode runs.
            for _ in range(100):
                if shutdown.requested:
                    break
                time.sleep(0.01)
            assert shutdown.requested
            assert shutdown.signal_name == "SIGINT"
        # Restored: a further SIGINT raises KeyboardInterrupt as usual.
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)

    def test_second_signal_hard_aborts(self):
        """First SIGTERM only sets the flag; the second kills the child
        with the default action, which a graceful path cannot block."""
        child = subprocess.Popen(
            [sys.executable, "-c", _HARD_ABORT_CHILD],
            env={**os.environ, "PYTHONPATH": _SRC},
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert child.stdout.readline() == "ready\n"
            child.send_signal(signal.SIGTERM)
            assert child.stdout.readline() == "graceful SIGTERM\n"
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=30) == -signal.SIGTERM
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()

    def test_exit_code_is_distinct(self):
        assert SHUTDOWN_EXIT_CODE == 75
        assert SHUTDOWN_EXIT_CODE not in (0, 1, 2)
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGINT
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGTERM


# ---------------------------------------------------------------------------
# The executor under a shutdown coordinator.
# ---------------------------------------------------------------------------


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


class TestExecutorIntegration:
    def test_shutdown_interrupts_wave_and_raises(self, fresh_obs):
        shutdown = ShutdownCoordinator()
        tasks = [
            TaskSpec(fn=_sleepy, args=(0.0,), site="capture", index=i,
                     context={"i": i})
            for i in range(3)
        ]
        shutdown.request("TEST")
        with ResilientExecutor(jobs=1, shutdown=shutdown) as executor:
            with pytest.raises(ShutdownRequested):
                list(executor.run(tasks))

    def test_pooled_shutdown_yields_finished_then_raises(self, fresh_obs):
        shutdown = ShutdownCoordinator()
        tasks = [
            TaskSpec(fn=_sleepy, args=(nap,), site="capture", index=i,
                     context={"i": i})
            for i, nap in enumerate((0.0, 1.0, 0.0))
        ]
        timer = threading.Timer(0.3, shutdown.request, args=("TEST",))
        yielded = []
        with ResilientExecutor(jobs=2, shutdown=shutdown) as executor:
            with pytest.raises(ShutdownRequested):
                for task, _ in executor.run(tasks):
                    yielded.append(task.index)
                    if task.index == 0:
                        timer.start()
        timer.join()
        # The signal landed while the parent waited on task 1, still
        # napping and so never yielded; task 2 had already finished,
        # so it still reached the caller before the shutdown raised.
        assert yielded == [0, 2]


# ---------------------------------------------------------------------------
# The experiment loop over stub experiments (fast, deterministic).
# ---------------------------------------------------------------------------


#: A printed table's header; its elapsed time differs run to run.
_HEADER = re.compile(r"^=== (.*) \(\d+\.\ds\) ===$")


def printed_tables(out):
    """``{title: table}`` of the tables a run printed (a table runs
    from its header to the next blank line)."""
    tables, title = {}, None
    for line in out.splitlines():
        header = _HEADER.match(line)
        if header:
            title = header.group(1)
            tables[title] = []
        elif title is not None and line:
            tables[title].append(line)
        else:
            title = None
    return {title: "\n".join(lines) for title, lines in tables.items()}


def campaign_counts():
    """The loop's ``colt_campaign_*`` totals in the current registry."""
    snapshot = get_registry().snapshot()
    return {
        name: snapshot.counter_total(f"colt_campaign_{name}")
        for name in CAMPAIGN_COUNTERS
    }


class _StubResult:
    def __init__(self, text):
        self._text = text

    def format_table(self):
        return self._text


class _StubExperiment:
    def __init__(self, exp_id, hook=None):
        self.id = exp_id
        self.title = f"Stub {exp_id}"
        self.runs = 0
        self.result = None
        self._hook = hook

    def run(self, scale, runner):
        self.runs += 1
        if self._hook is not None:
            self._hook(self)
        self.result = _StubResult(f"table of {self.id}")
        return self.result


class TestRunExperiments:
    @staticmethod
    def _run(tmp_path, experiments, **kwargs):
        """One loop over a fresh registry: ``(code, results, wall)``."""
        set_registry(MetricsRegistry())
        runner = ExperimentRunner(
            jobs=1, store=ResultStore(tmp_path / "cache")
        )
        results, wall = {}, {}
        code = run_experiments(
            experiments, None, runner, results, wall, **kwargs
        )
        return code, results, wall

    def test_clean_run_prints_every_table(self, tmp_path, fresh_obs,
                                          capsys):
        experiments = [_StubExperiment("a"), _StubExperiment("b")]
        code, results, wall = self._run(tmp_path, experiments)
        assert code == 0
        # The loop runs each experiment once and keeps its very result
        # object.
        assert [exp.runs for exp in experiments] == [1, 1]
        assert results == {exp.id: exp.result for exp in experiments}
        assert sorted(wall) == ["a", "b"]
        assert printed_tables(capsys.readouterr().out) == {
            "Stub a": "table of a", "Stub b": "table of b",
        }
        assert campaign_counts() == {
            "experiments": 2, "completed": 2, "failed": 0, "interrupted": 0,
        }

    def test_failed_experiment_does_not_stop_the_loop(self, tmp_path,
                                                       fresh_obs, capsys):
        def fail(exp):
            raise TaskExecutionError("retries exhausted")

        experiments = [
            _StubExperiment("a"),
            _StubExperiment("b", hook=fail),
            _StubExperiment("c"),
        ]
        code, results, wall = self._run(tmp_path, experiments)
        assert code == 1
        assert sorted(results) == ["a", "c"]
        assert sorted(wall) == ["a", "b", "c"]
        assert printed_tables(capsys.readouterr().out) == {
            "Stub a": "table of a", "Stub c": "table of c",
        }
        assert campaign_counts() == {
            "experiments": 3, "completed": 2, "failed": 1, "interrupted": 0,
        }

    def test_shutdown_stops_the_loop_and_a_rerun_completes(
        self, tmp_path, fresh_obs, capsys
    ):
        shutdown = ShutdownCoordinator()

        # The second experiment sees the signal while *running* (the
        # executor raises, exactly like a real mid-batch SIGINT): it
        # prints no table, and the third never starts.
        def interrupt(exp):
            shutdown.request("SIGINT")
            shutdown.check()

        experiments = [
            _StubExperiment("a"),
            _StubExperiment("b", hook=interrupt),
            _StubExperiment("c"),
        ]
        code, results, _ = self._run(
            tmp_path, experiments, shutdown=shutdown
        )
        assert code == SHUTDOWN_EXIT_CODE
        assert list(results) == ["a"]
        out = capsys.readouterr().out
        assert printed_tables(out) == {"Stub a": "table of a"}
        assert "interrupted by SIGINT; rerun the same command to resume" \
            in out
        assert experiments[2].runs == 0
        assert campaign_counts() == {
            "experiments": 2, "completed": 1, "failed": 0, "interrupted": 1,
        }
        assert "campaign.shutdown" in {
            event.name for event in current_tracer().events()
        }

        # The rerun is the resume: the same experiments, a fresh
        # coordinator, and every table prints.
        experiments[1]._hook = None
        code, results, _ = self._run(
            tmp_path, experiments, shutdown=ShutdownCoordinator()
        )
        assert code == 0
        assert list(results) == ["a", "b", "c"]
        assert sorted(printed_tables(capsys.readouterr().out)) == [
            "Stub a", "Stub b", "Stub c",
        ]

    def test_campaign_fault_stops_before_its_experiment(
        self, tmp_path, fresh_obs, capsys
    ):
        """``crash@campaign:1`` kills the loop before experiment 1
        starts: a's table has printed, b's has not, and a rerun without
        the fault completes."""
        experiments = [_StubExperiment("a"), _StubExperiment("b")]
        plan = FaultPlan.parse("crash@campaign:1")
        with pytest.raises(InjectedFaultError):
            self._run(tmp_path, experiments, faults=plan)
        assert printed_tables(capsys.readouterr().out) == {
            "Stub a": "table of a",
        }
        assert experiments[1].runs == 0
        assert campaign_counts()["completed"] == 1

        code, results, _ = self._run(tmp_path, experiments)
        assert code == 0 and list(results) == ["a", "b"]
        assert sorted(printed_tables(capsys.readouterr().out)) == [
            "Stub a", "Stub b",
        ]


# ---------------------------------------------------------------------------
# The CLI: a rerun resumes from the store.
# ---------------------------------------------------------------------------


#: A QUICK experiment among the cheapest to run cold: a baseline and
#: two CoLT-FA variants per simulation-environment scenario.
CLI_EXPERIMENT = "abl_fasize"

#: The CLI's result-store summary line.
_STORE_LINE = re.compile(r"^store: (\d+) hits, (\d+) misses", re.M)


@pytest.fixture
def restore_colt_logger():
    """The CLI points the ``colt`` logger at the test's captured stderr;
    restore it so later tests do not log into a closed stream."""
    logger = logging.getLogger(ROOT_LOGGER)
    handlers, level, propagate = logger.handlers[:], logger.level, \
        logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


class TestExperimentsCli:
    def test_rerun_is_all_store_hits(self, tmp_path, fresh_obs, monkeypatch,
                                     capsys, restore_colt_logger):
        monkeypatch.setenv(knobs.SCALE.name, "quick")
        monkeypatch.delenv(knobs.HISTORY.name, raising=False)
        cache = tmp_path / "cache"
        argv = [CLI_EXPERIMENT, "--jobs", "1", "--cache-dir", str(cache),
                "--quiet"]

        # --quiet hides the summary lines, never the tables.
        assert experiments_main(argv) == 0
        out = capsys.readouterr().out
        first = printed_tables(out)
        assert list(first) == [EXPERIMENTS[CLI_EXPERIMENT].title]
        assert _STORE_LINE.search(out) is None

        assert experiments_main(argv[:-1]) == 0
        out = capsys.readouterr().out
        assert printed_tables(out) == first
        hits, misses = map(int, _STORE_LINE.search(out).groups())
        assert misses == 0 and hits > 0

        # A plain run's history record carries its own counters: the
        # first run simulated, the rerun only hit the store.
        computed, rerun = load_history(history_path(cache))
        assert computed["counters"]["colt_mmu_accesses"] > 0
        assert computed["counters"]["colt_store_hits"] == 0
        assert computed["counters"]["colt_store_misses"] > 0
        assert rerun["counters"]["colt_store_hits"] == hits
        assert rerun["counters"].get("colt_mmu_accesses", 0) == 0

    def test_raising_run_appends_one_failed_record(
        self, tmp_path, fresh_obs, monkeypatch, capsys, restore_colt_logger
    ):
        """A run that ends on an exception still leaves its record."""
        monkeypatch.setenv(knobs.SCALE.name, "quick")
        monkeypatch.setenv(knobs.FAULTS.name, "crash@campaign:1")
        monkeypatch.delenv(knobs.HISTORY.name, raising=False)
        cache = tmp_path / "cache"
        with pytest.raises(InjectedFaultError):
            experiments_main([CLI_EXPERIMENT, "fig18", "--jobs", "1",
                              "--cache-dir", str(cache)])
        records = load_history(history_path(cache))
        assert [record["status"] for record in records] == ["failed"]
        assert records[0]["figure"] == f"{CLI_EXPERIMENT}+fig18"
        assert records[0]["counters"]["colt_campaign_completed"] == 1
        assert list(printed_tables(capsys.readouterr().out)) == [
            EXPERIMENTS[CLI_EXPERIMENT].title,
        ]

    def test_taken_port_restores_signal_handlers(
        self, tmp_path, fresh_obs, monkeypatch, restore_colt_logger
    ):
        """The telemetry server failing to bind must not leave the run's
        signal handlers installed."""
        monkeypatch.delenv(knobs.HISTORY.name, raising=False)
        before = signal.getsignal(signal.SIGINT), \
            signal.getsignal(signal.SIGTERM)
        cache = tmp_path / "cache"
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(OSError):
                experiments_main([CLI_EXPERIMENT, "--cache-dir", str(cache),
                                  "--telemetry-port", str(port)])
        assert (signal.getsignal(signal.SIGINT),
                signal.getsignal(signal.SIGTERM)) == before
        records = load_history(history_path(cache))
        assert [record["status"] for record in records] == ["failed"]

"""Campaigns: atomic writes, the experiment loop, shutdown.

The invariants pinned here are the robustness contract of
``repro.sim.campaign`` / ``repro.common.atomicio``:

* an artifact write killed at any point leaves the old file intact;
* the experiment loop dumps each finished table (only when a result
  store is attached), carries on past an experiment that failed
  permanently, and stops between experiments on a signal or an
  injected fault; rerunning the same experiments then completes;
* the first signal asks for a graceful stop, the second hard-aborts;
  a pooled wave it interrupts still yields every finished task first;
* rerunning a finished CLI run recomputes nothing: every simulation
  comes back from the store and the table dump is unchanged.
"""

import logging
import os
import re
import signal
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
from repro.experiments.__main__ import main as experiments_main
from repro.obs.history import history_path, load_history
from repro.obs.logging import ROOT_LOGGER
from repro.obs.trace import reset_tracing
from repro.obs.registry import set_registry
from repro.sim.campaign import (
    SHUTDOWN_EXIT_CODE,
    CampaignRunner,
    ShutdownCoordinator,
    campaign_fingerprint,
)
from repro.sim.faults import FaultPlan
from repro.sim.resilience import ResilientExecutor, TaskSpec
from repro.sim.runner import ExperimentRunner
from repro.sim.store import ResultStore


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

        base = campaign_fingerprint(FakeScale(), ["a", "b"])
        assert base == campaign_fingerprint(FakeScale(), ["a", "b"])
        assert base != campaign_fingerprint(FakeScale(2000), ["a", "b"])
        assert base != campaign_fingerprint(FakeScale(), ["a"])


# ---------------------------------------------------------------------------
# Shutdown coordinator.
# ---------------------------------------------------------------------------


#: The ``src`` directory, for child interpreters.
_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Child for the hard-abort test: installs the coordinator, reports the
#: first signal, then waits (bounded) for the second one to kill it.
_HARD_ABORT_CHILD = """
import time
from repro.sim.campaign import ShutdownCoordinator
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


def _sleepy(seconds, attempt):
    # Attempt 0 naps for ``seconds``; a retry returns at once.
    if attempt == 0:
        time.sleep(seconds)
    return attempt


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
# CampaignRunner over stub experiments (fast, deterministic).
# ---------------------------------------------------------------------------


class _StubResult:
    def __init__(self, text):
        self._text = text

    def format_table(self):
        return self._text


class _StubExperiment:
    def __init__(self, exp_id, hook=None):
        self.id = exp_id
        self.runs = 0
        self._hook = hook

    def run(self, scale, runner):
        self.runs += 1
        if self._hook is not None:
            self._hook(self)
        return _StubResult(f"table of {self.id}")


class TestCampaignRunner:
    def _campaign(self, tmp_path, experiments, with_store=True, **kwargs):
        store = ResultStore(tmp_path / "cache") if with_store else None
        runner = ExperimentRunner(jobs=1, store=store)
        return CampaignRunner(experiments, runner, scale=None, **kwargs)

    @staticmethod
    def _dumps(tmp_path):
        tables = tmp_path / "cache" / "campaign" / "tables"
        return sorted(path.name for path in tables.glob("*.txt"))

    def test_clean_run_journals_everything_done(self, tmp_path, fresh_obs):
        experiments = [_StubExperiment("a"), _StubExperiment("b")]
        status = self._campaign(tmp_path, experiments).run()
        assert status.ok
        assert status.completed == ["a", "b"]
        assert status.tables["a"] == "table of a"
        assert self._dumps(tmp_path) == ["a.txt", "b.txt"]
        assert (tmp_path / "cache" / "campaign" / "tables" /
                "a.txt").read_text() == "table of a\n"

    def test_storeless_run_writes_no_dump(self, tmp_path, fresh_obs):
        status = self._campaign(
            tmp_path, [_StubExperiment("a")], with_store=False
        ).run()
        assert status.ok and status.tables == {"a": "table of a"}
        assert list(tmp_path.iterdir()) == []

    def test_failed_experiment_does_not_stop_the_loop(self, tmp_path,
                                                       fresh_obs):
        def fail(exp):
            raise TaskExecutionError("retries exhausted")

        experiments = [
            _StubExperiment("a"),
            _StubExperiment("b", hook=fail),
            _StubExperiment("c"),
        ]
        seen = []
        status = self._campaign(
            tmp_path, experiments,
            on_experiment=lambda exp, table: seen.append((exp.id, table)),
        ).run()
        assert not status.ok
        assert status.completed == ["a", "c"]
        assert status.failed == ["b"]
        assert seen == [("a", "table of a"), ("b", None),
                        ("c", "table of c")]
        assert self._dumps(tmp_path) == ["a.txt", "c.txt"]

    def test_shutdown_mid_campaign_requeues_in_flight(self, tmp_path,
                                                      fresh_obs):
        shutdown = ShutdownCoordinator()

        # The second experiment sees the signal while *running* (the
        # executor raises, exactly like a real mid-batch SIGINT): it
        # leaves no dump, and the third never starts.
        def interrupt(exp):
            shutdown.request("SIGINT")
            shutdown.check()

        experiments = [
            _StubExperiment("a"),
            _StubExperiment("b", hook=interrupt),
            _StubExperiment("c"),
        ]
        status = self._campaign(
            tmp_path, experiments, shutdown=shutdown
        ).run()
        assert status.interrupted == "SIGINT"
        assert status.completed == ["a"]
        assert self._dumps(tmp_path) == ["a.txt"]
        assert experiments[2].runs == 0

        # The rerun is the resume: the same experiments, a fresh
        # coordinator, and every dump lands.
        experiments[1]._hook = None
        status2 = self._campaign(
            tmp_path, experiments, shutdown=ShutdownCoordinator()
        ).run()
        assert status2.ok
        assert status2.completed == ["a", "b", "c"]
        assert self._dumps(tmp_path) == ["a.txt", "b.txt", "c.txt"]

    def test_campaign_fault_leaves_running_entry_for_resume(
        self, tmp_path, fresh_obs
    ):
        """``crash@campaign:1`` kills the loop before experiment 1
        starts: a's dump has landed, b's has not, and a rerun without
        the fault completes."""
        experiments = [_StubExperiment("a"), _StubExperiment("b")]
        plan = FaultPlan.parse("crash@campaign:1")
        with pytest.raises(InjectedFaultError):
            self._campaign(tmp_path, experiments, faults=plan).run()
        assert self._dumps(tmp_path) == ["a.txt"]
        assert experiments[1].runs == 0

        status = self._campaign(tmp_path, experiments).run()
        assert status.ok and status.completed == ["a", "b"]
        assert self._dumps(tmp_path) == ["a.txt", "b.txt"]


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
        argv = [CLI_EXPERIMENT, "--jobs", "1", "--cache-dir", str(cache)]
        dump = cache / "campaign" / "tables" / f"{CLI_EXPERIMENT}.txt"

        assert experiments_main(argv) == 0
        first = dump.read_bytes()
        hits, misses = map(int, _STORE_LINE.search(
            capsys.readouterr().out).groups())
        assert misses > 0 and hits == 0

        assert experiments_main(argv) == 0
        assert dump.read_bytes() == first
        hits, misses = map(int, _STORE_LINE.search(
            capsys.readouterr().out).groups())
        assert misses == 0 and hits > 0

        # A plain run's history record carries its own counters: the
        # first run simulated, the rerun only hit the store.
        computed, rerun = load_history(history_path(cache))
        assert computed["counters"]["colt_mmu_accesses"] > 0
        assert rerun["counters"]["colt_store_hits"] == hits
        assert rerun["counters"].get("colt_mmu_accesses", 0) == 0

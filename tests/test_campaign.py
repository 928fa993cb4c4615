"""Campaigns: atomic writes, the WAL journal, shutdown, watchdogs.

The invariants pinned here are the robustness contract of
``repro.sim.campaign`` / ``repro.sim.watchdog`` /
``repro.common.atomicio``:

* an artifact write killed at any point leaves the old file intact;
* the journal is consistent at every kill point (write-ahead: mark
  -running precedes work, mark-done follows it);
* an interrupted campaign resumed from its journal completes
  bit-identically to an uninterrupted one;
* a stall fires a stack dump and requeues through the ordinary retry
  machinery; memory pressure climbs the degradation ladder.
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.common import knobs
from repro.common.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.common.errors import (
    CampaignError,
    InjectedFaultError,
    ShutdownRequested,
    StallError,
)
from repro.obs.trace import reset_tracing
from repro.obs.registry import set_registry
from repro.sim.campaign import (
    CAMPAIGN_VERSION,
    SHUTDOWN_EXIT_CODE,
    STATUS_DONE,
    STATUS_PENDING,
    STATUS_RUNNING,
    CampaignManifest,
    CampaignRunner,
    ShutdownCoordinator,
    campaign_fingerprint,
)
from repro.sim.faults import FaultPlan
from repro.sim.resilience import ResilientExecutor, RetryPolicy, TaskSpec
from repro.sim.watchdog import (
    DEGRADE_ABORT,
    DEGRADE_NO_PREFETCH,
    DEGRADE_NONE,
    DEGRADE_SHRINK_POOL,
    Watchdog,
)


@pytest.fixture
def obs_off(monkeypatch):
    monkeypatch.delenv(knobs.TRACE.name, raising=False)
    monkeypatch.delenv(knobs.PROFILE.name, raising=False)
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
# The write-ahead journal.
# ---------------------------------------------------------------------------


class TestCampaignManifest:
    def test_fresh_writes_all_pending(self, tmp_path):
        path = tmp_path / "campaign" / "manifest.json"
        manifest = CampaignManifest.fresh(path, ["a", "b"], "f" * 64)
        assert path.exists()
        assert manifest.pending_ids() == ["a", "b"]
        assert not manifest.is_complete()
        loaded = CampaignManifest.load(path)
        assert loaded.experiment_ids == ("a", "b")
        assert loaded.fingerprint == "f" * 64

    def test_transitions_journal_before_and_after(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.fresh(path, ["a", "b"], "fp")
        manifest.mark_running("a")
        # Kill point: reloading now must show 'a' in flight.
        assert CampaignManifest.load(path).status("a") == STATUS_RUNNING
        manifest.mark_done("a")
        manifest.mark_failed("b", "stack overflow of ambition")
        reloaded = CampaignManifest.load(path)
        assert reloaded.status("a") == STATUS_DONE
        assert reloaded.entries["b"]["error"].startswith("stack overflow")
        # failed entries are retried on resume; done ones are not.
        assert reloaded.pending_ids() == ["b"]
        assert reloaded.entries["a"]["attempts"] == 1

    def test_demote_running_requeues_in_flight_work(self, tmp_path):
        manifest = CampaignManifest.fresh(
            tmp_path / "m.json", ["a", "b", "c"], "fp"
        )
        manifest.mark_running("a")
        manifest.mark_done("a")
        manifest.mark_running("b")
        # The process dies here; resume repairs the journal.
        resumed = CampaignManifest.load(tmp_path / "m.json")
        assert resumed.demote_running() == ["b"]
        assert resumed.status("b") == STATUS_PENDING
        assert resumed.status("a") == STATUS_DONE
        assert resumed.demote_running() == []

    def test_load_rejects_missing_and_garbage(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign journal"):
            CampaignManifest.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(CampaignError, match="unreadable"):
            CampaignManifest.load(bad)

    def test_load_rejects_version_skew(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignManifest.fresh(path, ["a"], "fp")
        text = path.read_text().replace(
            f'"version": {CAMPAIGN_VERSION}', '"version": 999'
        )
        path.write_text(text)
        with pytest.raises(CampaignError, match="version"):
            CampaignManifest.load(path)

    def test_load_rejects_unknown_status(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignManifest.fresh(path, ["a"], "fp")
        path.write_text(
            path.read_text().replace('"pending"', '"exploded"')
        )
        with pytest.raises(CampaignError, match="unknown status"):
            CampaignManifest.load(path)

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

    def test_exit_code_is_distinct(self):
        assert SHUTDOWN_EXIT_CODE == 75
        assert SHUTDOWN_EXIT_CODE not in (0, 1, 2)
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGINT
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGTERM


# ---------------------------------------------------------------------------
# Watchdog: stalls, dumps, and the memory ladder.
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_from_env_none_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv("COLT_STALL_TIMEOUT", raising=False)
        monkeypatch.delenv("COLT_MEM_BUDGET", raising=False)
        assert Watchdog.from_env() is None
        monkeypatch.setenv("COLT_STALL_TIMEOUT", "30")
        dog = Watchdog.from_env()
        assert dog is not None and dog.stall_timeout_s == 30.0
        monkeypatch.setenv("COLT_STALL_TIMEOUT", "0")
        assert Watchdog.from_env() is None

    def test_stall_dumps_stacks_and_fires_once(self, tmp_path, obs_off):
        dog = Watchdog(
            stall_timeout_s=0.05, dump_dir=tmp_path, poll_interval_s=0.02
        )
        with dog:
            dog.begin_work()
            deadline = time.monotonic() + 5.0
            while not dog.consume_stall():
                assert time.monotonic() < deadline, "stall never fired"
                time.sleep(0.01)
            dog.end_work()
        assert dog.counters.as_dict()["stalls"] >= 1
        assert dog.last_dump_path is not None
        dump = dog.last_dump_path.read_text()
        assert "colt watchdog: stall" in dump
        # faulthandler wrote actual stack frames, not just the header.
        assert "File " in dump or "Thread " in dump

    def test_no_stall_when_idle_or_heartbeating(self, tmp_path, obs_off):
        dog = Watchdog(
            stall_timeout_s=0.08, dump_dir=tmp_path, poll_interval_s=0.02
        )
        with dog:
            time.sleep(0.2)          # idle: no work outstanding
            assert not dog.consume_stall()
            dog.begin_work()
            for _ in range(10):      # busy but beating
                dog.heartbeat()
                time.sleep(0.02)
            assert not dog.consume_stall()
            dog.end_work()

    def test_memory_ladder_climbs_to_abort(self, tmp_path, obs_off):
        rss = {"value": 10 * 1024 * 1024}
        dog = Watchdog(
            mem_budget_bytes=5 * 1024 * 1024,
            dump_dir=tmp_path,
            poll_interval_s=0.02,
            rss_fn=lambda: rss["value"],
        )
        assert dog.degradation == DEGRADE_NONE
        with dog:
            deadline = time.monotonic() + 5.0
            while not dog.should_abort():
                assert time.monotonic() < deadline, "ladder never topped"
                time.sleep(0.01)
        counts = dog.counters.as_dict()
        assert counts["pool_shrinks"] == 1
        assert counts["prefetch_disables"] == 1
        assert counts["budget_aborts"] == 1
        assert counts["mem_breaches"] >= 3
        assert dog.degradation == DEGRADE_ABORT

    def test_under_budget_stays_on_the_ground(self, tmp_path, obs_off):
        dog = Watchdog(
            mem_budget_bytes=100 * 1024 * 1024,
            dump_dir=tmp_path,
            poll_interval_s=0.02,
            rss_fn=lambda: 1024,
        )
        with dog:
            time.sleep(0.1)
        assert dog.degradation == DEGRADE_NONE
        assert not dog.should_abort()
        assert DEGRADE_SHRINK_POOL < DEGRADE_NO_PREFETCH < DEGRADE_ABORT


def _sleepy(seconds, attempt):
    # Attempt 0 sleeps long enough to stall; the retry returns fast.
    if attempt == 0:
        time.sleep(seconds)
    return attempt


class TestExecutorIntegration:
    def test_stall_requeues_through_retry_machinery(self, tmp_path,
                                                    obs_off):
        dog = Watchdog(
            stall_timeout_s=0.15, dump_dir=tmp_path, poll_interval_s=0.03
        )
        policy = RetryPolicy(max_retries=2, backoff_s=0.0)
        task = TaskSpec(
            fn=_sleepy, args=(20.0,), site="capture", index=0,
            context={"kind": "stall-victim"},
        )
        with dog, ResilientExecutor(
            jobs=2, policy=policy, watchdog=dog
        ) as executor:
            results = [r for _, r in executor.run([task])]
        # The stalled attempt 0 was abandoned; the retry (attempt 1)
        # returned immediately.
        assert results == [1]
        assert executor.counters.as_dict()["retries"] >= 1
        assert dog.counters.as_dict()["stalls"] >= 1
        assert dog.last_dump_path is not None

    def test_shutdown_interrupts_wave_and_raises(self, obs_off):
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


# ---------------------------------------------------------------------------
# CampaignRunner over a stub registry (fast, deterministic).
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


@pytest.fixture
def stub_registry(monkeypatch):
    experiments = {}

    def get_experiment(exp_id):
        return experiments[exp_id]

    monkeypatch.setattr(
        "repro.experiments.registry.get_experiment", get_experiment
    )
    return experiments


class TestCampaignRunner:
    def _campaign(self, tmp_path, ids, **kwargs):
        manifest = CampaignManifest.fresh(
            tmp_path / "manifest.json", ids, "fp"
        )
        return CampaignRunner(
            manifest, runner=None, scale=None,
            tables_dir=tmp_path / "tables", **kwargs
        )

    def test_clean_run_journals_everything_done(self, tmp_path, obs_off,
                                                stub_registry):
        stub_registry["a"] = _StubExperiment("a")
        stub_registry["b"] = _StubExperiment("b")
        campaign = self._campaign(tmp_path, ["a", "b"])
        status = campaign.run()
        assert status.ok
        assert status.completed == ["a", "b"]
        assert campaign.manifest.is_complete()
        assert (tmp_path / "tables" / "a.txt").read_text() == \
            "table of a\n"

    def test_resume_skips_done_and_reloads_tables(self, tmp_path, obs_off,
                                                  stub_registry):
        stub_registry["a"] = _StubExperiment("a")
        stub_registry["b"] = _StubExperiment("b")
        first = self._campaign(tmp_path, ["a", "b"])
        first.run()
        # Second run over the same journal: nothing recomputes.
        resumed = CampaignManifest.load(tmp_path / "manifest.json")
        campaign = CampaignRunner(
            resumed, runner=None, scale=None,
            tables_dir=tmp_path / "tables",
        )
        status = campaign.run()
        assert status.skipped == ["a", "b"]
        assert status.completed == []
        assert stub_registry["a"].runs == 1
        assert status.tables["a"] == "table of a\n"

    def test_resume_reruns_done_entry_missing_its_table(self, tmp_path,
                                                        obs_off,
                                                        stub_registry):
        stub_registry["a"] = _StubExperiment("a")
        stub_registry["b"] = _StubExperiment("b")
        self._campaign(tmp_path, ["a", "b"]).run()
        table_a = tmp_path / "tables" / "a.txt"
        table_a.unlink()
        # Journaled done, but the dump is gone: a is not done.
        resumed = CampaignManifest.load(tmp_path / "manifest.json")
        campaign = CampaignRunner(
            resumed, runner=None, scale=None,
            tables_dir=tmp_path / "tables",
        )
        status = campaign.run()
        assert status.ok
        assert status.completed == ["a"]
        assert status.skipped == ["b"]
        assert stub_registry["a"].runs == 2
        assert stub_registry["b"].runs == 1
        assert status.tables["a"] == "table of a"
        assert table_a.read_text() == "table of a\n"
        assert resumed.is_complete()

    def test_shutdown_mid_campaign_requeues_in_flight(self, tmp_path,
                                                      obs_off,
                                                      stub_registry):
        shutdown = ShutdownCoordinator()

        # The second experiment sees the signal while *running* (the
        # executor raises, exactly like a real mid-batch SIGINT): it
        # must be journaled back to pending, not lost or marked done.
        def interrupt(exp):
            shutdown.request("SIGINT")
            shutdown.check()

        stub_registry["a"] = _StubExperiment("a")
        stub_registry["b"] = _StubExperiment("b", hook=interrupt)
        stub_registry["c"] = _StubExperiment("c")
        campaign = self._campaign(
            tmp_path, ["a", "b", "c"], shutdown=shutdown
        )
        status = campaign.run()
        assert status.interrupted == "SIGINT"
        assert status.completed == ["a"]
        journal = CampaignManifest.load(tmp_path / "manifest.json")
        assert journal.status("a") == STATUS_DONE
        assert journal.status("b") == STATUS_PENDING
        assert journal.status("c") == STATUS_PENDING
        assert stub_registry["c"].runs == 0

        # Resume: only b and c run; the journal completes.
        shutdown2 = ShutdownCoordinator()
        stub_registry["b"]._hook = None
        campaign2 = CampaignRunner(
            journal, runner=None, scale=None,
            tables_dir=tmp_path / "tables", shutdown=shutdown2,
        )
        status2 = campaign2.run()
        assert status2.ok
        assert status2.completed == ["b", "c"]
        assert status2.skipped == ["a"]
        assert stub_registry["a"].runs == 1
        assert CampaignManifest.load(
            tmp_path / "manifest.json"
        ).is_complete()

    def test_campaign_fault_leaves_running_entry_for_resume(
        self, tmp_path, obs_off, stub_registry
    ):
        """``crash@campaign`` kills between mark-running and mark-done;
        the journal must say 'running' (rerun me), never 'done'."""
        stub_registry["a"] = _StubExperiment("a")
        stub_registry["b"] = _StubExperiment("b")
        plan = FaultPlan.parse("crash@campaign:1")
        campaign = self._campaign(tmp_path, ["a", "b"], faults=plan)
        with pytest.raises(InjectedFaultError):
            campaign.run()
        journal = CampaignManifest.load(tmp_path / "manifest.json")
        assert journal.status("a") == STATUS_DONE
        assert journal.status("b") == STATUS_RUNNING

        # Resume demotes the orphaned entry and finishes the campaign.
        assert journal.demote_running() == ["b"]
        campaign2 = CampaignRunner(
            journal, runner=None, scale=None,
            tables_dir=tmp_path / "tables",
        )
        status = campaign2.run()
        assert status.ok and status.completed == ["b"]
        assert journal.is_complete()

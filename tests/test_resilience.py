"""Fault injection, crash-tolerant execution, and the hardened store.

The backbone is the chaos matrix: a seeded ``COLT_FAULTS`` plan kills
workers, raises in tasks, blows deadlines or corrupts store writes,
and every recovered run must produce results *bit-identical* to the
fault-free baseline -- injected faults only delay or destroy work,
they never feed a number into a simulation.
"""

import pickle
import re
import time
from pathlib import Path

import pytest

from repro.common import knobs
from repro.common.errors import (
    ConfigurationError,
    InjectedFaultError,
    TaskExecutionError,
)
from repro.experiments.__main__ import run_experiments
from repro.obs.report import RunReport
from repro.obs.trace import reset_tracing
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.faults import (
    EXECUTION_KINDS,
    STORE_KINDS,
    FaultPlan,
    corrupt_bytes,
)
from repro.sim.resilience import (
    BACKOFF_S,
    ResilientExecutor,
    RetryPolicy,
    TaskSpec,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.store import (
    QUARANTINE_DIR,
    STORE_MAGIC,
    ResultStore,
    frame_payload,
    unframe_payload,
)
from repro.sim.system import SimulationConfig, simulate


@pytest.fixture
def fresh_obs():
    """Fresh obs state (tracer and registry) around the test."""
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


#: One scenario group, four designs: 1 capture task, 2 replay chunks
#: at jobs=2 -- small enough for a parametrised matrix, structured
#: enough to give every fault site a target.
CHAOS_CONFIG = SimulationConfig(
    benchmark="gobmk",
    kernel=KernelConfig(num_frames=4096),
    accesses=1500,
    scale=0.1,
    seed=11,
    aging=SIMULATION_AGING,
    churn_every=48,
)


def _fired(kind):
    """How many ``kind`` faults this process's registry has counted."""
    entry = get_registry().snapshot().get("colt_faults_injected")
    return sum(
        sample["value"] for sample in (entry["series"] if entry else ())
        if sample["labels"]["kind"] == kind
    )


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference results for ``CHAOS_CONFIG``'s design set."""
    reset_tracing()
    set_registry(None)
    runner = ExperimentRunner(jobs=1, policy=RetryPolicy(max_retries=0))
    return runner.run_designs(CHAOS_CONFIG)


@pytest.fixture(scope="module")
def sim_pair():
    """One small real (config, result) pair for store round-trips."""
    config = CHAOS_CONFIG.with_updates(accesses=600)
    return config, simulate(config)


# ---------------------------------------------------------------------------
# Fault plan grammar and firing.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_render_round_trip(self):
        text = (
            "crash@capture:0;raise@replay:1,3x2;"
            "delay@replay:0/0.5;torn@store.write:2"
        )
        assert FaultPlan.parse(text).render() == text

    def test_campaign_site_parses_and_fires_in_parent(self, fresh_obs):
        # ``campaign`` faults always fire in the coordinating process,
        # so even ``crash`` demotes to a catchable exception -- the
        # chaos test kills the campaign loop, not the test runner.
        plan = FaultPlan.parse("crash@campaign:1")
        plan.fire("campaign", 0, 0)  # wrong index: no-op
        with pytest.raises(InjectedFaultError):
            plan.fire("campaign", 1, 0)
        assert _fired("crash") == 1

    @pytest.mark.parametrize("bad, message", [
        pytest.param(bad, message, id=bad) for bad, message in [
            ("nonsense", "cannot parse fault spec"),
            ("raise@capture", "cannot parse fault spec"),  # no index
            ("explode@capture:0", "unknown fault kind"),
            # Execution kinds at the store site, store kinds at a task
            # site: each message names the sites the kind may target.
            ("raise@store.write:0", "task sites"),
            ("crash@store.write:0", "task sites"),
            ("torn@capture:0", "'store.write'"),
            ("raise@capture:0x0", "times must be >= 1"),
            ("raise@boot:0", "task sites"),  # unknown site
            # The deleted worker fleet's kind and journal site. Split
            # literals, so a grep for the retired names finds none.
            ("worker-" "lost@dist:0", "cannot parse fault spec"),
            ("torn@dist." "journal:0", "'store.write'"),
            ("torn@dist:0", "targets 'store.write'"),
        ]
    ])
    def test_parse_rejects(self, bad, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            FaultPlan.parse(bad)

    def test_unknown_kind_lists_vocabulary(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FaultPlan.parse("explode@capture:0")
        for kind in EXECUTION_KINDS + STORE_KINDS:
            assert kind in str(excinfo.value)

    def test_fault_times_exhaustion_at_same_site(self, fresh_obs):
        plan = FaultPlan.parse("raise@capture:0x2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFaultError):
                plan.fire("capture", 0, attempt)
        # Attempt 2 exhausts x2: the site goes quiet, forever.
        plan.fire("capture", 0, 2)
        plan.fire("capture", 0, 3)
        assert _fired("raise") == 2

    def test_overlapping_specs_first_wins(self):
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:0")
        # Both specs parse; precedence is declaration order, every time.
        assert [spec.kind for spec in plan.specs] == ["torn", "corrupt"]
        assert plan.corruption(0) == "torn"
        assert plan.corruption(0) == "torn"

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(knobs.FAULTS.name, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(knobs.FAULTS.name, "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(knobs.FAULTS.name, "raise@capture:0")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.render() == "raise@capture:0"

    def test_fire_matches_site_index_attempt(self, fresh_obs):
        plan = FaultPlan.parse("raise@capture:0")
        plan.fire("capture", 1, 0)   # wrong index: no-op
        plan.fire("replay", 0, 0)    # wrong site: no-op
        plan.fire("capture", 0, 1)   # attempt past times: escaped
        with pytest.raises(InjectedFaultError):
            plan.fire("capture", 0, 0)
        assert _fired("raise") == 1

    def test_crash_in_parent_degrades_to_exception(self, fresh_obs):
        # Fired from the pid that built the plan (serial execution):
        # a hard exit would kill the experiment, so it raises instead.
        plan = FaultPlan.parse("crash@capture:0")
        with pytest.raises(InjectedFaultError):
            plan.fire("capture", 0, 0)
        assert _fired("crash") == 1

    def test_delay_sleeps_then_continues(self, fresh_obs):
        plan = FaultPlan.parse("delay@replay:0/0.01")
        started = time.monotonic()
        plan.fire("replay", 0, 0)
        assert time.monotonic() - started >= 0.01
        assert _fired("delay") == 1

    def test_corruption_schedule(self):
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:2")
        assert plan.corruption(0) == "torn"
        assert plan.corruption(1) is None
        assert plan.corruption(2) == "corrupt"

    def test_corrupt_bytes(self):
        data = b"x" * 64
        assert corrupt_bytes(data, "torn") == b"x" * 32
        flipped = corrupt_bytes(data, "corrupt")
        assert len(flipped) == 64 and flipped != data
        with pytest.raises(ConfigurationError):
            corrupt_bytes(data, "sparkle")

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("crash@capture:0;torn@store.write:1")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.render() == plan.render()


class TestRetryPolicy:
    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy()
        assert BACKOFF_S == pytest.approx(0.05)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.2)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(knobs.RETRIES.name, "5")
        monkeypatch.setenv(knobs.TASK_TIMEOUT.name, "12.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.timeout_s == pytest.approx(12.5)
        monkeypatch.setenv(knobs.TASK_TIMEOUT.name, "0")
        assert RetryPolicy.from_env().timeout_s is None


# ---------------------------------------------------------------------------
# Store framing.
# ---------------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        payload = b"payload bytes" * 100
        frame = frame_payload(payload)
        assert frame.startswith(STORE_MAGIC)
        assert unframe_payload(frame) == payload

    def test_rejects_unframed(self):
        with pytest.raises(ValueError, match="magic"):
            unframe_payload(pickle.dumps({"unframed": True}))

    def test_rejects_bit_flip(self):
        frame = frame_payload(b"payload bytes" * 100)
        with pytest.raises(ValueError):
            unframe_payload(corrupt_bytes(frame, "corrupt"))

    def test_rejects_truncation(self):
        frame = frame_payload(b"payload bytes" * 100)
        with pytest.raises(ValueError):
            unframe_payload(corrupt_bytes(frame, "torn"))
        with pytest.raises(ValueError):
            unframe_payload(frame[:20])  # shorter than the header


# ---------------------------------------------------------------------------
# Hardened store: quarantine, degrade, fault-driven corruption.
# ---------------------------------------------------------------------------


class TestHardenedStore:
    def test_save_load_round_trip_is_framed(self, tmp_path, fresh_obs,
                                            sim_pair):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        (entry,) = store.root.glob("*.pkl")
        assert entry.read_bytes().startswith(STORE_MAGIC)
        assert ResultStore(tmp_path / "cache").load(config) == result

    @pytest.mark.parametrize("mutate, exc_counter", [
        (
            lambda blob: frame_payload(b"complete garbage"),
            "corrupt_unpicklingerror",
        ),
        (lambda blob: b"complete garbage", "corrupt_valueerror"),
        (lambda blob: corrupt_bytes(blob, "corrupt"), "corrupt_valueerror"),
        (lambda blob: corrupt_bytes(blob, "torn"), "corrupt_valueerror"),
        # A raw pickle of the right result: no frame, no load.
        (lambda blob: blob[len(STORE_MAGIC) + 40:], "corrupt_valueerror"),
        (
            lambda blob: frame_payload(b"cmissing_mod\nMissingClass\n."),
            "corrupt_modulenotfounderror",
        ),
    ])
    def test_undecodable_entry_is_quarantined(self, tmp_path, fresh_obs,
                                              sim_pair, mutate, exc_counter):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        path = store._path(config)
        path.write_bytes(mutate(path.read_bytes()))
        assert store.load(config) is None
        counts = store.counters.as_dict()
        assert counts["quarantines"] == 1
        assert counts[exc_counter] == 1
        assert not path.exists()
        assert (store.root / QUARANTINE_DIR / path.name).exists()
        # Quarantined entries are invisible to the live store.
        assert len(store) == 0

    def test_unwritable_root_degrades_to_storeless(self, tmp_path,
                                                   monkeypatch, fresh_obs,
                                                   sim_pair):
        config, result = sim_pair
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        store = ResultStore(blocker / "cache")
        assert store.disabled
        store.save(config, result)       # no-op, no raise
        assert store.load(config) is None
        assert len(store) == 0
        assert store.clear() == 0
        monkeypatch.setenv(knobs.RESULT_CACHE.name, str(blocker / "cache"))
        assert ResultStore.from_env() is None

    def test_write_faults_corrupt_scheduled_entries(self, tmp_path,
                                                    fresh_obs, sim_pair):
        config, result = sim_pair
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:1")
        store = ResultStore(tmp_path / "cache", faults=plan)
        victim_a = config.with_updates(seed=777)
        victim_b = config.with_updates(seed=778)
        store.save(victim_a, result)     # write 0: torn
        store.save(victim_b, result)     # write 1: bit-flipped
        store.save(config, result)       # write 2: intact
        assert {kind: _fired(kind) for kind in EXECUTION_KINDS + STORE_KINDS} == {
            "crash": 0, "raise": 0, "delay": 0, "torn": 1, "corrupt": 1,
        }
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.load(victim_a) is None
        assert fresh.load(victim_b) is None
        assert fresh.load(config) == result
        counts = fresh.counters.as_dict()
        assert counts["quarantines"] == 2
        assert counts["hits"] == 1

    def test_clear_purges_quarantine_too(self, tmp_path, fresh_obs, sim_pair):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        store._path(config).write_bytes(b"junk")
        assert store.load(config) is None
        store.save(config, result)
        assert store.clear() == 2  # one live entry + one quarantined
        assert len(store) == 0
        assert not list((store.root / QUARANTINE_DIR).glob("*.pkl"))


# ---------------------------------------------------------------------------
# ResilientExecutor unit behaviour (synthetic picklable tasks).
# ---------------------------------------------------------------------------


def _double(value):
    return value * 2


def _always_fail(value):
    raise ValueError("never works")


def _task(fn, value, index, site="capture"):
    return TaskSpec(
        fn=fn, args=(value,), site=site, index=index,
        context={"value": value},
    )


def _dumps():
    return list(Path(knobs.DUMP_DIR.text()).glob("task-*.txt"))


class TestResilientExecutor:
    """Attempt-dependent behaviour comes from a fault plan, which the
    executor fires before each attempt, in the parent or the worker."""

    def test_serial_yields_in_order(self):
        with ResilientExecutor(jobs=1) as executor:
            results = [
                result
                for _, result in executor.run(
                    [_task(_double, v, i) for i, v in enumerate((1, 2, 3))]
                )
            ]
        assert results == [2, 4, 6]

    def test_serial_retry_recovers(self, fresh_obs):
        policy = RetryPolicy(max_retries=2)
        plan = FaultPlan.parse("raise@capture:0")
        with ResilientExecutor(jobs=1, policy=policy,
                               faults=plan) as executor:
            results = [r for _, r in executor.run([_task(_double, 7, 0)])]
        assert results == [14]
        counts = executor.counters.as_dict()
        assert counts["retries"] == 1
        assert counts["task_errors"] == 1
        assert _fired("raise") == 1

    def test_exhaustion_yields_survivors_then_raises(self):
        policy = RetryPolicy(max_retries=1)
        tasks = [_task(_always_fail, 0, 0), _task(_double, 21, 1)]
        received = []
        with ResilientExecutor(jobs=1, policy=policy) as executor:
            with pytest.raises(TaskExecutionError) as exc_info:
                for _, result in executor.run(tasks):
                    received.append(result)
        assert received == [42]
        assert exc_info.value.context == {"value": 0}
        assert "capture task 0" in str(exc_info.value)

    def test_pool_deadline_triggers_retry(self):
        policy = RetryPolicy(max_retries=2, timeout_s=0.2)
        plan = FaultPlan.parse("delay@capture:0/0.8")
        with ResilientExecutor(jobs=2, policy=policy,
                               faults=plan) as executor:
            results = [r for _, r in executor.run([_task(_double, 9, 0)])]
        assert results == [18]
        counts = executor.counters.as_dict()
        assert counts["timeouts"] >= 1
        assert counts["retries"] >= 1
        # The worker armed its dump before the fault fired, so the dump
        # shows the blown attempt stuck in the delay; the prompt retry
        # left no dump.
        dumps = _dumps()
        assert len(dumps) == 1
        assert re.search(r'File ".*sim[/\\]faults\.py", line \d+ in fire',
                         dumps[0].read_text())

    def test_pool_deadline_met_leaves_no_dump(self):
        policy = RetryPolicy(max_retries=0, timeout_s=30.0)
        tasks = [_task(_double, v, i) for i, v in enumerate((1, 2, 3))]
        with ResilientExecutor(jobs=2, policy=policy) as executor:
            results = sorted(r for _, r in executor.run(tasks))
        assert results == [2, 4, 6]
        assert not _dumps()


# ---------------------------------------------------------------------------
# Chaos matrix: faulted runs == fault-free baseline, bit for bit.
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("plan_text", [
        pytest.param("crash@capture:0", id="worker-crash"),
        pytest.param("raise@capture:0", id="capture-exception"),
        pytest.param("raise@replay:0;raise@replay:1", id="replay-exceptions"),
        pytest.param("delay@replay:0/1.0", id="deadline-blown"),
    ])
    def test_faulted_run_matches_baseline(self, fresh_obs, baseline,
                                          plan_text):
        policy = RetryPolicy(
            max_retries=3,
            timeout_s=0.25 if "delay" in plan_text else None,
        )
        plan = FaultPlan.parse(plan_text)
        runner = ExperimentRunner(jobs=2, policy=policy, faults=plan)
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        counts = runner.resilience_counters.as_dict()
        assert counts["retries"] >= 1
        summary = RunReport.build([], get_registry().snapshot()).summary_lines()
        assert any(line.startswith("resilience: ") for line in summary)

    def test_worker_side_faults_reach_the_summary(self, fresh_obs, baseline):
        """Faults fired in pool workers are counted in the parent: each
        worker's count rides back with its task result."""
        plan = FaultPlan.parse("delay@capture:0/0.01;delay@replay:1/0.01")
        runner = ExperimentRunner(
            jobs=2, policy=RetryPolicy(max_retries=0), faults=plan,
        )
        assert runner.run_designs(CHAOS_CONFIG) == baseline
        assert _fired("delay") == 2
        summary = RunReport.build([], get_registry().snapshot()).summary_lines()
        assert "resilience: 2 faults_injected" in summary

    def test_double_crash_rebuilds_then_downgrades(self, fresh_obs, baseline):
        plan = FaultPlan.parse("crash@capture:0x2")
        runner = ExperimentRunner(
            jobs=2,
            policy=RetryPolicy(max_retries=3),
            faults=plan,
        )
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        counts = runner.resilience_counters.as_dict()
        assert counts["pool_rebuilds"] == 1
        assert counts["serial_downgrades"] == 1
        assert counts["retries"] == 2

    def test_retry_exhaustion_names_the_config(self, fresh_obs):
        plan = FaultPlan.parse("raise@capture:0x99")
        runner = ExperimentRunner(
            jobs=1,
            policy=RetryPolicy(max_retries=1),
            faults=plan,
        )
        with pytest.raises(TaskExecutionError) as exc_info:
            runner.run_designs(CHAOS_CONFIG)
        assert "gobmk" in str(exc_info.value)
        assert exc_info.value.context["benchmark"] == "gobmk"
        assert exc_info.value.context["seed"] == 11

    def test_partial_batch_checkpoints_then_resumes(self, tmp_path, fresh_obs,
                                                    baseline):
        store = ResultStore(tmp_path / "cache")
        plan = FaultPlan.parse("raise@replay:1x99")
        runner = ExperimentRunner(
            jobs=2, store=store,
            policy=RetryPolicy(max_retries=0),
            faults=plan,
        )
        with pytest.raises(TaskExecutionError):
            runner.run_designs(CHAOS_CONFIG)
        # The surviving replay chunk checkpointed before the raise.
        assert len(store) >= 1
        resume_store = ResultStore(tmp_path / "cache")
        resume = ExperimentRunner(jobs=2, store=resume_store)
        assert resume.run_designs(CHAOS_CONFIG) == baseline
        assert resume_store.counters.as_dict()["hits"] >= 1

    def test_campaign_crash_then_resume_matches_baseline(
        self, tmp_path, fresh_obs, baseline, capsys
    ):
        """``crash@campaign:1``: die before the second experiment, rerun
        the same experiments, and end bit-identical to the fault-free
        baseline with the first experiment's simulations served from
        the store."""
        captured = {}

        class _ChaosExperiment:
            def __init__(self, exp_id):
                self.id = self.title = exp_id

            def run(self, scale, runner):
                captured[self.id] = runner.run_designs(CHAOS_CONFIG)

                class _Table:
                    @staticmethod
                    def format_table():
                        return f"chaos {self.id}"

                return _Table()

        def printed():
            """The titles of the printed tables, each with its table."""
            return re.findall(r"^=== (\w+) \(\d+\.\ds\) ===\nchaos \1$",
                              capsys.readouterr().out, re.M)

        experiments = [_ChaosExperiment("first"), _ChaosExperiment("second")]
        with pytest.raises(InjectedFaultError):
            run_experiments(
                experiments, None,
                ExperimentRunner(
                    jobs=2, store=ResultStore(tmp_path / "cache")
                ),
                {}, {}, faults=FaultPlan.parse("crash@campaign:1"),
            )
        assert printed() == ["first"]
        assert list(captured) == ["first"]

        captured.clear()
        set_registry(MetricsRegistry())
        rerun_store = ResultStore(tmp_path / "cache")
        results = {}
        code = run_experiments(
            experiments, None,
            ExperimentRunner(jobs=2, store=rerun_store), results, {},
        )
        assert code == 0 and list(results) == ["first", "second"]
        assert printed() == ["first", "second"]
        assert captured == {"first": baseline, "second": baseline}
        counts = rerun_store.counters.as_dict()
        assert counts["hits"] >= 1 and counts["misses"] == 0
        snapshot = get_registry().snapshot()
        assert snapshot.counter_total("colt_campaign_completed") == 2
        assert snapshot.counter_total("colt_campaign_failed") == 0

    def test_serial_crash_demotes_to_recoverable_exception(self, fresh_obs,
                                                           baseline):
        plan = FaultPlan.parse("crash@capture:0")
        runner = ExperimentRunner(
            jobs=1,
            policy=RetryPolicy(max_retries=2),
            faults=plan,
        )
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        assert _fired("crash") == 1
        assert runner.resilience_counters.as_dict()["retries"] == 1

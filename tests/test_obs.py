"""Tests for repro.obs: registry, tracer, exporters, report, and what
every run records."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.statistics import CounterSet
from repro.obs.export import (
    chrome_trace_dict,
    parse_chrome_trace,
    span_names,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
    read_metrics_json,
)
from repro.obs.hooks import drain_worker_obs, reset_worker_obs
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    bind_counterset,
    get_registry,
    set_registry,
)
from repro.obs.report import RunReport
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    current_tracer,
    reset_tracing,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.store import ResultStore
from repro.sim.system import SimulationConfig
from repro.core.mmu import CoLTDesign
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING


@pytest.fixture
def fresh_obs():
    """An empty process tracer and registry around the test."""
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


def _small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.COLT_ALL,
        kernel=KernelConfig(num_frames=4096),
        accesses=2000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_labels_independent_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("colt_test_events")
        counter.inc(design="colt_sa")
        counter.inc(2, design="colt_fa")
        counter.inc(design="colt_sa")
        assert counter.value(design="colt_sa") == 2
        assert counter.value(design="colt_fa") == 2
        assert counter.value(design="unknown") == 0
        snapshot = registry.snapshot()
        assert snapshot.counter_total("colt_test_events") == 4

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("colt_test_events")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("colt_test_metric")
        with pytest.raises(ConfigurationError):
            registry.histogram("colt_test_metric")

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("colt_x") is registry.counter("colt_x")

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("colt_runs", buckets=(1, 4, 8))
        for value in (1, 2, 5, 8, 100):
            hist.observe(value, design="colt_all")
        state = hist.state(design="colt_all")
        assert state.count == 5
        assert state.sum == 116
        # <=1, <=4, <=8, +inf
        assert state.counts == [1, 1, 2, 1]

    def test_snapshot_reset_drains(self):
        registry = MetricsRegistry()
        registry.counter("colt_n").inc(3)
        first = registry.snapshot(reset=True)
        assert first.counter_total("colt_n") == 3
        assert registry.snapshot().counter_total("colt_n") == 0

    def test_merge_snapshot_sums_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("colt_n").inc(2, design="a")
        worker.histogram("colt_h", buckets=(2, 4)).observe(3)
        parent = MetricsRegistry()
        parent.counter("colt_n").inc(1, design="a")
        parent.histogram("colt_h", buckets=(2, 4)).observe(1)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()
        assert merged.counter_total("colt_n") == 3
        series = merged.get("colt_h")["series"]
        assert series[0]["count"] == 2
        assert series[0]["sum"] == 4

    def test_bound_counterset_sampled_lazily(self):
        registry = MetricsRegistry()
        counters = CounterSet(["hits", "misses"])
        bind_counterset(registry, "colt_thing", counters, design="a")
        counters.increment("hits", 5)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("colt_thing_hits") == 5
        assert snapshot.counter_total("colt_thing_misses") == 0

    def test_bound_counterset_outlives_owner_until_reset(self):
        # Simulator components are short-lived (one MMU per replay):
        # the binding must keep reporting after the owner's last local
        # reference dies, and a reset drain must release it.
        registry = MetricsRegistry()
        counters = CounterSet(["hits"])
        bind_counterset(registry, "colt_gone", counters)
        counters.increment("hits")
        del counters
        assert registry.snapshot().counter_total("colt_gone_hits") == 1
        registry.snapshot(reset=True)
        assert registry.snapshot().counter_total("colt_gone_hits") == 0

    def test_bound_counterset_multiple_instances_sum(self):
        registry = MetricsRegistry()
        first, second = CounterSet(["hits"]), CounterSet(["hits"])
        bind_counterset(registry, "colt_multi", first)
        bind_counterset(registry, "colt_multi", second)
        first.increment("hits", 2)
        second.increment("hits", 3)
        assert registry.snapshot().counter_total("colt_multi_hits") == 5

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("colt_n", unit="events").inc(7, design="x")
        registry.histogram("colt_h").observe(3)
        snapshot = registry.snapshot()
        recovered = MetricsSnapshot.from_json_dict(
            json.loads(json.dumps(snapshot.to_json_dict()))
        )
        assert recovered.instruments == snapshot.instruments

    def test_snapshot_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json_dict({"schema": "nope"})


# ---------------------------------------------------------------------------
# Tracer + exporters.
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_records_complete_event_with_args(self):
        tracer = Tracer(capacity=16)
        with tracer.span("capture", cat="phase", benchmark="mcf") as args:
            args["rows"] = 42
        (event,) = tracer.events()
        assert event.ph == "X"
        assert event.name == "capture"
        assert event.dur_us >= 0
        assert event.args == {"benchmark": "mcf", "rows": 42}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            with tracer.span("e", index=index):
                pass
        assert tracer.dropped == 3
        assert [e.args["index"] for e in tracer.events()] == [3, 4]

    def test_drain_clears(self):
        tracer = Tracer(capacity=8)
        with tracer.span("e"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.events() == []

    def test_reset_installs_an_empty_process_tracer(self, fresh_obs):
        with current_tracer().span("e"):
            pass
        assert len(current_tracer()) == 1
        tracer = reset_tracing()
        assert current_tracer() is tracer
        assert tracer.events() == []


class TestChromeExport:
    def _sample_events(self):
        tracer = Tracer(capacity=64)
        with tracer.span("replay", cat="phase", design="colt_all"):
            with tracer.span("store.put", cat="store"):
                pass
        return tracer.events()

    def test_round_trip_identity(self):
        events = self._sample_events()
        data = json.loads(json.dumps(chrome_trace_dict(events)))
        recovered = parse_chrome_trace(data)
        assert recovered == events

    def test_file_round_trip(self, tmp_path):
        events = self._sample_events()
        path = write_chrome_trace(tmp_path / "trace.json", events)
        assert parse_chrome_trace(path) == events

    def test_validate_accepts_own_output(self):
        data = chrome_trace_dict(self._sample_events())
        assert validate_chrome_trace(data) == []

    def test_validate_rejects_defects(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad_ph = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]}
        assert any("ph" in p for p in validate_chrome_trace(bad_ph))
        no_dur = {
            "traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 0.0}]
        }
        assert any("dur" in p for p in validate_chrome_trace(no_dur))

    def test_span_names_counts_complete_spans(self):
        names = span_names(self._sample_events())
        assert names == {"replay": 1, "store.put": 1}

    def test_metrics_json_and_csv(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("colt_n").inc(2, design="a")
        registry.histogram("colt_h").observe(3)
        snapshot = registry.snapshot()
        path = write_metrics_json(tmp_path / "metrics.json", snapshot)
        assert read_metrics_json(path).instruments == snapshot.instruments


# ---------------------------------------------------------------------------
# Worker hand-off.
# ---------------------------------------------------------------------------


class TestWorkerHandoff:
    def test_drain_resets_both_sinks(self, fresh_obs):
        with current_tracer().span("e"):
            pass
        get_registry().counter("colt_n").inc(4)
        payload = drain_worker_obs()
        assert len(payload.events) == 1
        assert payload.metrics.counter_total("colt_n") == 4
        second = drain_worker_obs()
        assert second.events == []
        assert second.metrics.counter_total("colt_n") == 0

    def test_reset_worker_obs_drops_inherited_state(self, fresh_obs):
        with current_tracer().span("inherited"):
            pass
        get_registry().counter("colt_n").inc(1)
        reset_worker_obs()
        assert current_tracer().events() == []
        assert get_registry().snapshot().counter_total("colt_n") == 0


# ---------------------------------------------------------------------------
# What every run records. (That recording never changes results is
# guarded by the pinned references of tests/test_engine.py.)
# ---------------------------------------------------------------------------


class TestTracedDeterminism:
    def test_traced_run_emits_phase_spans_and_instruments(self, fresh_obs):
        config = _small_config()
        runner = ExperimentRunner(jobs=1)
        runner.run_batch(
            [config, config.with_updates(design=CoLTDesign.BASELINE)]
        )
        events = runner.trace_events()
        assert {event.ph for event in events} == {"X"}
        names = span_names(events)
        for required in ("capture", "replay", "runner.run_batch",
                         "kernel.boot", "trace.generate", "capture.finish",
                         "contiguity.scan", "prefix.pickle"):
            assert names.get(required), f"missing span {required!r}"
        snapshot = get_registry().snapshot()
        assert len(snapshot) >= 15
        assert "colt_coalesce_run_length" in snapshot
        assert snapshot.counter_total("colt_mmu_l1_misses") > 0
        assert snapshot.counter_total("colt_kernel_faults") > 0
        # Both configs share one capture of 2000 accesses.
        assert snapshot.counter_total("colt_capture_accesses") == 2000
        assert 0 < snapshot.counter_total("colt_capture_records_computed") < 2000


# ---------------------------------------------------------------------------
# Store counters + runner summary.
# ---------------------------------------------------------------------------


class TestStoreObservability:
    def test_cold_miss_then_warm_hit(self, tmp_path, fresh_obs):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        cold = ExperimentRunner(jobs=1, store=store)
        cold.run_batch([config])
        counts = store.counters.as_dict()
        assert counts["hits"] == 0
        assert counts["misses"] == 1
        assert counts["evictions"] == 0
        assert counts["saves"] == 1
        assert counts["quarantines"] == 0
        warm = ExperimentRunner(jobs=1, store=store)
        warm.run_batch([config])
        counts = store.counters.as_dict()
        assert counts["hits"] == 1
        summary = warm.store_summary()
        assert summary["hit_ratio"] == pytest.approx(0.5)

    def test_torn_entry_is_quarantined(self, tmp_path, fresh_obs):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        runner = ExperimentRunner(jobs=1, store=store)
        runner.run_batch([config])
        (entry,) = list(store.root.glob("*.pkl"))
        entry.write_bytes(b"torn")
        assert store.load(config) is None
        counts = store.counters.as_dict()
        assert counts["quarantines"] == 1
        assert not entry.exists()
        assert (store.root / "quarantine" / entry.name).exists()

    def test_store_summary_none_without_store(self, fresh_obs):
        assert ExperimentRunner(jobs=1).store_summary() is None

    def test_traced_store_spans(self, tmp_path, fresh_obs):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        runner = ExperimentRunner(jobs=1, store=store)
        runner.run_batch([config])
        names = span_names(runner.trace_events())
        assert names.get("store.get") == 1
        assert names.get("store.put") == 1


# ---------------------------------------------------------------------------
# Report.
# ---------------------------------------------------------------------------


class TestRunReport:
    def test_report_aggregates_run(self, fresh_obs):
        config = _small_config(accesses=3000)
        runner = ExperimentRunner(jobs=1)
        runner.run_batch([config])
        snapshot = get_registry().snapshot()
        report = RunReport.build(runner.trace_events(), snapshot)
        rendered = report.render()
        assert report.wall_ms > 0
        assert any(p.name == "capture" for p in report.phases)
        assert "colt_all" in report.coalescing
        assert report.instrument_count >= 15
        assert "phase wall-time" in rendered
        assert "coalescing run lengths" in rendered

    def test_report_renders_store_resilience_campaign(self):
        registry = MetricsRegistry()
        for name in (
            "colt_store_hits", "colt_store_misses", "colt_store_saves",
            "colt_resilience_retries", "colt_store_quarantines",
            "colt_faults_injected", "colt_campaign_completed",
        ):
            registry.counter(name).inc(2)
        rendered = RunReport.build([], registry.snapshot()).render()
        assert "\nstore: 2 hits, 2 misses" in rendered
        assert "resilience: 2 retries, 2 quarantines, " \
            "2 faults_injected" in rendered
        assert "campaign: 2 completed" in rendered

    def test_phases_ranked_by_self_time(self):
        def event(name, pid, ts, dur):
            return TraceEvent(name=name, cat="phase", ph="X", ts_us=ts,
                              dur_us=dur, pid=pid, tid=0)

        events = [
            # pid 1: run [0, 1000) holds capture [100, 400), which holds
            # boot [100, 150), and replay [500, 900).
            event("run", 1, 0.0, 1000.0),
            event("capture", 1, 100.0, 300.0),
            event("boot", 1, 100.0, 50.0),
            event("replay", 1, 500.0, 400.0),
            # pid 2 overlaps pid 1 in time but nests only in itself.
            event("capture", 2, 50.0, 600.0),
            event("boot", 2, 60.0, 100.0),
        ]
        report = RunReport.build(events)
        phases = {p.name: p for p in report.phases}
        assert phases["run"].self_ms == pytest.approx(0.3)
        assert phases["capture"].self_ms == pytest.approx(0.25 + 0.5)
        assert phases["capture"].total_ms == pytest.approx(0.9)
        assert phases["boot"].self_ms == pytest.approx(0.15)
        assert phases["replay"].self_ms == pytest.approx(0.4)
        assert [p.name for p in report.phases] == [
            "capture", "replay", "run", "boot",
        ]

    def test_summary_lines_are_the_rendered_ones(self):
        registry = MetricsRegistry()
        registry.counter("colt_store_hits").inc(3)
        registry.counter("colt_store_misses").inc(1)
        registry.counter("colt_faults_injected").inc(2, kind="raise")
        report = RunReport.build([], registry.snapshot())
        assert report.summary_lines() == [
            "store: 3 hits, 1 misses, 0 evictions, 0 saves (75% hit ratio)",
            "resilience: 2 faults_injected",
        ]
        for line in report.summary_lines():
            assert "\n" + line + "\n" in report.render()

    def test_report_empty_inputs(self):
        report = RunReport.build([], None)
        assert report.wall_ms == 0.0
        assert "0 events" in report.render()

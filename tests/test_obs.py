"""Tests for repro.obs: registry, tracer, exporters, report, and what
every run records."""

import json
import os
import re

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
from repro.obs.hooks import (
    ObsPayload,
    absorb_worker_obs,
    drain_worker_obs,
    reset_worker_obs,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
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


def _values(snapshot, name):
    """A counter's value per label set (as a sorted item tuple)."""
    return {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in snapshot.get(name)["series"]
    }


class TestRegistry:
    def test_counter_labels_independent_series(self):
        registry = MetricsRegistry()
        registry.add("colt_test_events", design="colt_sa")
        registry.add("colt_test_events", 2, design="colt_fa")
        registry.add("colt_test_events", design="colt_sa")
        snapshot = registry.snapshot()
        assert _values(snapshot, "colt_test_events") == {
            (("design", "colt_sa"),): 2,
            (("design", "colt_fa"),): 2,
        }
        assert snapshot.counter_total("colt_test_events") == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().add("colt_test_events", -1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.add("colt_test_metric")
        with pytest.raises(ConfigurationError):
            registry.observe("colt_test_metric", 1)

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        for value in (1, 2, 5, 8, 100):
            registry.observe("colt_runs", value, design="colt_all")
        (state,) = registry.snapshot().get("colt_runs")["series"]
        assert state["labels"] == {"design": "colt_all"}
        assert state["count"] == 5
        assert state["sum"] == 116
        assert state["buckets"] == list(DEFAULT_BUCKETS)
        # <=1, <=2, <=3, <=4, <=6, <=8, <=16, <=64, <=256, <=1024, +inf
        assert state["counts"] == [1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0]

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.observe("colt_h", 3)
        first = registry.snapshot()
        registry.observe("colt_h", 3)
        assert first.get("colt_h")["series"][0]["count"] == 1
        assert registry.snapshot().get("colt_h")["series"][0]["count"] == 2

    def test_snapshot_reset_drains(self):
        registry = MetricsRegistry()
        registry.add("colt_n", 3)
        first = registry.snapshot(reset=True)
        assert first.counter_total("colt_n") == 3
        assert registry.snapshot().counter_total("colt_n") == 0

    def test_merge_snapshot_sums_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.add("colt_n", 2, design="a")
        worker.observe("colt_h", 3)
        parent = MetricsRegistry()
        parent.add("colt_n", 1, design="a")
        parent.observe("colt_h", 1)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()
        assert merged.counter_total("colt_n") == 3
        series = merged.get("colt_h")["series"]
        assert series[0]["count"] == 2
        assert series[0]["sum"] == 4
        assert series[0]["counts"] == [1, 0, 1] + [0] * 8

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
        registry.add("colt_n", 7, unit="events", design="x")
        registry.observe("colt_h", 3)
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

    def test_absorbed_events_share_the_bounded_buffer(self):
        worker = Tracer(capacity=8)
        for index in range(3):
            with worker.span("w", index=index):
                pass
        tracer = Tracer(capacity=4)
        for index in range(2):
            with tracer.span("p", index=index):
                pass
        tracer.absorb(worker.drain(), dropped=5)
        # One parent event pushed out, plus the worker's own five.
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events()] == ["p", "w", "w", "w"]

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
        # A str path, whatever its suffix, is a path, never JSON text.
        other = write_chrome_trace(tmp_path / "run.trace", events)
        assert parse_chrome_trace(str(other)) == events

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
        registry.add("colt_n", 2, design="a")
        registry.observe("colt_h", 3)
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
        get_registry().add("colt_n", 4)
        payload = drain_worker_obs()
        assert len(payload.events) == 1
        assert payload.metrics.counter_total("colt_n") == 4
        second = drain_worker_obs()
        assert second.events == []
        assert second.metrics.counter_total("colt_n") == 0

    def test_reset_worker_obs_drops_inherited_state(self, fresh_obs):
        with current_tracer().span("inherited"):
            pass
        get_registry().add("colt_n", 1)
        reset_worker_obs()
        assert current_tracer().events() == []
        assert get_registry().snapshot().counter_total("colt_n") == 0

    def test_absorb_folds_a_payload_into_this_process(self, fresh_obs):
        worker = Tracer(capacity=8)
        with worker.span("capture"):
            pass
        metrics = MetricsRegistry()
        metrics.add("colt_n", 2)
        get_registry().add("colt_n", 1)
        absorb_worker_obs(ObsPayload(
            events=worker.drain(), metrics=metrics.snapshot(),
            dropped_events=3,
        ))
        assert span_names(current_tracer().events()) == {"capture": 1}
        assert current_tracer().dropped == 3
        assert get_registry().snapshot().counter_total("colt_n") == 3


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
        events = current_tracer().events()
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


class TestPooledObservability:
    """A pooled batch reports what a serial one does: the executor folds
    each worker's spans and metrics into this process's tracer and
    registry."""

    SIMULATED = re.compile(r"colt_(buddy|capture|compaction|kernel|mmu|thp)_")
    SPANS = ("capture", "capture.finish", "contiguity.scan", "replay")

    def _observe(self, jobs):
        reset_tracing()
        set_registry(None)
        ExperimentRunner(jobs=jobs).run_batch([
            _small_config(benchmark=benchmark, design=design)
            for benchmark in ("gobmk", "povray")
            for design in (CoLTDesign.BASELINE, CoLTDesign.COLT_ALL)
        ])
        snapshot = get_registry().snapshot()
        counters = {
            name: snapshot.counter_total(name)
            for name in snapshot.instruments if self.SIMULATED.match(name)
        }
        run_lengths = sorted(
            json.dumps(series, sort_keys=True)
            for series in snapshot.get("colt_coalesce_run_length")["series"]
        )
        events = current_tracer().events()
        names = span_names(events)
        spans = {name: names.get(name, 0) for name in self.SPANS}
        foreign = any(event.pid != os.getpid() for event in events)
        return counters, run_lengths, spans, foreign

    def test_pooled_batch_reports_what_a_serial_one_does(self, fresh_obs):
        counters, run_lengths, spans, foreign = self._observe(jobs=1)
        assert not foreign
        assert spans == {"capture": 2, "capture.finish": 2,
                         "contiguity.scan": 2, "replay": 4}
        assert counters["colt_mmu_accesses"] == 4 * 2000
        assert len(run_lengths) == 2  # one series per design
        pooled = self._observe(jobs=2)
        assert pooled[3], "no span came from a pool worker"
        assert pooled[0] == counters
        assert pooled[1] == run_lengths
        assert pooled[2] == spans


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
        names = span_names(current_tracer().events())
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
        report = RunReport.build(current_tracer().events(), snapshot)
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
            registry.add(name, 2)
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
        registry.add("colt_store_hits", 3)
        registry.add("colt_store_misses", 1)
        registry.add("colt_faults_injected", 2, kind="raise")
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

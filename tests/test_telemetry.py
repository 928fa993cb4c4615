"""Tests for the live telemetry plane (repro.obs.serve).

Covers the Prometheus text exposition (round-tripped through a tiny
text-format parser written here), label-value escaping, the histogram
bucket-mismatch merge rejection, the HTTP endpoints, and the headline
guarantee: an experiment served concurrently by ``/metrics`` polling
stays bit-identical to an unserved run.
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.registry import get_experiment
from repro.experiments.scale import ExperimentScale
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    set_registry,
)
from repro.obs.serve import (
    TelemetryServer,
    prometheus_text,
    telemetry_port_from_env,
)
from repro.obs.trace import reset_tracing
from repro.sim.runner import ExperimentRunner


@pytest.fixture
def fresh_obs():
    """Fresh obs state (tracer and registry) around the test."""
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


# ---------------------------------------------------------------------------
# A tiny Prometheus text-format parser (the test's independent reader).
# ---------------------------------------------------------------------------


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                out.append(ch + nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> dict:
    labels = {}
    rest = text
    while rest:
        name, rest = rest.split("=", 1)
        assert rest.startswith('"')
        # Find the closing unescaped quote.
        i, escaped = 1, False
        while True:
            if rest[i] == "\\" and not escaped:
                escaped = True
            elif rest[i] == '"' and not escaped:
                break
            else:
                escaped = False
            i += 1
        labels[name.strip()] = _unescape_label(rest[1:i])
        rest = rest[i + 1:].lstrip(",")
    return labels


def parse_prometheus(text: str) -> dict:
    """``{metric_name: {"type": ..., "samples": [(labels, value)]}}``."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            out.setdefault(name, {"type": kind, "samples": []})
            continue
        if line.startswith("#"):
            continue
        name_part, value_part = line.rsplit(None, 1)
        if "{" in name_part:
            name, label_text = name_part.split("{", 1)
            assert label_text.endswith("}")
            labels = _parse_labels(label_text[:-1])
        else:
            name, labels = name_part, {}
        value = float("inf") if value_part == "+Inf" else float(value_part)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in out:
                base = name[: -len(suffix)]
                break
        out.setdefault(base, {"type": "untyped", "samples": []})
        out[base]["samples"].append((name, labels, value))
    return out


# ---------------------------------------------------------------------------
# Exposition format.
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_counter_round_trip(self):
        registry = MetricsRegistry()
        registry.add("colt_hits", 7, help="hits", design="colt_sa")
        registry.add("colt_hits", 3, design="colt_fa")
        parsed = parse_prometheus(prometheus_text(registry.snapshot()))

        assert parsed["colt_hits"]["type"] == "counter"
        samples = {
            labels.get("design"): value
            for _, labels, value in parsed["colt_hits"]["samples"]
        }
        assert samples == {"colt_sa": 7.0, "colt_fa": 3.0}

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        for value in (0.5, 2, 3, 100):
            registry.observe("colt_runs", value)
        parsed = parse_prometheus(prometheus_text(registry.snapshot()))

        assert parsed["colt_runs"]["type"] == "histogram"
        by_name = {}
        for name, labels, value in parsed["colt_runs"]["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        buckets = {
            labels["le"]: value for labels, value in by_name["colt_runs_bucket"]
        }
        # Cumulative: <=1 holds 1, <=2 holds 2, <=3 to <=64 hold 3,
        # <=256 and above hold all 4.
        assert buckets == {
            "1": 1.0, "2": 2.0, "3": 3.0, "4": 3.0, "6": 3.0, "8": 3.0,
            "16": 3.0, "64": 3.0, "256": 4.0, "1024": 4.0, "+Inf": 4.0,
        }
        assert by_name["colt_runs_count"][0][1] == 4.0
        assert by_name["colt_runs_sum"][0][1] == pytest.approx(105.5)

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        registry.add("colt_esc", 1, path=nasty)
        text = prometheus_text(registry.snapshot())
        assert "\n" in nasty  # the raw newline must not survive literally
        payload_lines = [
            line for line in text.splitlines() if line.startswith("colt_esc{")
        ]
        assert len(payload_lines) == 1  # newline was escaped, not emitted
        parsed = parse_prometheus(text)
        (_, labels, value), = parsed["colt_esc"]["samples"]
        assert labels["path"] == nasty
        assert value == 1.0

    def test_help_line_escapes_newlines(self):
        registry = MetricsRegistry()
        registry.add("colt_h", 1, help="line1\nline2")
        text = prometheus_text(registry.snapshot())
        assert "# HELP colt_h line1\\nline2" in text

    def test_integral_floats_render_without_decimal(self):
        registry = MetricsRegistry()
        registry.add("colt_n", 3)
        assert "colt_n 3\n" in prometheus_text(registry.snapshot())


# ---------------------------------------------------------------------------
# Histogram merge validation (the silent-misalignment fix).
# ---------------------------------------------------------------------------


class TestHistogramMergeValidation:
    def _snapshot_with_buckets(self, buckets, counts):
        return MetricsSnapshot(instruments={
            "colt_lat": {
                "kind": "histogram", "help": "", "unit": "",
                "series": [{
                    "labels": {}, "count": sum(counts), "sum": 1.0,
                    "buckets": list(buckets), "counts": list(counts),
                }],
            },
        })

    def test_merge_rejects_differing_bucket_bounds(self):
        registry = MetricsRegistry()
        registry.observe("colt_lat", 1)
        foreign = self._snapshot_with_buckets((5, 10), [1, 0, 0])
        with pytest.raises(ConfigurationError, match="bucket bounds"):
            registry.merge_snapshot(foreign)

    def test_merge_rejects_foreign_buckets_even_for_new_series(self):
        # The silent-misalignment case the fix targets: the histogram
        # exists with its own bounds, the incoming label set is new, and
        # pre-fix the foreign series was inserted verbatim.
        registry = MetricsRegistry()
        registry.observe("colt_lat", 1, design="a")
        foreign = MetricsSnapshot(instruments={
            "colt_lat": {
                "kind": "histogram", "help": "", "unit": "",
                "series": [{
                    "labels": {"design": "b"}, "count": 1, "sum": 7.0,
                    "buckets": [5, 10], "counts": [0, 1, 0],
                }],
            },
        })
        with pytest.raises(ConfigurationError, match="colt_lat"):
            registry.merge_snapshot(foreign)

    def test_merge_accepts_matching_buckets_and_sums(self):
        registry = MetricsRegistry()
        registry.observe("colt_lat", 1)
        incoming = self._snapshot_with_buckets(
            DEFAULT_BUCKETS, [0, 1] + [0] * (len(DEFAULT_BUCKETS) - 1)
        )
        registry.merge_snapshot(incoming)
        (state,) = registry.snapshot().get("colt_lat")["series"]
        assert state["count"] == 2
        assert state["counts"] == [1, 1] + [0] * (len(DEFAULT_BUCKETS) - 1)


# ---------------------------------------------------------------------------
# HTTP endpoints.
# ---------------------------------------------------------------------------


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return response.status, response.read().decode("utf-8")


class TestTelemetryServer:
    def test_endpoints(self, fresh_obs):
        registry = MetricsRegistry()
        registry.add("colt_pings", 5)
        set_registry(registry)
        server = TelemetryServer(0)
        port = server.start()
        try:
            status, body = _get(port, "/healthz")
            assert (status, body) == (200, "ok\n")

            status, body = _get(port, "/metrics")
            assert status == 200
            parsed = parse_prometheus(body)
            assert parsed["colt_pings"]["samples"][0][2] == 5.0

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_stop_is_idempotent_and_releases_port(self, fresh_obs):
        server = TelemetryServer(0)
        port = server.start()
        assert server.running and server.port == port
        server.stop()
        server.stop()
        assert not server.running and server.port is None
        with pytest.raises(urllib.error.URLError):
            _get(port, "/healthz")

    def test_port_env_parsing(self, monkeypatch):
        monkeypatch.delenv("COLT_TELEMETRY_PORT", raising=False)
        assert telemetry_port_from_env() is None
        monkeypatch.setenv("COLT_TELEMETRY_PORT", "9177")
        assert telemetry_port_from_env() == 9177
        monkeypatch.setenv("COLT_TELEMETRY_PORT", "nope")
        with pytest.raises(ConfigurationError):
            telemetry_port_from_env()
        monkeypatch.setenv("COLT_TELEMETRY_PORT", "70000")
        with pytest.raises(ConfigurationError):
            telemetry_port_from_env()


# ---------------------------------------------------------------------------
# Served-vs-unserved bit-identity.
# ---------------------------------------------------------------------------


_TINY = ExperimentScale(
    accesses=2_000,
    num_frames=1 << 13,
    footprint_scale=0.2,
    benchmarks=("mcf", "astar"),
)


def _run_tiny_fig18(poll_port=None):
    """fig18 at the tiny scale; returns its table text."""
    runner = ExperimentRunner(jobs=1, store=None)

    polls = 0
    stop = threading.Event()

    def hammer():
        nonlocal polls
        while not stop.is_set():
            status, body = _get(poll_port, "/metrics")
            assert status == 200
            parse_prometheus(body)  # must stay parseable mid-run
            polls += 1

    poller = None
    if poll_port is not None:
        poller = threading.Thread(target=hammer, daemon=True)
        poller.start()
    try:
        table = get_experiment("fig18").run(_TINY, runner).format_table()
    finally:
        stop.set()
        if poller is not None:
            poller.join(timeout=10)
    if poll_port is not None:
        assert polls > 0
    return table


class TestServedBitIdentity:
    def test_metrics_polling_does_not_perturb_campaign(self, fresh_obs):
        server = TelemetryServer(0)
        port = server.start()
        try:
            served = _run_tiny_fig18(poll_port=port)
        finally:
            server.stop()
        # Fresh obs state for the unserved control run.
        reset_tracing()
        set_registry(None)
        unserved = _run_tiny_fig18()
        assert served == unserved

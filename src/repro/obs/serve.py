"""HTTP telemetry endpoint: ``/metrics`` and ``/healthz``.

Opt-in live observability for long runs (``COLT_TELEMETRY_PORT`` or
``--telemetry-port``): a stdlib :class:`http.server.ThreadingHTTPServer`
on a daemon thread, bound to ``127.0.0.1``, serves

* ``/metrics`` -- the process-local :class:`~repro.obs.registry.MetricsRegistry`
  rendered in Prometheus text exposition format (counters and
  cumulative histogram buckets). The ``colt_campaign_*`` counters are
  the experiment loop's progress;
* ``/healthz`` -- liveness.

The server is strictly read-only: ``/metrics`` takes a non-resetting
registry snapshot under the registry's internal lock (the same
serialisation ``merge_snapshot`` uses when the executor folds worker
results in). Nothing here can perturb simulation state, so a served
run stays bit-identical to an unserved one -- CI asserts exactly that.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional, Tuple

from repro.common import knobs
from repro.common.errors import ConfigurationError
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsSnapshot, get_registry

_LOG = get_logger(__name__)


def telemetry_port_from_env() -> Optional[int]:
    """Parse ``COLT_TELEMETRY_PORT``; ``None`` when unset/empty."""
    port = knobs.TELEMETRY_PORT.integer()
    if port is not None and not 0 <= port <= 65535:
        raise ConfigurationError(
            f"{knobs.TELEMETRY_PORT.name} must be in [0, 65535], got {port}"
        )
    return port


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """``3`` not ``3.0`` for integral values; ``repr`` otherwise."""
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels_text(
    labels: Mapping[str, object],
    extra: Optional[Tuple[str, str]] = None,
) -> str:
    """``{k="v",...}`` (empty string for no labels)."""
    pairs = [
        (str(k), str(v)) for k, v in sorted(labels.items(), key=lambda i: i[0])
    ]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters render one line per label set; histograms
    render cumulative ``_bucket{le=...}`` lines (with the implicit
    ``+Inf`` bucket) plus ``_sum`` and ``_count``, matching the
    Prometheus client-library convention.
    """
    lines = []
    for name in sorted(snapshot.instruments):
        entry = snapshot.instruments[name]
        kind = entry.get("kind", "untyped")
        if kind not in ("counter", "histogram"):
            kind = "untyped"
        help_text = entry.get("help") or ""
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry.get("series", []):
            labels = sample.get("labels", {})
            if kind == "histogram" and "buckets" in sample:
                cumulative = 0
                bounds = [float(b) for b in sample["buckets"]]
                bounds.append(float("inf"))
                for bound, count in zip(bounds, sample["counts"]):
                    cumulative += count
                    le = _labels_text(labels, ("le", _format_value(bound)))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                labels_text = _labels_text(labels)
                lines.append(
                    f"{name}_sum{labels_text} {_format_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{labels_text} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} "
                    f"{_format_value(sample.get('value', 0))}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The server.
# ---------------------------------------------------------------------------


class TelemetryServer:
    """Read-only telemetry HTTP server on a daemon thread.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` returns
    the bound port either way. :meth:`stop` shuts the listener down and
    joins the serving thread, so signal-driven teardown (the exit-75
    path) leaves no socket behind.
    """

    def __init__(self, port: int) -> None:
        self._requested_port = port
        self._lock = threading.Lock()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        with self._lock:
            server = self._server
        return server.server_address[1] if server is not None else None

    @property
    def running(self) -> bool:
        with self._lock:
            return self._server is not None

    def start(self) -> int:
        handler = self._make_handler()
        server = ThreadingHTTPServer(
            ("127.0.0.1", self._requested_port), handler
        )
        server.daemon_threads = True
        thread = threading.Thread(
            target=server.serve_forever,
            name="colt-telemetry",
            daemon=True,
        )
        with self._lock:
            if self._server is not None:
                server.server_close()
                raise ConfigurationError("telemetry server already started")
            self._server = server
            self._thread = thread
        thread.start()
        port = server.server_address[1]
        _LOG.info("telemetry endpoint listening on http://127.0.0.1:%d", port)
        return port

    def stop(self) -> None:
        """Stop serving and join the thread (idempotent)."""
        with self._lock:
            server = self._server
            thread = self._thread
            self._server = None
            self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        if server is not None:
            _LOG.info("telemetry endpoint stopped")

    # -- payloads -------------------------------------------------------

    def _metrics_payload(self) -> bytes:
        return prometheus_text(get_registry().snapshot()).encode("utf-8")

    # -- request handling ----------------------------------------------

    def _make_handler(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            server_version = "colt-telemetry/1"

            def do_GET(self):  # noqa: N802 - stdlib naming
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                try:
                    if path == "/healthz":
                        self._reply(200, b"ok\n", "text/plain; charset=utf-8")
                    elif path == "/metrics":
                        self._reply(
                            200,
                            outer._metrics_payload(),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    else:
                        self._reply(
                            404,
                            b"not found: try /metrics /healthz\n",
                            "text/plain; charset=utf-8",
                        )
                except BrokenPipeError:
                    pass
                except Exception:  # pragma: no cover - defensive
                    _LOG.exception("telemetry request failed: %s", self.path)
                    try:
                        self._reply(
                            500,
                            b"internal error\n",
                            "text/plain; charset=utf-8",
                        )
                    except OSError:
                        pass

            def _reply(self, code: int, body: bytes, content_type: str):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):  # quiet: route to logger
                _LOG.debug("telemetry http: %s", fmt % args)

        return Handler

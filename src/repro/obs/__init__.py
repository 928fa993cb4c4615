"""repro.obs: unified telemetry across the OS/TLB/runner stack.

One subsystem, four pieces (see DESIGN.md section 6):

* :mod:`repro.obs.registry` -- metrics registry (counters, gauges,
  histograms with labels); components bind their ``CounterSet``s via
  zero-hot-path-cost collectors.
* :mod:`repro.obs.trace` -- ring-buffered structured tracer (spans for
  boot/capture/replay/store/compaction, sampled per-access TLB
  events), gated by ``COLT_TRACE`` like the sanitizers' gate.
* :mod:`repro.obs.export` -- Chrome/Perfetto trace-event JSON, metrics
  JSON/CSV.
* :mod:`repro.obs.report` -- the human :class:`RunReport` (per-phase
  wall-time, worker utilisation, store hit ratio, coalescing
  histograms, buddy fragmentation timeline).

The telemetry plane (DESIGN.md section 11) builds on those:

* :mod:`repro.obs.live` -- thread-safe :class:`ProgressTracker`
  blackboard the experiment loop and runner publish into;
* :mod:`repro.obs.serve` -- opt-in HTTP endpoint (``/metrics`` in
  Prometheus text format, ``/progress`` JSON, ``/healthz``);
* :mod:`repro.obs.history` -- persistent ``colt-history-v1`` run
  records with trend/diff/regression-gate helpers
  (``tools/obs_history.py``).

Observability never mutates simulator state: a traced run's
``SimulationResult``s are bit-identical to an untraced run's, and with
everything disabled the hooks cost one ``is None`` check each.
"""

from repro.obs.hooks import (
    KernelObserver,
    MMUObserver,
    ObsPayload,
    drain_worker_obs,
    reset_worker_obs,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_record,
    build_record,
    history_path,
    load_history,
)
from repro.obs.live import ProgressTracker, get_progress, reset_progress
from repro.obs.logging import configure_logging, get_logger
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    bind_counterset,
    get_registry,
    set_registry,
)
from repro.obs.report import RunReport
from repro.obs.serve import (
    TelemetryServer,
    prometheus_text,
    telemetry_port_from_env,
)
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    obs_active,
    reset_tracing,
    span,
    tracing_requested,
)

__all__ = [
    "Counter",
    "Gauge",
    "HISTORY_SCHEMA",
    "Histogram",
    "KernelObserver",
    "MMUObserver",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsPayload",
    "ProgressTracker",
    "RunReport",
    "TelemetryServer",
    "TraceEvent",
    "Tracer",
    "append_record",
    "bind_counterset",
    "build_record",
    "configure_logging",
    "current_tracer",
    "disable_tracing",
    "drain_worker_obs",
    "enable_tracing",
    "get_logger",
    "get_progress",
    "get_registry",
    "history_path",
    "load_history",
    "obs_active",
    "prometheus_text",
    "reset_progress",
    "reset_tracing",
    "reset_worker_obs",
    "set_registry",
    "span",
    "telemetry_port_from_env",
    "tracing_requested",
]

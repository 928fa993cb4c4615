"""repro.obs: unified telemetry across the OS/TLB/runner stack.

One subsystem, four pieces (see DESIGN.md section 6):

* :mod:`repro.obs.registry` -- metrics registry (counters, gauges,
  histograms with labels); components bind their ``CounterSet``s via
  zero-hot-path-cost collectors.
* :mod:`repro.obs.trace` -- ring-buffered structured tracer (spans for
  boot/capture/replay/store/compaction, sampled per-access TLB
  events), gated by ``COLT_TRACE`` like the sanitizers' gate.
* :mod:`repro.obs.export` -- Chrome/Perfetto trace-event JSON and
  metrics JSON.
* :mod:`repro.obs.report` -- the human
  :class:`~repro.obs.report.RunReport` (per-phase
  wall-time, worker utilisation, store hit ratio, coalescing
  histograms, buddy fragmentation timeline).

The telemetry plane (DESIGN.md section 11) builds on those:

* :mod:`repro.obs.live` -- thread-safe
  :class:`~repro.obs.live.ProgressTracker` blackboard the experiment loop and runner publish into;
* :mod:`repro.obs.serve` -- opt-in HTTP endpoint (``/metrics`` in
  Prometheus text format, ``/progress`` JSON, ``/healthz``);
* :mod:`repro.obs.history` -- persistent ``colt-history-v1`` run
  records with trend/diff/regression-gate helpers
  (``tools/obs_history.py``).

Observability never mutates simulator state: a traced run's
``SimulationResult``s are bit-identical to an untraced run's, and with
everything disabled the hooks cost one ``is None`` check each.
"""

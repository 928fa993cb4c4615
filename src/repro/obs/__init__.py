"""repro.obs: unified telemetry across the OS/TLB/runner stack.

One subsystem, five pieces (see DESIGN.md section 6):

* :mod:`repro.obs.registry` -- metrics registry (counters and
  histograms with labels), stored in the ``colt-metrics-v1`` snapshot
  format it reports; components bind their ``CounterSet``s via
  zero-hot-path-cost collectors when they are built.
* :mod:`repro.obs.trace` -- bounded structured tracer (spans for
  boot/capture/replay/store/compaction).
* :mod:`repro.obs.export` -- Chrome/Perfetto trace-event JSON and
  metrics JSON.
* :mod:`repro.obs.report` -- the human
  :class:`~repro.obs.report.RunReport` (per-phase self time, worker
  utilisation, store hit ratio, resilience, coalescing histograms).
* :mod:`repro.obs.hooks` -- the pool-worker hand-off of spans and
  metrics, which ``repro.sim.resilience``'s executor performs: a
  worker's share lands in the parent's one tracer and registry.

The telemetry plane (DESIGN.md section 11) builds on those:

* :mod:`repro.obs.serve` -- opt-in HTTP endpoint (``/metrics`` in
  Prometheus text format, ``/healthz``); the experiment loop's
  ``colt_campaign_*`` counters there are a run's live progress;
* :mod:`repro.obs.history` -- persistent ``colt-history-v1`` run
  records with trend/diff/regression-gate helpers
  (``tools/obs_history.py``).

Every run records its spans and metrics; there is no mode to switch.
Observability never mutates simulator state: the pinned reference
results (``tests/fixtures/replay_reference.json``) were computed with
observability off and still match.
"""

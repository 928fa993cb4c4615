"""The single declarative registry of the repo's named surfaces.

Everything that crosses a process, module, or tooling boundary by
*name* is declared here once: ``COLT_*``/``REPRO_*`` environment knobs,
metric instruments and ``bind_counterset`` prefixes, fault-injection
sites, and trace span/instant/counter-track names. The registry-
coherence pass extracts the same names from the AST and diffs the two
directions:

* a name used in code but absent here is an **undeclared** finding --
  someone grew a surface without registering (and documenting) it;
* a name declared here but absent from its consumer module is a
  **dead** finding -- the knob/metric/span was removed or renamed and
  the registry (and docs generated from it) went stale.

``colt-analyze --write-docs`` renders the knob table below into
DESIGN.md / README.md, so this module is also the source of truth for
user-facing documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class EnvKnob:
    """One environment variable read by the repo."""

    name: str
    default: str
    consumer: str  # repo-relative module that reads it
    cli_flag: Optional[str]
    description: str


@dataclass(frozen=True)
class MetricDecl:
    """One metric instrument, or a ``bind_counterset`` name prefix.

    ``reported`` declares whether the human run-report
    (``repro/obs/report.py``) is expected to read it; instruments that
    only ship in ``metrics.json`` snapshots set it to False with the
    reason in ``description``.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "counterset-prefix"
    module: str  # repo-relative module that emits it
    reported: bool
    description: str


@dataclass(frozen=True)
class SpanDecl:
    """One trace event name: span, instant, counter track, or prefix."""

    name: str
    kind: str  # "span" | "instant" | "counter-track" | "span-prefix"
    module: str
    description: str


@dataclass(frozen=True)
class FaultSiteDecl:
    """One fault-injection site (``kind@site:index`` grammar)."""

    name: str
    module: str  # repo-relative module that fires it
    description: str


KNOBS: Tuple[EnvKnob, ...] = (
    EnvKnob(
        "COLT_SANITIZE", "off", "repro/analysis/sanitizers.py", None,
        "enable every runtime sanitizer (TLB/page-table/buddy "
        "cross-checks) during simulation",
    ),
    EnvKnob(
        "COLT_SANITIZE_EVERY", "4096", "repro/analysis/sanitizers.py", None,
        "events between full-structure sanitizer scans",
    ),
    EnvKnob(
        "COLT_TRACE", "off", "repro/obs/trace.py", "--trace",
        "enable the in-process tracer (Chrome-trace event ring)",
    ),
    EnvKnob(
        "COLT_TRACE_BUFFER", "262144", "repro/obs/trace.py", None,
        "trace ring-buffer capacity, in events",
    ),
    EnvKnob(
        "COLT_TRACE_SAMPLE", "64", "repro/obs/trace.py", None,
        "keep every Nth high-rate instant event (TLB instants)",
    ),
    EnvKnob(
        "COLT_PROFILE", "off", "repro/obs/trace.py", "--profile",
        "metrics registry + snapshots without full tracing",
    ),
    EnvKnob(
        "COLT_RESULT_CACHE", ".colt-cache", "repro/sim/store.py",
        "--cache-dir / --no-cache",
        "result-store root; empty or '0' disables the store",
    ),
    EnvKnob(
        "COLT_FAULTS", "(unset)", "repro/sim/faults.py", None,
        "fault-injection plan, ';'-separated kind@site:index clauses",
    ),
    EnvKnob(
        "COLT_RETRIES", "2", "repro/sim/resilience.py", "--retries",
        "resubmissions allowed per failed task (0 disables retrying)",
    ),
    EnvKnob(
        "COLT_TASK_TIMEOUT", "(none)", "repro/sim/resilience.py",
        "--task-timeout",
        "per-task deadline in seconds for pooled execution",
    ),
    EnvKnob(
        "COLT_BACKOFF", "0.05", "repro/sim/resilience.py", None,
        "base sleep in seconds before the first retry "
        "(deterministic exponential backoff)",
    ),
    EnvKnob(
        "COLT_STALL_TIMEOUT", "0 (disabled)", "repro/sim/watchdog.py",
        "--stall-timeout",
        "seconds without task completion before the stall watchdog "
        "dumps stacks and requeues",
    ),
    EnvKnob(
        "COLT_MEM_BUDGET", "0 (disabled)", "repro/sim/watchdog.py",
        "--mem-budget",
        "RSS budget in MiB; breaches climb the degradation ladder",
    ),
    EnvKnob(
        "COLT_DUMP_DIR", ".colt-cache/dumps", "repro/sim/watchdog.py",
        "--dump-dir",
        "directory for watchdog stall / task-deadline stack dumps",
    ),
    EnvKnob(
        "COLT_TELEMETRY_PORT", "(unset)", "repro/obs/serve.py",
        "--telemetry-port",
        "serve /metrics, /progress and /healthz over HTTP on this "
        "127.0.0.1 port while a run is in flight (0 = ephemeral)",
    ),
    EnvKnob(
        "COLT_HISTORY", "on", "repro/obs/history.py", None,
        "set to 0/off to skip appending the per-run "
        "colt-history-v1 record to <cache>/history/history.jsonl",
    ),
    EnvKnob(
        "REPRO_SCALE", "default", "repro/experiments/scale.py", None,
        "experiment scale preset: quick / default / full",
    ),
)


METRICS: Tuple[MetricDecl, ...] = (
    MetricDecl(
        "colt_coalesce_run_length", "histogram", "repro/obs/hooks.py", True,
        "translations per TLB fill, by design (1 = uncoalesced)",
    ),
    MetricDecl(
        "colt_faults_injected", "counter", "repro/sim/faults.py", True,
        "faults fired by the COLT_FAULTS plan, by kind/site",
    ),
    MetricDecl(
        "colt_buddy_free_pages", "gauge", "repro/obs/hooks.py", False,
        "free 4KB frames; report reads the 'buddy' trace counter track "
        "instead, gauge ships in metrics.json only",
    ),
    MetricDecl(
        "colt_buddy_largest_free_order", "gauge", "repro/obs/hooks.py", False,
        "largest free buddy order; metrics.json only (see above)",
    ),
    MetricDecl(
        "colt_store", "counterset-prefix", "repro/sim/store.py", True,
        "result-store hits/misses/evictions/saves/quarantines/...",
    ),
    MetricDecl(
        "colt_resilience", "counterset-prefix", "repro/sim/runner.py", True,
        "executor tasks/retries/timeouts/rebuilds/downgrades/failures",
    ),
    MetricDecl(
        "colt_campaign", "counterset-prefix", "repro/sim/campaign.py", True,
        "campaign experiments started/completed/skipped/interrupted",
    ),
    MetricDecl(
        "colt_campaign_demotions", "counter", "repro/sim/campaign.py",
        False,
        "in-flight experiments demoted to pending on resume; also in "
        "the colt_campaign counterset, standalone counter ships in "
        "metrics.json only",
    ),
    MetricDecl(
        "colt_watchdog", "counterset-prefix", "repro/sim/watchdog.py", True,
        "stalls, stack dumps, memory breaches, ladder escalations",
    ),
    MetricDecl(
        "colt_watchdog_rss_bytes", "gauge", "repro/sim/watchdog.py", False,
        "last sampled RSS of the process tree; live consumers are "
        "/metrics and /progress, gauge ships in metrics.json only",
    ),
    MetricDecl(
        "colt_watchdog_degradation", "gauge", "repro/sim/watchdog.py",
        False,
        "memory-pressure degradation rung (0 none .. 3 abort); "
        "/metrics + metrics.json only",
    ),
    MetricDecl(
        "colt_kernel", "counterset-prefix", "repro/obs/hooks.py", False,
        "kernel allocation/THP counters; metrics.json only",
    ),
    MetricDecl(
        "colt_capture", "counterset-prefix", "repro/sim/scenario.py", False,
        "capture accesses and walk records computed (memo misses); "
        "pinned by the history gate, metrics.json only",
    ),
    MetricDecl(
        "colt_compaction", "counterset-prefix", "repro/osmem/compaction.py",
        False, "compaction migrations/runs; metrics.json only",
    ),
    MetricDecl(
        "colt_thp", "counterset-prefix", "repro/osmem/thp.py", False,
        "THP promotions/collapses; metrics.json only",
    ),
    MetricDecl(
        "colt_buddy", "counterset-prefix", "repro/osmem/buddy.py", False,
        "buddy allocator splits/merges; metrics.json only",
    ),
    MetricDecl(
        "colt_mmu", "counterset-prefix", "repro/core/mmu.py", False,
        "per-design MMU/TLB counters; consumed via SimulationResult "
        "snapshots, metrics.json only",
    ),
)


SPANS: Tuple[SpanDecl, ...] = (
    SpanDecl("kernel.boot", "span", "repro/sim/scenario.py",
             "kernel construction for one scenario"),
    SpanDecl("aging", "span", "repro/sim/scenario.py",
             "fragmentation aging phase"),
    SpanDecl("layout", "span", "repro/sim/scenario.py",
             "benchmark address-space layout"),
    SpanDecl("trace.generate", "span", "repro/sim/scenario.py",
             "access-trace generation"),
    SpanDecl("capture", "span", "repro/sim/scenario.py",
             "scenario capture (walk log recording)"),
    SpanDecl("replay", "span", "repro/sim/replay.py",
             "captured-scenario replay under one design"),
    SpanDecl("simulate", "span", "repro/sim/system.py",
             "monolithic simulation run"),
    SpanDecl("compaction.run", "span", "repro/osmem/compaction.py",
             "memory compaction pass"),
    SpanDecl("store.get", "span", "repro/sim/store.py",
             "result-store lookup"),
    SpanDecl("store.put", "span", "repro/sim/store.py",
             "result-store save"),
    SpanDecl("runner.run_batch", "span", "repro/sim/runner.py",
             "one capture/replay batch through the executor"),
    SpanDecl("resilience.pool_rebuild", "span", "repro/sim/resilience.py",
             "broken-pool teardown and rebuild"),
    SpanDecl("resilience.serial_downgrade", "span",
             "repro/sim/resilience.py", "pool abandoned, serial fallback"),
    SpanDecl("resilience.retry", "span", "repro/sim/resilience.py",
             "one task resubmission"),
    SpanDecl("campaign.experiment", "span", "repro/sim/campaign.py",
             "one experiment within a campaign"),
    SpanDecl("campaign.shutdown", "span", "repro/sim/campaign.py",
             "signal-initiated campaign shutdown"),
    SpanDecl("experiment.", "span-prefix", "repro/experiments/registry.py",
             "per-experiment spans, suffixed by experiment id"),
    SpanDecl("tlb.miss", "instant", "repro/obs/hooks.py",
             "sampled L1 TLB miss"),
    SpanDecl("tlb.fill", "instant", "repro/obs/hooks.py",
             "sampled TLB fill with coalescing run length"),
    SpanDecl("tlb.superpage_fill", "instant", "repro/obs/hooks.py",
             "sampled superpage fill"),
    SpanDecl("tlb.shootdown", "instant", "repro/obs/hooks.py",
             "sampled shootdown invalidation"),
    SpanDecl("watchdog.stall", "instant", "repro/sim/watchdog.py",
             "stall watchdog fired"),
    SpanDecl("watchdog.mem_pressure", "instant", "repro/sim/watchdog.py",
             "memory watchdog ladder escalation"),
    SpanDecl("buddy", "counter-track", "repro/obs/hooks.py",
             "buddy-allocator fragmentation timeline"),
)


FAULT_SITES: Tuple[FaultSiteDecl, ...] = (
    FaultSiteDecl("capture", "repro/sim/runner.py",
                  "worker-side scenario capture task"),
    FaultSiteDecl("replay", "repro/sim/runner.py",
                  "worker-side replay task"),
    FaultSiteDecl("campaign", "repro/sim/campaign.py",
                  "between experiments of a campaign"),
    FaultSiteDecl("store.write", "repro/sim/faults.py",
                  "result-store serialization (torn/corrupt writes)"),
)

"""Command-line entry point: ``python -m repro.experiments <id> [...]``.

Runs one or more experiments (or ``all``) at the scale selected by
``REPRO_SCALE`` (quick / default / full) and prints each one's table.

Simulations fan out across ``--jobs`` worker processes (default: all
CPUs) -- one OS capture per scenario, one TLB replay per design -- and
results persist in an on-disk store (``.colt-cache/`` or
``$COLT_RESULT_CACHE``; see ``repro.sim.store``) so repeated
invocations only pay for configurations they have not seen.

Observability (``repro.obs``) is wired here:

* ``--trace [FILE]`` records a Chrome/Perfetto trace of the run
  (spans for boot/capture/replay/store, sampled TLB events) plus a
  ``<FILE stem>.metrics.json`` snapshot;
* ``--profile`` collects the metrics snapshot without event tracing;
* ``--report [FILE]`` prints (or writes) the human run report;
* ``-q`` / ``-v`` control the library log level.

Resilience (``repro.sim.resilience``) is configurable per run:
``--retries`` / ``--task-timeout`` override the ``COLT_RETRIES`` /
``COLT_TASK_TIMEOUT`` environment defaults, and a ``COLT_FAULTS`` plan
(see ``repro.sim.faults``) injects deterministic worker crashes, task
exceptions, delays and store corruption for chaos testing. When the
resilience layer absorbed anything, a summary line reports it.

Campaigns (``repro.sim.campaign``): ``--campaign`` runs the requested
experiments under a crash-safe write-ahead journal
(``<cache>/campaign/manifest.json``) with per-experiment table dumps;
``--resume`` continues an interrupted campaign, skipping journaled
``done`` experiments bit-identically. SIGINT/SIGTERM are handled
two-stage in both modes: the first signal winds the run down gracefully
(checkpoint, journal, flush obs artifacts) and exits with status 75;
a second signal hard-aborts. ``--stall-timeout`` / ``--mem-budget`` /
``--dump-dir`` arm the stall/memory watchdog
(``repro.sim.watchdog``).

The elapsed-time stamps printed here are display-only terminal feedback
(monotonic ``perf_counter``); they are never serialized into experiment
results, which stay a pure function of configuration and seed. This
file is on the lint's wall-clock allow-list for exactly that scope.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.common.errors import (
    CampaignError,
    MemoryBudgetError,
    ShutdownRequested,
)
from repro.obs.export import write_chrome_trace, write_metrics_json
from repro.obs.history import (
    build_record,
    append_record,
    history_enabled,
    history_path,
)
from repro.obs.live import get_progress
from repro.obs.logging import configure_logging
from repro.obs.registry import get_registry
from repro.obs.report import RunReport
from repro.obs.serve import TelemetryServer, telemetry_port_from_env
from repro.obs.trace import PROFILE_ENV, TRACE_ENV, reset_tracing
from repro.sim.campaign import (
    SHUTDOWN_EXIT_CODE,
    CampaignManifest,
    CampaignRunner,
    ShutdownCoordinator,
    campaign_fingerprint,
)
from repro.sim.faults import FaultPlan
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sim.store import ResultStore
from repro.sim.watchdog import Watchdog
from repro.experiments.registry import EXPERIMENTS, resolve_experiments
from repro.experiments.scale import scale_from_env


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="Scale: set REPRO_SCALE=quick|default|full",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="experiment-id",
        help="experiment ids to run, or 'all'",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for capture/replay fan-out "
             "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result store",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store directory (default: $COLT_RESULT_CACHE "
             "or .colt-cache)",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="clear the result store before running",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max resubmissions per failed capture/replay task "
             "(default: $COLT_RETRIES or 2)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline for pooled execution; 0 disables "
             "(default: $COLT_TASK_TIMEOUT or none)",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="run under the resumable campaign journal "
             "(<cache>/campaign/manifest.json) with per-experiment "
             "table dumps; a graceful interruption exits with status "
             f"{SHUTDOWN_EXIT_CODE} and --resume continues it",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted --campaign run from its journal, "
             "skipping experiments already journaled as done "
             "(implies --campaign)",
    )
    parser.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog: seconds without any task completion before "
             "all-thread stacks are dumped and the stuck task is "
             "requeued (default: $COLT_STALL_TIMEOUT or off)",
    )
    parser.add_argument(
        "--mem-budget", type=float, default=None, metavar="MIB",
        help="watchdog: RSS budget in MiB for this process tree; over "
             "budget the runner degrades (shrink pool -> no prefetch "
             "-> clean abort) (default: $COLT_MEM_BUDGET or off)",
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="stack-dump directory for the watchdog and per-task "
             "deadline dumps (default: $COLT_DUMP_DIR or "
             ".colt-cache/dumps)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT while "
             "the run is in flight (/metrics Prometheus text, "
             "/progress JSON, /healthz); 0 picks an ephemeral port; "
             "implies --profile (default: $COLT_TELEMETRY_PORT or off)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="colt-trace.json", default=None,
        metavar="FILE",
        help="record a Chrome/Perfetto trace to FILE (default "
             "colt-trace.json) plus a FILE-stem .metrics.json snapshot",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect the metrics snapshot without event tracing",
    )
    parser.add_argument(
        "--report", nargs="?", const="-", default=None, metavar="FILE",
        help="print the run report ('-' or no value: stdout; else "
             "write to FILE); implies --profile",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress summary lines; library logs at ERROR only",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="library log level: -v INFO, -vv DEBUG",
    )
    return parser


def _list_experiments() -> None:
    print("usage: python -m repro.experiments <experiment-id>... | all")
    print("\nAvailable experiments:")
    for experiment in EXPERIMENTS.values():
        print(f"  {experiment.id:10s} {experiment.title}")
    print("\nScale: set REPRO_SCALE=quick|default|full")


def _enable_obs(args) -> bool:
    """Export the obs env vars (workers inherit them); True when active.

    The variables must be set before the runner -- and therefore before
    its store and any pool worker -- is created, because components
    resolve the tracer once at construction.
    """
    active = False
    if args.trace is not None:
        os.environ[TRACE_ENV] = "1"
        active = True
    if args.profile or args.report is not None or \
            args.telemetry_port is not None:
        # Telemetry implies profiling: /metrics and the history record
        # need populated counters, and profiling is the CI-proven
        # bit-identity-safe mode.
        os.environ[PROFILE_ENV] = "1"
        active = True
    if active:
        reset_tracing()
    return active


def _emit_obs(args, runner: ExperimentRunner) -> None:
    """Write/print the requested trace, metrics and report artifacts."""
    events = runner.trace_events()
    snapshot = get_registry().snapshot()
    if args.trace is not None:
        trace_path = Path(args.trace)
        write_chrome_trace(
            trace_path, events,
            metadata={"tool": "repro.experiments", "ids": list(args.ids)},
        )
        metrics_path = trace_path.with_suffix(".metrics.json")
        write_metrics_json(metrics_path, snapshot)
        if not args.quiet:
            print(
                f"trace: {len(events)} events -> {trace_path} "
                f"(metrics: {metrics_path})"
            )
    if args.report is not None:
        report = RunReport.build(
            events, snapshot, dropped_events=runner.dropped_events()
        )
        if args.report == "-":
            print()
            print(report.render(), end="")
        else:
            Path(args.report).write_text(report.render(), encoding="utf-8")
            if not args.quiet:
                print(f"report -> {args.report}")


def _print_summaries(args, runner: ExperimentRunner) -> None:
    summary = runner.store_summary()
    if summary is not None and not args.quiet:
        print(
            f"\nstore: {summary['hits']:.0f} hits, "
            f"{summary['misses']:.0f} misses, "
            f"{summary['evictions']:.0f} evictions, "
            f"{summary['saves']:.0f} saves "
            f"({summary['hit_ratio']:.0%} hit ratio)"
        )
    resilience = runner.resilience_summary()
    if resilience is not None and not args.quiet:
        parts = [
            f"{value} {name}" for name, value in resilience.items() if value
        ]
        print("resilience: " + ", ".join(parts))


def _run_plain(args, experiments, scale, runner: ExperimentRunner,
               phase_wall=None) -> int:
    for experiment in experiments:
        started = time.perf_counter()
        result = experiment.run(scale, runner)
        elapsed = time.perf_counter() - started
        if phase_wall is not None:
            phase_wall[experiment.id] = elapsed
        if not args.quiet:
            print(f"\n=== {experiment.title} ({elapsed:.1f}s) ===")
            print(result.format_table())
    return 0


def _run_campaign(
    args, experiments, scale,
    runner: ExperimentRunner,
    store: ResultStore,
    shutdown: ShutdownCoordinator,
    watchdog: Optional[Watchdog],
    faults: Optional[FaultPlan],
    phase_wall=None,
) -> int:
    ids = [experiment.id for experiment in experiments]
    fingerprint = campaign_fingerprint(scale, ids)
    campaign_dir = Path(store.root) / "campaign"
    manifest_path = campaign_dir / "manifest.json"
    if args.resume:
        manifest = CampaignManifest.load(manifest_path)
        if manifest.fingerprint != fingerprint:
            raise CampaignError(
                f"journal {manifest_path} was written for a different "
                "scale preset, experiment list, or constants build; "
                "refusing to mix results -- delete it (or rerun the "
                "original command) to proceed"
            )
        if not args.quiet:
            counts = manifest.counts()
            print(
                f"resuming campaign: {counts['done']} done, "
                f"{len(manifest.pending_ids())} to run "
                f"(journal {manifest_path})"
            )
    else:
        manifest = CampaignManifest.fresh(manifest_path, ids, fingerprint)
        if not args.quiet:
            print(
                f"campaign of {len(ids)} experiment(s); journal "
                f"{manifest_path}"
            )
    marks = {"last": time.perf_counter()}

    def _note_experiment(exp_id: str) -> None:
        now = time.perf_counter()
        if phase_wall is not None:
            phase_wall[exp_id] = now - marks["last"]
        marks["last"] = now

    campaign = CampaignRunner(
        manifest,
        runner,
        scale,
        tables_dir=campaign_dir / "tables",
        shutdown=shutdown,
        watchdog=watchdog,
        faults=faults,
        on_experiment=_note_experiment,
    )
    status = campaign.run()
    if not args.quiet:
        for experiment in experiments:
            table = status.tables.get(experiment.id)
            if table is None:
                continue
            skipped = " [journaled]" if experiment.id in status.skipped \
                else ""
            print(f"\n=== {experiment.title}{skipped} ===")
            print(table, end="" if table.endswith("\n") else "\n")
        counts = manifest.counts()
        print(
            f"\ncampaign: {len(status.completed)} run, "
            f"{len(status.skipped)} skipped (journaled), "
            f"{len(status.failed)} failed; journal now "
            f"{counts['done']}/{len(ids)} done"
        )
    if status.interrupted is not None:
        print(
            f"interrupted by {status.interrupted}; journal is "
            f"consistent -- resume with: python -m repro.experiments "
            f"{' '.join(args.ids)} --campaign --resume"
        )
        return SHUTDOWN_EXIT_CODE
    return 0 if not status.failed else 1


def _append_history(args, experiments, runner, store, scale, jobs,
                    code, phase_wall, total_wall) -> None:
    """Append the run's ``colt-history-v1`` record (best-effort).

    Every store-backed run leaves one record -- including interrupted
    (exit 75) and failed ones, so the trend tables show crashes too.
    """
    if store is None or not history_enabled():
        return
    ids = [experiment.id for experiment in experiments]
    if code == 0:
        status = "ok"
    elif code == SHUTDOWN_EXIT_CODE:
        status = "interrupted"
    else:
        status = "failed"
    snapshot = get_registry().snapshot()
    counters = {
        name: snapshot.counter_total(name)
        for name, entry in snapshot.instruments.items()
        if entry["kind"] == "counter"
    }
    wall = dict(phase_wall)
    wall["total"] = total_wall
    record = build_record(
        ts=time.time(),
        status=status,
        figure="+".join(ids),
        scale=os.environ.get("REPRO_SCALE", "").lower() or "default",
        fingerprint=campaign_fingerprint(scale, ids),
        wall=wall,
        counters=counters,
        store=runner.store_summary(),
        campaign=bool(args.campaign),
        telemetry=args.telemetry_port is not None,
        jobs=jobs,
    )
    try:
        path = append_record(history_path(store.root), record)
    except OSError as exc:
        print(f"history: could not append run record: {exc}")
        return
    if not args.quiet:
        print(f"history: {status} record appended to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.ids:
        _list_experiments()
        return 0
    if args.resume:
        args.campaign = True
    if args.telemetry_port is None:
        args.telemetry_port = telemetry_port_from_env()

    configure_logging(-1 if args.quiet else args.verbose)
    obs_enabled = _enable_obs(args)
    if args.dump_dir is not None:
        # Exported so pool workers (deadline dumps) agree on the dir.
        os.environ["COLT_DUMP_DIR"] = args.dump_dir

    experiments = resolve_experiments(args.ids)
    scale = scale_from_env()
    store = None
    if not args.no_cache:
        if args.cache_dir is not None:
            store = ResultStore(args.cache_dir)
        else:
            store = ResultStore.from_env()
    if args.campaign and store is None:
        print("--campaign needs the result store; drop --no-cache")
        return 2
    if args.clear_cache and store is not None:
        removed = store.clear()
        print(f"cleared {removed} cached results from {store.root}")

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    policy = RetryPolicy.from_env()
    if args.retries is not None:
        policy = replace(policy, max_retries=max(0, args.retries))
    if args.task_timeout is not None:
        policy = replace(
            policy,
            timeout_s=args.task_timeout if args.task_timeout > 0 else None,
        )
    faults = FaultPlan.from_env()
    shutdown = ShutdownCoordinator().install()
    watchdog = Watchdog.from_env(
        stall_timeout_s=args.stall_timeout,
        mem_budget_mib=args.mem_budget,
        dump_dir=args.dump_dir,
    )
    if watchdog is not None:
        watchdog.start()
    runner = ExperimentRunner(
        jobs=jobs, store=store, policy=policy, faults=faults,
        shutdown=shutdown, watchdog=watchdog,
    )

    get_progress().update(
        phase="starting",
        ids=[experiment.id for experiment in experiments],
        scale=os.environ.get("REPRO_SCALE", "").lower() or "default",
        jobs=jobs,
        campaign=bool(args.campaign),
    )
    telemetry = None
    if args.telemetry_port is not None:
        telemetry = TelemetryServer(args.telemetry_port)
        bound_port = telemetry.start()
        # Always printed (not gated on --quiet): with port 0 this line
        # is the only way callers learn the ephemeral port.
        print(
            f"telemetry: http://127.0.0.1:{bound_port}/ "
            "(/metrics /progress /healthz)"
        )

    code = 1
    phase_wall = {}
    run_started = time.perf_counter()
    try:
        try:
            if args.campaign:
                code = _run_campaign(
                    args, experiments, scale, runner, store,
                    shutdown, watchdog, faults, phase_wall=phase_wall,
                )
            else:
                code = _run_plain(
                    args, experiments, scale, runner, phase_wall=phase_wall
                )
        except ShutdownRequested as exc:
            # First signal outside the campaign loop: completed results
            # are already checkpointed in the store; finish artifacts
            # and exit with the resumable status.
            print(
                f"interrupted by {exc.signal_name}; completed results "
                "are checkpointed in the store"
            )
            code = SHUTDOWN_EXIT_CODE
        except CampaignError as exc:
            print(f"campaign error: {exc}")
            code = 2
        except MemoryBudgetError as exc:
            print(f"memory budget exhausted: {exc}")
            code = 1
        finally:
            if watchdog is not None:
                watchdog.stop()
            shutdown.restore()

        get_progress().update(phase="finished", exit_code=code)
        _print_summaries(args, runner)
        if obs_enabled:
            _emit_obs(args, runner)
        _append_history(
            args, experiments, runner, store, scale, jobs, code,
            phase_wall, time.perf_counter() - run_started,
        )
    finally:
        if telemetry is not None:
            telemetry.stop()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

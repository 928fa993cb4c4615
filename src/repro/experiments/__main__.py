"""Command-line entry point: ``python -m repro.experiments <id> [...]``.

Runs one or more experiments (or ``all``) at the scale selected by
``REPRO_SCALE`` (quick / default / full) and prints each one's table.

Simulations fan out across ``--jobs`` worker processes (default: all
CPUs) -- one OS capture per scenario, one TLB replay per design -- and
results persist in an on-disk store (``.colt-cache/`` or
``$COLT_RESULT_CACHE``; see ``repro.sim.store``) so repeated
invocations only pay for configurations they have not seen.

Observability (``repro.obs``) is wired here. Every run records its
spans (boot/capture/replay/store/compaction) and metrics, prints the
store and resilience summary lines, and appends them to the history
record, with each phase's self time and span count; two flags only
choose what else to write out:

* ``--trace [FILE]`` writes the spans as a Chrome/Perfetto trace plus
  a ``<FILE stem>.metrics.json`` snapshot;
* ``--report [FILE]`` prints (or writes) the human run report;
* ``-q`` hides the summary lines; ``-q`` / ``-v`` set the library
  log level.

Resilience (``repro.sim.resilience``) is configurable per run:
``--retries`` / ``--task-timeout`` override the ``COLT_RETRIES`` /
``COLT_TASK_TIMEOUT`` environment defaults (the task deadline is the
run's stall detector; ``--dump-dir`` says where a stuck worker's stack
dump lands), and a ``COLT_FAULTS`` plan (see ``repro.sim.faults``)
injects deterministic worker crashes, task exceptions, delays and
store corruption for chaos testing. When the resilience layer
absorbed anything, or a fault fired in the parent or a worker, a
summary line reports it.

An unknown experiment id, or a knob (``REPRO_SCALE``, ``COLT_*``)
whose value does not parse, is a usage error: the run exits 2 with one
``error:`` line before anything runs.

The experiments run through one loop (:func:`run_experiments`), which
keeps each experiment's :class:`~repro.experiments.table.ResultTable`,
prints its table as it finishes -- the printed tables are the run's
table output -- and carries on past an experiment that failed
permanently (the run then exits 1). The store is the only resume
state: rerunning the same command after an interruption gets every
finished simulation back as a store hit. SIGINT/SIGTERM are handled
two-stage (``repro.sim.shutdown``): the first signal winds the run
down gracefully (checkpoint, flush obs artifacts) and exits with
status 75; a second signal hard-aborts. Every exit path, an exception
included, writes the summary, the requested trace and report, and the
history record.

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
from typing import Dict, Optional, Sequence

from repro.common import knobs
from repro.common.errors import (
    ConfigurationError,
    ExperimentError,
    ShutdownRequested,
    TaskExecutionError,
)
from repro.common.statistics import CounterSet
from repro.obs.export import write_chrome_trace, write_metrics_json
from repro.obs.history import (
    build_record,
    append_record,
    history_enabled,
    history_path,
)
from repro.obs.logging import configure_logging, get_logger
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    bind_counterset,
    get_registry,
    set_registry,
)
from repro.obs.report import RunReport
from repro.obs.serve import TelemetryServer, telemetry_port_from_env
from repro.obs.trace import current_tracer, reset_tracing, span
from repro.sim.faults import FaultPlan
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sim.shutdown import SHUTDOWN_EXIT_CODE, ShutdownCoordinator
from repro.sim.store import ResultStore, run_fingerprint
from repro.experiments.registry import EXPERIMENTS, resolve_experiments
from repro.experiments.scale import preset_name, scale_from_env

_LOG = get_logger("repro.experiments")

#: The experiment loop's counters, bound to the registry as
#: ``colt_campaign_*`` (the report's campaign line and the history
#: record read them under these names).
CAMPAIGN_COUNTERS = ("experiments", "completed", "failed", "interrupted")


def _env_default(knob: knobs.Knob) -> str:
    """``(default: $NAME or VALUE)`` for a flag that overrides ``knob``."""
    value = "off" if knob.default is None else knob.default
    return f"(default: ${knob.name} or {value})"


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
        help=f"result-store directory {_env_default(knobs.RESULT_CACHE)}",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="clear the result store before running",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max resubmissions per failed capture/replay task "
             + _env_default(knobs.RETRIES),
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="pooled runs only: retry a task whose result has not "
             "arrived SECONDS after the run started waiting on it "
             "(results are awaited in submission order); its worker "
             "dumps its stacks SECONDS after the task starts; 0 "
             "disables " + _env_default(knobs.TASK_TIMEOUT),
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="directory for the workers' task-deadline stack dumps "
             + _env_default(knobs.DUMP_DIR),
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT while "
             "the run is in flight (/metrics Prometheus text, whose "
             "colt_campaign_* counters are the run's progress, and "
             "/healthz); 0 picks an ephemeral port "
             + _env_default(knobs.TELEMETRY_PORT),
    )
    parser.add_argument(
        "--trace", nargs="?", const="colt-trace.json", default=None,
        metavar="FILE",
        help="write the run's spans as a Chrome/Perfetto trace to FILE "
             "(default colt-trace.json) plus a FILE-stem .metrics.json "
             "snapshot",
    )
    parser.add_argument(
        "--report", nargs="?", const="-", default=None, metavar="FILE",
        help="print the run report ('-' or no value: stdout; else "
             "write to FILE)",
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


def _emit_obs(args, events, snapshot: MetricsSnapshot,
              report: RunReport) -> None:
    """Print the summary lines; write the requested trace and report."""
    summary = report.summary_lines()
    if summary and not args.quiet:
        print()
        print("\n".join(summary))
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
        if args.report == "-":
            print()
            print(report.render(), end="")
        else:
            Path(args.report).write_text(report.render(), encoding="utf-8")
            if not args.quiet:
                print(f"report -> {args.report}")


def run_experiments(
    experiments: Sequence,
    scale,
    runner: ExperimentRunner,
    results: Dict[str, object],
    wall: Dict[str, float],
    shutdown: Optional[ShutdownCoordinator] = None,
    faults: Optional[FaultPlan] = None,
) -> int:
    """Run ``experiments`` in order, printing each table as it finishes.

    Each finished experiment's result object lands in ``results`` and
    its elapsed seconds (a failed one's too) in ``wall``, both keyed by
    experiment id. ``<kind>@campaign:<index>`` faults fire before
    experiment ``index`` starts, ahead of the shutdown check, so a
    signal that lands during an injected delay stops the loop before
    that experiment. An experiment that fails permanently
    (:class:`TaskExecutionError`) is logged and the loop goes on.

    Returns 0; 1 when an experiment failed; :data:`SHUTDOWN_EXIT_CODE`
    when a shutdown stopped the loop.
    """
    counters = CounterSet(CAMPAIGN_COUNTERS)
    bind_counterset(get_registry(), "colt_campaign", counters)
    interrupted = None
    for index, experiment in enumerate(experiments):
        if faults is not None:
            faults.fire("campaign", index)
        if shutdown is not None and shutdown.requested:
            interrupted = shutdown.signal_name
            break
        counters.increment("experiments")
        started = time.perf_counter()
        try:
            result = experiment.run(scale, runner)
        except ShutdownRequested as exc:
            interrupted = exc.signal_name
            break
        except TaskExecutionError as exc:
            result = None
            counters.increment("failed")
            _LOG.error("experiment %s failed permanently: %s",
                       experiment.id, exc)
        wall[experiment.id] = elapsed = time.perf_counter() - started
        if result is not None:
            results[experiment.id] = result
            counters.increment("completed")
            # Flushed: a piped reader (tee, tools/chaos_check.py) takes
            # a printed table as the experiment's completion signal.
            print(f"\n=== {experiment.title} ({elapsed:.1f}s) ===\n"
                  f"{result.format_table()}", flush=True)
    if interrupted is None:
        return 1 if counters["failed"] else 0
    counters.increment("interrupted")
    with span("campaign.shutdown", cat="campaign", signal=interrupted):
        _LOG.warning(
            "interrupted by %s after %d of %d experiment(s); rerun the "
            "same command to resume",
            interrupted, len(results), len(experiments),
        )
    hint = "; rerun the same command to resume" \
        if runner.store is not None else ""
    print(f"\ninterrupted by {interrupted}{hint}", flush=True)
    return SHUTDOWN_EXIT_CODE


def _append_history(args, experiments, runner, store, scale, jobs,
                    code, snapshot, report, wall) -> None:
    """Append the run's ``colt-history-v1`` record (best-effort).

    Every store-backed run leaves one record -- including interrupted
    (exit 75) and failed ones, a run that raised included, so the
    trend tables show crashes too.
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
    counters = {
        name: snapshot.counter_total(name)
        for name, entry in snapshot.instruments.items()
        if entry["kind"] == "counter"
    }
    record = build_record(
        ts=time.time(),
        status=status,
        figure="+".join(ids),
        scale=preset_name(scale),
        fingerprint=run_fingerprint(scale, ids),
        wall=wall,
        counters=counters,
        store=runner.store_summary(),
        telemetry=args.telemetry_port is not None,
        jobs=jobs,
        phases={
            phase.name: {"self_s": phase.self_ms / 1000.0,
                         "count": phase.count}
            for phase in report.phases
        },
    )
    try:
        path = append_record(history_path(store.root), record)
    except OSError as exc:
        print(f"history: could not append run record: {exc}")
        return
    if not args.quiet:
        print(f"history: {status} record appended to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.ids:
        _list_experiments()
        return 0
    try:
        # An unknown id or a knob that does not parse ends the run here,
        # before anything runs, as one usage error (exit 2).
        experiments = resolve_experiments(args.ids)
        scale = scale_from_env()
        if args.telemetry_port is None:
            args.telemetry_port = telemetry_port_from_env()
        policy = RetryPolicy.from_env()
        faults = FaultPlan.from_env()
    except (ConfigurationError, ExperimentError) as exc:
        parser.error(str(exc))

    configure_logging(-1 if args.quiet else args.verbose)
    # A fresh tracer and registry before the store and runner bind
    # theirs, so each run in a process reports only its own counts.
    reset_tracing()
    set_registry(MetricsRegistry())
    if args.dump_dir is not None:
        # Exported so pool workers (deadline dumps) agree on the dir.
        os.environ[knobs.DUMP_DIR.name] = args.dump_dir

    store = None
    if not args.no_cache:
        if args.cache_dir is not None:
            store = ResultStore(args.cache_dir)
        else:
            store = ResultStore.from_env()
    if args.clear_cache and store is not None:
        removed = store.clear()
        print(f"cleared {removed} cached results from {store.root}")

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if args.retries is not None:
        policy = replace(policy, max_retries=max(0, args.retries))
    if args.task_timeout is not None:
        policy = replace(
            policy,
            timeout_s=args.task_timeout if args.task_timeout > 0 else None,
        )
    shutdown = ShutdownCoordinator()
    runner = ExperimentRunner(
        jobs=jobs, store=store, policy=policy, faults=faults,
        shutdown=shutdown,
    )

    code = 1
    telemetry = None
    results: Dict[str, object] = {}
    wall: Dict[str, float] = {}
    run_started = time.perf_counter()
    shutdown.install()
    try:
        if args.telemetry_port is not None:
            telemetry = TelemetryServer(args.telemetry_port)
            # Always printed (not gated on --quiet): with port 0 this
            # line is the only way callers learn the ephemeral port.
            print(
                f"telemetry: http://127.0.0.1:{telemetry.start()}/ "
                "(/metrics /healthz)", flush=True,
            )
        code = run_experiments(
            experiments, scale, runner, results, wall,
            shutdown=shutdown, faults=faults,
        )
    finally:
        # Every exit path, a raising one included (as a ``failed``
        # record, before the exception propagates), leaves the process
        # as it found it and writes the run's obs output.
        shutdown.restore()
        if telemetry is not None:
            telemetry.stop()
        wall["total"] = time.perf_counter() - run_started
        snapshot = get_registry().snapshot()
        tracer = current_tracer()
        events = sorted(tracer.events(), key=lambda event: event.ts_us)
        report = RunReport.build(
            events, snapshot, dropped_events=tracer.dropped
        )
        _emit_obs(args, events, snapshot, report)
        _append_history(
            args, experiments, runner, store, scale, jobs, code,
            snapshot, report, wall,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Chaos invariant check: faulted runs must be bit-identical to clean.

Every mode drives the fig18 QUICK pipeline through some injected
failure and proves the recovery machinery converges on the clean
results. ``--list-modes`` enumerates them:

``store`` (default)
    Three in-process runs: **clean** (cold store A), **chaos** (cold
    store B under a ``COLT_FAULTS`` plan that crashes a capture worker,
    raises in a replay task, and tears/flips two store writes), and
    **resume** (a fault-free runner over the corrupted store B, which
    must quarantine exactly the corrupt entries and recompute them).

``campaign`` (``--campaign``)
    End-to-end resume-from-the-store invariant via
    ``python -m repro.experiments`` subprocesses: a clean run, a
    SIGTERM kill between experiments (exit 75, the first table printed
    and the second not), a rerun of the same command to byte-identical
    tables whose store hits equal the killed run's saves, and a
    deadline run whose stuck capture worker must dump its stacks, be
    retried, and still converge.

``telemetry`` (``--telemetry``)
    The telemetry plane's crash discipline: live /healthz and /metrics
    probes mid-run, clean server shutdown on SIGTERM (exit 75, port
    released), and ``colt-history-v1`` records for both the killed run
    and its rerun.

The subprocess modes read the tables each run prints: a table's
header line carries the experiment's elapsed time, which is dropped
before tables are compared.

Exit status is non-zero on any divergence. Because injected faults only
kill/delay/corrupt -- they never feed a number into a simulation -- any
mismatch here is a real determinism or recovery bug.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.sim.faults import FaultPlan  # noqa: E402
from repro.sim.resilience import RetryPolicy  # noqa: E402
from repro.sim.runner import ExperimentRunner  # noqa: E402
from repro.sim.shutdown import SHUTDOWN_EXIT_CODE  # noqa: E402
from repro.sim.store import QUARANTINE_DIR, ResultStore  # noqa: E402
from repro.experiments.registry import get_experiment  # noqa: E402
from repro.experiments.scale import QUICK  # noqa: E402

#: One worker crash, one task exception, one torn and one bit-flipped
#: store write -- every fault kind the plan grammar knows.
DEFAULT_PLAN = (
    "crash@capture:0;raise@replay:1;torn@store.write:0;corrupt@store.write:2"
)

#: Store-write indices DEFAULT_PLAN corrupts (drives the expected
#: quarantine count of the resume phase).
CORRUPTED_WRITES = 2

FIGURE = "fig18"

#: Experiments for the campaign check. fig19 replays fig18's scenario
#: groups, so the second experiment is cheap but still runs configs
#: fig18 never did (the rerun's store misses).
CAMPAIGN_IDS = ("fig18", "fig19")

#: Parent-process hold before experiment 1: a window in which the
#: SIGTERM deterministically lands before fig19 starts, so the kill
#: always interrupts a running campaign rather than racing its
#: completion.
HOLD_SECONDS = 10.0

#: The timeout count on the CLI's resilience summary line.
TIMEOUTS = re.compile(r"^resilience: .*\b\d+ timeouts\b", re.M)

#: A printed table's header line; the elapsed time differs run to run.
TABLE_HEADER = re.compile(r"^=== (?P<title>.*) \(\d+\.\ds\) ===$")

#: The always-printed line that announces the bound telemetry port
#: (the only way to learn it when ``--telemetry-port 0`` is used).
TELEMETRY_LINE = re.compile(r"telemetry: http://127\.0\.0\.1:(\d+)/")

#: The CLI's result-store summary line.
STORE_LINE = re.compile(
    r"^store: (?P<hits>\d+) hits, \d+ misses, \d+ evictions, "
    r"(?P<saves>\d+) saves", re.M,
)

#: Deadline phase: the first capture sleeps DELAY, the task deadline
#: (well above a healthy QUICK capture's ~2s) times it out and retries
#: it, and the retried attempt escapes the x1 fault. The stuck worker
#: dumps its stacks at the deadline, inside the fault's ``fire``.
DEADLINE_DELAY_SECONDS = 12.0
DEADLINE_TIMEOUT_SECONDS = 4.0


def _run_pipeline(runner: ExperimentRunner) -> str:
    """Run the figure under ``runner``; return its formatted table."""
    return get_experiment(FIGURE).run(QUICK, runner).format_table()


def _compare(name: str, clean: ExperimentRunner, other: ExperimentRunner,
             clean_table: str, other_table: str) -> int:
    failures = 0
    if other_table != clean_table:
        print(f"FAIL: {name} table differs from clean run", file=sys.stderr)
        failures += 1
    if other._cache != clean._cache:
        differing = [
            config
            for config, result in clean._cache.items()
            if other._cache.get(config) != result
        ]
        print(
            f"FAIL: {name} results differ from clean run for "
            f"{len(differing)} config(s): "
            + "; ".join(
                f"{c.benchmark}/{c.design.value}" for c in differing[:4]
            ),
            file=sys.stderr,
        )
        failures += 1
    if not failures:
        print(f"ok: {name} results bit-identical to clean run")
    return failures


# ----------------------------------------------------------------------
# Shared campaign-subprocess helpers (used by every subprocess mode).
# ----------------------------------------------------------------------

def _campaign_env(faults: str = "") -> dict:
    """Subprocess environment: QUICK scale, src on path, chosen faults."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SCALE"] = "quick"
    if faults:
        env["COLT_FAULTS"] = faults
    else:
        env.pop("COLT_FAULTS", None)
    # The phases below pass deadline/telemetry knobs explicitly;
    # ambient settings must not leak in.
    for var in ("COLT_TASK_TIMEOUT", "COLT_DUMP_DIR",
                "COLT_TELEMETRY_PORT", "COLT_HISTORY"):
        env.pop(var, None)
    return env


def _campaign_cmd(cache_dir: str, jobs: int, ids=CAMPAIGN_IDS, extra=()):
    return [
        sys.executable, "-m", "repro.experiments", *ids,
        "--jobs", str(jobs), "--cache-dir", cache_dir, *extra,
    ]


def _title(exp_id: str) -> str:
    return get_experiment(exp_id).title


def _tables(output: str) -> dict:
    """``{title: table}`` for every table a run printed.

    A table runs from its header line to the next blank line; the
    header's elapsed time is dropped.
    """
    tables, title = {}, None
    for line in output.splitlines():
        header = TABLE_HEADER.match(line)
        if header:
            title = header["title"]
            tables[title] = []
        elif title is not None and line:
            tables[title].append(line)
        else:
            title = None
    return {title: "\n".join(lines) for title, lines in tables.items()}


def _checked_run(label: str, cache_dir: str, jobs: int, faults: str = "",
                 ids=CAMPAIGN_IDS, extra=()):
    """Run one campaign subprocess; None (after a FAIL line) on rc != 0.

    The shared run half of every mode's run-and-compare step: build the
    command, scrub the environment, capture output, complain uniformly.
    """
    result = subprocess.run(
        _campaign_cmd(cache_dir, jobs, ids=ids, extra=extra),
        env=_campaign_env(faults), capture_output=True, text=True,
    )
    if result.returncode != 0:
        print(f"FAIL: {label} exited {result.returncode}\n"
              f"{result.stdout}{result.stderr}", file=sys.stderr)
        return None
    return result


def _compare_tables(label: str, output: str, clean_tables: dict) -> int:
    """The shared compare half: printed tables must be byte-identical."""
    tables = _tables(output)
    if tables != clean_tables:
        differing = sorted(
            set(tables) ^ set(clean_tables)
            | {name for name in tables
               if clean_tables.get(name) != tables[name]}
        )
        print(f"FAIL: {label} tables differ from clean campaign: "
              f"{differing}", file=sys.stderr)
        return 1
    print(f"  {label}: tables byte-identical to clean campaign")
    return 0


class _WatchedRun:
    """A campaign subprocess whose merged output a thread collects."""

    def __init__(self, cache_dir: str, jobs: int, faults: str, extra=()):
        self.proc = subprocess.Popen(
            _campaign_cmd(cache_dir, jobs, extra=extra),
            env=_campaign_env(faults),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: list = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    @property
    def output(self) -> str:
        return "".join(self.lines)

    def wait_for(self, label: str, what: str, predicate, seconds: float):
        """Poll the output until ``predicate(output)`` is truthy; return
        that value, or None (after a FAIL line, with the run stopped)
        when the run exits or ``seconds`` pass first."""
        deadline = time.monotonic() + seconds
        while True:
            found = predicate(self.output)
            if found:
                return found
            if self.proc.poll() is not None or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        self.stop()
        print(f"FAIL: {label} ended (rc={self.proc.returncode}) before "
              f"{what}\n{self.output}", file=sys.stderr)
        return None

    def terminate(self, label: str):
        """SIGTERM the run; its exit status, or None (after a FAIL line)
        when it outlived the 120 s grace period."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=120.0)
        except subprocess.TimeoutExpired:
            self.stop()
            print(f"FAIL: {label} did not exit within 120s of SIGTERM",
                  file=sys.stderr)
            return None
        self._reader.join(timeout=10.0)
        return self.proc.returncode

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10.0)


def _kill_after_first_table(label: str, cache_dir: str, jobs: int,
                            faults: str):
    """Start a campaign and SIGTERM it once experiment 0's table prints.

    ``faults`` should hold experiment 1 back (``delay@campaign:1/...``)
    so the signal deterministically interrupts a *running* campaign.
    Returns ``(returncode, combined_output)``, or None (after a FAIL
    line) when the campaign ended before the window opened.
    """
    run = _WatchedRun(cache_dir, jobs, faults)
    # The CLI prints and flushes each header with its whole table.
    if run.wait_for(label, "its first table", _tables, 300.0) is None:
        return None
    rc = run.terminate(label)
    if rc is None:
        return None
    return rc, run.output


def _check_killed(label: str, rc: int, out: str, cache_dir: str) -> int:
    """A killed campaign exits 75 having printed only experiment 0's
    table, and never started experiment 1: the table reached the pipe
    before the hold, so the signal landed between experiments."""
    failures = 0
    if rc != SHUTDOWN_EXIT_CODE:
        print(f"FAIL: {label} exited {rc}, expected "
              f"{SHUTDOWN_EXIT_CODE}\n{out}", file=sys.stderr)
        failures += 1
    printed = sorted(_tables(out))
    if printed != [_title(CAMPAIGN_IDS[0])]:
        print(f"FAIL: {label} printed tables {printed}, expected only "
              f"{_title(CAMPAIGN_IDS[0])!r}", file=sys.stderr)
        failures += 1
    records = _history_records(cache_dir)
    started = records[-1]["counters"].get("colt_campaign_experiments") \
        if records else None
    if started != 1:
        print(f"FAIL: {label} started {started} experiment(s), expected "
              "1: the SIGTERM did not land between experiments",
              file=sys.stderr)
        failures += 1
    if not failures:
        print(f"  exit {SHUTDOWN_EXIT_CODE}, tables printed: {printed}")
    return failures


def _check_store_reuse(killed_out: str, rerun_out: str) -> int:
    """The rerun's store hits must equal the killed run's saves: every
    simulation the killed run finished comes back from the store."""
    killed = STORE_LINE.search(killed_out)
    rerun = STORE_LINE.search(rerun_out)
    if killed is None or rerun is None:
        print("FAIL: killed run or rerun printed no store line",
              file=sys.stderr)
        return 1
    saves, hits = int(killed["saves"]), int(rerun["hits"])
    if hits != saves or not saves:
        print(f"FAIL: rerun made {hits} store hits, killed run saved "
              f"{saves}", file=sys.stderr)
        return 1
    print(f"  rerun reused the store: {hits} hits for {saves} saves")
    return 0


# ----------------------------------------------------------------------
# Modes.
# ----------------------------------------------------------------------

def _store_check(args) -> int:
    policy = RetryPolicy(max_retries=3, timeout_s=600.0)
    failures = 0

    with tempfile.TemporaryDirectory(prefix="colt-chaos-") as tmp:
        clean_dir = os.path.join(tmp, "clean")
        chaos_dir = os.path.join(tmp, "chaos")

        print(f"clean run (jobs={args.jobs})")
        clean = ExperimentRunner(
            jobs=args.jobs, store=ResultStore(clean_dir), policy=policy
        )
        clean_table = _run_pipeline(clean)

        plan = FaultPlan.parse(args.faults)
        print(f"chaos run (faults: {plan.render()})")
        chaos = ExperimentRunner(
            jobs=args.jobs,
            store=ResultStore(chaos_dir, faults=plan),
            policy=policy,
            faults=plan,
        )
        chaos_table = _run_pipeline(chaos)
        failures += _compare("chaos", clean, chaos, clean_table, chaos_table)
        resilience = chaos.resilience_counters.as_dict()
        if not any(v for k, v in resilience.items() if k != "tasks"):
            print("FAIL: chaos run reported no resilience activity "
                  "(did the plan fire?)", file=sys.stderr)
            failures += 1
        else:
            print("  resilience: " + ", ".join(
                f"{v} {k}" for k, v in resilience.items() if v))

        print("resume run (fault-free, over the corrupted chaos store)")
        resume_store = ResultStore(chaos_dir)
        resume = ExperimentRunner(
            jobs=args.jobs, store=resume_store, policy=policy
        )
        resume_table = _run_pipeline(resume)
        failures += _compare(
            "resume", clean, resume, clean_table, resume_table
        )
        counts = resume_store.counters.as_dict()
        if counts["quarantines"] != CORRUPTED_WRITES:
            print(
                f"FAIL: expected {CORRUPTED_WRITES} quarantined entries, "
                f"got {counts['quarantines']:.0f}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"  quarantined {counts['quarantines']:.0f} corrupted "
                  f"entries, {counts['hits']:.0f} warm hits")
        quarantined = len(
            list((resume_store.root / QUARANTINE_DIR).glob("*.pkl"))
        )
        if quarantined != CORRUPTED_WRITES:
            print(
                f"FAIL: quarantine dir holds {quarantined} entries, "
                f"expected {CORRUPTED_WRITES}",
                file=sys.stderr,
            )
            failures += 1
        # Zero leakage: after the resume repaired the store, every live
        # entry must decode -- a second warm pass sees only hits.
        verify_store = ResultStore(chaos_dir)
        for config in clean._cache:
            if verify_store.load(config) is None:
                print(
                    "FAIL: repaired store still missing/corrupt for "
                    f"{config.benchmark}/{config.design.value}",
                    file=sys.stderr,
                )
                failures += 1
        verify_counts = verify_store.counters.as_dict()
        if verify_counts["quarantines"] or verify_counts["misses"]:
            print(
                "FAIL: repaired store not fully warm "
                f"({verify_counts['misses']:.0f} misses, "
                f"{verify_counts['quarantines']:.0f} quarantines)",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"  repaired store fully warm: {verify_counts['hits']:.0f} "
                "hits, no residual corruption"
            )

    if failures:
        print(f"chaos check FAILED ({failures} divergence(s))",
              file=sys.stderr)
        return 1
    print("chaos check passed: all faulted runs bit-identical to clean")
    return 0


def _check_deadline_dump(dump_dir: str) -> int:
    """Exactly one worker dump, taken inside the stuck fault's fire()."""
    dumps = sorted(Path(dump_dir).glob("task-*.txt"))
    if len(dumps) != 1:
        print(f"FAIL: expected one task-*.txt deadline dump under "
              f"{dump_dir}, found {[path.name for path in dumps]}",
              file=sys.stderr)
        return 1
    text = dumps[0].read_text(encoding="utf-8", errors="replace")
    if not re.search(r'File ".*sim[/\\]faults\.py", line \d+ in fire', text):
        print(f"FAIL: {dumps[0].name} does not show the worker in "
              f"sim/faults.py fire():\n{text}", file=sys.stderr)
        return 1
    return 0


def _campaign_check(args) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="colt-campaign-") as tmp:
        clean_dir = os.path.join(tmp, "clean")
        kill_dir = os.path.join(tmp, "killed")
        deadline_dir = os.path.join(tmp, "deadline")
        dump_dir = os.path.join(tmp, "dumps")

        print(f"clean campaign {' '.join(CAMPAIGN_IDS)} (jobs={args.jobs})")
        clean = _checked_run("clean campaign", clean_dir, args.jobs)
        if clean is None:
            return 1
        clean_tables = _tables(clean.stdout)
        if sorted(clean_tables) != sorted(map(_title, CAMPAIGN_IDS)):
            print(f"FAIL: clean campaign printed tables "
                  f"{sorted(clean_tables)}", file=sys.stderr)
            return 1
        print(f"  {len(clean_tables)} tables printed")

        # Kill phase: a parent-side hold before experiment 1 opens a
        # window in which the campaign is running; SIGTERM there must
        # wind down gracefully with the resumable status.
        print("killed campaign (SIGTERM while experiment 1 is held)")
        killed = _kill_after_first_table(
            "killed campaign", kill_dir, args.jobs,
            f"delay@campaign:1/{HOLD_SECONDS:g}",
        )
        if killed is None:
            return 1
        failures += _check_killed("killed campaign", *killed, kill_dir)

        print("rerun (the same command over the killed run's store)")
        rerun = _checked_run("rerun", kill_dir, args.jobs)
        if rerun is None:
            failures += 1
        else:
            failures += _check_store_reuse(killed[1], rerun.stdout)
            failures += _compare_tables("rerun", rerun.stdout, clean_tables)

        print(f"deadline campaign (capture sleeps "
              f"{DEADLINE_DELAY_SECONDS:g}s, task deadline "
              f"{DEADLINE_TIMEOUT_SECONDS:g}s)")
        timed_out = _checked_run(
            "deadline campaign", deadline_dir, args.jobs,
            faults=f"delay@capture:0/{DEADLINE_DELAY_SECONDS:g}",
            ids=(CAMPAIGN_IDS[0],),
            extra=(
                "--task-timeout", f"{DEADLINE_TIMEOUT_SECONDS:g}",
                "--dump-dir", dump_dir,
            ),
        )
        if timed_out is None:
            failures += 1
        elif not TIMEOUTS.search(timed_out.stdout):
            print("FAIL: deadline campaign reported no timeout:\n"
                  f"{timed_out.stdout}", file=sys.stderr)
            failures += 1
        failures += _check_deadline_dump(dump_dir)
        deadline_title = _title(CAMPAIGN_IDS[0])
        printed = _tables(timed_out.stdout) if timed_out else {}
        if printed.get(deadline_title) != clean_tables[deadline_title]:
            print("FAIL: deadline campaign table differs from clean run",
                  file=sys.stderr)
            failures += 1
        elif not failures:
            print("  recovered bit-identically; the worker's deadline "
                  "dump shows it stuck in the fault's fire()")

    if failures:
        print(f"campaign check FAILED ({failures} divergence(s))",
              file=sys.stderr)
        return 1
    print("campaign check passed: kill/rerun/deadline all converged "
          "on the clean tables")
    return 0


def _history_records(cache_dir: str) -> list:
    path = Path(cache_dir) / "history" / "history.jsonl"
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


def _get(port: int, route: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{route}", timeout=timeout
    ) as response:
        return response.read()


def _telemetry_check(args) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="colt-telemetry-") as tmp:
        cache_dir = os.path.join(tmp, "cache")

        # Kill phase: serve telemetry while experiment 1 is held, probe
        # the endpoints live, then SIGTERM. The server must come down
        # with the process (exit 75, port released) and the killed run
        # must still leave a non-ok history record.
        label = "telemetry campaign"
        print(f"{label} (SIGTERM while serving --telemetry-port 0)")
        run = _WatchedRun(
            cache_dir, args.jobs, f"delay@campaign:1/{HOLD_SECONDS:g}",
            extra=("--telemetry-port", "0"),
        )
        announced = run.wait_for(
            label, "it announced its port", TELEMETRY_LINE.search, 60.0
        )
        if announced is None or \
                run.wait_for(label, "its first table", _tables, 300.0) is None:
            return 1
        port = int(announced.group(1))

        try:
            if _get(port, "/healthz").strip() != b"ok":
                print("FAIL: /healthz did not answer ok", file=sys.stderr)
                failures += 1
            # Experiment 0's table has printed and experiment 1 is
            # held, so the loop has started and completed exactly one.
            metrics = _get(port, "/metrics").decode("utf-8")
            for name in ("experiments", "completed"):
                if not re.search(rf"^colt_campaign_{name} 1$", metrics,
                                 re.M):
                    print(f"FAIL: live /metrics lacks "
                          f"colt_campaign_{name} 1 while experiment 1 "
                          "is held", file=sys.stderr)
                    failures += 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"FAIL: live telemetry probe failed: {exc}",
                  file=sys.stderr)
            failures += 1
        if not failures:
            print(f"  live probes ok on port {port} (one experiment "
                  "started and completed)")

        rc = run.terminate(label)
        if rc is None:
            failures += 1
        elif rc != SHUTDOWN_EXIT_CODE:
            print(f"FAIL: killed campaign exited {rc}, expected "
                  f"{SHUTDOWN_EXIT_CODE}\n{run.output}", file=sys.stderr)
            failures += 1
        try:
            _get(port, "/healthz", timeout=2.0)
            print(f"FAIL: port {port} still answering after exit "
                  "(telemetry thread leaked)", file=sys.stderr)
            failures += 1
        except (urllib.error.URLError, OSError):
            pass  # refused/reset: the server came down with the process

        records = _history_records(cache_dir)
        if not records:
            print("FAIL: killed run appended no history record",
                  file=sys.stderr)
            failures += 1
        else:
            last = records[-1]
            if last.get("status") == "ok" or not last.get("telemetry"):
                print(f"FAIL: killed run's history record is "
                      f"status={last.get('status')!r} "
                      f"telemetry={last.get('telemetry')!r}; expected a "
                      "non-ok telemetry record", file=sys.stderr)
                failures += 1
            else:
                print(f"  exit {SHUTDOWN_EXIT_CODE}, port released, "
                      f"history recorded status={last['status']!r}")

        print("rerun (the same command, telemetry served again)")
        rerun = _checked_run(
            "rerun", cache_dir, args.jobs, extra=("--telemetry-port", "0"),
        )
        if rerun is None:
            failures += 1
        history = _history_records(cache_dir)
        if len(history) != len(records) + 1 or \
                history[-1].get("status") != "ok":
            print(f"FAIL: rerun did not append an ok record "
                  f"({len(records)} -> {len(history)} records, newest "
                  f"{history[-1].get('status')!r})"
                  if history else "FAIL: rerun left no history",
                  file=sys.stderr)
            failures += 1
        elif not failures:
            print(f"  rerun complete; history now {len(history)} "
                  "record(s), newest status='ok'")

    if failures:
        print(f"telemetry check FAILED ({failures} divergence(s))",
              file=sys.stderr)
        return 1
    print("telemetry check passed: clean SIGTERM shutdown, history "
          "records for the killed run and its rerun")
    return 0


#: Mode registry: name -> (check function, one-line description).
MODES = {
    "store": (
        _store_check,
        "in-process fault plan vs clean run, plus corrupted-store "
        "resume (default)",
    ),
    "campaign": (
        _campaign_check,
        "resume from the store: clean, SIGTERM kill, rerun, "
        "task-deadline dump",
    ),
    "telemetry": (
        _telemetry_check,
        "telemetry plane: live probes, clean SIGTERM shutdown, "
        "history records",
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify fault-injected runs recover bit-identical "
                    "results (fig18, QUICK scale)."
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for every run (default: 2)",
    )
    parser.add_argument(
        "--faults", default=DEFAULT_PLAN, metavar="PLAN",
        help=f"fault plan for the store-mode chaos run "
             f"(default: {DEFAULT_PLAN!r})",
    )
    parser.add_argument(
        "--list-modes", action="store_true",
        help="list the check modes and exit",
    )
    for mode, (_check, description) in MODES.items():
        if mode == "store":
            continue  # the default mode needs no flag
        parser.add_argument(
            f"--{mode}", action="store_true", help=f"check: {description}",
        )
    args = parser.parse_args(argv)
    if args.list_modes:
        for mode, (_check, description) in MODES.items():
            print(f"{mode:12s} {description}")
        return 0
    selected = [
        mode for mode in MODES
        if mode != "store" and getattr(args, mode)
    ]
    if len(selected) > 1:
        parser.error(f"pick one mode, not {selected}")
    check, _description = MODES[selected[0] if selected else "store"]
    return check(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Resumable experiment campaigns: journal, runner, graceful shutdown.

Regenerating the full paper evaluation (Table 1, the contiguity
figures, the TLB figures, the ablations) is a long multi-batch run.
PR 4's :class:`~repro.sim.resilience.ResilientExecutor` protects the
inside of one ``run_batch`` call; this module protects the *campaign*:
a Ctrl-C, OOM kill or hung worker between batches must not lose
campaign-level progress, and a restarted process must pick up exactly
where the killed one stopped.

Three pieces:

* :class:`CampaignManifest` -- a crash-safe JSON **write-ahead
  journal** under the cache dir enumerating every experiment with
  ``pending`` / ``running`` / ``done`` / ``failed`` status plus a
  fingerprint of the scale preset, experiment list and architectural
  constants. Every transition is journaled *before* the work it
  describes (mark-running precedes the run, mark-done follows it), and
  every rewrite is atomic (``repro.common.atomicio``), so the journal
  is consistent at any kill point: a ``running`` entry after a crash
  means exactly "this experiment was in flight and must rerun".
* :class:`CampaignRunner` -- drives
  :class:`~repro.sim.runner.ExperimentRunner` experiment by
  experiment, skipping journaled ``done`` entries on ``--resume``
  (their tables reload from the atomic per-experiment dumps; a
  ``done`` entry whose dump is missing reruns), writing
  each completed experiment's table to disk, and honouring the
  shutdown coordinator and watchdog between batches.
* :class:`ShutdownCoordinator` -- signal-safe graceful shutdown. The
  **first** SIGINT/SIGTERM only sets a flag: the executor cancels
  pending work, completed results checkpoint to the store, the
  campaign journals its state, and the CLI flushes observability
  artifacts before exiting with :data:`SHUTDOWN_EXIT_CODE`. A
  **second** signal restores the default handler and re-raises it --
  the hard abort for when graceful is taking too long (the journal is
  still consistent, because it is write-ahead).

Determinism note: the journal records *what happened*, never *when* --
no wall-clock enters this module, so resumed campaigns reproduce
interrupted ones bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.atomicio import atomic_write_json, atomic_write_text
from repro.common.errors import (
    CampaignError,
    MemoryBudgetError,
    ShutdownRequested,
    TaskExecutionError,
)
from repro.common.statistics import CounterSet
from repro.obs.live import get_progress
from repro.obs.logging import get_logger
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import obs_active, span
from repro.sim.runner import ExperimentRunner
from repro.sim.store import canonical_encode, constants_fingerprint
from repro.sim.watchdog import Watchdog

_LOG = get_logger(__name__)

#: Journal schema version (bump on layout changes).
CAMPAIGN_VERSION = 1

#: Exit status of a run that shut down gracefully on the first signal
#: with a consistent journal -- distinct from 0 (complete), 1 (error)
#: and the shell's 128+signum (hard kill), so wrappers can distinguish
#: "resume me" from "debug me".
SHUTDOWN_EXIT_CODE = 75  # EX_TEMPFAIL: transient, retry (resume) later

#: Journal entry statuses.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
_STATUSES = (STATUS_PENDING, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)

#: Counter names (bound to the registry as ``colt_campaign_*``).
CAMPAIGN_COUNTERS = (
    "experiments",
    "completed",
    "skipped",
    "failed",
    "interrupted",
    "resumed",
    "demotions",
    "journal_writes",
)


def campaign_fingerprint(scale, experiment_ids: Sequence[str]) -> str:
    """Stable hash of everything a journal's results depend on.

    A resumed campaign must refuse to mix results across scale presets,
    experiment lists, or architectural-constant changes -- any of those
    silently changes every number in the paper. Nothing about how a
    replay is driven enters the fingerprint: there is one replay loop
    (``repro.sim.replay``), and a runner's ``engine`` name only picks
    which of its two harness names to call.
    """
    payload = {
        "version": CAMPAIGN_VERSION,
        "scale": canonical_encode(scale),
        "ids": list(experiment_ids),
        "constants": constants_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ShutdownCoordinator:
    """Two-stage SIGINT/SIGTERM handling for long runs.

    First signal: remember it and let every polling site (executor
    waits, campaign loop, experiment loop) wind down gracefully.
    Second signal: restore the default handler and re-raise, so an
    operator is never trapped behind a graceful path that hangs.

    Install from the main thread only (CPython restricts
    ``signal.signal``); library code receives an installed coordinator
    and merely polls :attr:`requested` / calls :meth:`check`.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.signal_name: Optional[str] = None
        self._previous: Dict[int, object] = {}

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`ShutdownRequested` if a signal arrived."""
        if self._event.is_set():
            raise ShutdownRequested(self.signal_name or "signal")

    def request(self, signal_name: str = "request()") -> None:
        """Programmatic trigger (tests, embedding)."""
        if not self._event.is_set():
            self.signal_name = signal_name
        self._event.set()

    def _handle(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        if self._event.is_set():
            # Second signal: get out of the way and take the default
            # (fatal) behaviour -- the write-ahead journal is already
            # consistent, so a hard abort loses nothing but politeness.
            _LOG.warning("second %s: hard abort", name)
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.signal_name = name
        self._event.set()
        _LOG.warning(
            "%s received: cancelling pending work, checkpointing "
            "completed results, journaling state (signal again to "
            "hard-abort)", name,
        )

    def install(self, signals=(signal.SIGINT, signal.SIGTERM)
                ) -> "ShutdownCoordinator":
        for sig in signals:
            self._previous[sig] = signal.signal(sig, self._handle)
        return self

    def restore(self) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()

    def __enter__(self) -> "ShutdownCoordinator":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()


class CampaignManifest:
    """The write-ahead journal: experiment list + status, on disk.

    Every mutation rewrites the whole JSON document atomically; the
    document is small (one entry per experiment), so rewrite-the-world
    is simpler and safer than appending. ``save()`` happens *before*
    dependent work starts and *after* it finishes, which makes every
    status trustworthy at any kill point.
    """

    def __init__(
        self,
        path,
        experiment_ids: Sequence[str],
        fingerprint: str,
        entries: Optional[Dict[str, dict]] = None,
    ) -> None:
        self.path = Path(path)
        self.experiment_ids: Tuple[str, ...] = tuple(experiment_ids)
        self.fingerprint = fingerprint
        self.entries: Dict[str, dict] = entries if entries is not None else {
            exp_id: {"status": STATUS_PENDING, "attempts": 0, "error": None}
            for exp_id in self.experiment_ids
        }
        self.writes = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def fresh(cls, path, experiment_ids: Sequence[str], fingerprint: str
              ) -> "CampaignManifest":
        """New all-pending journal, written to disk immediately."""
        manifest = cls(path, experiment_ids, fingerprint)
        manifest.save()
        return manifest

    @classmethod
    def load(cls, path) -> "CampaignManifest":
        """Parse a journal; :class:`CampaignError` when unusable."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CampaignError(
                f"no campaign journal at {path}; start one without "
                "--resume first"
            ) from None
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"unreadable campaign journal {path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("version") != \
                CAMPAIGN_VERSION:
            raise CampaignError(
                f"campaign journal {path} has version "
                f"{data.get('version') if isinstance(data, dict) else '?'}, "
                f"this build writes {CAMPAIGN_VERSION}; delete it to start "
                "fresh"
            )
        try:
            ids = tuple(data["experiments"])
            entries = {
                exp_id: dict(data["entries"][exp_id]) for exp_id in ids
            }
            fingerprint = data["fingerprint"]
        except (KeyError, TypeError) as exc:
            raise CampaignError(
                f"campaign journal {path} is missing fields: {exc}"
            ) from exc
        for exp_id, entry in entries.items():
            if entry.get("status") not in _STATUSES:
                raise CampaignError(
                    f"campaign journal {path}: experiment {exp_id!r} has "
                    f"unknown status {entry.get('status')!r}"
                )
        return cls(path, ids, fingerprint, entries)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self.path,
            {
                "version": CAMPAIGN_VERSION,
                "fingerprint": self.fingerprint,
                "experiments": list(self.experiment_ids),
                "entries": self.entries,
            },
            indent=2,
            sort_keys=True,
        )
        self.writes += 1

    # -- queries --------------------------------------------------------

    def status(self, exp_id: str) -> str:
        return self.entries[exp_id]["status"]

    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in _STATUSES}
        for entry in self.entries.values():
            tally[entry["status"]] += 1
        return tally

    def pending_ids(self) -> List[str]:
        """Experiments a (resumed) campaign still has to run.

        ``failed`` entries are retried on resume -- exhaustion is often
        environmental (OOM, disk) and the point of resuming is a second
        chance; ``done`` entries are recomputed only when their table
        dump is missing (see :meth:`CampaignRunner.run`).
        """
        return [
            exp_id for exp_id in self.experiment_ids
            if self.entries[exp_id]["status"] != STATUS_DONE
        ]

    def is_complete(self) -> bool:
        return all(
            entry["status"] == STATUS_DONE for entry in self.entries.values()
        )

    # -- write-ahead transitions ---------------------------------------

    def _transition(self, exp_id: str, status: str,
                    error: Optional[str] = None) -> None:
        entry = self.entries[exp_id]
        entry["status"] = status
        entry["error"] = error
        if status == STATUS_RUNNING:
            entry["attempts"] = int(entry.get("attempts", 0)) + 1
        self.save()

    def mark_running(self, exp_id: str) -> None:
        self._transition(exp_id, STATUS_RUNNING)

    def mark_done(self, exp_id: str) -> None:
        self._transition(exp_id, STATUS_DONE)

    def mark_failed(self, exp_id: str, error: str) -> None:
        self._transition(exp_id, STATUS_FAILED, error=error)

    def mark_pending(self, exp_id: str) -> None:
        self._transition(exp_id, STATUS_PENDING)

    def demote_running(self) -> List[str]:
        """Resume-time repair: in-flight entries of a killed process
        go back to ``pending`` (their work never journaled as done).
        Returns the demoted experiment ids so the caller can account
        for the repair instead of performing it silently."""
        demoted = []
        for exp_id, entry in self.entries.items():
            if entry["status"] == STATUS_RUNNING:
                entry["status"] = STATUS_PENDING
                demoted.append(exp_id)
        if demoted:
            self.save()
        return demoted


@dataclass
class CampaignStatus:
    """What one :meth:`CampaignRunner.run` call did."""

    completed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    interrupted: Optional[str] = None  # signal name when shut down early
    tables: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed and self.interrupted is None


class CampaignRunner:
    """Drives the experiment registry batch-by-batch under the journal.

    Args:
        manifest: the write-ahead journal (fresh or resumed).
        runner: the shared :class:`ExperimentRunner` (store-backed).
        scale: the :class:`~repro.experiments.scale.ExperimentScale`
            every experiment runs at.
        tables_dir: where per-experiment table dumps land (atomic
            writes; reloaded instead of recomputed on resume).
        shutdown: optional coordinator polled between experiments.
        watchdog: optional watchdog; its abort flag is honoured
            between experiments (the runner itself honours the
            degradation ladder inside batches).
        faults: optional fault plan; ``<kind>@campaign:<index>`` specs
            fire before experiment ``index`` starts (chaos testing the
            journal's kill-anywhere consistency).
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        runner: ExperimentRunner,
        scale,
        tables_dir,
        shutdown: Optional[ShutdownCoordinator] = None,
        watchdog: Optional[Watchdog] = None,
        faults=None,
        on_experiment=None,
    ) -> None:
        self.manifest = manifest
        self.runner = runner
        self.scale = scale
        self.tables_dir = Path(tables_dir)
        self.shutdown = shutdown
        self.watchdog = watchdog
        self._faults = faults
        self._on_experiment = on_experiment
        self.counters = CounterSet(CAMPAIGN_COUNTERS)
        if obs_active():
            bind_counterset(get_registry(), "colt_campaign", self.counters)

    def _table_path(self, exp_id: str) -> Path:
        return self.tables_dir / f"{exp_id}.txt"

    def _publish_progress(self, current: Optional[str] = None) -> None:
        """Post manifest counts to the live tracker (telemetry plane)."""
        get_progress().update_section(
            "campaign",
            current=current,
            total=len(self.manifest.experiment_ids),
            **self.manifest.counts(),
        )

    def run(self) -> CampaignStatus:
        """Run every non-``done`` experiment; journal every transition.

        Returns instead of raising on graceful shutdown (the status
        carries the signal name); propagates hard failures
        (:class:`MemoryBudgetError`, injected campaign faults) with the
        journal already consistent.
        """
        # Local import: the registry imports the runner module tree;
        # importing it lazily keeps repro.sim importable on its own.
        from repro.experiments.registry import get_experiment

        status = CampaignStatus()
        get_progress().update(phase="campaign")
        self._publish_progress()
        demoted = self.manifest.demote_running()
        if demoted:
            self.counters.increment("resumed", len(demoted))
            self.counters.increment("demotions", len(demoted))
            if obs_active():
                get_registry().counter(
                    "colt_campaign_demotions",
                    help="in-flight experiments demoted to pending "
                    "on resume",
                ).inc(len(demoted))
            _LOG.warning(
                "journal had %d in-flight experiment(s) from a killed "
                "run; requeued: %s", len(demoted), ", ".join(demoted),
            )
        for index, exp_id in enumerate(self.manifest.experiment_ids):
            if self.watchdog is not None and self.watchdog.should_abort():
                raise MemoryBudgetError(
                    "memory watchdog exhausted its degradation ladder; "
                    f"campaign journaled at {self.manifest.path} -- "
                    "resume with a larger budget or fewer jobs"
                )
            if self.shutdown is not None and self.shutdown.requested:
                status.interrupted = self.shutdown.signal_name
                break
            if self.manifest.status(exp_id) == STATUS_DONE:
                table_path = self._table_path(exp_id)
                if table_path.exists():
                    self.counters.increment("skipped")
                    status.skipped.append(exp_id)
                    status.tables[exp_id] = table_path.read_text(
                        encoding="utf-8"
                    )
                    continue
                # The table is the experiment's only artifact, so a
                # done entry without its dump is not done. Rerunning
                # is cheap: its simulations come back from the store.
                _LOG.warning(
                    "experiment %s is journaled done but its table dump "
                    "%s is missing; rerunning it", exp_id, table_path,
                )
            self.counters.increment("experiments")
            self.manifest.mark_running(exp_id)
            self.counters.increment("journal_writes")
            self._publish_progress(current=exp_id)
            if self._faults is not None:
                # After mark-running: an injected death here leaves the
                # nastiest journal state (in flight), which resume must
                # repair via demote_running().
                self._faults.fire("campaign", index)
            if self.shutdown is not None and self.shutdown.requested:
                # A signal landed between the journal transition and
                # launch. A cache-warm experiment might never reach the
                # executor's shutdown poll, so requeue it here.
                self.manifest.mark_pending(exp_id)
                self.counters.increment("journal_writes")
                self.counters.increment("interrupted")
                status.interrupted = self.shutdown.signal_name
                break
            experiment = get_experiment(exp_id)
            try:
                with span("campaign.experiment", cat="campaign", id=exp_id):
                    result = experiment.run(self.scale, self.runner)
            except ShutdownRequested as exc:
                # Nothing of this experiment was journaled as done;
                # requeue it and report the interruption.
                self.manifest.mark_pending(exp_id)
                self.counters.increment("journal_writes")
                self.counters.increment("interrupted")
                status.interrupted = exc.signal_name
                break
            except TaskExecutionError as exc:
                self.manifest.mark_failed(exp_id, str(exc))
                self.counters.increment("journal_writes")
                self.counters.increment("failed")
                self._publish_progress()
                status.failed.append(exp_id)
                _LOG.error("experiment %s failed permanently: %s",
                           exp_id, exc)
                continue
            table = result.format_table()
            self.tables_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self._table_path(exp_id), table + "\n")
            self.manifest.mark_done(exp_id)
            self.counters.increment("journal_writes")
            self.counters.increment("completed")
            status.completed.append(exp_id)
            status.tables[exp_id] = table
            self._publish_progress()
            if self._on_experiment is not None:
                self._on_experiment(exp_id)
        self._publish_progress()
        get_progress().update(
            phase="interrupted" if status.interrupted else "idle"
        )
        if status.interrupted is not None:
            with span("campaign.shutdown", cat="campaign",
                      signal=status.interrupted):
                _LOG.warning(
                    "campaign interrupted by %s: %d done, %d still "
                    "pending; resume with --resume",
                    status.interrupted,
                    self.manifest.counts()[STATUS_DONE],
                    len(self.manifest.pending_ids()),
                )
        return status

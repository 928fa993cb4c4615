"""The experiment loop and graceful shutdown.

Regenerating the full paper evaluation (Table 1, the contiguity
figures, the TLB figures, the ablations) is a long multi-batch run.
:class:`~repro.sim.resilience.ResilientExecutor` protects the inside
of one ``run_batch`` call; this module runs the experiments one after
another and stops cleanly between batches.

The result store (:mod:`repro.sim.store`) is the only resume state.
Every finished simulation persists under a key covering its full
config and the architectural constants, so rerunning the same command
after a Ctrl-C, OOM kill or hung worker gets each finished simulation
back as a store hit and computes only what was lost. A rerun at a
different scale or under different constants cannot reuse a result,
because both are part of the key.

Two pieces:

* :class:`CampaignRunner` -- drives
  :class:`~repro.sim.runner.ExperimentRunner` experiment by
  experiment, honouring the shutdown coordinator between batches,
  and carrying on past an experiment that failed permanently. When
  the runner has a store, each finished table is written atomically
  to ``<cache>/campaign/tables/<id>.txt``, an output that nothing
  reads back.
* :class:`ShutdownCoordinator` -- signal-safe graceful shutdown. The
  **first** SIGINT/SIGTERM only sets a flag: the executor cancels
  pending work, completed results checkpoint to the store, and the
  CLI flushes observability artifacts before exiting with
  :data:`SHUTDOWN_EXIT_CODE`. A **second** signal restores the
  default handler and re-raises it -- the hard abort for when
  graceful is taking too long (the store loses nothing, because every
  entry is written atomically).

No wall-clock enters this module: nothing here can make a rerun's
tables differ from an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.common.atomicio import atomic_write_text
from repro.common.errors import ShutdownRequested, TaskExecutionError
from repro.common.statistics import CounterSet
from repro.obs.live import get_progress
from repro.obs.logging import get_logger
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import span
from repro.sim.runner import ExperimentRunner
from repro.sim.store import canonical_encode, constants_fingerprint

_LOG = get_logger(__name__)

#: Exit status of a run that shut down gracefully on the first signal
#: -- distinct from 0 (complete), 1 (error) and the shell's 128+signum
#: (hard kill), so wrappers can distinguish "rerun me" from "debug me".
SHUTDOWN_EXIT_CODE = 75  # EX_TEMPFAIL: transient, retry later

#: Counter names (bound to the registry as ``colt_campaign_*``).
CAMPAIGN_COUNTERS = ("experiments", "completed", "failed", "interrupted")


def campaign_fingerprint(scale, experiment_ids: Sequence[str]) -> str:
    """Stable hash of everything a run's results depend on.

    Covers the scale preset, the experiment list and the architectural
    constants. Each history record carries it, so two records with the
    same fingerprint computed the same numbers.
    """
    payload = {
        # Payload layout version; bump when the layout changes.
        "version": 1,
        "scale": canonical_encode(scale),
        "ids": list(experiment_ids),
        "constants": constants_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ShutdownCoordinator:
    """Two-stage SIGINT/SIGTERM handling for long runs.

    First signal: remember it and let every polling site (executor
    waits, the experiment loop) wind down gracefully.
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
        # Logging here cannot self-deadlock: logging's lock is
        # re-entrant and the handler runs on the main thread.
        name = signal.Signals(signum).name
        if self._event.is_set():
            # Second signal: get out of the way and take the default
            # (fatal) behaviour -- every store entry is written
            # atomically, so a hard abort loses nothing but politeness.
            _LOG.warning("second %s: hard abort", name)
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.signal_name = name
        self._event.set()
        _LOG.warning(
            "%s received: cancelling pending work, checkpointing "
            "completed results (signal again to hard-abort)", name,
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


@dataclass
class CampaignStatus:
    """What one :meth:`CampaignRunner.run` call did."""

    completed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    interrupted: Optional[str] = None  # signal name when shut down early
    tables: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed and self.interrupted is None


class CampaignRunner:
    """Runs experiments in order over one shared runner.

    Args:
        experiments: the resolved experiments (anything with an ``id``
            and a ``run(scale, runner)`` returning a result with
            ``format_table()``), run in the given order.
        runner: the shared :class:`ExperimentRunner`. When it has a
            result store, each finished table is written atomically
            to ``<store root>/campaign/tables/<id>.txt``.
        scale: the :class:`~repro.experiments.scale.ExperimentScale`
            every experiment runs at.
        shutdown: optional coordinator polled between experiments.
        faults: optional fault plan; ``<kind>@campaign:<index>`` specs
            fire before experiment ``index`` starts, ahead of the
            shutdown check, so a signal that lands during an injected
            delay stops the loop before that experiment.
        on_experiment: optional ``callback(experiment, table)`` called
            as each experiment ends, with its table text, or ``None``
            when it failed permanently.
    """

    def __init__(
        self,
        experiments: Sequence,
        runner: ExperimentRunner,
        scale,
        shutdown: Optional[ShutdownCoordinator] = None,
        faults=None,
        on_experiment=None,
    ) -> None:
        self.experiments = tuple(experiments)
        self.runner = runner
        self.scale = scale
        self.tables_dir: Optional[Path] = None
        if runner.store is not None:
            self.tables_dir = Path(runner.store.root) / "campaign" / "tables"
        self.shutdown = shutdown
        self._faults = faults
        self._on_experiment = on_experiment
        self.counters = CounterSet(CAMPAIGN_COUNTERS)
        bind_counterset(get_registry(), "colt_campaign", self.counters)

    def _publish_progress(self, status: CampaignStatus,
                          current: Optional[str] = None) -> None:
        """Post the loop's counts to the live tracker (telemetry plane)."""
        total = len(self.experiments)
        done, failed = len(status.completed), len(status.failed)
        get_progress().update_section(
            "campaign", current=current, total=total, done=done,
            failed=failed, pending=total - done - failed,
        )

    def run(self) -> CampaignStatus:
        """Run every experiment; continue past permanent failures.

        Returns instead of raising on graceful shutdown (the status
        carries the signal name); propagates injected campaign faults.
        """
        status = CampaignStatus()
        get_progress().update(phase="campaign")
        self._publish_progress(status)
        for index, experiment in enumerate(self.experiments):
            if self._faults is not None:
                self._faults.fire("campaign", index)
            if self.shutdown is not None and self.shutdown.requested:
                status.interrupted = self.shutdown.signal_name
                break
            self.counters.increment("experiments")
            self._publish_progress(status, current=experiment.id)
            try:
                result = experiment.run(self.scale, self.runner)
            except ShutdownRequested as exc:
                status.interrupted = exc.signal_name
                break
            except TaskExecutionError as exc:
                self.counters.increment("failed")
                status.failed.append(experiment.id)
                _LOG.error("experiment %s failed permanently: %s",
                           experiment.id, exc)
                table = None
            else:
                table = result.format_table()
                if self.tables_dir is not None:
                    self.tables_dir.mkdir(parents=True, exist_ok=True)
                    atomic_write_text(
                        self.tables_dir / f"{experiment.id}.txt",
                        table + "\n",
                    )
                self.counters.increment("completed")
                status.completed.append(experiment.id)
                status.tables[experiment.id] = table
            self._publish_progress(status)
            if self._on_experiment is not None:
                self._on_experiment(experiment, table)
        self._publish_progress(status)
        get_progress().update(
            phase="interrupted" if status.interrupted else "idle"
        )
        if status.interrupted is not None:
            self.counters.increment("interrupted")
            with span("campaign.shutdown", cat="campaign",
                      signal=status.interrupted):
                _LOG.warning(
                    "interrupted by %s after %d of %d experiment(s); "
                    "rerun the same command to resume",
                    status.interrupted, len(status.completed),
                    len(self.experiments),
                )
        return status

"""Graceful shutdown for long runs.

Regenerating the full paper evaluation is a long multi-batch run.
The result store (:mod:`repro.sim.store`) is its only resume state:
every finished simulation persists under a key covering its full
config and the architectural constants, so rerunning the same command
after a Ctrl-C, OOM kill or hung worker gets each finished simulation
back as a store hit and computes only what was lost.

:class:`ShutdownCoordinator` makes the stop clean. The **first**
SIGINT/SIGTERM only sets a flag: the executor cancels pending work,
completed results checkpoint to the store, and the CLI's experiment
loop stops between experiments, flushes observability artifacts and
exits with :data:`SHUTDOWN_EXIT_CODE`. A **second** signal restores the
default handler and re-raises it -- the hard abort for when graceful is
taking too long (the store loses nothing, because every entry is
written atomically).
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Dict, Optional

from repro.common.errors import ShutdownRequested
from repro.obs.logging import get_logger

_LOG = get_logger(__name__)

#: Exit status of a run that shut down gracefully on the first signal
#: -- distinct from 0 (complete), 1 (error) and the shell's 128+signum
#: (hard kill), so wrappers can distinguish "rerun me" from "debug me".
SHUTDOWN_EXIT_CODE = 75  # EX_TEMPFAIL: transient, retry later


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

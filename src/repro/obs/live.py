"""Live, process-local progress state for the telemetry plane.

A :class:`ProgressTracker` is a tiny thread-safe blackboard: producers
(the experiment loop, the experiment runner) publish small facts a
few times per experiment -- never per simulated access -- and the
telemetry server thread (:mod:`repro.obs.serve`) reads a consistent
copy to answer ``/progress``. Publishing is unconditional and costs
one dict update under an uncontended lock, so the tracker is always
on; the HTTP server is the opt-in part (``COLT_TELEMETRY_PORT`` /
``--telemetry-port``).

The tracker never feeds back into simulation: it is written by the
simulator and only ever *read* by the server, which keeps telemetry on
the same bit-identity footing as the rest of ``repro.obs``.
"""

from __future__ import annotations

import copy
import threading
from typing import Dict, Optional


class ProgressTracker:
    """Thread-safe key/value progress state with nested sections.

    Top-level fields describe the run (``phase``, ``figure``,
    ``engine``); named sections group related facts (``campaign`` for
    the experiment loop's counts, ``runner`` for the batch stage).
    Readers get deep copies, so a snapshot can be serialised while
    producers keep writing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: Dict[str, object] = {"phase": "idle"}

    def update(self, **fields) -> None:
        """Merge ``fields`` into the top-level state."""
        with self._lock:
            self._state.update(fields)

    def update_section(self, section: str, **fields) -> None:
        """Merge ``fields`` into the nested dict ``state[section]``."""
        with self._lock:
            current = self._state.get(section)
            merged = dict(current) if isinstance(current, dict) else {}
            merged.update(fields)
            self._state[section] = merged

    def snapshot(self) -> Dict[str, object]:
        """A deep copy of the current state (safe to serialise)."""
        with self._lock:
            return copy.deepcopy(self._state)


# ---------------------------------------------------------------------------
# Process-local default tracker.
# ---------------------------------------------------------------------------

_PROGRESS: Optional[ProgressTracker] = None
_PROGRESS_LOCK = threading.Lock()


def get_progress() -> ProgressTracker:
    """The process-local default tracker (created on first use)."""
    global _PROGRESS
    with _PROGRESS_LOCK:
        if _PROGRESS is None:
            _PROGRESS = ProgressTracker()
        return _PROGRESS


def reset_progress() -> None:
    """Drop the default tracker (tests, worker-process resets)."""
    global _PROGRESS
    with _PROGRESS_LOCK:
        _PROGRESS = None

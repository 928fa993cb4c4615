"""Structured event tracer: ring-buffered spans and instants.

The tracer records *when* the simulator spends its wall-clock time --
kernel boot, aging, each capture, each replay, store get/put,
compaction passes -- plus sampled per-access TLB events (miss, fill
with run length, shootdown). Events live in a bounded ring buffer
(oldest dropped first) and export to Chrome/Perfetto trace-event JSON
via ``repro.obs.export``, so a run can be opened directly in
``ui.perfetto.dev`` or ``chrome://tracing``.

Gating follows the ``COLT_SANITIZE`` pattern: tracing is off unless the
``COLT_TRACE`` environment variable is truthy (the ``--trace`` CLI flag
sets it, and ``ProcessPoolExecutor`` workers inherit it). When off,
:func:`current_tracer` returns ``None`` and every hook site reduces to
one ``is not None`` check -- the simulation hot paths carry no other
cost. Tracing only *observes*: a traced run produces bit-identical
``SimulationResult``s to an untraced one (enforced by
``tests/test_obs.py`` and the CI traced-determinism smoke).

Wall-clock reads live in this module only, on the determinism lint's
allow-list: trace timestamps describe the run, they never feed
simulation results.

``COLT_TRACE`` (see :mod:`repro.common.knobs`) switches tracing on.
The ring holds :data:`TRACE_CAPACITY` events and keeps every
:data:`TRACE_SAMPLE_EVERY`-th per-access TLB event (spans are never
sampled); ``Tracer(capacity=, sample_every=)`` overrides either.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common import knobs

#: Ring-buffer capacity, in events.
TRACE_CAPACITY = 262_144
#: Keep every Nth high-rate instant event (per-access TLB events).
TRACE_SAMPLE_EVERY = 64


def tracing_requested() -> bool:
    """True when ``COLT_TRACE`` asks for traced execution."""
    return knobs.TRACE.on()


def profiling_requested() -> bool:
    """True when ``COLT_PROFILE`` asks for metrics collection."""
    return knobs.PROFILE.on()


def obs_active() -> bool:
    """True when any observability sink (tracer or metrics) is live."""
    return current_tracer() is not None or profiling_requested()


@dataclass
class TraceEvent:
    """One trace-event record (Chrome trace-event "X", "i" or "C").

    ``ts_us``/``dur_us`` are microseconds on the monotonic clock
    (``CLOCK_MONOTONIC`` -- comparable across the processes of one
    machine, which is what lets worker events interleave with the
    parent's on a shared timeline).
    """

    name: str
    cat: str
    ph: str
    ts_us: float
    pid: int
    tid: int
    dur_us: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(
        self,
        capacity: int = TRACE_CAPACITY,
        sample_every: int = TRACE_SAMPLE_EVERY,
    ) -> None:
        self.capacity = max(1, capacity)
        #: Per-access TLB events keep 1 in ``sample_every``.
        self.sample_every = max(1, sample_every)
        self._events: deque = deque(maxlen=self.capacity)
        #: Events pushed out of the ring by newer ones.
        self.dropped = 0
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args) -> Iterator[dict]:
        """Record a complete ("X") event around the ``with`` body.

        Yields the event's mutable ``args`` dict so the body can attach
        outcomes (``span_args["migrated"] = n``) before the span closes.
        """
        arg_dict: Dict[str, object] = dict(args)
        start = time.perf_counter_ns()
        try:
            yield arg_dict
        finally:
            end = time.perf_counter_ns()
            self._append(
                TraceEvent(
                    name=name,
                    cat=cat,
                    ph="X",
                    ts_us=start / 1000.0,
                    dur_us=(end - start) / 1000.0,
                    pid=self._pid,
                    tid=0,
                    args=arg_dict,
                )
            )

    def instant(self, name: str, cat: str = "event", **args) -> None:
        """Record an instant ("i") event."""
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                ts_us=time.perf_counter_ns() / 1000.0,
                pid=self._pid,
                tid=0,
                args=dict(args),
            )
        )

    def counter(self, name: str, cat: str = "counter", **series) -> None:
        """Record a counter ("C") sample -- a timeline in Perfetto."""
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="C",
                ts_us=time.perf_counter_ns() / 1000.0,
                pid=self._pid,
                tid=0,
                args=dict(series),
            )
        )

    # -- reading --------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def drain(self) -> List[TraceEvent]:
        """Return and clear the buffered events (worker hand-off)."""
        events = list(self._events)
        self._events.clear()
        return events

    def __len__(self) -> int:
        return len(self._events)


# ---------------------------------------------------------------------------
# Process-local tracer, resolved lazily from the environment.
# ---------------------------------------------------------------------------

_TRACER: Optional[Tracer] = None
_RESOLVED = False


def current_tracer() -> Optional[Tracer]:
    """The process tracer, or ``None`` when tracing is off.

    Resolved from ``COLT_TRACE`` on first call; hook sites grab the
    reference once at construction and pay a single ``is not None``
    check afterwards.
    """
    global _TRACER, _RESOLVED
    if not _RESOLVED:
        _RESOLVED = True  # colt-lint: disable=worker-global-mutation -- memoizes the tracer in each process's own module copy
        if tracing_requested():
            _TRACER = Tracer()  # colt-lint: disable=worker-global-mutation -- the per-process tracer memo
    return _TRACER


def enable_tracing(
    capacity: int = TRACE_CAPACITY, sample_every: int = TRACE_SAMPLE_EVERY
) -> Tracer:
    """Explicitly switch tracing on for this process."""
    global _TRACER, _RESOLVED
    _RESOLVED = True
    if _TRACER is None:
        _TRACER = Tracer(capacity=capacity, sample_every=sample_every)
    return _TRACER


def disable_tracing() -> None:
    """Switch tracing off (buffered events are discarded)."""
    global _TRACER, _RESOLVED
    _TRACER = None
    _RESOLVED = True


def reset_tracing() -> None:
    """Forget the resolved state; the next call re-reads ``COLT_TRACE``.

    Used by tests and by pool-worker initialisers: a forked worker
    inherits the parent's tracer *including its buffered events*, which
    would otherwise be reported twice once the worker drains.
    """
    global _TRACER, _RESOLVED
    _TRACER = None  # colt-lint: disable=worker-global-mutation -- the pool initializer drops the tracer (and buffer) inherited over fork
    _RESOLVED = False  # colt-lint: disable=worker-global-mutation -- the pool initializer resets the worker's own memo flag


def span(name: str, cat: str = "phase", **args):
    """Module-level convenience span: a no-op context when tracing is off.

    For coarse, per-phase call sites (boot, capture, replay). Hot loops
    should hold the tracer reference themselves.
    """
    tracer = current_tracer()
    if tracer is None:
        return nullcontext({})
    return tracer.span(name, cat=cat, **args)

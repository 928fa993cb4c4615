"""Structured span tracer: a bounded buffer of complete spans.

The tracer records *when* the simulator spends its wall-clock time --
kernel boot, aging, each capture, each replay, store get/put,
compaction passes. Every process has one tracer and every span is
recorded, whether or not the run writes a trace out. Events live in a
bounded buffer (oldest dropped first, counted in ``dropped``) and
export to Chrome/Perfetto trace-event JSON via ``repro.obs.export``,
so a run can be opened directly in ``ui.perfetto.dev`` or
``chrome://tracing``.

Wall-clock reads live in this module only, on the determinism lint's
allow-list: trace timestamps describe the run, they never feed
simulation results.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Buffer capacity, in events.
TRACE_CAPACITY = 262_144


@dataclass
class TraceEvent:
    """One trace-event record (Chrome trace-event "X").

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
    """Bounded buffer of complete-span :class:`TraceEvent` records."""

    def __init__(self, capacity: int = TRACE_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._events: deque = deque(maxlen=self.capacity)
        #: Events pushed out of the buffer by newer ones.
        self.dropped = 0
        self._pid = os.getpid()

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
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(
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

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def drain(self) -> List[TraceEvent]:
        """Return and clear the buffered events (worker hand-off)."""
        events = list(self._events)
        self._events.clear()
        return events

    def __len__(self) -> int:
        return len(self._events)


_TRACER = Tracer()


def current_tracer() -> Tracer:
    """The process tracer."""
    return _TRACER


def reset_tracing() -> Tracer:
    """Install an empty process tracer and return it.

    Used by the CLI at start-up, by tests, and by the pool-worker
    initialiser: a forked worker inherits the parent's tracer
    *including its buffered events*, which would otherwise be reported
    twice once the worker drains.
    """
    global _TRACER
    _TRACER = Tracer()
    return _TRACER


def span(name: str, cat: str = "phase", **args):
    """Record a span on the process tracer around the ``with`` body."""
    return _TRACER.span(name, cat=cat, **args)

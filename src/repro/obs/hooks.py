"""Worker hand-off of observability state.

Every process records spans on its tracer and metrics in its registry;
a ``ProcessPoolExecutor`` worker's share reaches the parent with each
task result. The resilient executor (``repro.sim.resilience``) is the
one place that crosses the boundary: its pool initializer calls
:func:`reset_worker_obs`, so a forked worker drops the events and
series it inherited from the parent (they would otherwise be
double-reported); each pooled attempt returns
:func:`drain_worker_obs`'s snapshot-and-reset of the worker's tracer
and registry as a picklable :class:`ObsPayload`; and the parent folds
each payload into its own tracer and registry with
:func:`absorb_worker_obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    set_registry,
)
from repro.obs.trace import TraceEvent, current_tracer, reset_tracing


@dataclass
class ObsPayload:
    """One worker task's drained observability output (picklable)."""

    events: List[TraceEvent]
    metrics: MetricsSnapshot
    dropped_events: int = 0


def drain_worker_obs() -> ObsPayload:
    """Snapshot-and-reset this process's tracer and registry.

    Draining resets both sinks so a reused pool worker reports each
    event exactly once.
    """
    tracer = current_tracer()
    events = tracer.drain()
    dropped = tracer.dropped
    tracer.dropped = 0
    metrics = get_registry().snapshot(reset=True)
    return ObsPayload(events=events, metrics=metrics, dropped_events=dropped)


def absorb_worker_obs(payload: ObsPayload) -> None:
    """Fold one worker payload into this process's tracer and registry."""
    current_tracer().absorb(payload.events, payload.dropped_events)
    get_registry().merge_snapshot(payload.metrics)


def reset_worker_obs() -> None:
    """Pool-worker initializer: drop obs state inherited over ``fork``."""
    reset_tracing()
    set_registry(MetricsRegistry())

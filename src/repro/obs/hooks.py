"""Worker hand-off of observability state.

Every process records spans on its tracer and metrics in its registry;
a ``ProcessPoolExecutor`` worker's share reaches the parent with each
task result. :func:`drain_worker_obs` snapshots-and-resets a worker's
tracer and registry into a picklable :class:`ObsPayload`; the parent
folds it in via
:meth:`repro.obs.registry.MetricsRegistry.merge_snapshot`.
:func:`reset_worker_obs` runs as the pool initializer so a forked
worker drops the events and instruments it inherited from the parent
(they would otherwise be double-reported).
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


#: True once this process has been initialised as a pool worker.
_IN_POOL_WORKER = False


def in_pool_worker() -> bool:
    """True in a pool worker initialised by :func:`reset_worker_obs`.

    Task bodies use this to decide whether to drain obs state into
    their return payload: in a worker the drain is the only way events
    reach the parent, but in the parent itself (serial execution, or a
    runner that degraded to in-process mode) draining would reset the
    very tracer/registry the run is still accumulating into.
    """
    return _IN_POOL_WORKER


def reset_worker_obs() -> None:
    """Pool-worker initializer: drop obs state inherited over ``fork``."""
    global _IN_POOL_WORKER
    # This is the pool initializer: it writes the worker's own
    # post-fork copy.
    _IN_POOL_WORKER = True
    reset_tracing()
    set_registry(MetricsRegistry())

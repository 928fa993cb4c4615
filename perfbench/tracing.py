"""In-memory span tracer, self-time arithmetic and layer instrumentation.

The traced run wraps the public entry points of each simulator layer
(see :data:`LAYERS`) from outside ``src/``: :func:`instrument` swaps the
module and class attributes for wrappers that open a span around the
original call, and restores them on exit. Spans are kept in memory and
summarised when the run ends.

Pool workers are forked from the traced process, so they inherit the
wrappers. A tracer notices the fork on its next span (the pid changed),
drops the parent's spans from its copy, and appends each finished
top-level span tree to ``<spool>/spans-<pid>.jsonl``. The parent merges
those files with :meth:`Tracer.collect_spool`; a worker's root span is
then adopted by the innermost parent-process span whose interval
contains it (all processes read the same monotonic clock).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Span-name prefix -> layer, for the traffic shares.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("osmem.", "osmem"),
    ("capture", "capture"),
    ("contiguity.", "contiguity"),
    ("replay.", "replay"),
    ("runner.", "runner"),
    ("store.", "store"),
    ("experiments.", "experiments"),
)

#: Layer of a span no prefix claims (the benchmark's own pass loop).
BENCH_LAYER = "bench"

#: A span's identity across processes: (pid, span id).
Key = Tuple[int, int]


@dataclass
class Span:
    name: str
    start: float
    end: float
    pid: int
    sid: int
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> Key:
        return (self.pid, self.sid)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of this process and, via the spool, of its forks."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self.spool = Path(spool) if spool is not None else None
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: The creating process merges; every other pid is a fork.
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._next_sid = 0

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the parent's spans are not ours.
            self._pid = pid
            self.spans = []
            self._stack = []

    @property
    def current(self) -> Optional[Span]:
        self._check_fork()
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        self._check_fork()
        parent = self._stack[-1].sid if self._stack else None
        record = Span(
            name, time.perf_counter(), 0.0, self._pid, self._next_sid,
            parent, dict(attrs),
        )
        self._next_sid += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            if not self._stack and self._pid != self.owner_pid:
                self._flush()

    def _flush(self) -> None:
        if self.spool is None:
            self.spans = []
            return
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.__dict__) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Merge (and delete) the span files forked workers wrote."""
        if self.spool is None or not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(Span(**json.loads(line)) for line in handle)
            path.unlink()

    def take(self) -> List[Span]:
        """Return and forget every finished span (after a spool merge)."""
        self.collect_spool()
        spans, self.spans = self.spans, []
        return spans


# ----------------------------------------------------------------------
# Self-time arithmetic.
# ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def link_parents(spans: List[Span], owner_pid: int) -> Dict[Key, Optional[Key]]:
    """Parent key of every span; worker roots adopt the innermost
    owner-process span whose interval contains them."""
    parents: Dict[Key, Optional[Key]] = {}
    owner = [span for span in spans if span.pid == owner_pid]
    for span in spans:
        if span.parent is not None:
            parents[span.key] = (span.pid, span.parent)
            continue
        parents[span.key] = None
        if span.pid == owner_pid:
            continue
        best = None
        for candidate in owner:
            if candidate.start <= span.start and span.end <= candidate.end:
                if best is None or candidate.duration < best.duration:
                    best = candidate
        if best is not None:
            parents[span.key] = best.key
    return parents


def self_times(spans: List[Span], owner_pid: int) -> Dict[Key, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (pool workers run side by side), so
    the covered part is the length of the union of their intervals.
    """
    parents = link_parents(spans, owner_pid)
    children: Dict[Key, List[Span]] = {}
    for span in spans:
        parent = parents[span.key]
        if parent is not None:
            children.setdefault(parent, []).append(span)
    return {
        span.key: span.duration - covered(
            ((child.start, child.end) for child in children.get(span.key, ())),
            span.start, span.end,
        )
        for span in spans
    }


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return BENCH_LAYER


def summarize(spans: List[Span], owner_pid: int) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed duration and summed self time."""
    selfs = self_times(spans, owner_pid)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.key]
    return table


def layer_shares(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of all self time (sums to 1)."""
    totals: Dict[str, float] = {}
    for name, row in table.items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + row["self_s"]
    grand = sum(totals.values())
    layers = [layer for _, layer in LAYERS] + [BENCH_LAYER]
    return {
        layer: (totals.get(layer, 0.0) / grand if grand > 0 else 0.0)
        for layer in layers
    }


# ----------------------------------------------------------------------
# Instrumentation of the layers' public calls.
# ----------------------------------------------------------------------


def _osmem_name(tracer: Tracer, default: str) -> Optional[str]:
    """Span name for a kernel call, or None when an osmem span is open.

    ``malloc``/``free_vma`` are layout when the engine prepares the
    benchmark and churn when the run loop calls them; kernel calls made
    by another kernel call belong to that outer call's self time.
    """
    current = tracer.current
    if current is not None and current.name.startswith("osmem."):
        return None
    if default == "osmem.malloc" and current is not None:
        if current.name == "capture.prepare":
            return "osmem.layout"
        if current.name == "capture.loop":
            return "osmem.churn"
    return default


def _wrap(tracer: Tracer, fn: Callable, name: str, on_result=None, osmem=False):
    def wrapper(*args, **kwargs):
        span_name = _osmem_name(tracer, name) if osmem else name
        if span_name is None:
            return fn(*args, **kwargs)
        with tracer.span(span_name) as record:
            result = fn(*args, **kwargs)
            if on_result is not None:
                record.attrs.update(on_result(args, result))
            return result

    return wrapper


def _capture_attrs(args, scenario) -> Dict[str, float]:
    return {
        "accesses": scenario.accesses,
        "unique_records": int(scenario.records.shape[0]),
        "shootdowns": int(scenario.inval_before.size),
        "pages_faulted": scenario.kernel_counters["pages_faulted"],
    }


def _loop_attrs(args, _result) -> Dict[str, float]:
    engine = args[0]
    return {
        "accesses": len(engine.trace.vpns),
        "pages_migrated": engine.kernel.compaction.counters.as_dict()[
            "pages_migrated"
        ],
    }


def _replay_attrs(args, result) -> Dict[str, float]:
    counters = result.mmu_counters
    return {
        "accesses": result.accesses,
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "walks": counters["walks"],
        "coalesced_fills": counters["coalesced_fills"],
    }


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's public calls in spans for the ``with`` body."""
    import repro.sim.engine as engine_pkg
    import repro.sim.engine.vector as vector
    import repro.sim.replay as replay
    import repro.sim.runner as runner
    import repro.sim.scenario as scenario
    from repro.contiguity.scanner import ContiguityReport
    from repro.experiments.registry import Experiment
    from repro.osmem.kernel import Kernel
    from repro.osmem.memhog import Memhog
    from repro.sim.store import ResultStore

    def kernel(fn, name):
        return _wrap(tracer, fn, name, osmem=True)

    from_process = ContiguityReport.__dict__["from_process"].__func__
    patches = [
        # (owner, attribute, replacement)
        (Kernel, "__init__", kernel(Kernel.__init__, "osmem.boot")),
        (scenario, "age_system", kernel(scenario.age_system, "osmem.aging")),
        (Memhog, "start", kernel(Memhog.start, "osmem.aging")),
        (Kernel, "malloc", kernel(Kernel.malloc, "osmem.malloc")),
        (Kernel, "free_vma", kernel(Kernel.free_vma, "osmem.malloc")),
        (Kernel, "touch", kernel(Kernel.touch, "osmem.fault")),
        (Kernel, "tick", kernel(Kernel.tick, "osmem.tick")),
        (scenario.ScenarioEngine, "prepare",
         _wrap(tracer, scenario.ScenarioEngine.prepare, "capture.prepare")),
        (scenario.ScenarioEngine, "run_loop",
         _wrap(tracer, scenario.ScenarioEngine.run_loop, "capture.loop", _loop_attrs)),
        (ContiguityReport, "from_process",
         classmethod(_wrap(tracer, from_process, "contiguity.scan"))),
        (vector, "vector_replay_scenario",
         _wrap(tracer, vector.vector_replay_scenario, "replay.vector", _replay_attrs)),
        (runner.ExperimentRunner, "run_batch",
         _wrap(tracer, runner.ExperimentRunner.run_batch, "runner.run_batch")),
        (ResultStore, "save", _wrap(tracer, ResultStore.save, "store.save")),
        (ResultStore, "load", _wrap(tracer, ResultStore.load, "store.load")),
        (Experiment, "run", _wrap(tracer, Experiment.run, "experiments.run")),
    ]
    # Modules that imported these by name hold their own references.
    capture = _wrap(tracer, scenario.capture_scenario, "capture", _capture_attrs)
    scalar = _wrap(tracer, replay.replay_scenario, "replay.scalar", _replay_attrs)
    patches += [
        (scenario, "capture_scenario", capture),
        (runner, "capture_scenario", capture),
        (replay, "replay_scenario", scalar),
        (engine_pkg, "replay_scenario", scalar),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

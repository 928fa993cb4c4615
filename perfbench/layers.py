"""Per-layer metrics of one traced pass, named ``<layer>.<what>[.<unit>]``.

A metric of a layer that does not run in a workload reads 0 (for
example ``store.*`` outside ``contiguity``, ``replay.scalar.*`` outside
``design_sweep``).
"""

from __future__ import annotations

from typing import Dict, List

from tracing import LAYERS, BENCH_LAYER, Span, layer_shares, summarize

PER_LAYER_UNITS: Dict[str, str] = {
    "osmem.boot.self_s": "s",
    "osmem.aging.self_s": "s",
    "osmem.layout.self_s": "s",
    "osmem.fault.self_s": "s",
    "osmem.fault.calls": "count",
    "osmem.churn.self_s": "s",
    "osmem.tick.self_s": "s",
    "osmem.pages_faulted": "count",
    "osmem.compaction_pages_migrated": "count",
    "capture.prepare.self_s": "s",
    "capture.loop.self_s": "s",
    "capture.loop.us_per_access": "us",
    "capture.finish.self_s": "s",
    "capture.unique_ratio": "ratio",
    "capture.shootdowns": "count",
    "contiguity.scan.self_s": "s",
    "replay.scalar.self_s": "s",
    "replay.scalar.us_per_access": "us",
    "replay.vector.self_s": "s",
    "replay.vector.us_per_access": "us",
    "replay.vector.speedup": "ratio",
    "mmu.l1_misses": "count",
    "mmu.l2_misses": "count",
    "mmu.walks": "count",
    "mmu.coalesced_fills": "count",
    "runner.self_s": "s",
    "runner.tasks": "count",
    "runner.retries": "count",
    "runner.pool_busy_frac": "ratio",
    "store.save.self_s": "s",
    "store.saves": "count",
    "store.hit_ratio": "ratio",
    "experiments.self_s": "s",
    **{f"share.{layer}": "ratio" for _, layer in LAYERS},
    f"share.{BENCH_LAYER}": "ratio",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Span], owner_pid: int, output, workload
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead`` for one pass."""
    table = summarize(spans, owner_pid)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def attr(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in spans if span.name == name)

    def replays(key: str) -> float:
        return attr("replay.scalar", key) + attr("replay.vector", key)

    metrics = {
        name: self_s(name[: -len(".self_s")])
        for name in PER_LAYER_UNITS
        if name.endswith(".self_s")
    }
    metrics["osmem.fault.calls"] = calls("osmem.fault")
    metrics["osmem.pages_faulted"] = attr("capture", "pages_faulted")
    metrics["osmem.compaction_pages_migrated"] = attr("capture.loop", "pages_migrated")
    metrics["capture.loop.us_per_access"] = 1e6 * _ratio(
        self_s("capture.loop"), attr("capture.loop", "accesses")
    )
    metrics["capture.finish.self_s"] = self_s("capture")
    metrics["capture.unique_ratio"] = _ratio(
        attr("capture", "unique_records"), attr("capture", "accesses")
    )
    metrics["capture.shootdowns"] = attr("capture", "shootdowns")
    for engine in ("scalar", "vector"):
        metrics[f"replay.{engine}.us_per_access"] = 1e6 * _ratio(
            self_s(f"replay.{engine}"), attr(f"replay.{engine}", "accesses")
        )
    # Both bases are reported: replay.scalar.self_s and replay.vector.self_s.
    metrics["replay.vector.speedup"] = (
        _ratio(self_s("replay.scalar"), self_s("replay.vector"))
        if calls("replay.scalar") and calls("replay.vector") else 0.0
    )
    for counter in ("l1_misses", "l2_misses", "walks", "coalesced_fills"):
        metrics[f"mmu.{counter}"] = replays(counter)

    metrics["runner.self_s"] = self_s("runner.run_batch")
    runner = output.runner
    counts = runner.resilience_counters.as_dict() if runner is not None else {}
    metrics["runner.tasks"] = counts.get("tasks", 0)
    metrics["runner.retries"] = counts.get("retries", 0)
    batch_wall = sum(s.duration for s in spans if s.name == "runner.run_batch")
    task_time = sum(
        s.duration for s in spans
        if s.name in ("capture", "replay.scalar", "replay.vector")
    )
    metrics["runner.pool_busy_frac"] = (
        _ratio(task_time, workload.jobs * batch_wall) if runner is not None else 0.0
    )
    store = runner.store_summary() if runner is not None else None
    metrics["store.saves"] = calls("store.save")
    metrics["store.hit_ratio"] = store["hit_ratio"] if store else 0.0
    metrics["experiments.self_s"] = self_s("experiments.run")
    for layer, share in layer_shares(table).items():
        metrics[f"share.{layer}"] = share
    metrics["trace.spans"] = len(spans)
    return metrics

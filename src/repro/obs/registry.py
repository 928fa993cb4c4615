"""Metrics registry: named counters and histograms with labels.

The registry is the numeric half of ``repro.obs`` (the structured
tracer in ``repro.obs.trace`` is the temporal half). It keeps every
series in the ``colt-metrics-v1`` entry format that
:meth:`MetricsRegistry.snapshot` returns (see :class:`MetricsSnapshot`),
so updating a series, snapshotting it and merging a worker's snapshot
into it are the same dictionary arithmetic:

* :meth:`MetricsRegistry.add` adds to a counter series and
  :meth:`MetricsRegistry.observe` to a histogram series, creating the
  metric and the series at zero on first use. The fault plan's
  ``colt_faults_injected`` and the MMU's run-length histogram
  (``colt_coalesce_run_length``) update this way;
* components whose event counting already flows through a
  :class:`repro.common.statistics.CounterSet` register a *collector*
  via :func:`bind_counterset`: a zero-hot-path-cost bridge that reads
  the counter set lazily at snapshot time, Prometheus style.
  Collectors keep their counter sets alive until the next
  ``snapshot(reset=True)`` drain, so short-lived components (one MMU
  per replay) still report; samples from multiple instances of the
  same component (several kernels, several MMUs) sum.

:meth:`MetricsRegistry.merge_snapshot` adds a snapshot's series onto
this registry's, which is how the resilient executor folds each pool
worker's drained registry into the parent process's view
(:func:`repro.obs.hooks.absorb_worker_obs`).

The process-local default registry (:func:`get_registry`) is what every
simulator component binds into, once, when it is built; nothing is
called per simulated access.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.statistics import CounterSet

#: Label sets are keyed by their sorted item tuple.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (``<=``); an implicit +inf
#: bucket always follows. Chosen for coalescing run lengths (1-8 within
#: a PTE cache line) with headroom for range entries and page counts.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 16, 64, 256, 1024)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON-ready view of a registry at one point in time.

    ``instruments`` maps metric name to::

        {"kind": "counter|histogram", "help": ..., "unit": ...,
         "series": [{"labels": {...}, "value": v}                   # counter
                    | {"labels": {...}, "count": n, "sum": s,
                       "buckets": [bound...], "counts": [c...]}]}   # histogram
    """

    instruments: Dict[str, dict]

    def __len__(self) -> int:
        return len(self.instruments)

    def __contains__(self, name: str) -> bool:
        return name in self.instruments

    def get(self, name: str) -> Optional[dict]:
        return self.instruments.get(name)

    def counter_total(self, name: str) -> float:
        """Sum of a counter's series across every label set (0 if absent)."""
        entry = self.instruments.get(name)
        if entry is None:
            return 0
        return sum(s.get("value", 0) for s in entry["series"])

    def to_json_dict(self) -> dict:
        return {"schema": "colt-metrics-v1", "instruments": self.instruments}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MetricsSnapshot":
        if data.get("schema") != "colt-metrics-v1":
            raise ConfigurationError(
                f"not a colt metrics snapshot: schema={data.get('schema')!r}"
            )
        return cls(instruments=dict(data["instruments"]))


#: A collector yields ``(name, kind, labels_dict, value)`` samples at
#: snapshot time; same-name/same-labels counter samples sum.
Collector = Callable[[], Iterable[Tuple[str, str, Mapping[str, object], float]]]

#: Metric name -> snapshot entry whose ``series`` is keyed by label set.
_Metrics = Dict[str, dict]


def _series(
    metrics: _Metrics,
    name: str,
    kind: str,
    labels: Mapping[str, object],
    help: str = "",
    unit: str = "",
    buckets: Optional[Iterable[float]] = None,
) -> dict:
    """The snapshot-format series of ``name`` for ``labels``.

    Creates the metric (with ``help`` and ``unit``) and the series at
    zero on first use. Every series of a histogram shares its bounds:
    ``buckets`` (default :data:`DEFAULT_BUCKETS` for a new histogram)
    that differ from the registered ones raise
    :class:`ConfigurationError`, because adding per-bucket counts over
    other bounds would silently misalign them.
    """
    entry = metrics.get(name)
    if entry is None:
        entry = metrics[name] = {
            "kind": kind, "help": help, "unit": unit, "series": {},
        }
    elif entry["kind"] != kind:
        raise ConfigurationError(
            f"metric {name!r} already registered as {entry['kind']}, "
            f"requested {kind}"
        )
    series = entry["series"]
    key = _label_key(labels)
    sample = series.get(key)
    if kind == "counter":
        if sample is None:
            sample = series[key] = {"labels": dict(key), "value": 0}
        return sample
    bounds = next(iter(series.values()))["buckets"] if series else None
    wanted = list(buckets) if buckets is not None else None
    if bounds is None:
        bounds = wanted if wanted is not None else list(DEFAULT_BUCKETS)
    elif wanted is not None and wanted != bounds:
        raise ConfigurationError(
            f"histogram {name!r}: bucket bounds {tuple(wanted)} differ "
            f"from registered bounds {tuple(bounds)}"
        )
    if sample is None:
        sample = series[key] = {
            "labels": dict(key), "count": 0, "sum": 0.0,
            "buckets": bounds, "counts": [0] * (len(bounds) + 1),
        }
    return sample


def _add(metrics: _Metrics, name: str, entry: dict, sample: dict) -> None:
    """Add one snapshot-format ``sample`` of ``entry`` onto ``metrics``."""
    live = _series(
        metrics, name, entry["kind"], sample["labels"],
        entry.get("help", ""), entry.get("unit", ""), sample.get("buckets"),
    )
    if "value" in live:
        live["value"] += sample["value"]
        return
    live["count"] += sample["count"]
    live["sum"] += sample["sum"]
    counts = live["counts"]
    for index, count in enumerate(sample["counts"]):
        counts[index] += count


class MetricsRegistry:
    """Process-local home of every metric series and collector."""

    def __init__(self) -> None:
        self._metrics: _Metrics = {}
        self._collectors: List[Collector] = []
        # Serialises snapshot/merge against each other: the telemetry
        # server thread (repro.obs.serve) snapshots while the main
        # thread folds worker snapshots in. Updates stay lock-free --
        # every writer runs on the main thread, and the snapshot reads
        # each dict through a list() copy.
        self._lock = threading.RLock()

    # -- updates --------------------------------------------------------

    def add(
        self, name: str, amount: float = 1, help: str = "", unit: str = "",
        **labels,
    ) -> None:
        """Add ``amount`` to counter ``name``'s series for ``labels``."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {name} cannot decrease (add {amount})"
            )
        _series(self._metrics, name, "counter", labels, help, unit)[
            "value"
        ] += amount

    def observe(
        self,
        name: str,
        value: float,
        count: int = 1,
        help: str = "",
        unit: str = "",
        **labels,
    ) -> None:
        """Record ``count`` observations of ``value`` in histogram ``name``
        (over :data:`DEFAULT_BUCKETS`, or the bounds a merge registered)."""
        sample = _series(self._metrics, name, "histogram", labels, help, unit)
        sample["counts"][bisect_left(sample["buckets"], value)] += count
        sample["count"] += count
        sample["sum"] += value * count

    def register_collector(self, collector: Collector) -> None:
        with self._lock:
            self._collectors.append(collector)

    # -- snapshots ------------------------------------------------------

    def snapshot(self, reset: bool = False) -> MetricsSnapshot:
        """Every series plus every collector sample, as a snapshot.

        ``reset=True`` is the worker-drain mode: after snapshotting, all
        series are cleared and collectors dropped, so a pooled worker
        process that is reused for several tasks never reports the same
        events twice.
        """
        out: _Metrics = {}
        with self._lock:
            for name, entry in list(self._metrics.items()):
                for sample in list(entry["series"].values()):
                    _add(out, name, entry, sample)
            # Collector samples accumulate on top (summing duplicates).
            for collector in list(self._collectors):
                for name, kind, labels, value in collector():
                    _add(out, name, {"kind": kind},
                         {"labels": labels, "value": value})
            if reset:
                self._metrics = {}
                self._collectors = []
        for entry in out.values():
            entry["series"] = list(entry["series"].values())
        return MetricsSnapshot(instruments=out)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Add a (worker) snapshot's series onto this registry's.

        Counters and histograms add; a histogram whose bucket bounds
        differ from the registered ones raises
        :class:`ConfigurationError`.
        """
        with self._lock:
            for name, entry in snapshot.instruments.items():
                for sample in entry["series"]:
                    _add(self._metrics, name, entry, sample)


def bind_counterset(
    registry: MetricsRegistry,
    prefix: str,
    counters: CounterSet,
    **labels,
) -> None:
    """Expose a ``CounterSet`` through ``registry`` at snapshot time.

    Registers a collector emitting one counter sample per
    ``{prefix}_{name}``; the hot path that increments the ``CounterSet``
    is untouched, Prometheus style. The collector holds a strong
    reference: simulator components are short-lived (one MMU per
    replay, one kernel per capture) and must still report after their
    run ends, so the registry keeps their counters alive until
    ``snapshot(reset=True)`` -- the worker-drain mode -- releases them.
    Samples from multiple instances with the same prefix and labels sum.
    """
    label_dict = {str(k): str(v) for k, v in labels.items()}

    def collect():
        for name, value in counters.as_dict().items():
            yield f"{prefix}_{name}", "counter", label_dict, value

    registry.register_collector(collect)


# ---------------------------------------------------------------------------
# Process-local default registry.
# ---------------------------------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-local default registry (created on first use)."""
    global _REGISTRY
    if _REGISTRY is None:
        # Lazy singleton; a pool worker writes its own post-fork copy.
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace the default registry (tests, worker-process resets)."""
    global _REGISTRY
    # Workers call this only from the pool initializer, to install
    # their own registry.
    _REGISTRY = registry

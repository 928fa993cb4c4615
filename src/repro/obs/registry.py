"""Metrics registry: named counters and histograms with labels.

The registry is the numeric half of ``repro.obs`` (the structured
tracer in ``repro.obs.trace`` is the temporal half). Components create
instruments once -- ``registry.counter("colt_store_hits")`` -- and
update them through cheap handle methods; experiment harnesses call
:meth:`MetricsRegistry.snapshot` to obtain an immutable, JSON-ready
:class:`MetricsSnapshot` for export (``repro.obs.export``) or reporting
(``repro.obs.report``).

Two integration styles coexist:

* **direct instruments** -- hot components that already pay for an
  update (the result store, the runner) increment a :class:`Counter`
  or observe into a :class:`Histogram` directly;
* **collectors** -- components whose event counting already flows
  through a :class:`repro.common.statistics.CounterSet` register a
  *collector* via :func:`bind_counterset`: a zero-hot-path-cost bridge
  that reads the counter set lazily at snapshot time, Prometheus
  style. Collectors keep their counter sets alive until the next
  ``snapshot(reset=True)`` drain, so short-lived components (one MMU
  per replay) still report; samples from multiple instances of the
  same component (several kernels, several MMUs) sum.

Snapshots merge (:meth:`MetricsRegistry.merge_snapshot`), which is how
the :class:`repro.sim.runner.ExperimentRunner` folds the registries of
its ``ProcessPoolExecutor`` workers into the parent process's view:
counters and histograms add.

The process-local default registry (:func:`get_registry`) is what every
simulator component binds into, once, when it is built; nothing is
called per simulated access.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
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


class Instrument:
    """Base class: one named metric with per-label-set series."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit

    def series(self) -> Iterable[Tuple[LabelKey, object]]:
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically-increasing event count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0)

    def series(self):
        return self._series.items()


@dataclass
class HistogramState:
    """Bucket counts (+inf implicit last), observation count and sum."""

    buckets: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += count
        self.count += count
        self.sum += value * count

    def merge(self, other: "HistogramState") -> None:
        if other.buckets != self.buckets:
            raise ConfigurationError(
                f"cannot merge histograms with buckets {other.buckets} "
                f"into {self.buckets}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum


class Histogram(Instrument):
    """Distribution of observations over fixed buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        super().__init__(name, help, unit)
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self._series: Dict[LabelKey, HistogramState] = {}

    def observe(self, value: float, count: int = 1, **labels) -> None:
        """Record ``count`` observations of ``value`` for one label set."""
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = HistogramState(self.buckets)
        state.observe(value, count)

    def state(self, **labels) -> Optional[HistogramState]:
        return self._series.get(_label_key(labels))

    def series(self):
        return self._series.items()


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON-ready view of a registry at one point in time.

    ``instruments`` maps instrument name to::

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


class MetricsRegistry:
    """Process-local home of every instrument and collector."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[Collector] = []
        # Serialises snapshot/merge against each other: the telemetry
        # server thread (repro.obs.serve) snapshots while the main
        # thread folds worker snapshots in. Instrument *updates* stay
        # lock-free -- every writer runs on the main thread and mutates
        # per-instrument dicts the snapshot reads via list() copies.
        self._lock = threading.RLock()

    # -- instrument creation (get-or-create, kind-checked) -------------

    def _get_or_create(self, cls, name: str, **kwargs) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help, unit=unit)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, unit=unit, buckets=buckets
        )

    def register_collector(self, collector: Collector) -> None:
        with self._lock:
            self._collectors.append(collector)

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots ------------------------------------------------------

    def snapshot(self, reset: bool = False) -> MetricsSnapshot:
        """Materialise every instrument and collector sample.

        ``reset=True`` is the worker-drain mode: after snapshotting, all
        instrument series are cleared and collectors dropped, so a
        pooled worker process that is reused for several tasks never
        reports the same events twice.
        """
        out: Dict[str, dict] = {}
        with self._lock:
            instruments = dict(self._instruments)
            collectors = list(self._collectors)
            if reset:
                self._instruments.clear()
                self._collectors.clear()
            return self._materialise(instruments, collectors, out)

    def _materialise(
        self,
        instruments: Dict[str, Instrument],
        collectors: List[Collector],
        out: Dict[str, dict],
    ) -> MetricsSnapshot:
        for name, instrument in instruments.items():
            series = []
            for key, value in list(instrument.series()):
                entry = {"labels": dict(key)}
                if isinstance(value, HistogramState):
                    entry.update(
                        count=value.count,
                        sum=value.sum,
                        buckets=list(value.buckets),
                        counts=list(value.counts),
                    )
                else:
                    entry["value"] = value
                series.append(entry)
            if series:
                out[name] = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "unit": instrument.unit,
                    "series": series,
                }

        # Collector samples accumulate on top (summing duplicates).
        for collector in collectors:
            for name, kind, labels, value in collector():
                entry = out.setdefault(
                    name, {"kind": kind, "help": "", "unit": "", "series": []}
                )
                label_dict = {str(k): str(v) for k, v in labels.items()}
                for sample in entry["series"]:
                    if sample["labels"] == label_dict and "value" in sample:
                        sample["value"] += value
                        break
                else:
                    entry["series"].append(
                        {"labels": label_dict, "value": value}
                    )

        return MetricsSnapshot(instruments=out)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry's instruments.

        Counters and histograms add. Histogram samples whose bucket
        bounds differ from the registered instrument's are rejected
        with :class:`ConfigurationError` -- merging them would silently
        misalign per-bucket counts.
        """
        with self._lock:
            self._merge_snapshot_locked(snapshot)

    def _merge_snapshot_locked(self, snapshot: MetricsSnapshot) -> None:
        for name, entry in snapshot.instruments.items():
            kind = entry["kind"]
            if kind == "histogram":
                buckets = None
                for sample in entry["series"]:
                    buckets = tuple(sample["buckets"])
                    break
                hist = self.histogram(
                    name, help=entry.get("help", ""),
                    unit=entry.get("unit", ""), buckets=buckets,
                )
                for sample in entry["series"]:
                    sample_buckets = tuple(sample["buckets"])
                    if sample_buckets != hist.buckets:
                        raise ConfigurationError(
                            f"cannot merge histogram '{name}': snapshot "
                            f"bucket bounds {sample_buckets} differ from "
                            f"registered bounds {hist.buckets}"
                        )
                    state = HistogramState(
                        buckets=sample_buckets,
                        counts=list(sample["counts"]),
                        count=sample["count"],
                        sum=sample["sum"],
                    )
                    key = _label_key(sample["labels"])
                    mine = hist._series.get(key)
                    if mine is None:
                        hist._series[key] = state
                    else:
                        mine.merge(state)
            else:
                counter = self.counter(
                    name, help=entry.get("help", ""), unit=entry.get("unit", "")
                )
                for sample in entry["series"]:
                    counter.inc(sample["value"], **sample["labels"])


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

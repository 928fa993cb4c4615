"""Exporters: Chrome/Perfetto trace-event JSON and metrics snapshots.

Two serialisations, both plain-stdlib:

* **Chrome trace-event JSON** (:func:`chrome_trace_dict` /
  :func:`write_chrome_trace` / :func:`parse_chrome_trace`): the JSON
  object format (``{"traceEvents": [...]}``) that both
  ``chrome://tracing`` and Perfetto's trace processor ingest. Spans
  are complete events (``ph="X"``), and one metadata event
  (``ph="M"``) names each process. The parser is the exporter's
  inverse -- the round trip is asserted by ``tests/test_obs.py`` and
  the CI trace-validation step.
* **Metrics JSON** (:func:`write_metrics_json` /
  :func:`read_metrics_json`): a :class:`MetricsSnapshot` with a schema
  tag, for ``tools/obs_report.py`` and CI artifacts.

:func:`validate_chrome_trace` performs the structural checks the CI
traced-run job relies on (every event carries the required keys with
the right types) and returns human-readable problems instead of
raising, so the CLI can print them all at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.atomicio import atomic_write_json
from repro.obs.registry import MetricsSnapshot
from repro.obs.trace import TraceEvent

#: ``ph`` values this exporter emits (and the validator accepts).
_KNOWN_PHASES = frozenset(("X", "M"))


def chrome_trace_dict(
    events: List[TraceEvent], metadata: Optional[Dict[str, object]] = None
) -> dict:
    """Events as a Chrome trace-event JSON object (Perfetto-loadable)."""
    trace_events: List[dict] = []
    names: Dict[int, str] = {}
    for event in events:
        trace_events.append({
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": event.ts_us,
            "dur": 0.0 if event.dur_us is None else event.dur_us,
            "pid": event.pid,
            "tid": event.tid,
            "args": dict(event.args),
        })
        names.setdefault(event.pid, "")
    # Name each process track so worker fan-out reads at a glance.
    for pid in sorted(names):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"colt pid {pid}"},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(
    path: Union[str, Path],
    events: List[TraceEvent],
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write the Chrome trace JSON; returns the path written.

    Atomic: a crash (or SIGKILL) mid-export leaves the previous trace
    artifact intact rather than a truncated, unparseable one.
    """
    path = Path(path)
    atomic_write_json(path, chrome_trace_dict(events, metadata))
    return path


def parse_chrome_trace(source: Union[str, Path, dict]) -> List[TraceEvent]:
    """Inverse of :func:`chrome_trace_dict` (metadata events skipped).

    ``source`` is a trace file's path or its already-parsed dict.
    """
    if isinstance(source, dict):
        data = source
    else:
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    events: List[TraceEvent] = []
    for record in data.get("traceEvents", ()):
        if record.get("ph") == "M":
            continue
        events.append(
            TraceEvent(
                name=record["name"],
                cat=record.get("cat", ""),
                ph=record["ph"],
                ts_us=float(record["ts"]),
                dur_us=(
                    float(record["dur"]) if "dur" in record else None
                ),
                pid=int(record["pid"]),
                tid=int(record.get("tid", 0)),
                args=dict(record.get("args", {})),
            )
        )
    return events


def validate_chrome_trace(data: dict) -> List[str]:
    """Structural problems with a trace JSON object ([] when valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["top level is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, record in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = record.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if "name" not in record or "pid" not in record:
            problems.append(f"{where}: missing name/pid")
        if ph != "M" and not isinstance(record.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if ph == "X" and not isinstance(record.get("dur"), (int, float)):
            problems.append(f"{where}: complete event missing numeric dur")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return problems


def span_names(events: List[TraceEvent]) -> Dict[str, int]:
    """Complete-span name -> occurrence count (validation helper)."""
    counts: Dict[str, int] = {}
    for event in events:
        if event.ph == "X":
            counts[event.name] = counts.get(event.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Metrics snapshots.
# ---------------------------------------------------------------------------


def write_metrics_json(
    path: Union[str, Path], snapshot: MetricsSnapshot
) -> Path:
    path = Path(path)
    atomic_write_json(
        path, snapshot.to_json_dict(), indent=2, sort_keys=True
    )
    return path


def read_metrics_json(path: Union[str, Path]) -> MetricsSnapshot:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return MetricsSnapshot.from_json_dict(data)


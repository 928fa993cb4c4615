"""Persistent run-history time-series (``colt-history-v1``).

Every experiments-CLI invocation appends one compact JSON record --
constants fingerprint, scale, per-phase wall times, store hit ratio,
all counter totals -- to
``<cache>/history/history.jsonl``. Appends go through
:mod:`repro.common.atomicio` (read-all, rewrite, ``os.replace``), so a
kill mid-append leaves the previous history intact, never a torn line.

The record is the unit three consumers share:

* ``tools/obs_history.py`` renders trend tables and diffs two runs;
* ``tools/obs_history.py --gate`` compares the newest matching record
  against a committed ``colt-history-baseline-v1`` document:
  bit-identity counters must match *exactly*, wall-time/overhead
  metrics get tolerance ceilings (:func:`gate_record`);
* CI uploads the file as an artifact, so the perf trajectory
  accumulates across runs instead of being discarded.

This module is wall-clock-free by design (determinism lint): the
caller -- ``repro.experiments.__main__``, which is on the wall-clock
allowlist -- passes ``ts`` in.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.common import knobs
from repro.common.atomicio import atomic_write_text
from repro.common.errors import ConfigurationError
from repro.obs.logging import get_logger

#: Schema tag stamped into every history record.
HISTORY_SCHEMA = "colt-history-v1"

#: Schema tag of committed gate baselines.
BASELINE_SCHEMA = "colt-history-baseline-v1"

#: Statuses a record may carry (mirrors the CLI exit paths: 0 / 75 /
#: other non-zero).
STATUSES = ("ok", "interrupted", "failed")

_LOG = get_logger(__name__)


def history_enabled() -> bool:
    """False when ``COLT_HISTORY`` holds an off-word (scratch runs)."""
    return knobs.HISTORY.on()


def history_path(cache_dir: Union[str, Path]) -> Path:
    """``<cache>/history/history.jsonl`` for a result-store cache dir."""
    return Path(cache_dir) / "history" / "history.jsonl"


# ---------------------------------------------------------------------------
# Records.
# ---------------------------------------------------------------------------


def build_record(
    ts: float,
    status: str,
    figure: str,
    scale: str,
    fingerprint: str,
    wall: Mapping[str, float],
    counters: Mapping[str, float],
    store: Optional[Mapping[str, float]] = None,
    telemetry: bool = False,
    jobs: int = 1,
    phases: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> dict:
    """Assemble one ``colt-history-v1`` record.

    ``wall`` maps experiment id to seconds (``total`` expected);
    ``counters`` maps counter name to its label-summed total;
    ``store`` carries ``hits``/``misses``/``hit_ratio`` when a result
    store was active; ``phases`` maps span name to its summed
    ``self_s`` and span ``count`` over every process of the run. The
    gate reads none of ``phases``. ``ts`` is supplied by the caller
    (this module never reads the clock).
    """
    if status not in STATUSES:
        raise ConfigurationError(
            f"history status must be one of {STATUSES}, got {status!r}"
        )
    record = {
        "schema": HISTORY_SCHEMA,
        "ts": float(ts),
        "status": status,
        "figure": figure,
        "scale": scale,
        "fingerprint": fingerprint,
        "telemetry": bool(telemetry),
        "jobs": int(jobs),
        "wall": {str(k): float(v) for k, v in sorted(wall.items())},
        "counters": {
            str(k): float(v) for k, v in sorted(counters.items())
        },
    }
    if store is not None:
        record["store"] = {str(k): float(v) for k, v in sorted(store.items())}
    if phases is not None:
        record["phases"] = {
            str(name): {
                "self_s": float(phase["self_s"]),
                "count": int(phase["count"]),
            }
            for name, phase in sorted(phases.items())
        }
    return record


def append_record(path: Union[str, Path], record: Mapping) -> Path:
    """Append ``record`` to the JSONL history file atomically.

    Existing lines are preserved verbatim (including any the current
    schema no longer recognises -- history is append-only); the whole
    file is rewritten through ``atomic_write_text`` so a crash leaves
    either the old history or the new one.
    """
    if record.get("schema") != HISTORY_SCHEMA:
        raise ConfigurationError(
            f"refusing to append non-history record "
            f"(schema={record.get('schema')!r})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = ""
    if path.exists():
        existing = path.read_text(encoding="utf-8")
        if existing and not existing.endswith("\n"):
            existing += "\n"
    line = json.dumps(record, sort_keys=True)
    atomic_write_text(path, existing + line + "\n")
    return path


def load_history(path: Union[str, Path]) -> List[dict]:
    """Parse a history file; malformed lines are skipped with a warning."""
    path = Path(path)
    if not path.exists():
        return []
    records: List[dict] = []
    bad = 0
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad += 1
            continue
        if not isinstance(record, dict) or record.get("schema") != HISTORY_SCHEMA:
            bad += 1
            continue
        records.append(record)
    if bad:
        _LOG.warning("%s: skipped %d malformed history line(s)", path, bad)
    return records


def select_records(
    records: List[dict],
    figure: Optional[str] = None,
    scale: Optional[str] = None,
) -> List[dict]:
    """Filter records by run coordinates (``None`` matches anything)."""
    out = []
    for record in records:
        if figure is not None and record.get("figure") != figure:
            continue
        if scale is not None and record.get("scale") != scale:
            continue
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# Diffing.
# ---------------------------------------------------------------------------


def flatten_record(record: Mapping) -> Dict[str, float]:
    """Numeric leaves as dotted paths (``wall.total``, ``counters.x``)."""
    flat: Dict[str, float] = {}

    def walk(prefix: str, value):
        if isinstance(value, Mapping):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, bool):
            flat[prefix] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[prefix] = float(value)

    walk("", record)
    flat.pop("ts", None)
    return flat


def diff_records(a: Mapping, b: Mapping) -> List[dict]:
    """Numeric differences between two records, sorted by path.

    Each row is ``{"path", "a", "b", "delta"}``; paths present in only
    one record report ``None`` on the missing side.
    """
    fa, fb = flatten_record(a), flatten_record(b)
    rows = []
    for path in sorted(set(fa) | set(fb)):
        va, vb = fa.get(path), fb.get(path)
        delta = None if va is None or vb is None else vb - va
        if va == vb:
            continue
        rows.append({"path": path, "a": va, "b": vb, "delta": delta})
    return rows


def lookup_path(record: Mapping, dotted: str):
    """Resolve ``wall.total``-style paths; ``None`` when absent."""
    node = record
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


# ---------------------------------------------------------------------------
# Regression gate.
# ---------------------------------------------------------------------------


def load_baseline(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read gate baseline {path}: {exc}")
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a {BASELINE_SCHEMA} document "
            f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
        )
    return data


def gate_record(record: Mapping, baseline: Mapping) -> List[str]:
    """Check one record against a baseline; returns problem strings.

    Gate semantics (empty list = pass):

    * ``exact_counters`` -- bit-identity counters (the simulated-event
      totals that are pure functions of scale and experiment list) must
      match the baseline value *exactly*;
    * ``ceilings`` -- dotted-path metrics (wall times, overhead ratios)
      must be ``<=`` the bound;
    * ``require_status`` (default ``ok``) -- the record's status.
    """
    problems: List[str] = []
    require_status = baseline.get("require_status", "ok")
    if require_status and record.get("status") != require_status:
        problems.append(
            f"status is {record.get('status')!r}, gate requires "
            f"{require_status!r}"
        )
    counters = record.get("counters", {})
    for name, expected in sorted(baseline.get("exact_counters", {}).items()):
        actual = counters.get(name)
        if actual is None:
            problems.append(f"counter {name} missing (expected {expected})")
        elif float(actual) != float(expected):
            problems.append(
                f"counter {name} drifted: {actual} != baseline {expected} "
                f"(bit-identity counters must match exactly)"
            )
    for path, bound in sorted(baseline.get("ceilings", {}).items()):
        actual = lookup_path(record, path)
        if actual is None:
            problems.append(f"{path} missing (ceiling {bound})")
        elif float(actual) > float(bound):
            problems.append(f"{path} = {actual} exceeds ceiling {bound}")
    return problems


def gate_history(
    records: List[dict], baseline: Mapping
) -> "tuple[Optional[dict], List[str]]":
    """Gate the newest record matching the baseline's ``match`` block.

    Returns ``(record, problems)``; ``record`` is ``None`` (with a
    problem string) when no record matches the coordinates.
    """
    match = baseline.get("match", {})
    candidates = select_records(
        records,
        figure=match.get("figure"),
        scale=match.get("scale"),
    )
    if not candidates:
        return None, [
            f"no history record matches baseline coordinates {dict(match)}"
        ]
    record = candidates[-1]
    return record, gate_record(record, baseline)

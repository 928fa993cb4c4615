#!/usr/bin/env python
"""Run-history trends, diffs and the regression gate.

Consumes the ``colt-history-v1`` records every store-backed run of
``python -m repro.experiments`` appends to
``<cache>/history/history.jsonl`` (see ``repro.obs.history``).

Trend table (newest runs last)::

    python tools/obs_history.py --cache-dir .colt-cache
    python tools/obs_history.py --history path/to/history.jsonl --last 20

Diff two runs (by history index; negative = from the end)::

    python tools/obs_history.py --cache-dir .colt-cache --diff -2 -1

Regression gate -- what CI runs after the telemetry campaign::

    python tools/obs_history.py --cache-dir .colt-cache --gate \\
        --baseline tools/history_baseline.json

The gate takes the *newest* record matching the baseline's ``match``
coordinates (figure/scale) and fails (exit 1) when any bit-identity
counter in ``exact_counters`` drifts from the committed value, or when
a ``ceilings`` metric (wall time) exceeds its bound.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.errors import ConfigurationError  # noqa: E402
from repro.obs.history import (  # noqa: E402
    diff_records,
    gate_history,
    history_path,
    load_baseline,
    load_history,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/obs_history.py",
        description="Inspect and gate the colt-history-v1 run series.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--history", type=Path, default=None, metavar="FILE",
        help="history.jsonl to read (overrides --cache-dir)",
    )
    source.add_argument(
        "--cache-dir", type=Path, default=Path(".colt-cache"), metavar="DIR",
        help="result-store root; reads DIR/history/history.jsonl "
             "(default: .colt-cache)",
    )
    parser.add_argument(
        "--last", type=int, default=10, metavar="N",
        help="trend table: show the newest N records (default: 10)",
    )
    parser.add_argument(
        "--diff", nargs=2, type=int, default=None, metavar=("A", "B"),
        help="diff two records by index (0-based; negative from the end)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="regression-gate the newest matching record",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="colt-history-baseline-v1 document (required with --gate)",
    )
    return parser


def _resolve_history(args) -> Path:
    if args.history is not None:
        return args.history
    return history_path(args.cache_dir)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value != int(value):
        return f"{value:.3f}"
    return str(int(value)) if isinstance(value, float) else str(value)


def _trend(records, last: int) -> None:
    shown = records[-last:] if last > 0 else records
    header = (
        f"{'#':>3}  {'status':11s} {'figure':18s} {'scale':8s} "
        f"{'wall_total':>10s} {'hit_ratio':>9s} {'accesses':>10s}"
    )
    print(header)
    print("-" * len(header))
    base = len(records) - len(shown)
    for offset, record in enumerate(shown):
        wall = record.get("wall", {}).get("total")
        store = record.get("store") or {}
        counters = record.get("counters", {})
        print(
            f"{base + offset:>3}  "
            f"{record.get('status', '?'):11s} "
            f"{str(record.get('figure', '?'))[:18]:18s} "
            f"{str(record.get('scale', '?')):8s} "
            f"{_fmt(round(wall, 2) if wall is not None else None):>10s} "
            f"{_fmt(store.get('hit_ratio')):>9s} "
            f"{_fmt(counters.get('colt_mmu_accesses')):>10s}"
        )
    print(f"\n{len(records)} record(s) total")


def _diff(records, a_index: int, b_index: int) -> int:
    try:
        a, b = records[a_index], records[b_index]
    except IndexError:
        print(
            f"obs_history: diff indices {a_index},{b_index} out of range "
            f"(history has {len(records)} records)", file=sys.stderr,
        )
        return 2
    rows = diff_records(a, b)
    if not rows:
        print("records are numerically identical")
        return 0
    width = max(len(row["path"]) for row in rows)
    print(f"{'metric':{width}s} {'A':>14s} {'B':>14s} {'delta':>14s}")
    for row in rows:
        print(
            f"{row['path']:{width}s} {_fmt(row['a']):>14s} "
            f"{_fmt(row['b']):>14s} {_fmt(row['delta']):>14s}"
        )
    return 0


def _gate(records, baseline_path: Path) -> int:
    baseline = load_baseline(baseline_path)
    record, problems = gate_history(records, baseline)
    coords = baseline.get("match", {})
    if problems:
        for problem in problems:
            print(f"GATE FAIL {problem}")
        return 1
    checked = (
        len(baseline.get("exact_counters", {}))
        + len(baseline.get("ceilings", {}))
    )
    print(
        f"GATE OK {coords}: {checked} check(s) passed against record "
        f"status={record.get('status')} wall_total="
        f"{_fmt(record.get('wall', {}).get('total'))}s"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    history_file = _resolve_history(args)
    if not history_file.exists():
        print(
            f"obs_history: no history at {history_file} (runs append one "
            "record each; pass --cache-dir or --history)", file=sys.stderr,
        )
        return 2
    records = load_history(history_file)
    if not records:
        print(f"obs_history: {history_file} holds no valid records",
              file=sys.stderr)
        return 2

    if args.gate:
        if args.baseline is None:
            print("obs_history: --gate needs --baseline FILE",
                  file=sys.stderr)
            return 2
        try:
            return _gate(records, args.baseline)
        except ConfigurationError as exc:
            print(f"obs_history: {exc}", file=sys.stderr)
            return 2
    if args.diff is not None:
        return _diff(records, args.diff[0], args.diff[1])
    _trend(records, args.last)
    return 0


if __name__ == "__main__":
    sys.exit(main())

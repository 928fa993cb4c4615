"""``colt-analyze``: the project-wide static analysis front end.

Runs the lint, concurrency, registry-coherence, and exception-hygiene
passes over a shared :class:`ProjectModel`, diffs the findings against
the checked-in baseline, and reports in text, JSON, or SARIF. Doc
freshness (``--check-docs`` / ``--write-docs``) rides on the same run.

Exit codes mirror ``colt-lint``: 0 clean, 1 new findings (or stale
docs), 2 usage errors. ``colt-lint`` itself is an alias for
``colt-analyze --passes lint --no-baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.static.baseline import Baseline
from repro.analysis.static.coherence import RegistryCoherencePass
from repro.analysis.static.concurrency import ConcurrencyPass
from repro.analysis.static.docs import check_docs, write_docs
from repro.analysis.static.hygiene import ExceptionHygienePass
from repro.analysis.static.lint_rules import LintPass
from repro.analysis.static.model import ProjectModel
from repro.analysis.static.passes import (
    AnalysisPass,
    fingerprint_findings,
    run_passes,
)
from repro.analysis.static.sarif import to_json, to_sarif

#: Pass name -> factory, in the default execution order.
PASS_FACTORIES = {
    "lint": LintPass,
    "concurrency": ConcurrencyPass,
    "coherence": RegistryCoherencePass,
    "hygiene": ExceptionHygienePass,
}

#: Short rule descriptions for SARIF rule metadata.
RULE_HELP: Dict[str, str] = {
    "rng-module-state": "module-level RNG state bypasses SeedSequencer",
    "wall-clock": "wall-clock read in simulation code",
    "mutable-default": "mutable default argument",
    "float-eq": "float equality comparison",
    "no-print": "print() in library code",
    "syntax-error": "file does not parse",
    "worker-global-mutation": "pool-worker-reachable code writes module state",
    "signal-handler-work": "non-trivial work in a signal handler",
    "unlocked-shared-state": "thread-shared attribute written without lock",
    "undeclared-env-knob": "env knob read but not in the registry",
    "dead-env-knob": "registry knob unused by its consumer",
    "undeclared-metric": "metric emitted but not in the registry",
    "unemitted-metric": "registry metric never emitted",
    "unreported-metric": "reported=True metric the report never reads",
    "undeclared-span": "trace event not in the registry",
    "unemitted-span": "registry trace event never emitted",
    "undeclared-fault-site": "fault site not in the registry",
    "unemitted-fault-site": "registry fault site never fired",
    "overbroad-except": "broad except without mitigation",
    "silent-except": "handler silently swallows the exception",
}

#: Default baseline location, relative to the repo root.
DEFAULT_BASELINE = Path("tools") / "analysis_baseline.json"


def find_repo_root(start: Path) -> Optional[Path]:
    for candidate in [start.resolve()] + list(start.resolve().parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def build_passes(names: Sequence[str]) -> List[AnalysisPass]:
    passes: List[AnalysisPass] = []
    for name in names:
        factory = PASS_FACTORIES.get(name)
        if factory is None:
            raise KeyError(name)
        passes.append(factory())
    return passes


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colt-analyze",
        description=(
            "Project-wide static analysis for the CoLT reproduction repo."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (directories recurse); "
             "defaults to <repo>/src <repo>/tools for docs-only modes",
    )
    parser.add_argument(
        "--passes", default=",".join(PASS_FACTORIES),
        help="comma-separated pass list (default: %(default)s)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format", help="finding output format",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write findings to this file instead of stdout",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: <repo>/tools/analysis_baseline.json "
             "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to accept all current findings "
             "(existing justifications are preserved)",
    )
    parser.add_argument(
        "--check-docs", action="store_true",
        help="fail when generated doc sections (the knob table) are "
             "stale",
    )
    parser.add_argument(
        "--write-docs", action="store_true",
        help="regenerate the generated doc sections in place",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-finding lines; only set the exit code",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        pass_names = [
            name.strip() for name in args.passes.split(",") if name.strip()
        ]
        passes = build_passes(pass_names)
    except KeyError as exc:
        print(
            f"colt-analyze: unknown pass {exc.args[0]!r} "
            f"(known: {', '.join(PASS_FACTORIES)})",
            file=sys.stderr,
        )
        return 2

    docs_mode = args.check_docs or args.write_docs
    paths = list(args.paths)
    repo_root = find_repo_root(paths[0] if paths else Path.cwd())
    if not paths:
        if not docs_mode:
            print("colt-analyze: no paths given", file=sys.stderr)
            return 2
        if repo_root is None:
            print(
                "colt-analyze: no pyproject.toml found above cwd; pass "
                "paths explicitly", file=sys.stderr,
            )
            return 2
        paths = [
            p for p in (repo_root / "src", repo_root / "tools")
            if p.exists()
        ]
    for path in paths:
        if not path.exists():
            print(f"colt-analyze: no such path: {path}", file=sys.stderr)
            return 2

    project = ProjectModel.from_paths(paths)
    findings = run_passes(project, passes)
    fingerprinted = fingerprint_findings(project, findings)

    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = args.baseline
        elif repo_root is not None:
            candidate = repo_root / DEFAULT_BASELINE
            if candidate.exists() or args.update_baseline:
                baseline_path = candidate
    baseline = (
        Baseline.load(baseline_path) if baseline_path is not None
        else Baseline()
    )

    if args.update_baseline:
        if baseline_path is None:
            print(
                "colt-analyze: --update-baseline needs --baseline (or a "
                "repo root)", file=sys.stderr,
            )
            return 2
        relpath_of = {m.path: m.relpath for m in project.modules}
        baseline.updated(fingerprinted, relpath_of).save(baseline_path)
        if not args.quiet:
            print(
                f"colt-analyze: baseline updated with "
                f"{len(fingerprinted)} finding(s) -> {baseline_path}"
            )
        return 0

    match = baseline.match(fingerprinted)

    exit_code = 0
    if match.new:
        exit_code = 1

    self_describing = {"json", "sarif"}
    if args.output_format in self_describing:
        document = (
            to_sarif(match.new, RULE_HELP)
            if args.output_format == "sarif"
            else to_json(match.new)
        )
        rendered = json.dumps(document, indent=2) + "\n"
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    else:
        lines = [finding.render() for finding, _ in match.new]
        if not args.quiet:
            for line in lines:
                print(line)
            summary = (
                f"colt-analyze: {len(match.new)} new finding(s), "
                f"{len(match.suppressed)} baselined"
            )
            if match.expired:
                summary += (
                    f", {len(match.expired)} expired baseline entr"
                    f"{'y' if len(match.expired) == 1 else 'ies'}"
                )
                for entry in match.expired:
                    print(
                        f"colt-analyze: expired baseline entry "
                        f"{entry.fingerprint} ({entry.rule} at "
                        f"{entry.path}:{entry.line}); run "
                        f"--update-baseline to drop it"
                    )
            if match.new or match.suppressed or match.expired:
                print(summary)
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8"
            )

    if docs_mode:
        if repo_root is None:
            print(
                "colt-analyze: docs modes need a repo root "
                "(pyproject.toml)", file=sys.stderr,
            )
            return 2
        if args.write_docs:
            written = write_docs(repo_root)
            if not args.quiet:
                for name in written:
                    print(f"colt-analyze: wrote {name}")
        if args.check_docs:
            problems = check_docs(repo_root)
            for problem in problems:
                print(f"colt-analyze: {problem}", file=sys.stderr)
            if problems:
                exit_code = max(exit_code, 1)

    return exit_code


if __name__ == "__main__":
    sys.exit(main())

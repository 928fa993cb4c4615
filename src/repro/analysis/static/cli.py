"""``colt-analyze``: the determinism lint's command line.

Lints every ``.py`` file under the given paths and prints each finding
no pragma accepts, plus a count. Doc freshness (``--check-docs`` /
``--write-docs``) rides on the same run.

Exit codes: 0 clean, 1 findings (or stale docs), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.static.docs import check_docs, write_docs
from repro.analysis.static.lint_rules import lint_paths


def find_repo_root(start: Path) -> Optional[Path]:
    for candidate in [start.resolve()] + list(start.resolve().parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colt-analyze",
        description=(
            "Determinism lint for the CoLT reproduction repo. "
            "Accept a finding with '# colt-lint: disable=<rule> -- <why>' "
            "on its line."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (directories recurse); "
             "defaults to <repo>/src <repo>/tools for docs-only modes",
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

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

    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    print(f"colt-analyze: {len(findings)} finding(s)")
    exit_code = 1 if findings else 0

    if docs_mode:
        if repo_root is None:
            print(
                "colt-analyze: docs modes need a repo root "
                "(pyproject.toml)", file=sys.stderr,
            )
            return 2
        if args.write_docs:
            for name in write_docs(repo_root):
                print(f"colt-analyze: wrote {name}")
        if args.check_docs:
            problems = check_docs(repo_root)
            for problem in problems:
                print(f"colt-analyze: {problem}", file=sys.stderr)
            if problems:
                exit_code = 1

    return exit_code


if __name__ == "__main__":
    sys.exit(main())

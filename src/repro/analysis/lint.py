"""Custom AST lint: static enforcement of the repo's determinism rules.

The simulator's headline guarantee is that a configuration plus a seed
fully determines every number in every figure. That guarantee is easy to
lose to one careless line -- a ``random.shuffle`` here, a
``time.time()`` mixed into a filename there -- and impossible to protect
with generic linters. The rules (``rng-module-state``, ``wall-clock``,
``mutable-default``, ``float-eq``, ``no-print``, and ``raw-env-read``,
which keeps environment reads behind :mod:`repro.common.knobs`) live in
:mod:`repro.analysis.static.lint_rules`; this module is the stable
``colt-lint`` facade over them.

``colt-lint`` is now an alias for ``colt-analyze --passes lint
--no-baseline``: the visitor runs as one pass of the shared static
analysis framework (:mod:`repro.analysis.static`), so the
``# colt-lint: disable=...`` pragma, file iteration, and reporting are
implemented exactly once and shared with the concurrency and hygiene
analyzers.

Run as ``python tools/lint.py <paths>`` or via the ``colt-lint``
console script; exits nonzero when diagnostics were emitted.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.static.lint_rules import (  # noqa: F401  (public API)
    PRINT_ALLOW,
    RAW_ENV_ALLOW,
    RNG_CONSTRUCTION_ALLOW,
    RULES,
    WALL_CLOCK_ALLOW,
    LintPass,
)
from repro.analysis.static.model import (  # noqa: F401  (public API)
    ProjectModel,
    iter_python_files,
)
from repro.analysis.static.passes import Finding, run_passes

#: Historical name for one lint finding; same shape, same rendering.
Diagnostic = Finding


def lint_source(source: str, path: str) -> List[Diagnostic]:
    """Lint one module's source text; pragma-suppressed findings drop."""
    project = ProjectModel.from_sources([(path, source)])
    return run_passes(project, [LintPass()])


def lint_file(path: Path) -> List[Diagnostic]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[Path]) -> List[Diagnostic]:
    project = ProjectModel.from_paths(paths)
    return run_passes(project, [LintPass()])


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.static.cli import main as analyze_main

    if argv is None:
        argv = sys.argv[1:]
    return analyze_main(["--passes", "lint", "--no-baseline", *argv])


if __name__ == "__main__":
    sys.exit(main())

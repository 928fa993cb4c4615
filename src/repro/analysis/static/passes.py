"""Pass framework: findings, the pragma, and the runner.

Every analyzer -- the lint rules and the cross-file passes -- produces
:class:`Finding` objects and is driven through :func:`run_passes`,
which applies the one shared pragma before anything reaches the user
or CI. The pragma is the only way to accept a finding: it sits on the
flagged line and says why,

    except OSError:  # colt-lint: disable=silent-except -- best-effort fsync

``disable=<rule>[,<rule>...]`` names the suppressed rules
(``disable=all`` suppresses every rule on the line); anything after
`` -- `` is the reason, which the repo's tests require.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.analysis.static.model import ModuleInfo, ProjectModel

#: One pragma grammar for every pass: a comma-separated rule list, so a
#: trailing `` -- <why>`` is never read as part of a rule name.
_PRAGMA = re.compile(
    r"#\s*colt-lint:\s*disable=([A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, formatted ``path:line:col: rule: message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class AnalysisPass:
    """Base class: a pass producing findings over a project."""

    #: Rule identifiers this pass may emit.
    rules: Tuple[str, ...] = ()

    def run(self, project: ProjectModel) -> List[Finding]:
        raise NotImplementedError


def disabled_rules(source_line: str) -> FrozenSet[str]:
    """Rule names suppressed by a pragma on ``source_line``.

    ``disable=all`` yields a set containing ``"all"``; callers must
    treat membership of either the rule or ``"all"`` as suppression.
    """
    match = _PRAGMA.search(source_line)
    if not match:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(","))


def is_suppressed(finding: Finding, module: ModuleInfo) -> bool:
    """True when a pragma on the finding's line disables its rule."""
    if finding.line < 1 or finding.line > len(module.lines):
        return False
    names = disabled_rules(module.lines[finding.line - 1])
    return finding.rule in names or "all" in names


def run_passes(
    project: ProjectModel, passes: Sequence[AnalysisPass]
) -> List[Finding]:
    """Run ``passes`` over ``project``; pragma-suppressed findings drop."""
    findings: List[Finding] = []
    for analysis_pass in passes:
        findings.extend(analysis_pass.run(project))
    kept: List[Finding] = []
    for finding in findings:
        module = project.module_for_path(finding.path)
        if module is not None and is_suppressed(finding, module):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


"""Exception hygiene in the resilience / store / campaign paths.

The fault-tolerance modules are exactly where a swallowed exception is
most expensive: a bare ``except`` that neither re-raises, increments a
counter, nor quarantines turns an injected fault (or a real crash) into
a silent wrong answer, defeating the entire chaos-CI surface.

``overbroad-except``
    ``except:`` / ``except Exception`` / ``except BaseException`` whose
    handler shows no mitigation: no re-raise, no counter increment, no
    quarantine, no logger call, and no binding of the exception for a
    deferred raise.

``silent-except``
    Any handler -- however narrow -- whose body is nothing but
    ``pass`` / ``continue`` / a bare or constant ``return``. Narrow
    silent swallows are legal where documented (best-effort fsync,
    litter cleanup); each carries a
    ``# colt-lint: disable=silent-except -- <why>`` pragma on its
    ``except`` line, so the *next* silent swallow still gets flagged.
"""

from __future__ import annotations

import ast
import re
from typing import List, Sequence

from repro.analysis.static.model import ProjectModel
from repro.analysis.static.passes import AnalysisPass, Finding

#: Modules in scope (path suffix match): everything under sim/ plus the
#: atomic-write helper the store depends on.
SCOPE = (
    "repro/sim/",
    "repro/common/atomicio.py",
)

_BROAD_NAMES = frozenset(("Exception", "BaseException"))
_LOGGER_NAME = re.compile(r"(?i)^_?log(ger)?$")
_LOG_METHODS = frozenset(
    ("debug", "info", "warning", "error", "exception", "critical")
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    candidates: List[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in candidates:
        if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _BROAD_NAMES:
            return True
    return False


def _is_mitigated(handler: ast.ExceptHandler) -> bool:
    bound = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func.attr
            if attr in ("increment", "inc"):
                return True
            if "quarantine" in attr:
                return True
            if attr in _LOG_METHODS and isinstance(
                node.func.value, ast.Name
            ) and _LOGGER_NAME.match(node.func.value.id):
                return True
        # Deferred raise: the bound exception is stored for later.
        if (
            bound is not None
            and isinstance(node, ast.Assign)
            and any(
                isinstance(n, ast.Name) and n.id == bound
                for n in ast.walk(node.value)
            )
        ):
            return True
    return False


def _is_silent(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


class ExceptionHygienePass(AnalysisPass):
    rules = ("overbroad-except", "silent-except")

    def __init__(self, scope: Sequence[str] = SCOPE) -> None:
        self.scope = tuple(scope)

    def _in_scope(self, relpath: str) -> bool:
        norm = relpath.replace("\\", "/")
        return any(
            norm.endswith(suffix) or (suffix.endswith("/") and suffix in norm)
            for suffix in self.scope
        )

    def run(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            if module.tree is None or not self._in_scope(module.relpath):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                broad, mitigated = _is_broad(node), _is_mitigated(node)
                caught = (
                    ast.unparse(node.type)
                    if node.type is not None
                    else "everything"
                )
                if broad and not mitigated:
                    findings.append(Finding(
                        module.path, node.lineno, node.col_offset,
                        "overbroad-except",
                        f"handler catches {caught} but neither re-raises, "
                        f"increments a counter, quarantines, nor logs; "
                        f"faults disappearing here defeat the resilience "
                        f"machinery",
                    ))
                elif _is_silent(node):
                    findings.append(Finding(
                        module.path, node.lineno, node.col_offset,
                        "silent-except",
                        f"handler for {caught} swallows the exception "
                        f"silently (body is only pass/return); count, log, "
                        f"or accept it with '# colt-lint: "
                        f"disable=silent-except -- <why>'",
                    ))
        return findings

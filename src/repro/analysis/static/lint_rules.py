"""The determinism lint: single-file AST rules, the pragma, the file walk.

The simulator's headline guarantee is that a configuration plus a seed
fully determines every number in every figure. That guarantee is easy
to lose to one careless line -- a ``random.shuffle`` here, a
``time.time()`` mixed into a filename there -- and impossible to
protect with generic linters. The rules:

* ``rng-module-state`` -- randomness flows through
  :class:`repro.common.rng.SeedSequencer`, never module-level RNG state;
* ``wall-clock`` -- no clock reads outside the allow-listed CLI layers
  and the tracer;
* ``float-eq`` -- no ``==`` against a float constant, which depends on
  rounding;
* ``no-print`` -- library code logs instead of printing;
* ``raw-env-read`` -- every environment read goes through
  :mod:`repro.common.knobs`, so each knob is named, defaulted and
  documented in one place.

A file that does not parse is one ``syntax-error`` finding.

The one way to accept a finding is a pragma on the flagged line that
says why::

    t = time.time()  # colt-lint: disable=wall-clock -- <why>

``disable=<rule>[,<rule>...]`` names the suppressed rules
(``disable=all`` suppresses every rule on the line); anything after
`` -- `` is the reason, which the repo's tests require.

:func:`lint_source` lints one module's text and :func:`lint_paths`
every ``.py`` file under the given paths; both drop the findings a
pragma accepts.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

#: Rule identifiers, in reporting order.
RULES = (
    "rng-module-state", "wall-clock", "float-eq", "no-print",
    "raw-env-read",
)

#: A comma-separated rule list, so a trailing `` -- <why>`` is never
#: read as part of a rule name.
_PRAGMA = re.compile(
    r"#\s*colt-lint:\s*disable=([A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, formatted ``path:line:col: rule: message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


#: Files (matched by path suffix) where wall-clock reads are legal:
#: CLI layers that print elapsed time but never serialize it, plus the
#: tracer (its timestamps describe the run; they never feed results).
WALL_CLOCK_ALLOW = (
    "tools/bench_runner.py",
    # Drives kill/resume subprocesses: deadlines on polling their
    # output for printed tables; nothing feeds into results.
    "tools/chaos_check.py",
    "repro/experiments/__main__.py",
    "repro/obs/trace.py",
)

#: Library files under ``repro/`` that are CLI front-ends in disguise
#: (runnable via ``python -m``/console scripts) and may print directly.
PRINT_ALLOW = (
    "repro/analysis/determinism.py",
    # colt-analyze's output layer.
    "repro/analysis/static/cli.py",
)

#: The one module allowed to construct numpy Generators directly.
RNG_CONSTRUCTION_ALLOW = ("repro/common/rng.py",)

#: The one module allowed to read ``os.environ`` / ``os.getenv``.
RAW_ENV_ALLOW = ("repro/common/knobs.py",)

#: ``numpy.random`` attributes that are types/constructors handed around
#: as annotations or factories, not hidden module state.
_NP_RANDOM_TYPES = frozenset(
    ("Generator", "BitGenerator", "SeedSequence", "RandomState")
)

#: Wall-clock callables, keyed by module alias.
_TIME_FUNCS = frozenset(
    ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns")
)
_DATETIME_FUNCS = frozenset(("now", "utcnow", "today"))


def _path_matches(path: str, suffixes: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


class _Visitor(ast.NodeVisitor):
    """Collects raw findings for one module (pragmas applied later)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.diagnostics: List[Finding] = []
        self._allow_wall_clock = _path_matches(path, WALL_CLOCK_ALLOW)
        self._allow_rng_construction = _path_matches(
            path, RNG_CONSTRUCTION_ALLOW
        )
        self._allow_env_read = _path_matches(path, RAW_ENV_ALLOW)
        normalized = path.replace("\\", "/")
        self._check_print = (
            "repro/" in normalized
            and not normalized.endswith("__main__.py")
            and not _path_matches(path, PRINT_ALLOW)
        )
        # module-alias tracking: which local names refer to numpy /
        # time / datetime, so aliased imports cannot dodge the rules.
        self._numpy_aliases: set = set()
        self._time_aliases: set = set()
        self._datetime_mod_aliases: set = set()
        self._datetime_cls_aliases: set = set()
        self._os_aliases: set = set()
        self._environ_aliases: set = set()
        self._getenv_aliases: set = set()

    # -- helpers -------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.diagnostics.append(
            Finding(self.path, node.lineno, node.col_offset, rule, message)
        )

    # -- imports (rng-module-state + alias bookkeeping) ----------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            local = (alias.asname or alias.name).split(".")[0]
            if root == "random":
                self._report(
                    node,
                    "rng-module-state",
                    "the stdlib 'random' module is global mutable state; "
                    "draw randomness from repro.common.rng.SeedSequencer",
                )
            elif root == "numpy":
                self._numpy_aliases.add(local)
            elif root == "time":
                self._time_aliases.add(local)
            elif root == "datetime":
                self._datetime_mod_aliases.add(local)
            elif root == "os":
                self._os_aliases.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root == "random":
            self._report(
                node,
                "rng-module-state",
                "importing from 'random' pulls global RNG state; use "
                "repro.common.rng.SeedSequencer",
            )
        elif module in ("numpy.random", "numpy"):
            for alias in node.names:
                if module == "numpy" and alias.name == "random":
                    self._numpy_aliases.add(alias.asname or "random")
                if module == "numpy.random":
                    self._check_np_random_name(node, alias.name)
        elif root == "time" and not self._allow_wall_clock:
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self._report(
                        node,
                        "wall-clock",
                        f"'from time import {alias.name}' reads wall-clock "
                        f"time; simulation results must not depend on it",
                    )
        elif root == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self._datetime_cls_aliases.add(alias.asname or alias.name)
                if alias.name == "date":
                    self._datetime_cls_aliases.add(alias.asname or alias.name)
        elif module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    self._environ_aliases.add(alias.asname or alias.name)
                if alias.name == "getenv":
                    self._getenv_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_np_random_name(self, node: ast.AST, name: str) -> None:
        if name in _NP_RANDOM_TYPES:
            return
        if name == "default_rng" and self._allow_rng_construction:
            return
        self._report(
            node,
            "rng-module-state",
            f"'numpy.random.{name}' bypasses SeedSequencer; request a "
            f"named stream instead",
        )

    # -- environment reads (raw-env-read) ------------------------------

    def _is_environ(self, node: ast.AST) -> bool:
        """``os.environ`` (any ``os`` alias) or a ``from os import environ``."""
        if isinstance(node, ast.Name):
            return node.id in self._environ_aliases
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._os_aliases
        )

    def _reads_env(self, func: ast.AST) -> bool:
        """``environ.get(...)`` / ``os.getenv(...)`` call targets."""
        if isinstance(func, ast.Name):
            return func.id in self._getenv_aliases
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "get":
            return self._is_environ(func.value)
        return (
            func.attr == "getenv"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._os_aliases
        )

    def _report_env_read(self, node: ast.AST) -> None:
        if not self._allow_env_read:
            self._report(
                node,
                "raw-env-read",
                "raw environment read; declare a Knob in "
                "repro.common.knobs and read it through the Knob",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load) and self._is_environ(node.value):
            self._report_env_read(node)
        self.generic_visit(node)

    # -- attribute access (np.random.* / time.* / datetime.*) ----------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # np.random.<name>
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self._numpy_aliases
            and not isinstance(node.ctx, ast.Store)
        ):
            self._check_np_random_name(node, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self._reads_env(func):
            self._report_env_read(node)
        if (
            self._check_print
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._report(
                node,
                "no-print",
                "print() in library code bypasses --quiet/--verbose; "
                "log via repro.obs.logging.get_logger(__name__)",
            )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if (
                owner in self._time_aliases
                and attr in _TIME_FUNCS
                and not self._allow_wall_clock
            ):
                self._report(
                    node,
                    "wall-clock",
                    f"'{owner}.{attr}()' reads wall-clock time; simulation "
                    f"results must not depend on it",
                )
            if (
                owner in self._datetime_cls_aliases
                and attr in _DATETIME_FUNCS
                and not self._allow_wall_clock
            ):
                self._report(
                    node,
                    "wall-clock",
                    f"'{owner}.{attr}()' reads wall-clock time; simulation "
                    f"results must not depend on it",
                )
        # datetime.datetime.now() / datetime.date.today()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self._datetime_mod_aliases
            and func.value.attr in ("datetime", "date")
            and func.attr in _DATETIME_FUNCS
            and not self._allow_wall_clock
        ):
            self._report(
                node,
                "wall-clock",
                f"'datetime.{func.value.attr}.{func.attr}()' reads "
                f"wall-clock time; simulation results must not depend on it",
            )
        self.generic_visit(node)

    # -- float equality ------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_float_constant(left) or self._is_float_constant(right):
                self._report(
                    node,
                    "float-eq",
                    "'==' against a float constant depends on rounding; "
                    "compare with a tolerance (math.isclose)",
                )
                break
        self.generic_visit(node)

    @staticmethod
    def _is_float_constant(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.UAdd, ast.USub))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )


def _accepted(finding: Finding, lines: Sequence[str]) -> bool:
    """True when a pragma on the finding's line disables its rule."""
    if not 1 <= finding.line <= len(lines):
        return False
    match = _PRAGMA.search(lines[finding.line - 1])
    if not match:
        return False
    names = {part.strip() for part in match.group(1).split(",")}
    return finding.rule in names or "all" in names


def _place(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def lint_source(path: str, source: str) -> List[Finding]:
    """Findings for one module's ``source``; pragma-accepted ones drop."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings = [Finding(
            path, exc.lineno or 1, exc.offset or 0, "syntax-error",
            exc.msg or "syntax error",
        )]
    else:
        visitor = _Visitor(path)
        visitor.visit(tree)
        findings = visitor.diagnostics
    lines = source.splitlines()
    return sorted(
        (f for f in findings if not _accepted(f, lines)), key=_place
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (directories recurse, sorted)."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Findings for every ``.py`` file under ``paths``, sorted by place."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(str(file_path), source))
    return sorted(findings, key=_place)

"""Shared project model: ASTs, symbol index, and a colored call graph.

Cross-file passes need to agree on what the project *is*; parsing the
tree once here keeps ``colt-analyze`` linear in repo size no matter how
many passes run. The model provides:

* one :class:`ModuleInfo` per file -- source, split lines, AST (or the
  captured syntax error), a dotted module name, and the import table
  mapping local names to the modules/symbols they refer to;
* a function index keyed by ``(module name, qualified name)``;
* a heuristic call graph (direct calls, ``self.method()``, imported
  names, ``Class.method`` on imported classes) plus the *callback
  registrations* that matter for concurrency coloring:
  ``TaskSpec(fn=...)`` / ``pool.submit(task, ...)`` / ``initializer=``
  (pool-worker roots), ``threading.Thread(target=...)`` (monitor-thread
  roots) and ``signal.signal(sig, handler)`` (signal-handler roots);
* :meth:`ProjectModel.worker_reachable` -- a BFS coloring answering
  "can this function run inside a ProcessPool worker?", which the
  concurrency pass uses to flag writes to parent-process module state.

The resolver is deliberately conservative: an attribute call on an
arbitrary object (``engine.prepare()``) resolves to nothing rather than
to every method of that name, so reachability under-approximates --
findings it produces are real, at the cost of missing dynamic dispatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: A function's identity: (dotted module name, qualified name).
FuncKey = Tuple[str, str]


def normalize_path(path: object) -> str:
    return str(path).replace("\\", "/")


def module_name_for(path: str) -> str:
    """Dotted module name for a file path (best effort).

    ``.../src/repro/sim/runner.py`` -> ``repro.sim.runner``;
    ``tools/analyze.py`` -> ``tools.analyze``; anything unrecognizable keeps
    its stem. ``__init__.py`` maps to its package.
    """
    norm = normalize_path(path)
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [part for part in norm.split("/") if part and part != "."]
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src + 1:]
    else:
        for root in ("repro", "tools", "tests"):
            if root in parts:
                parts = parts[parts.index(root):]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def repo_relative(path: Path) -> str:
    """Path relative to the enclosing repo root (pyproject.toml), if any."""
    resolved = path.resolve()
    for ancestor in resolved.parents:
        if (ancestor / "pyproject.toml").exists():
            return normalize_path(resolved.relative_to(ancestor))
    return normalize_path(path)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (directories recurse, sorted)."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


@dataclass
class ModuleInfo:
    """One parsed module and everything passes need to know about it."""

    path: str
    relpath: str
    name: str
    source: str
    lines: List[str]
    tree: Optional[ast.Module]
    syntax_error: Optional[Tuple[int, int, str]] = None
    #: local name -> (module, symbol); symbol is None for module imports.
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)

    def path_matches(self, suffixes: Sequence[str]) -> bool:
        norm = normalize_path(self.relpath)
        return any(norm.endswith(suffix) for suffix in suffixes)


@dataclass
class FunctionInfo:
    """A module- or class-level function definition."""

    key: FuncKey
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: ModuleInfo
    class_name: Optional[str] = None


@dataclass(frozen=True)
class CallbackRoot:
    """A function registered to run on a pool worker / thread / signal."""

    key: FuncKey
    kind: str  # "worker" | "thread" | "signal"
    registered_at: Tuple[str, int]  # (path, line) of the registration


def _collect_imports(tree: ast.Module) -> Dict[str, Tuple[str, Optional[str]]]:
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    table[root] = (root, None)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = (node.module, alias.name)
    return table


class _FunctionCollector(ast.NodeVisitor):
    """Indexes module- and class-level functions (not nested defs)."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.functions: List[FunctionInfo] = []
        self._class_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _add(self, node: ast.AST, name: str) -> None:
        class_name = self._class_stack[-1] if self._class_stack else None
        qualname = (
            f"{'.'.join(self._class_stack)}.{name}"
            if self._class_stack
            else name
        )
        self.functions.append(
            FunctionInfo(
                key=(self.module.name, qualname),
                node=node,
                module=self.module,
                class_name=class_name,
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._add(node, node.name)
        # Nested defs attribute their calls to the enclosing function.

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._add(node, node.name)


class ProjectModel:
    """All modules of one analysis run, parsed once."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = modules
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self._by_path: Dict[str, ModuleInfo] = {}
        for module in modules:
            self._by_path[normalize_path(module.path)] = module
            self._by_path.setdefault(normalize_path(module.relpath), module)
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        for module in modules:
            if module.tree is None:
                continue
            collector = _FunctionCollector(module)
            collector.visit(module.tree)
            for info in collector.functions:
                self.functions[info.key] = info
        self.calls: Dict[FuncKey, Set[FuncKey]] = {}
        self.roots: List[CallbackRoot] = []
        for module in modules:
            if module.tree is not None:
                self._index_module(module)

    # -- construction --------------------------------------------------

    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, str]]
    ) -> "ProjectModel":
        """Model from in-memory ``(path, source)`` pairs (tests, stdin)."""
        modules = []
        for path, source in sources:
            modules.append(cls._parse(path, normalize_path(path), source))
        return cls(modules)

    @classmethod
    def from_paths(cls, paths: Iterable[Path]) -> "ProjectModel":
        modules = []
        for file_path in iter_python_files(paths):
            source = file_path.read_text(encoding="utf-8")
            modules.append(
                cls._parse(str(file_path), repo_relative(file_path), source)
            )
        return cls(modules)

    @staticmethod
    def _parse(path: str, relpath: str, source: str) -> ModuleInfo:
        name = module_name_for(relpath)
        lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return ModuleInfo(
                path=path,
                relpath=relpath,
                name=name,
                source=source,
                lines=lines,
                tree=None,
                syntax_error=(
                    exc.lineno or 1, exc.offset or 0, exc.msg or "syntax error"
                ),
            )
        return ModuleInfo(
            path=path,
            relpath=relpath,
            name=name,
            source=source,
            lines=lines,
            tree=tree,
            imports=_collect_imports(tree),
        )

    # -- lookups -------------------------------------------------------

    def module_for_path(self, path: object) -> Optional[ModuleInfo]:
        return self._by_path.get(normalize_path(path))

    def modules_matching(self, suffixes: Sequence[str]) -> List[ModuleInfo]:
        return [m for m in self.modules if m.path_matches(suffixes)]

    # -- call graph ----------------------------------------------------

    def _resolve_callable(
        self,
        node: ast.AST,
        module: ModuleInfo,
        class_name: Optional[str],
    ) -> Optional[FuncKey]:
        """Best-effort resolution of a callable expression to a FuncKey."""
        if isinstance(node, ast.Name):
            key = (module.name, node.id)
            if key in self.functions:
                return key
            imported = module.imports.get(node.id)
            if imported is not None and imported[1] is not None:
                target = (imported[0], imported[1])
                if target in self.functions:
                    return target
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = node.value.id
            if owner == "self" and class_name is not None:
                key = (module.name, f"{class_name}.{node.attr}")
                if key in self.functions:
                    return key
                return None
            imported = module.imports.get(owner)
            if imported is not None:
                imported_module, symbol = imported
                if symbol is None:
                    target = (imported_module, node.attr)
                else:
                    # Class imported by name: Class.method / classmethods.
                    target = (imported_module, f"{symbol}.{node.attr}")
                if target in self.functions:
                    return target
            # Same-module Class.method.
            key = (module.name, f"{owner}.{node.attr}")
            if key in self.functions:
                return key
        return None

    def _index_module(self, module: ModuleInfo) -> None:
        assert module.tree is not None
        for info in (
            f for f in self.functions.values() if f.module is module
        ):
            edges = self.calls.setdefault(info.key, set())
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    target = self._resolve_callable(
                        node.func, module, info.class_name
                    )
                    if target is not None and target != info.key:
                        edges.add(target)
        # Callback registrations can appear anywhere (incl. module level).
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._collect_roots(node, module)

    def _enclosing_class(
        self, module: ModuleInfo, node: ast.Call
    ) -> Optional[str]:
        """Class whose body (transitively) contains ``node``, if any."""
        assert module.tree is not None
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                for child in ast.walk(cls):
                    if child is node:
                        return cls.name
        return None

    def _collect_roots(self, node: ast.Call, module: ModuleInfo) -> None:
        func = node.func
        func_name = None
        if isinstance(func, ast.Name):
            func_name = func.id
        elif isinstance(func, ast.Attribute):
            func_name = func.attr

        candidates: List[Tuple[ast.AST, str]] = []
        if func_name == "TaskSpec":
            for keyword in node.keywords:
                if keyword.arg == "fn":
                    candidates.append((keyword.value, "worker"))
        if func_name == "submit" and node.args:
            candidates.append((node.args[0], "worker"))
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                candidates.append((keyword.value, "worker"))
        if func_name == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    candidates.append((keyword.value, "thread"))
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "signal"
            and isinstance(func.value, ast.Name)
            and func.value.id == "signal"
            and len(node.args) >= 2
        ):
            candidates.append((node.args[1], "signal"))

        if not candidates:
            return
        class_name = self._enclosing_class(module, node)
        for expr, kind in candidates:
            key = self._resolve_callable(expr, module, class_name)
            if key is not None:
                self.roots.append(
                    CallbackRoot(
                        key=key,
                        kind=kind,
                        registered_at=(module.path, node.lineno),
                    )
                )

    def reachable_from(
        self, roots: Sequence[FuncKey]
    ) -> Dict[FuncKey, FuncKey]:
        """BFS over call edges; maps each reached function to its root."""
        colored: Dict[FuncKey, FuncKey] = {}
        queue: List[FuncKey] = []
        for root in roots:
            if root in self.functions and root not in colored:
                colored[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for target in sorted(self.calls.get(current, ())):
                if target not in colored:
                    colored[target] = colored[current]
                    queue.append(target)
        return colored

    def worker_reachable(self) -> Dict[FuncKey, FuncKey]:
        """Functions that can execute inside a ProcessPool worker."""
        return self.reachable_from(
            [root.key for root in self.roots if root.kind == "worker"]
        )

    def signal_handlers(self) -> List[FunctionInfo]:
        """Functions registered as OS signal handlers."""
        seen: Set[FuncKey] = set()
        handlers: List[FunctionInfo] = []
        for root in self.roots:
            if root.kind == "signal" and root.key not in seen:
                seen.add(root.key)
                handlers.append(self.functions[root.key])
        return handlers

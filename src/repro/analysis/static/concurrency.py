"""Concurrency safety: workers, signal handlers, and monitor threads.

Three rules, all driven by the project model's callback coloring:

``worker-global-mutation``
    A function reachable from a ProcessPool task/initializer rebinds a
    module-level name (``global X; X = ...``). Under the spawn start
    method that write never reaches the parent; under fork it silently
    diverges -- either way results stop being a function of config +
    seed. Intentional worker-side singleton resets carry a pragma
    saying why.

``signal-handler-work``
    A function installed via ``signal.signal`` does more than flag
    setting / signal re-raising. CPython runs handlers between
    bytecodes on the main thread, so anything that allocates, locks, or
    logs can deadlock or corrupt state mid-campaign.

``unlocked-shared-state``
    A class that owns a ``threading.Lock`` *and* starts a
    ``Thread(target=self...)`` writes an attribute from the thread side
    without holding the lock, while the attribute is read from the
    non-thread side (or is part of the public surface): a flag or
    counter a monitor thread publishes must be written under the lock
    its readers take. No class in the repo starts such a thread today;
    the rule stays so the next one starts out guarded.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.static.model import ModuleInfo, ProjectModel
from repro.analysis.static.passes import AnalysisPass, Finding

#: Calls a signal handler may make: flag setting, re-raising the signal
#: at the default disposition, and naming the signal for the record.
_SIGNAL_SAFE_ATTRS = frozenset(
    ("set", "clear", "is_set", "signal", "kill", "getpid", "Signals")
)
_SIGNAL_SAFE_NAMES = frozenset(("int", "str", "getattr"))


def _assigned_names(fn_node: ast.AST) -> Dict[str, int]:
    """Names rebound anywhere in the function, with first line number."""
    assigned: Dict[str, int] = {}
    for node in ast.walk(fn_node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for element in ast.walk(target):
                if isinstance(element, ast.Name):
                    assigned.setdefault(element.id, node.lineno)
    return assigned


class ConcurrencyPass(AnalysisPass):
    rules = (
        "worker-global-mutation",
        "signal-handler-work",
        "unlocked-shared-state",
    )

    def run(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_worker_globals(project))
        findings.extend(self._check_signal_handlers(project))
        findings.extend(self._check_thread_state(project))
        return findings

    # -- worker-global-mutation ---------------------------------------

    def _check_worker_globals(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        colored = project.worker_reachable()
        for key in sorted(colored):
            info = project.functions[key]
            globals_declared: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            if not globals_declared:
                continue
            assigned = _assigned_names(info.node)
            root = colored[key]
            for name in sorted(globals_declared):
                if name in assigned:
                    findings.append(Finding(
                        info.module.path, assigned[name], 0,
                        "worker-global-mutation",
                        f"'{key[1]}' rebinds module-level '{name}' and is "
                        f"reachable from pool-worker entry point "
                        f"'{root[1]}' ({root[0]}); parent-process state "
                        f"must not be written from workers",
                    ))
        return findings

    # -- signal-handler-work ------------------------------------------

    def _check_signal_handlers(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for info in project.signal_handlers():
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in _SIGNAL_SAFE_ATTRS:
                        continue
                    described = func.attr
                elif isinstance(func, ast.Name):
                    if func.id in _SIGNAL_SAFE_NAMES:
                        continue
                    described = func.id
                else:
                    described = "<dynamic>"
                findings.append(Finding(
                    info.module.path, node.lineno, node.col_offset,
                    "signal-handler-work",
                    f"signal handler '{info.key[1]}' calls "
                    f"'{described}(...)'; handlers run between bytecodes "
                    f"on the main thread and should only set flags / "
                    f"re-raise the signal",
                ))
        return findings

    # -- unlocked-shared-state ----------------------------------------

    def _check_thread_state(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> List[Finding]:
        lock_attrs = self._lock_attributes(cls)
        thread_entries = self._thread_targets(cls)
        if not lock_attrs or not thread_entries:
            return []
        methods: Dict[str, ast.AST] = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        thread_methods = self._thread_reachable(methods, thread_entries)
        nonthread_methods = {
            name for name in methods
            if name not in thread_methods and name != "__init__"
        }
        # Attributes touched by the non-thread surface of the class.
        outside_access: Set[str] = set()
        for name in nonthread_methods:
            outside_access.update(self._self_attributes(methods[name]))

        findings: List[Finding] = []
        for method_name in sorted(thread_methods):
            node = methods.get(method_name)
            if node is None:
                continue
            for write_attr, write_node in self._self_writes(node):
                if write_attr in lock_attrs:
                    continue
                shared = (
                    write_attr in outside_access
                    or not write_attr.startswith("_")
                )
                if not shared:
                    continue
                if self._under_lock(node, write_node, lock_attrs):
                    continue
                findings.append(Finding(
                    module.path, write_node.lineno, write_node.col_offset,
                    "unlocked-shared-state",
                    f"'{cls.name}.{method_name}' (monitor-thread side) "
                    f"writes 'self.{write_attr}' without holding "
                    f"'self.{sorted(lock_attrs)[0]}', but the attribute "
                    f"is read outside the thread; publish it under the "
                    f"lock",
                ))
        return findings

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_lock_call = isinstance(value, ast.Call) and (
                (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr in ("Lock", "RLock")
                )
                or (
                    isinstance(value.func, ast.Name)
                    and value.func.id in ("Lock", "RLock")
                )
            )
            if not is_lock_call:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    locks.add(target.attr)
        return locks

    @staticmethod
    def _thread_targets(cls: ast.ClassDef) -> Set[str]:
        targets: Set[str] = set()
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Call)
                and (
                    (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "Thread"
                    )
                    or (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "Thread"
                    )
                )
            ):
                continue
            for keyword in node.keywords:
                if (
                    keyword.arg == "target"
                    and isinstance(keyword.value, ast.Attribute)
                    and isinstance(keyword.value.value, ast.Name)
                    and keyword.value.value.id == "self"
                ):
                    targets.add(keyword.value.attr)
        return targets

    @staticmethod
    def _thread_reachable(
        methods: Dict[str, ast.AST], entries: Set[str]
    ) -> Set[str]:
        reached = set(entry for entry in entries if entry in methods)
        queue = list(reached)
        while queue:
            current = queue.pop(0)
            for node in ast.walk(methods[current]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in methods
                    and node.func.attr not in reached
                ):
                    reached.add(node.func.attr)
                    queue.append(node.func.attr)
        return reached

    @staticmethod
    def _self_attributes(fn_node: ast.AST) -> Set[str]:
        attrs: Set[str] = set()
        for node in ast.walk(fn_node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                attrs.add(node.attr)
        return attrs

    @staticmethod
    def _self_writes(fn_node: ast.AST) -> List[Tuple[str, ast.AST]]:
        writes: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(fn_node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    writes.append((target.attr, node))
        return writes

    @staticmethod
    def _under_lock(
        fn_node: ast.AST, write_node: ast.AST, lock_attrs: Set[str]
    ) -> bool:
        """True when ``write_node`` sits inside ``with self.<lock>:``."""

        def contains(parent: ast.AST) -> bool:
            return any(child is write_node for child in ast.walk(parent))

        for node in ast.walk(fn_node):
            if not isinstance(node, ast.With):
                continue
            holds_lock = any(
                isinstance(item.context_expr, ast.Attribute)
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                and item.context_expr.attr in lock_attrs
                for item in node.items
            )
            if holds_lock and contains(node):
                return True
        return False

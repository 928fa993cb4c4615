"""Project-wide static analysis for the CoLT reproduction repo.

``repro.analysis.lint`` is the ``colt-lint`` facade over the single-file
rules; this package hosts them and adds the *cross-file* checks:

``model``
    One shared :class:`~repro.analysis.static.model.ProjectModel` --
    per-module ASTs, a symbol index, and a lightweight call graph with
    "reachable from a ProcessPool task / signal handler / monitor
    thread" coloring -- parsed once and handed to every pass.

``passes``
    The pass framework (:class:`Finding`, pragma suppression,
    fingerprints) the lint rules are refactored onto.

``lint_rules``
    The single-file rules, ``raw-env-read`` among them: every
    environment read goes through :mod:`repro.common.knobs`.

``concurrency`` / ``hygiene``
    The two cross-file analyzers (concurrency safety, exception
    hygiene).

``docs`` / ``cli``
    The knob table rendered from :data:`repro.common.knobs.ALL`, and
    the ``colt-analyze`` entry point: text/JSON/SARIF output, a
    checked-in baseline so CI fails only on *new* findings, and
    ``--check-docs`` to keep the generated table fresh.
"""

from repro.analysis.static.model import ProjectModel, iter_python_files
from repro.analysis.static.passes import AnalysisPass, Finding, run_passes

__all__ = [
    "AnalysisPass",
    "Finding",
    "ProjectModel",
    "iter_python_files",
    "run_passes",
]

"""Project-wide static analysis for the CoLT reproduction repo.

One command, ``colt-analyze`` (``python tools/analyze.py <paths>``),
runs the single-file lint rules and the *cross-file* checks:

``model``
    One shared :class:`~repro.analysis.static.model.ProjectModel` --
    per-module ASTs, a symbol index, and a lightweight call graph with
    "reachable from a ProcessPool task / signal handler / monitor
    thread" coloring -- parsed once and handed to every pass.

``passes``
    The pass framework (:class:`Finding`, the
    ``# colt-lint: disable=<rule> -- <why>`` pragma that is the one way
    to accept a finding, and :func:`run_passes`).

``lint_rules``
    The single-file rules, ``raw-env-read`` among them: every
    environment read goes through :mod:`repro.common.knobs`.

``concurrency`` / ``hygiene``
    The two cross-file analyzers (concurrency safety, exception
    hygiene).

``docs`` / ``cli``
    The knob table rendered from :data:`repro.common.knobs.ALL`, and
    the ``colt-analyze`` entry point: every pass over the given paths,
    one line per finding, and ``--check-docs`` to keep the generated
    table fresh.
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

"""Static and dynamic enforcement of the simulator's invariants.

Three legs, built for the paper's apples-to-apples methodology
(Section 5.2), which only holds while the OS substrate evolves
bit-identically across CoLT designs and the fill path produces only
legal TLB entries:

* **Runtime sanitizers** (:mod:`repro.analysis.sanitizers`) --
  :class:`TLBSanitizer`, :class:`BuddySanitizer`, and
  :class:`PageTableSanitizer` attach to the MMU, the buddy allocator,
  and the kernel through lightweight hook points. Enable them with
  ``COLT_SANITIZE=1`` (or ``SimulationConfig(sanitize=True)``); the
  default hot path stays unchanged.
* **Repo lint** (:mod:`repro.analysis.lint`) -- AST rules that keep
  randomness flowing through :class:`repro.common.rng.SeedSequencer`,
  wall-clock reads out of simulation code, and other determinism
  hazards out of ``src/repro``. CLI: ``colt-lint`` /
  ``python tools/lint.py``.
* **Determinism harness** (:mod:`repro.analysis.determinism`) -- runs a
  configuration twice with the same seed and asserts the final counter
  / page-table / TLB state hashes are bit-identical, catching the
  nondeterminism the lint cannot prove away.

``repro.analysis.determinism`` is deliberately not imported here: it
depends on :mod:`repro.sim.system`, whose import chain leads back into
this package (the structures import their sanitizers). Import it
directly where needed.
"""

from repro.analysis.lint import Diagnostic, lint_paths, lint_source
from repro.analysis.sanitizers import (
    BuddySanitizer,
    PageTableSanitizer,
    TLBSanitizer,
    full_scan_interval,
    resolve_sanitize,
    sanitizers_enabled,
)

__all__ = [
    "Diagnostic",
    "lint_paths",
    "lint_source",
    "BuddySanitizer",
    "PageTableSanitizer",
    "TLBSanitizer",
    "full_scan_interval",
    "resolve_sanitize",
    "sanitizers_enabled",
]

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
* **Determinism lint** (:mod:`repro.analysis.static`) -- single-file
  AST rules that keep randomness flowing through
  :class:`repro.common.rng.SeedSequencer`, wall-clock reads out of
  simulation code, and other determinism hazards out of ``src/repro``.
  CLI: ``colt-analyze`` / ``python tools/analyze.py``.
* **Determinism harness** (:mod:`repro.analysis.determinism`) -- runs a
  configuration twice with the same seed and asserts the final counter
  / page-table / TLB state hashes are bit-identical, catching the
  nondeterminism the lint cannot prove away.

Only the sanitizers are imported here, because the simulator's
structures import them. ``repro.analysis.static`` stays out of every
simulator process, and ``repro.analysis.determinism`` depends on
:mod:`repro.sim.system`, whose import chain leads back into this
package. Import either directly where needed.
"""

from repro.analysis.sanitizers import (
    BuddySanitizer,
    PageTableSanitizer,
    TLBSanitizer,
    resolve_sanitize,
    sanitizers_enabled,
)

__all__ = [
    "BuddySanitizer",
    "PageTableSanitizer",
    "TLBSanitizer",
    "resolve_sanitize",
    "sanitizers_enabled",
]

"""Every environment knob the repo reads, each named exactly once.

A :class:`Knob` carries its variable name, the default the code uses
and a one-line doc. Its readers re-read ``os.environ`` on every call:

* :meth:`Knob.on` -- any value outside :data:`OFF_WORDS` is on;
* :meth:`Knob.text` -- the stripped value.

Unset or empty reads as the default in every reader. A run setting
that has a CLI flag has no knob: the flag is its one input. The knob
table in README.md and DESIGN.md is rendered from :data:`ALL`
(``colt-analyze --write-docs``), and the ``raw-env-read`` lint rule
keeps every other module from reading the environment directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

#: Values that switch an on/off knob off (compared lower-cased).
OFF_WORDS = frozenset(("0", "false", "no", "off", "none"))


@dataclass(frozen=True)
class Knob:
    """One environment variable: name, default, doc line."""

    name: str
    default: Any
    doc: str

    def raw(self) -> Optional[str]:
        """The stripped value, or ``None`` when the variable is unset."""
        value = os.environ.get(self.name)
        return None if value is None else value.strip()

    def text(self) -> Optional[str]:
        """The value, or the default when unset or empty."""
        return self.raw() or self.default

    def on(self) -> bool:
        """False for an off-word, True for any other non-empty value."""
        raw = self.raw()
        if not raw:
            return bool(self.default)
        return raw.lower() not in OFF_WORDS


SANITIZE = Knob(
    "COLT_SANITIZE", False,
    "enable every runtime sanitizer (TLB/page-table/buddy cross-checks) "
    "during simulation",
)
FAULTS = Knob(
    "COLT_FAULTS", None,
    "fault-injection plan, ';'-separated kind@site:index clauses",
)
HISTORY = Knob(
    "COLT_HISTORY", True,
    "an off-word skips appending the per-run colt-history-v1 record to "
    "<cache>/history/history.jsonl",
)
SCALE = Knob(
    "REPRO_SCALE", "default",
    "experiment scale preset: quick / default / full",
)

#: Every knob; the docs table lists them sorted by name.
ALL: Tuple[Knob, ...] = (SANITIZE, FAULTS, HISTORY, SCALE)

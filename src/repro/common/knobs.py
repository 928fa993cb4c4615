"""Every environment knob the repo reads, each named exactly once.

A :class:`Knob` carries its variable name, the default the code uses,
a one-line doc and the CLI flag that overrides it. Its typed readers
re-read ``os.environ`` on every call, so a value exported mid-process
(``--dump-dir`` sets ``COLT_DUMP_DIR`` before pool workers fork) is
seen by the next reader:

* :meth:`Knob.on` -- any value outside :data:`OFF_WORDS` is on;
* :meth:`Knob.integer` / :meth:`Knob.real` -- a value that does not
  parse raises :class:`~repro.common.errors.ConfigurationError` naming
  the knob and the value; ``minimum`` clamps a parsed value;
* :meth:`Knob.text` -- the stripped value.

Unset or empty reads as the default in every reader. The knob table in
README.md and DESIGN.md is rendered from :data:`ALL`
(``colt-analyze --write-docs``), and the ``raw-env-read`` lint rule
keeps every other module from reading the environment directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Values that switch an on/off knob off (compared lower-cased), and
#: that disable the result store when ``COLT_RESULT_CACHE`` holds one.
OFF_WORDS = frozenset(("0", "false", "no", "off", "none"))


@dataclass(frozen=True)
class Knob:
    """One environment variable: name, default, doc line, CLI flag."""

    name: str
    default: Any
    doc: str
    flag: Optional[str] = None

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

    def integer(self, minimum: Optional[int] = None) -> Optional[int]:
        """The value as an int, raised to ``minimum`` when below it."""
        return self._number(int, "an integer", minimum)

    def real(self, minimum: Optional[float] = None) -> Optional[float]:
        """The value as a float, raised to ``minimum`` when below it."""
        return self._number(float, "a number", minimum)

    def _number(self, parse, what: str, minimum) -> Any:
        raw = self.raw()
        if not raw:
            return self.default
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigurationError(
                f"{self.name}={raw!r} is not {what}"
            ) from None
        return value if minimum is None else max(minimum, value)


SANITIZE = Knob(
    "COLT_SANITIZE", False,
    "enable every runtime sanitizer (TLB/page-table/buddy cross-checks) "
    "during simulation",
)
RESULT_CACHE = Knob(
    "COLT_RESULT_CACHE", ".colt-cache",
    "result-store root; set but empty, or an off-word, disables the store",
    "--cache-dir / --no-cache",
)
FAULTS = Knob(
    "COLT_FAULTS", None,
    "fault-injection plan, ';'-separated kind@site:index clauses",
)
RETRIES = Knob(
    "COLT_RETRIES", 2,
    "resubmissions allowed per failed task (0 disables retrying)",
    "--retries",
)
TASK_TIMEOUT = Knob(
    "COLT_TASK_TIMEOUT", None,
    "pooled runs only: seconds the run waits for each task's result, "
    "in submission order, before retrying it; the worker dumps its "
    "stacks that long after the task starts (0 disables)",
    "--task-timeout",
)
DUMP_DIR = Knob(
    "COLT_DUMP_DIR", f"{RESULT_CACHE.default}/dumps",
    "directory for the workers' task-deadline stack dumps",
    "--dump-dir",
)
TELEMETRY_PORT = Knob(
    "COLT_TELEMETRY_PORT", None,
    "serve /metrics and /healthz over HTTP on this 127.0.0.1 port while "
    "a run is in flight (0 = ephemeral)",
    "--telemetry-port",
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
ALL: Tuple[Knob, ...] = (
    SANITIZE, RESULT_CACHE, FAULTS, RETRIES, TASK_TIMEOUT, DUMP_DIR,
    TELEMETRY_PORT, HISTORY, SCALE,
)

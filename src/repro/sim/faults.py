"""Deterministic fault injection for the resilient experiment runner.

The runner's crash tolerance (``repro.sim.resilience``) is only
credible if it can be exercised on a *seeded schedule*: the same
``COLT_FAULTS`` plan must kill the same task of the same batch every
time, so a chaos test can assert the recovered results are bit-identical
to a fault-free run. This module is that schedule. A :class:`FaultPlan`
is a set of :class:`FaultSpec` triggers keyed by *site* (``capture``,
``replay``, ``campaign``, ``store.write``) and the task's deterministic
index within that site -- never by wall-clock, pid, or pool scheduling
order.

Fault kinds:

``crash``
    Hard-kill the worker process (``os._exit``), which breaks the
    ``ProcessPoolExecutor`` -- the messiest failure a batch can see.
    When fired in the parent process (serial execution, or after the
    runner degraded to in-process mode) it raises
    :class:`~repro.common.errors.InjectedFaultError` instead, because
    exiting the parent would kill the experiment rather than a worker.
``raise``
    Raise :class:`~repro.common.errors.InjectedFaultError` inside the
    task -- an ordinary worker exception.
``delay``
    ``time.sleep`` for the spec's seconds before the task body runs,
    pushing the task past a per-task deadline so the parent's
    ``future.result(timeout=...)`` trips.
``torn`` / ``corrupt``
    Mutate a result-store write (truncate the framed payload / flip a
    payload byte) so the checksum-verified load path must quarantine
    the entry. Applied by :meth:`repro.sim.store.ResultStore._save`
    via :meth:`FaultPlan.corruption`.

Grammar (``COLT_FAULTS`` environment variable, ``;``-separated)::

    kind@site:index[,index...][xTIMES][/SECONDS]

    COLT_FAULTS="crash@capture:0;raise@replay:1x2;delay@replay:0/0.5"
    COLT_FAULTS="torn@store.write:0;corrupt@store.write:2,3"

``xTIMES`` fires the fault on attempts ``0..TIMES-1`` of the task
(default 1: only the first attempt faults, so a single retry
recovers); ``/SECONDS`` is the ``delay`` duration. Because the fault
fires by (site, index, attempt), a retried task deterministically
escapes a ``x1`` fault no matter which worker re-runs it.

``time.sleep`` is the only wall-clock interaction here, and it only
*delays* work -- injected faults never feed a number into a
``SimulationResult``, which is the invariant the chaos tests pin.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.common import knobs
from repro.common.errors import ConfigurationError, InjectedFaultError
from repro.obs.registry import get_registry

#: Exit status of a ``crash``-faulted worker (shows up in pool logs).
CRASH_EXIT_CODE = 86

#: Fault kinds executed inside a task.
EXECUTION_KINDS = ("crash", "raise", "delay")

#: Fault kinds applied to result-store writes.
STORE_KINDS = ("torn", "corrupt")

#: Sites execution faults may target. ``campaign`` fires in the parent
#: before an experiment starts (indexed by its position in the run's
#: experiment list), so chaos tests can hold or kill a run between
#: experiments and assert which tables printed; ``crash`` there
#: demotes to :class:`~repro.common.errors.InjectedFaultError` like any
#: other parent-process fire.
TASK_SITES = ("capture", "replay", "campaign")

#: The store-write site.
STORE_SITE = "store.write"

_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<site>[a-z.]+):(?P<indices>\d+(?:,\d+)*)"
    r"(?:x(?P<times>\d+))?(?:/(?P<seconds>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire ``kind`` at ``site`` for the given task indices.

    Attributes:
        kind: one of ``crash``/``raise``/``delay``/``torn``/``corrupt``.
        site: ``capture``, ``replay``, ``campaign`` or ``store.write``.
        indices: deterministic per-site task (or write) indices to hit.
        times: fault fires while ``attempt < times`` (default 1).
        seconds: sleep duration for ``delay`` faults.
    """

    kind: str
    site: str
    indices: Tuple[int, ...]
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in EXECUTION_KINDS:
            if self.site not in TASK_SITES:
                raise ConfigurationError(
                    f"fault kind {self.kind!r} targets task sites "
                    f"{TASK_SITES}, not {self.site!r}"
                )
        elif self.kind in STORE_KINDS:
            if self.site != STORE_SITE:
                raise ConfigurationError(
                    f"fault kind {self.kind!r} targets {STORE_SITE!r}, "
                    f"not {self.site!r}"
                )
        else:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{EXECUTION_KINDS + STORE_KINDS}"
            )
        if self.times < 1:
            raise ConfigurationError(
                f"fault times must be >= 1, got {self.times}"
            )

    def matches(self, site: str, index: int, attempt: int) -> bool:
        return (
            site == self.site
            and index in self.indices
            and attempt < self.times
        )

    def render(self) -> str:
        text = f"{self.kind}@{self.site}:{','.join(map(str, self.indices))}"
        if self.times != 1:
            text += f"x{self.times}"
        if self.seconds:
            text += f"/{self.seconds:g}"
        return text


class FaultPlan:
    """A picklable, deterministic schedule of injected faults.

    The plan records the pid it was built in: ``crash`` faults hard-kill
    only when fired from a *different* process (a pool worker), and
    degrade to :class:`InjectedFaultError` in the parent, so serial and
    downgraded-to-serial execution stays recoverable.

    Each firing increments the firing process's
    ``colt_faults_injected`` registry counter (labelled by kind and
    site). A pool worker's count reaches the parent with the next task
    result that worker returns: the faulted task's own, unless the
    fault raised or killed the worker.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self._parent_pid = os.getpid()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def render(self) -> str:
        """The plan back in ``COLT_FAULTS`` grammar (for logs)."""
        return ";".join(spec.render() for spec in self.specs)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``COLT_FAULTS`` grammar into a plan."""
        specs = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            match = _SPEC_RE.match(part)
            if match is None:
                raise ConfigurationError(
                    f"cannot parse fault spec {part!r}; expected "
                    "kind@site:index[,index...][xTIMES][/SECONDS]"
                )
            specs.append(
                FaultSpec(
                    kind=match.group("kind"),
                    site=match.group("site"),
                    indices=tuple(
                        int(i) for i in match.group("indices").split(",")
                    ),
                    times=int(match.group("times") or 1),
                    seconds=float(match.group("seconds") or 0.0),
                )
            )
        return cls(specs)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``COLT_FAULTS``, or None when unset/empty."""
        text = knobs.FAULTS.text()
        if not text:
            return None
        plan = cls.parse(text)
        return plan if plan else None

    # ------------------------------------------------------------------
    # Firing.
    # ------------------------------------------------------------------

    def _record(self, kind: str, site: str) -> None:
        get_registry().counter(
            "colt_faults_injected",
            help="faults fired by the COLT_FAULTS plan",
        ).inc(kind=kind, site=site)

    def fire(self, site: str, index: int, attempt: int = 0) -> None:
        """Execute any scheduled task fault for (site, index, attempt).

        Called at the top of a capture/replay task body. May sleep
        (``delay``), raise (``raise``, or ``crash`` in the parent
        process), or never return (``crash`` in a worker).
        """
        for spec in self.specs:
            if spec.kind not in EXECUTION_KINDS:
                continue
            if not spec.matches(site, index, attempt):
                continue
            self._record(spec.kind, site)
            if spec.kind == "delay":
                time.sleep(spec.seconds)
                continue
            if spec.kind == "crash" and os.getpid() != self._parent_pid:
                # A real worker death: no exception, no cleanup, the
                # parent sees BrokenProcessPool.
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFaultError(
                f"injected {spec.kind} fault at {site}[{index}] "
                f"attempt {attempt} ({spec.render()})"
            )

    def corruption(self, index: int) -> Optional[str]:
        """The store-write fault kind scheduled for write ``index``."""
        for spec in self.specs:
            if spec.kind in STORE_KINDS and spec.matches(
                STORE_SITE, index, 0
            ):
                self._record(spec.kind, STORE_SITE)
                return spec.kind
        return None


def corrupt_bytes(data: bytes, kind: str) -> bytes:
    """Apply a ``torn`` (truncate) or ``corrupt`` (bit-flip) mutation."""
    if kind == "torn":
        return data[: len(data) // 2]
    if kind == "corrupt":
        mutated = bytearray(data)
        mutated[len(mutated) // 2] ^= 0x5A
        return bytes(mutated)
    raise ConfigurationError(f"unknown store corruption kind {kind!r}")

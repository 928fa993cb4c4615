"""Exception hierarchy for the CoLT reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subclasses are grouped by the
subsystem that raises them.
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class OutOfMemoryError(ReproError):
    """The simulated physical memory could not satisfy an allocation."""


class PageFaultError(ReproError):
    """An access touched virtual memory with no backing VMA (a SIGSEGV)."""


class TranslationError(ReproError):
    """A page-table lookup failed or produced an inconsistent translation."""


class AllocationError(ReproError):
    """The buddy allocator was asked for an impossible block."""


class WorkloadError(ReproError):
    """A workload definition or trace is malformed."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with an unknown id or bad config."""


class SanitizerError(ReproError):
    """A runtime sanitizer detected a violated simulator invariant."""


class SimulationError(ReproError):
    """A full-system run lost internal consistency (e.g. replay desync)."""


class InjectedFaultError(ReproError):
    """A fault deliberately injected by a ``COLT_FAULTS`` plan.

    Raised by :class:`repro.sim.faults.FaultPlan` at the scheduled
    injection site; never raised by real simulator logic, so tests can
    assert that a failure was the planned one.
    """


class TaskExecutionError(SimulationError):
    """A runner task kept failing after every configured retry.

    Carries the offending task's configuration attribution (benchmark,
    seed, designs) in ``context`` so a crashed batch names the scenario
    that sank it instead of a bare worker traceback.
    """

    def __init__(self, message: str, context: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.context = dict(context or {})


class DeterminismError(ReproError):
    """Two same-seed simulations diverged (hidden nondeterminism)."""


class ShutdownRequested(ReproError):
    """The first SIGINT/SIGTERM asked for a graceful shutdown.

    Raised at the runner's next safe point (between tasks, or while
    waiting on a pooled future) after pending work has been cancelled;
    everything already completed has been yielded -- and therefore
    checkpointed -- before this propagates. Carries the triggering
    signal's name for the exit message.
    """

    def __init__(self, signal_name: str = "SIGINT"):
        super().__init__(f"graceful shutdown requested by {signal_name}")
        self.signal_name = signal_name


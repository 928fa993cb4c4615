"""Host-speed calibration: a fixed pure-Python kernel timed next to each step.

The benchmark runs on shared virtual machines whose speed changes from
one second to the next by a third or more: co-tenants on the same
physical cores slow every instruction, so CPU time stretches with wall
time and steal ticks do not show it. Timing a short fixed kernel right
before and right after a step (one capture or one replay) gives the
host's speed during that step; the step's time multiplied by
``(REFERENCE_S / kernel time) ** SENSITIVITY`` is the time it would have
taken on a host where the kernel takes ``REFERENCE_S``.

:class:`Meter` does this around every capture and replay of a pass, in
the benchmark process and in forked pool workers, and gives the pass's
speed factor: its steps' normalised time over their measured time. The
kernel lives here, not in ``src/``, so no change to the simulator moves
it. It mixes what the simulator's Python hot paths do: integer hashing,
lookups in a table larger than the L2 cache, a small set-associative
LRU structure kept in lists, and method calls. The table is read once
before each timed run, so a sample does not depend on what the step
before it left in the caches.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

#: Kernel time (seconds) of the host the normalised figures refer to,
#: close to the kernel's fast samples on a 2-vCPU Xeon (Sapphire Rapids,
#: KVM). Any fixed value would do: it only sets the scale.
REFERENCE_S = 0.028
#: How much more the simulator slows than the kernel when the host
#: slows: its time grows as the kernel's to this power. Over 150 runs of
#: one scalar replay, the log-log slope of replay time against the mean
#: of the samples either side was 1.26, and over ten runs of each
#: workload exponents of 1.1-1.4 gave the steadiest medians.
SENSITIVITY = 1.2
#: Accesses one kernel sample makes.
KERNEL_ACCESSES = 20_000
#: The kernel's checksum at ``KERNEL_ACCESSES``, so a sample that did
#: other work fails.
EXPECTED_CHECKSUM = 1964342942
#: A step starts with a fresh sample unless the last is this recent (s).
STALE_S = 0.05
#: A step ends with a sample once the last is this old (s).
BATCH_S = 0.3

_TABLE_ENTRIES = 1 << 18
_SETS = 64
_WAYS = 4


class _SetAssociative:
    """Small LRU cache of page numbers in per-set lists."""

    def __init__(self) -> None:
        self.sets = [[] for _ in range(_SETS)]
        self.hits = 0

    def access(self, page: int) -> bool:
        ways = self.sets[page % _SETS]
        if page in ways:
            ways.remove(page)
            ways.append(page)
            self.hits += 1
            return True
        if len(ways) >= _WAYS:
            del ways[0]
        ways.append(page)
        return False


@functools.lru_cache(maxsize=1)
def _table():
    """The lookup table and its keys, built on first use."""
    table = {(key * 2654435761) & 0xFFFFFFFF: key for key in range(_TABLE_ENTRIES)}
    return table, list(table)


def kernel(accesses: int = KERNEL_ACCESSES) -> int:
    """Run the fixed kernel; return its deterministic checksum."""
    cache = _SetAssociative()
    table, keys = _table()
    state = 12345
    checksum = 0
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        frame = table[keys[state % _TABLE_ENTRIES]]
        page = (state >> 11) & 0x3FF
        if not cache.access(page):
            checksum = (checksum + frame) & 0xFFFFFFFF
    return checksum ^ cache.hits


def sample() -> float:
    """Seconds one kernel run takes now, its data already cached."""
    table, keys = _table()
    for key in keys:
        table[key]
    started = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - started
    if result != EXPECTED_CHECKSUM:
        raise RuntimeError(f"calibration kernel returned {result}, "
                           f"expected {EXPECTED_CHECKSUM}")
    return elapsed


def calibrate(samples: int = 5) -> float:
    """Median kernel time over ``samples`` back-to-back runs."""
    return statistics.median(sample() for _ in range(samples))


@dataclass
class Reading:
    """What a meter saw since its last reading."""

    #: Measured and normalised seconds of every step, summed.
    step_s: float
    normalised_s: float
    #: Seconds spent sampling the kernel in this process and in workers.
    own_sampling_s: float
    worker_sampling_s: float
    steps: int

    @property
    def factor(self) -> float:
        """Multiplier from measured to reference seconds (1.0 without steps)."""
        return self.normalised_s / self.step_s if self.step_s > 0 else 1.0


class Meter:
    """Times steps between kernel samples, here and in forked workers.

    A sample is taken before a step unless one was just taken, and after
    it once ``BATCH_S`` has passed since the last sample, so short steps
    (vector replays) share their samples. Each step is charged the mean
    of the samples either side of its batch. A forked pool worker
    inherits the meter; it notices the fork on its next step, samples
    after every step and appends it to ``<spool>/meter-<pid>.jsonl``,
    which :meth:`take` merges in the creating process.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._reset()

    def _reset(self) -> None:
        #: (measured seconds, kernel seconds) of every closed step.
        self.steps: List[Tuple[float, float]] = []
        self.sampling_s = 0.0
        self._pending: List[float] = []
        self._last = None
        self._depth = 0

    def _close(self) -> None:
        """Sample now; charge the pending steps the mean of both samples."""
        started = time.perf_counter()
        kernel_s = sample()
        ended = time.perf_counter()
        self.sampling_s += ended - started
        mean = kernel_s if self._last is None else (self._last[1] + kernel_s) / 2
        self.steps.extend((seconds, mean) for seconds in self._pending)
        self._pending = []
        self._last = (ended, kernel_s)

    def _since_sample(self) -> float:
        return time.perf_counter() - self._last[0] if self._last else float("inf")

    def step(self, fn, *args, **kwargs):
        """Call ``fn`` as one metered step and return its result."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._reset()
        if self._depth:
            return fn(*args, **kwargs)
        if self._since_sample() > STALE_S:
            self._close()
        self._depth += 1
        try:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            self._pending.append(time.perf_counter() - started)
        finally:
            self._depth -= 1
        forked = self._pid != self.owner_pid
        if forked or self._since_sample() >= BATCH_S:
            self._close()
        if forked:
            self._flush()
        return result

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"meter-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"steps": self.steps, "sampling_s": self.sampling_s}
            ) + "\n")
        self.steps, self.sampling_s = [], 0.0

    def take(self) -> Reading:
        """Return and forget every step so far, workers' included.

        Steps still waiting for a sample are charged the last one.
        """
        if self._pending:
            self.steps.extend((seconds, self._last[1]) for seconds in self._pending)
            self._pending = []
        steps, own = self.steps, self.sampling_s
        workers = 0.0
        if self.spool.is_dir():
            for path in sorted(self.spool.glob("meter-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        record = json.loads(line)
                        steps = steps + [tuple(step) for step in record["steps"]]
                        workers += record["sampling_s"]
                path.unlink()
        self.steps, self.sampling_s = [], 0.0
        return Reading(
            step_s=sum(seconds for seconds, _ in steps),
            normalised_s=sum(
                seconds * (REFERENCE_S / kernel_s) ** SENSITIVITY
                for seconds, kernel_s in steps
            ),
            own_sampling_s=own,
            worker_sampling_s=workers,
            steps=len(steps),
        )


@contextlib.contextmanager
def instrument(meter: Meter) -> Iterator[Meter]:
    """Meter every capture and replay made in the ``with`` body."""
    import repro.sim.engine as engine_pkg
    import repro.sim.engine.vector as vector
    import repro.sim.replay as replay
    import repro.sim.runner as runner
    import repro.sim.scenario as scenario

    def metered(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return meter.step(fn, *args, **kwargs)
        return wrapper

    capture = metered(scenario.capture_scenario)
    scalar = metered(replay.replay_scenario)
    patches = [
        # Modules that imported these by name hold their own references.
        (scenario, "capture_scenario", capture),
        (runner, "capture_scenario", capture),
        (replay, "replay_scenario", scalar),
        (engine_pkg, "replay_scenario", scalar),
        (vector, "vector_replay_scenario", metered(vector.vector_replay_scenario)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield meter
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""Experiment scale presets.

The paper's experiments ran 1-billion-instruction SimPoints on a 3GB
machine; a pure-Python reproduction scales that down. All scale knobs
live here so every harness and benchmark derives from one place:

* ``QUICK``  -- seconds per experiment; CI and pytest-benchmark default.
* ``DEFAULT`` -- the scale the committed EXPERIMENTS.md numbers use.
* ``FULL``   -- closest to the paper (longer traces, bigger memory).

Select with the ``REPRO_SCALE`` environment variable (``quick`` /
``default`` / ``full``) or pass an :class:`ExperimentScale` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.common import knobs
from repro.workloads.benchmarks import TABLE1_ORDER


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs every experiment derives its configuration from.

    Attributes:
        accesses: trace length per run.
        num_frames: simulated physical memory, in 4KB frames.
        footprint_scale: multiplier on benchmark region sizes.
        benchmarks: which benchmarks to run.
        seed: root seed (experiments are deterministic given it).
    """

    accesses: int = 60_000
    num_frames: int = 1 << 16
    footprint_scale: float = 1.0
    benchmarks: Tuple[str, ...] = TABLE1_ORDER
    seed: int = 42

    def with_updates(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


QUICK = ExperimentScale(
    accesses=30_000,
    num_frames=1 << 15,
    footprint_scale=0.3,
    benchmarks=("mcf", "astar", "xalancbmk", "bzip2", "milc"),
)

DEFAULT = ExperimentScale()

FULL = ExperimentScale(accesses=250_000)

_PRESETS = {"quick": QUICK, "default": DEFAULT, "full": FULL}


def scale_from_env(default: ExperimentScale = DEFAULT) -> ExperimentScale:
    """Resolve the preset named by ``REPRO_SCALE`` (default otherwise)."""
    name = (knobs.SCALE.raw() or "").lower()
    if not name:
        return default
    if name not in _PRESETS:
        raise ValueError(
            f"{knobs.SCALE.name}={name!r}; expected one of {sorted(_PRESETS)}"
        )
    return _PRESETS[name]


def preset_name(scale: ExperimentScale) -> str:
    """The name of the preset ``scale`` equals, else ``"custom"``."""
    for name, preset in _PRESETS.items():
        if preset == scale:
            return name
    return "custom"

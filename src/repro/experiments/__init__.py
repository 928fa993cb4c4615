"""Experiment harnesses regenerating every table and figure of the paper.

Each registered experiment (``registry``) runs the configs of its table
in one runner batch and returns a :class:`ResultTable` (``table``): the
rows the paper plots, the columns it prints, and ``cell`` / ``average``
to read any value by benchmark and column name.
"""

from repro.experiments.registry import EXPERIMENTS, Experiment, get_experiment
from repro.experiments.scale import (
    DEFAULT,
    FULL,
    QUICK,
    ExperimentScale,
    scale_from_env,
)
from repro.experiments.environments import (
    characterization_config,
    simulation_config,
)

__all__ = [
    "DEFAULT",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentScale",
    "FULL",
    "QUICK",
    "characterization_config",
    "get_experiment",
    "scale_from_env",
    "simulation_config",
]

"""Full-system simulation: configs, capture/replay, runners, metrics."""

from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.metrics import (
    EliminationRow,
    PerformanceRow,
    elimination_row,
    performance_row,
)
from repro.sim.replay import ReplayWalker, replay_scenario
from repro.sim.resilience import ResilientExecutor, RetryPolicy, TaskSpec
from repro.sim.runner import STANDARD_DESIGNS, ExperimentRunner
from repro.sim.scenario import (
    CapturedScenario,
    ScenarioEngine,
    capture_scenario,
    scenario_config,
)
from repro.sim.store import ResultStore, config_key
from repro.sim.system import (
    SimulationConfig,
    SimulationResult,
    SystemSimulator,
    simulate,
)

__all__ = [
    "CapturedScenario",
    "EliminationRow",
    "ExperimentRunner",
    "FaultPlan",
    "FaultSpec",
    "PerformanceRow",
    "ReplayWalker",
    "ResilientExecutor",
    "ResultStore",
    "RetryPolicy",
    "STANDARD_DESIGNS",
    "ScenarioEngine",
    "TaskSpec",
    "SimulationConfig",
    "SimulationResult",
    "SystemSimulator",
    "capture_scenario",
    "config_key",
    "elimination_row",
    "performance_row",
    "replay_scenario",
    "scenario_config",
    "simulate",
]

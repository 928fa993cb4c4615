"""The replay function under the names the benchmark harness reaches for.

There is one replay loop, :func:`repro.sim.replay.replay_scenario`.
``repro.sim.engine.replay_scenario`` and
``repro.sim.engine.vector.vector_replay_scenario`` are that function
under the two names the benchmark harness (``perfbench/``) patches and
meters, and ``ExperimentRunner(engine=...)`` accepts the two matching
engine names, ``"scalar"`` and ``"vector"``, for the same reason. Both
names give bit-identical results by construction; new code should call
``replay_scenario`` directly.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigurationError
from repro.sim.replay import replay_scenario
from repro.sim.scenario import CapturedScenario
from repro.sim.system import SimulationConfig, SimulationResult

#: The engine names the harness passes to ``ExperimentRunner``.
ENGINES = ("scalar", "vector")


def resolve_engine(explicit: Optional[str] = None) -> str:
    """Validate an engine name (``None`` means ``"scalar"``).

    Raises:
        ConfigurationError: the name is not one of :data:`ENGINES`.
    """
    name = (explicit or "scalar").strip().lower()
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown replay engine {name!r}; expected one of "
            f"{', '.join(ENGINES)}"
        )
    return name


def replay_with_engine(
    scenario: CapturedScenario,
    config: SimulationConfig,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Replay ``scenario`` through the name ``engine`` stands for.

    The name is looked up at call time, so a harness that wrapped it
    (to trace or meter ``replay.scalar`` / ``replay.vector``) sees its
    own wrapper, in this process and in forked pool workers alike.
    """
    if resolve_engine(engine) == "vector":
        from repro.sim.engine import vector

        return vector.vector_replay_scenario(scenario, config)
    return replay_scenario(scenario, config)

"""``vector_replay_scenario``: the one replay loop under its harness name.

The benchmark harness (``perfbench/``) traces and meters replays made
through this name as ``replay.vector``; see :mod:`repro.sim.engine`.
"""

from repro.sim.replay import replay_scenario as vector_replay_scenario

__all__ = ["vector_replay_scenario"]

"""Deterministic 2-D collision-avoidance simulator built on dynamic vortex
potential fields, with analytic verification tooling and a scenario CLI.

The package root exports what a program needs to build and run a scenario:
the scenario and robot types, the parameters, the presets, ``run`` with its
log and errors, and the angle and heading helpers.  The analytic oracles and
run checks are imported from ``vortex_ca.analysis``, the run directory's
reader from ``vortex_ca.rundir`` and the sweep spec from
``vortex_ca.sweep_metrics``; the package root loads none of them, so a
simulation never compiles them.
"""

from .control import heading_controller
from .engine import Scenario, ScenarioError, TrajectoryLog, min_separation, run
from .fields import PFParams
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    PlanarVector,
    RegimeKind,
    RobotState,
    SimulationFault,
    wrap_angle,
)
from .scenarios import PRESETS, load_scenario

__version__ = "0.1.0"

__all__ = [
    "BehaviorKind",
    "CollisionSingularity",
    "PFParams",
    "PRESETS",
    "PlanarVector",
    "RegimeKind",
    "RobotState",
    "Scenario",
    "ScenarioError",
    "SimulationFault",
    "TrajectoryLog",
    "heading_controller",
    "load_scenario",
    "min_separation",
    "run",
    "wrap_angle",
]

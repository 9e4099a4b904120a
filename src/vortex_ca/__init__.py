"""Deterministic 2-D collision-avoidance simulator built on dynamic vortex
potential fields, with analytic verification tooling and a scenario CLI.

The analytic oracles and run checks are imported from ``vortex_ca.analysis``;
the package root does not load them, so a simulation never compiles them.
"""

from .control import heading_controller, wheel_speeds
from .engine import Scenario, ScenarioError, TrajectoryLog, min_separation, run
from .fields import PFParams
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    EngagementState,
    PlanarVector,
    RegimeKind,
    RobotState,
    SimulationFault,
    engagement,
    propagate,
    relative_speed_from_headings,
    wrap_angle,
)
from .scenarios import PRESETS, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "BehaviorKind",
    "CollisionSingularity",
    "EngagementState",
    "PFParams",
    "PRESETS",
    "PlanarVector",
    "RegimeKind",
    "RobotState",
    "Scenario",
    "ScenarioError",
    "SimulationFault",
    "TrajectoryLog",
    "engagement",
    "heading_controller",
    "load_scenario",
    "min_separation",
    "propagate",
    "relative_speed_from_headings",
    "run",
    "save_scenario",
    "wheel_speeds",
    "wrap_angle",
]

"""Deterministic 2-D collision-avoidance simulator built on dynamic vortex
potential fields, with analytic verification tooling and a scenario CLI."""

from .analysis import (
    ClosedLoopReport,
    InfeasibleGeometry,
    LyapunovSeries,
    RegimeKind,
    attacker_standoff,
    closed_loop_rhs,
    collision_course,
    grazing_separation,
    lyapunov,
    multi_lyapunov,
    required_accel,
    simulate_closed_loop,
    turn_radius,
    verify_closed_loop,
)
from .control import heading_controller, wheel_speeds
from .engine import Scenario, ScenarioError, TrajectoryLog, min_separation, run
from .fields import GridSpec, PFParams, field_curl_diagnostic
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    EngagementState,
    PlanarVector,
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
    "ClosedLoopReport",
    "CollisionSingularity",
    "EngagementState",
    "GridSpec",
    "InfeasibleGeometry",
    "LyapunovSeries",
    "PFParams",
    "PRESETS",
    "PlanarVector",
    "RegimeKind",
    "RobotState",
    "Scenario",
    "ScenarioError",
    "SimulationFault",
    "TrajectoryLog",
    "attacker_standoff",
    "closed_loop_rhs",
    "collision_course",
    "engagement",
    "field_curl_diagnostic",
    "grazing_separation",
    "heading_controller",
    "load_scenario",
    "lyapunov",
    "min_separation",
    "multi_lyapunov",
    "propagate",
    "relative_speed_from_headings",
    "required_accel",
    "run",
    "save_scenario",
    "simulate_closed_loop",
    "turn_radius",
    "verify_closed_loop",
    "wheel_speeds",
    "wrap_angle",
]

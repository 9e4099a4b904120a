"""Scenario input types that raise ScenarioError naming each invalid field, the errors of a
running simulation, angle wrapping, and the float kernels of engagement and unicycle motion.

The kernels take and return plain floats, and the engine's step calls them;
``los_components`` is pure IEEE arithmetic, so the array pair stage calls it
on numpy arrays too.  The engagement terms are expressed in polar line-of-sight coordinates
(separation r, closing speed Vr, transverse speed Vth), the standard frame
for analysing whether two constant-velocity agents are on a collision course.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi

#: Relative-speed threshold below which the approach angle is undefined and
#: the repulsive trigger is forced off (guards the Vr/Vrel division and
#: encodes the parallel-motion exemption).
EPS_V_DEFAULT = 1e-6


class ScenarioError(ValueError):
    """A scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class SimulationFault(RuntimeError):
    """A running simulation met a non-finite value or a singular geometry."""


class CollisionSingularity(SimulationFault):
    """Two robots occupy the same point; the engagement geometry is undefined."""


def check_finite(x: float, y: float) -> None:
    """Raise SimulationFault unless both vector components are finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SimulationFault(f"non-finite vector components ({x}, {y})")


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi].

    All angle differences in the package pass through this single function so
    that identities such as theta_j = pi + theta_i hold mod 2*pi.
    """
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        return math.pi
    return wrapped


@dataclass(frozen=True)
class PlanarVector:
    """2-component vector (meters or meters/second)."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class BehaviorKind(Enum):
    """How a robot chooses its inputs.

    Cooperative robots steer by the attractive field plus the vortex repulsive
    field; non-cooperative robots hold a constant velocity; stationary robots
    never move; attacking robots pursue a designated cooperative robot using
    the attractive law aimed at the target's current position.
    """

    COOPERATIVE = "cooperative"
    NON_COOPERATIVE = "noncooperative"
    STATIONARY = "stationary"
    ATTACKING = "attacking"


class RegimeKind(Enum):
    """Which closed-loop engagement a trajectory or equation set belongs to."""

    ATTRACTIVE_ONLY = "attractive_only"
    COOP_PAIR = "coop_pair"
    COOP_VS_NONCOOP = "coop_vs_noncoop"
    COOP_VS_ATTACKER = "coop_vs_attacker"
    NONVORTEX_PAIR = "nonvortex_pair"
    MULTI_ROBOT = "multi_robot"


@dataclass(frozen=True)
class RobotState:
    """Pose, heading, speed, behavior, goal, and body radius for one robot.

    ``heading`` is stored wrapped to (-pi, pi].  ``speed`` is constant for the
    lifetime of a run except for the single stop transition (V -> 0) applied
    by the engine; ``active`` flips to False at that transition and the robot
    then persists as a stationary obstacle.
    """

    id: int
    position: PlanarVector
    heading: float
    speed: float
    body_radius: float
    behavior: BehaviorKind
    goal: PlanarVector | None = None
    attack_target: int | None = None
    active: bool = True

    def __post_init__(self) -> None:
        errors = [f"robot {self.id}: {problem}" for broken, problem in (
            (not self.position.is_finite(), "position must be finite"),
            (not math.isfinite(self.heading), "heading must be finite"),
            (not self.speed >= 0.0, "speed must be >= 0"),
            (self.speed == math.inf, "speed must be finite"),
            (not self.body_radius >= 0.0, "body radius must be >= 0"),
            (self.body_radius == math.inf, "body radius must be finite"),
            (self.goal is not None and not self.goal.is_finite(), "goal must be finite"),
            (self.behavior is BehaviorKind.STATIONARY and self.speed != 0.0,
             "stationary behavior requires speed 0"),
            (self.behavior is BehaviorKind.ATTACKING and self.attack_target is None,
             "attacking behavior requires a target id"),
        ) if broken]
        if errors:
            raise ScenarioError(errors)
        object.__setattr__(self, "heading", wrap_angle(self.heading))


def advance_pose(
    x: float, y: float, phi: float, cos_phi: float, sin_phi: float, speed: float,
    omega: float, dt: float,
) -> tuple[float, float, float, float, float]:
    """One classical RK4 step of the unicycle pose with ``omega`` held over ``dt``.

    ``cos_phi`` and ``sin_phi`` are ``math.cos(phi)`` and ``math.sin(phi)``,
    which the caller has formed already.  Returns the new position, the new
    heading, wrapped to (-pi, pi], and that heading's cosine and sine, for
    the next step.  The caller checks the inputs; a non-finite result
    raises SimulationFault.
    """
    a2 = phi + 0.5 * omega * dt
    a4 = phi + omega * dt
    c2 = math.cos(a2)
    s2 = math.sin(a2)
    c4 = math.cos(a4)
    s4 = math.sin(a4)
    nx = x + speed * dt * (cos_phi + 2.0 * c2 + 2.0 * c2 + c4) / 6.0
    ny = y + speed * dt * (sin_phi + 2.0 * s2 + 2.0 * s2 + s4) / 6.0
    check_finite(nx, ny)
    heading = wrap_angle(a4)
    if heading != a4:  # wrapped: its cosine and sine may differ from a4's in the last bit
        return nx, ny, heading, math.cos(heading), math.sin(heading)
    return nx, ny, heading, c4, s4


def los_components(dx, dy, r, rvx, rvy):
    """LOS direction cosines and radial/transverse relative speeds
    ``(ux, uy, vr, vth)`` of a relative position at separation ``r > 0``.

    Pure IEEE arithmetic, so it gives the same bits on floats and,
    element-wise, on numpy arrays; the engine's array pair stage calls it
    on whole pair arrays.
    """
    ux = dx / r
    uy = dy / r
    return ux, uy, rvx * ux + rvy * uy, -rvx * uy + rvy * ux


def engagement_terms(
    dx: float, dy: float, rvx: float, rvy: float, eps_v: float
) -> tuple[float, float, float, float, float, float, bool] | None:
    """Polar engagement terms from relative position and relative velocity.

    Returns ``(r, ux, uy, vr, vth, vrel, triggered)``, or None when the
    separation is exactly zero (the geometry is undefined).  The repulsive
    trigger is live exactly when the pair is closing (Vr < 0) with a
    resolvable relative speed (Vrel > eps_v).  The LOS angle is left to the
    caller: it is ``atan2(dy, dx)`` and only logging needs it.
    """
    r = math.hypot(dx, dy)
    if r == 0.0:
        return None
    ux, uy, vr, vth = los_components(dx, dy, r, rvx, rvy)
    vrel = math.hypot(vr, vth)
    return r, ux, uy, vr, vth, vrel, vrel > eps_v and vr < 0.0

"""Planar vector algebra, unicycle state propagation, and pairwise engagement states.

Everything in this module is a pure function of its inputs; engagement states
are expressed in polar line-of-sight coordinates (separation r, LOS angle,
closing speed Vr, transverse speed Vth), the standard frame for analysing
whether two constant-velocity agents are on a collision course.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

TWO_PI = 2.0 * math.pi

#: Relative-speed threshold below which the approach angle is undefined and
#: the repulsive trigger is forced off (guards the Vr/Vrel division and
#: encodes the parallel-motion exemption).
EPS_V_DEFAULT = 1e-6


class CollisionSingularity(Exception):
    """Two robots occupy the same point; the engagement geometry is undefined."""


class SimulationFault(RuntimeError):
    """Non-finite state or input reached the integrator; the run must abort."""


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

    def __post_init__(self) -> None:
        check_finite(self.x, self.y)

    def __sub__(self, other: "PlanarVector") -> "PlanarVector":
        return PlanarVector(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


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
        if not math.isfinite(self.heading) or not math.isfinite(self.speed):
            raise SimulationFault(f"robot {self.id}: non-finite heading or speed")
        if self.speed < 0.0:
            raise ValueError(f"robot {self.id}: speed must be >= 0")
        if not self.body_radius >= 0.0:
            raise ValueError(f"robot {self.id}: body radius must be >= 0")
        if self.behavior is BehaviorKind.STATIONARY and self.speed != 0.0:
            raise ValueError(f"robot {self.id}: stationary behavior requires speed 0")
        if self.behavior is BehaviorKind.ATTACKING and self.attack_target is None:
            raise ValueError(f"robot {self.id}: attacking behavior requires a target id")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    def stopped(self) -> "RobotState":
        """State after the stop transition: speed zeroed, inactive, radius kept."""
        return replace(self, speed=0.0, active=False)


@dataclass(frozen=True)
class EngagementState:
    """Pairwise relative state of robots i and j in polar LOS coordinates.

    ``ux``/``uy`` are the LOS direction cosines from i to j (cos/sin of
    ``theta``); they are carried explicitly so a flipped view negates them
    exactly, which keeps the reciprocal-force identity bit-exact.
    """

    i: int
    j: int
    r: float
    theta: float
    ux: float
    uy: float
    vr: float
    vth: float
    vrel: float
    triggered: bool

    def flipped(self) -> "EngagementState":
        """Same engagement seen from robot j (LOS rotated by pi)."""
        return EngagementState(
            i=self.j,
            j=self.i,
            r=self.r,
            theta=wrap_angle(self.theta + math.pi),
            ux=-self.ux,
            uy=-self.uy,
            vr=self.vr,
            vth=self.vth,
            vrel=self.vrel,
            triggered=self.triggered,
        )


def advance_pose(
    x: float, y: float, phi: float, cos_phi: float, sin_phi: float, speed: float,
    omega: float, dt: float,
) -> tuple[float, float, float]:
    """One classical RK4 step of the unicycle pose with ``omega`` held over ``dt``.

    ``cos_phi`` and ``sin_phi`` are ``math.cos(phi)`` and ``math.sin(phi)``,
    which the caller has formed already.  Returns the new position and the
    new heading, wrapped to (-pi, pi].  The caller checks the inputs; a
    non-finite result raises SimulationFault.
    """
    a2 = phi + 0.5 * omega * dt
    a4 = phi + omega * dt
    c2 = math.cos(a2)
    s2 = math.sin(a2)
    nx = x + speed * dt * (cos_phi + 2.0 * c2 + 2.0 * c2 + math.cos(a4)) / 6.0
    ny = y + speed * dt * (sin_phi + 2.0 * s2 + 2.0 * s2 + math.sin(a4)) / 6.0
    check_finite(nx, ny)
    return nx, ny, wrap_angle(a4)


def propagate(state: RobotState, omega: float, dt: float) -> RobotState:
    """Advance a unicycle state by one fixed step of classical 4th-order Runge-Kutta.

    The angular rate ``omega`` is held constant across the step (zero-order
    hold, matching the discrete controller), so the heading stages are exact
    and the position update reduces to a Simpson-weighted average of the
    velocity direction.  Inactive robots are returned unchanged.
    """
    if not (math.isfinite(omega) and math.isfinite(dt)):
        raise SimulationFault(f"robot {state.id}: non-finite propagation input")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if not state.active:
        return state
    phi = state.heading
    x, y, heading = advance_pose(
        state.position.x, state.position.y, phi, math.cos(phi), math.sin(phi), state.speed,
        omega, dt,
    )
    return replace(state, position=PlanarVector(x, y), heading=heading)


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
    separation is exactly zero (the geometry is undefined).  The LOS angle is
    left to the caller: it is ``atan2(dy, dx)`` and only logging needs it.
    """
    r = math.hypot(dx, dy)
    if r == 0.0:
        return None
    ux, uy, vr, vth = los_components(dx, dy, r, rvx, rvy)
    vrel = math.hypot(vr, vth)
    return r, ux, uy, vr, vth, vrel, vrel > eps_v and vr < 0.0


def engagement(a: RobotState, b: RobotState, eps_v: float = EPS_V_DEFAULT) -> EngagementState:
    """Compute the polar engagement state of robot ``a`` (self) against ``b``.

    Separation is the Euclidean distance, the LOS angle uses the
    four-quadrant arctangent, and the radial/transverse relative velocities
    generalize the equal-speed expressions to each robot's own speed.  The
    repulsive trigger is live exactly when the pair is closing (Vr < 0) with
    a resolvable relative speed (Vrel > eps_v).
    """
    dx = b.position.x - a.position.x
    dy = b.position.y - a.position.y
    terms = engagement_terms(
        dx,
        dy,
        b.speed * math.cos(b.heading) - a.speed * math.cos(a.heading),
        b.speed * math.sin(b.heading) - a.speed * math.sin(a.heading),
        eps_v,
    )
    if terms is None:
        raise CollisionSingularity(f"robots {a.id} and {b.id} at identical positions")
    r, ux, uy, vr, vth, vrel, triggered = terms
    return EngagementState(
        i=a.id,
        j=b.id,
        r=r,
        theta=math.atan2(dy, dx),
        ux=ux,
        uy=uy,
        vr=vr,
        vth=vth,
        vrel=vrel,
        triggered=triggered,
    )


def relative_speed_from_headings(speed: float, phi_i: float, phi_j: float) -> float:
    """Relative speed of two robots moving at the same linear speed.

    Equals sqrt(Vr^2 + Vth^2) for any equal-speed pair; vanishes exactly for
    parallel motion.
    """
    if speed < 0.0:
        raise ValueError("speed must be >= 0")
    return speed * math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - math.cos(phi_i - phi_j)))

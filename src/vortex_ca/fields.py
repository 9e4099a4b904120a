"""Potential-field force laws: attractive, dynamic vortex repulsive, non-vortex
baseline, per-component saturation, and multi-robot superposition.

The repulsive field is a scalar function of the relative position and velocity
between two robots, active only on closing geometry.  The vortex variant swaps
and sign-flips the gradient components, which rotates the commanded force
around the obstacle instead of pushing straight away; the swap's sign
convention is fixed and identical for every robot, so all robots turn the same
direction without an explicit rule of the road.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .kinematics import (
    EPS_V_DEFAULT,
    BehaviorKind,
    CollisionSingularity,
    EngagementState,
    PlanarVector,
    RobotState,
    ZERO_VECTOR,
    check_finite,
    engagement,
    engagement_terms,
)


@dataclass(frozen=True)
class PFParams:
    """Gains and tolerances governing all force and control laws.

    kappa      attractive gain, m/s^2 scale (0 disables the attractive field,
               a degenerate setting used by pure-avoidance geometry runs)
    lam        repulsive gain (0 disables repulsion)
    r_star     separation below which repulsive inputs saturate, m
    f_lim      per-component acceleration bound for saturated inputs, m/s^2
               (math.inf = unbounded, saturation disabled)
    kp         proportional heading-control gain, 1/s
    goal_tol   stop radius around the goal, m
    eps_v      relative-speed floor below which the trigger is forced off, m/s
    omega_max  optional angular-rate clamp, rad/s (math.inf = unclamped)
    vortex     True for the vortex (swap-and-negate) repulsive law, False for
               the plain negative-gradient baseline
    """

    kappa: float = 10.0
    lam: float = 10.0
    r_star: float = 0.0
    f_lim: float = math.inf
    kp: float = 5.0
    goal_tol: float = 0.2
    eps_v: float = EPS_V_DEFAULT
    omega_max: float = math.inf
    vortex: bool = True

    def __post_init__(self) -> None:
        if self.kappa < 0.0:
            raise ValueError("kappa must be >= 0")
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.r_star < 0.0:
            raise ValueError("r_star must be >= 0")
        if not self.f_lim > 0.0:
            raise ValueError("f_lim must be > 0 (math.inf disables saturation)")
        if not self.kp > 0.0:
            raise ValueError("kp must be > 0")
        if not self.goal_tol > 0.0:
            raise ValueError("goal_tol must be > 0")
        if not self.eps_v > 0.0:
            raise ValueError("eps_v must be > 0")
        if not self.omega_max > 0.0:
            raise ValueError("omega_max must be > 0")


def default_r_star(lam: float, speed: float, f_lim: float) -> float:
    """Saturation switch distance that makes the worst-case head-on switch continuous.

    At head-on closing the unsaturated repulsive magnitude is 2*lam*V/r^2;
    it reaches f_lim at r = sqrt(2*lam*V/f_lim).  Unbounded inputs give 0
    (saturation never engages).
    """
    if math.isinf(f_lim):
        return 0.0
    return math.sqrt(2.0 * lam * speed / f_lim)


class ForceSource(Enum):
    ATTRACTIVE = "attractive"
    VORTEX_REPULSIVE = "vortex_repulsive"
    NONVORTEX_REPULSIVE = "nonvortex_repulsive"
    SATURATED = "saturated"
    SUM = "sum"


@dataclass(frozen=True)
class ForceCommand:
    """A commanded steering force (interpreted as an acceleration, m/s^2)."""

    force: PlanarVector
    source: ForceSource
    triggered_pairs: tuple[tuple[int, int], ...] = ()
    at_goal: bool = False


def attractive_components(
    x: float, y: float, tx: float, ty: float, kappa: float
) -> tuple[float, float]:
    """Attractive pull of size kappa from (x, y) toward (tx, ty); zero on the target."""
    dx = tx - x
    dy = ty - y
    r = math.hypot(dx, dy)
    if r == 0.0:
        return 0.0, 0.0
    fx = kappa * dx / r
    fy = kappa * dy / r
    check_finite(fx, fy)
    return fx, fy


def attractive_force(
    robot: RobotState, params: PFParams, target: PlanarVector | None = None
) -> ForceCommand:
    """Constant-magnitude pull of size kappa along the LOS to the target.

    The field is a scaled Euclidean distance, so its negative gradient has
    magnitude exactly kappa regardless of range.  ``target`` defaults to the
    robot's goal; sitting exactly on the target returns a zero force with
    ``at_goal`` set (the engine's stop rule owns that situation).
    """
    if target is None:
        target = robot.goal
    if target is None:
        raise ValueError(f"robot {robot.id} has no goal to be attracted to")
    pos = robot.position
    fx, fy = attractive_components(pos.x, pos.y, target.x, target.y, params.kappa)
    return ForceCommand(PlanarVector(fx, fy), ForceSource.ATTRACTIVE, at_goal=target == pos)


def repulsive_gradient(
    r: float, ux: float, uy: float, vr: float, vth: float, vrel: float, lam: float
) -> tuple[float, float]:
    """Gradient of the repulsive scalar field with respect to the relative
    position, holding relative velocity fixed.

    Only valid for a triggered engagement view (r > 0 and vrel > 0).
    """
    coef = lam * vr / (vrel * r * r)
    return -coef * (2.0 * vth * uy + vr * ux), coef * (2.0 * vth * ux - vr * uy)


def _repulsive_gradient(eng: EngagementState, lam: float) -> tuple[float, float]:
    if eng.r <= 0.0:
        raise CollisionSingularity(f"pair ({eng.i},{eng.j}): r <= 0")
    return repulsive_gradient(eng.r, eng.ux, eng.uy, eng.vr, eng.vth, eng.vrel, lam)


def vortex_repulsive_force(eng: EngagementState, params: PFParams) -> ForceCommand:
    """Repulsive input with the vortex swap: F = (-dU/dy_rel, +dU/dx_rel).

    Exactly zero when the trigger is off (receding or parallel motion).  The
    swap direction is the same for every robot, so a reciprocal pair turns
    the same way and their inputs are exact negations of each other.
    """
    if not eng.triggered:
        return ForceCommand(ZERO_VECTOR, ForceSource.VORTEX_REPULSIVE)
    gx, gy = _repulsive_gradient(eng, params.lam)
    return ForceCommand(
        PlanarVector(-gy, gx),
        ForceSource.VORTEX_REPULSIVE,
        triggered_pairs=((eng.i, eng.j),),
    )


def nonvortex_repulsive_force(eng: EngagementState, params: PFParams) -> ForceCommand:
    """Plain negative-gradient repulsive input (no swap), zero when untriggered.

    Kept as the baseline that fails to guarantee avoidance: on an exact
    head-on course the commanded force stays collinear with the LOS
    (y-component identically zero in LOS-aligned frames), so neither robot
    ever turns.
    """
    if not eng.triggered:
        return ForceCommand(ZERO_VECTOR, ForceSource.NONVORTEX_REPULSIVE)
    gx, gy = _repulsive_gradient(eng, params.lam)
    return ForceCommand(
        PlanarVector(-gx, -gy),
        ForceSource.NONVORTEX_REPULSIVE,
        triggered_pairs=((eng.i, eng.j),),
    )


def _sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def saturated_components(
    ux: float, uy: float, vr: float, vth: float, f_lim: float
) -> tuple[float, float]:
    """Per-component bound -f_lim * sign(bracket) on the vortex numerators."""
    bx = 2.0 * vr * vth * ux - vr * vr * uy
    by = 2.0 * vr * vth * uy + vr * vr * ux
    return -f_lim * _sign(bx), -f_lim * _sign(by)


def saturate(force: ForceCommand, eng: EngagementState, params: PFParams) -> ForceCommand:
    """Bound a repulsive input per component once the pair is closer than r_star.

    Inside the switch each component is replaced by -f_lim * sign(bracket),
    where the brackets are the unsaturated vortex numerators, so the sign
    pattern (and hence the commanded direction quadrant) is preserved.
    Untriggered inputs and the f_lim = inf configuration pass through
    unchanged; sign(0) = 0 keeps exactly-zero components zero.
    """
    if not eng.triggered or math.isinf(params.f_lim) or eng.r > params.r_star:
        return force
    fx, fy = saturated_components(eng.ux, eng.uy, eng.vr, eng.vth, params.f_lim)
    return ForceCommand(
        PlanarVector(fx, fy),
        ForceSource.SATURATED,
        triggered_pairs=force.triggered_pairs,
    )


def repulsive_force(eng: EngagementState, params: PFParams) -> ForceCommand:
    """Configured repulsive law (vortex or baseline) with saturation applied."""
    if params.vortex:
        raw = vortex_repulsive_force(eng, params)
    else:
        raw = nonvortex_repulsive_force(eng, params)
    return saturate(raw, eng, params)


def repulsive_components(
    r: float, ux: float, uy: float, vr: float, vth: float, vrel: float, params: PFParams
) -> tuple[float, float]:
    """``repulsive_force`` on the terms of one triggered engagement view.

    The unsaturated input is formed and checked before saturation replaces
    it, exactly as the object path does.
    """
    gx, gy = repulsive_gradient(r, ux, uy, vr, vth, vrel, params.lam)
    if params.vortex:
        fx, fy = -gy, gx
    else:
        fx, fy = -gx, -gy
    check_finite(fx, fy)
    if r > params.r_star or math.isinf(params.f_lim):
        return fx, fy
    return saturated_components(ux, uy, vr, vth, params.f_lim)


def total_force_from_engagements(
    robot: RobotState,
    others: Sequence[RobotState],
    engagements: dict[int, EngagementState],
    params: PFParams,
) -> tuple[ForceCommand, PlanarVector]:
    """Behavior-dispatched total steering force plus its repulsive-only part.

    ``engagements`` maps other-robot id to the engagement viewed from
    ``robot``.  Cooperative robots sum the attractive pull with one saturated
    repulsive term per triggered pair; non-cooperative and stationary robots
    command nothing; attacking robots apply only the attractive law aimed at
    their target's current position (never saturated, never repulsive).
    """
    kind = robot.behavior
    if kind in (BehaviorKind.NON_COOPERATIVE, BehaviorKind.STATIONARY):
        return ForceCommand(ZERO_VECTOR, ForceSource.SUM), ZERO_VECTOR

    if kind is BehaviorKind.ATTACKING:
        target = next((o for o in others if o.id == robot.attack_target), None)
        if target is None:
            raise ValueError(f"robot {robot.id}: attack target {robot.attack_target} not in world")
        att = attractive_force(robot, params, target=target.position)
        return (
            ForceCommand(att.force, ForceSource.SUM, at_goal=att.at_goal),
            ZERO_VECTOR,
        )

    att = attractive_force(robot, params)
    fx, fy = att.force.x, att.force.y
    rep_x = rep_y = 0.0
    pairs: list[tuple[int, int]] = []
    for other in sorted(others, key=lambda o: o.id):
        if other.id == robot.id:
            continue
        eng = engagements[other.id]
        if not eng.triggered:
            continue
        rep = repulsive_force(eng, params)
        rep_x += rep.force.x
        rep_y += rep.force.y
        pairs.append((robot.id, other.id))
    return (
        ForceCommand(
            PlanarVector(fx + rep_x, fy + rep_y),
            ForceSource.SUM,
            triggered_pairs=tuple(pairs),
            at_goal=att.at_goal,
        ),
        PlanarVector(rep_x, rep_y),
    )


def total_force(self_id: int, world: Sequence[RobotState], params: PFParams) -> ForceCommand:
    """Total steering force for one robot against a frozen world snapshot."""
    robot = next((r for r in world if r.id == self_id), None)
    if robot is None:
        raise ValueError(f"robot {self_id} not in world")
    others = [r for r in world if r.id != self_id]
    engagements = {o.id: engagement(robot, o, params.eps_v) for o in others}
    command, _ = total_force_from_engagements(robot, others, engagements, params)
    return command


# ---------------------------------------------------------------------------
# Curl diagnostic over relative-position space


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid over relative-position space."""

    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int
    r_min: float = 1e-3

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs at least 3 nodes per axis for the curl stencil")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must be increasing")


@dataclass
class CurlDiagnostic:
    """Sampled force components and their central-difference curl."""

    x: np.ndarray
    y: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    curl: np.ndarray


def _vortex_force_at(rel_pos: PlanarVector, rel_vel: PlanarVector, params: PFParams) -> tuple[float, float]:
    r, ux, uy, vr, vth, vrel, triggered = engagement_terms(
        rel_pos.x, rel_pos.y, rel_vel.x, rel_vel.y, params.eps_v
    )
    if not triggered:
        return 0.0, 0.0
    gx, gy = repulsive_gradient(r, ux, uy, vr, vth, vrel, params.lam)
    return -gy, gx


def field_curl_diagnostic(
    grid: GridSpec,
    rel_velocity: PlanarVector,
    params: PFParams,
    force_fn: Callable[[PlanarVector], tuple[float, float]] | None = None,
    out_path: str | None = None,
) -> CurlDiagnostic:
    """Sample the vortex force over relative positions and report its numerical curl.

    The curl (dFy/dx - dFx/dy) is computed with a second-order central
    stencil on interior nodes; boundary nodes are NaN.  This is a diagnostic
    for inspection and plotting, not an assertion about the field.  A custom
    ``force_fn`` may replace the vortex field (used to sanity-check the
    stencil against fields of known curl).  The grid must stay outside the
    ``r_min`` guard band around the origin.
    """
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
    ys = np.linspace(grid.y_min, grid.y_max, grid.ny)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    rg = np.hypot(xg, yg)
    if float(rg.min()) < grid.r_min:
        raise ValueError(
            f"grid enters the r_min guard band (min r = {rg.min():g} < {grid.r_min:g})"
        )
    if force_fn is None:
        force_fn = lambda p: _vortex_force_at(p, rel_velocity, params)

    fx = np.empty_like(xg)
    fy = np.empty_like(xg)
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            fx[ix, iy], fy[ix, iy] = force_fn(PlanarVector(float(xs[ix]), float(ys[iy])))

    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    curl = np.full_like(fx, np.nan)
    curl[1:-1, 1:-1] = (fy[2:, 1:-1] - fy[:-2, 1:-1]) / (2.0 * dx) - (
        fx[1:-1, 2:] - fx[1:-1, :-2]
    ) / (2.0 * dy)

    result = CurlDiagnostic(x=xs, y=ys, fx=fx, fy=fy, curl=curl)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("x_rel,y_rel,Fx,Fy,curl\n")
            for ix in range(grid.nx):
                for iy in range(grid.ny):
                    handle.write(
                        f"{xs[ix]:.17g},{ys[iy]:.17g},{fx[ix, iy]:.17g},"
                        f"{fy[ix, iy]:.17g},{curl[ix, iy]:.17g}\n"
                    )
    return result

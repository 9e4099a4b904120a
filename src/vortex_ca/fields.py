"""Potential-field force laws as float kernels: attractive, dynamic vortex
repulsive, non-vortex baseline and per-component saturation.

The repulsive field is a scalar function of the relative position and velocity
between two robots, active only on closing geometry.  The vortex variant swaps
and sign-flips the gradient components, which rotates the commanded force
around the obstacle instead of pushing straight away; the swap's sign
convention is fixed and identical for every robot, so all robots turn the same
direction without an explicit rule of the road.

The kernels take plain floats (one engagement view or one robot) and are the
only statement of each law; the engine sums them per robot.  Its array pair
stage runs ``repulsive_view`` and ``saturated_components`` on numpy arrays
too, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kinematics import EPS_V_DEFAULT, ScenarioError, check_finite


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
        """Raise ScenarioError listing every bound broken, one per field."""
        gains = (("kappa", self.kappa), ("lambda", self.lam), ("kp", self.kp),
                 ("goal_tol", self.goal_tol), ("eps_v", self.eps_v))
        errors = [f"{name} must be {bound}" for name, ok, bound in (
            ("kappa", self.kappa >= 0.0, ">= 0"),
            ("lambda", self.lam >= 0.0, ">= 0"),
            ("r_star", self.r_star >= 0.0, ">= 0"),
            ("f_lim", self.f_lim > 0.0, "> 0 (math.inf disables saturation)"),
            ("kp", self.kp > 0.0, "> 0"),
            ("goal_tol", self.goal_tol > 0.0, "> 0"),
            ("eps_v", self.eps_v > 0.0, "> 0"),
            ("omega_max", self.omega_max > 0.0, "> 0"),
            # f_lim and omega_max take inf as "unbounded"; the gains may not
            # (-inf already fails its bound above).
            *((name, value != math.inf, "finite") for name, value in gains),
        ) if not ok]
        if errors:
            raise ScenarioError(errors)


def default_r_star(lam: float, speed: float, f_lim: float) -> float:
    """Saturation switch distance that makes the worst-case head-on switch continuous.

    At head-on closing the unsaturated repulsive magnitude is 2*lam*V/r^2;
    it reaches f_lim at r = sqrt(2*lam*V/f_lim).  Unbounded inputs give 0
    (saturation never engages), and so does V = 0, also where 2*lam overflows.
    """
    if math.isinf(f_lim) or speed == 0.0:
        return 0.0
    return math.sqrt(2.0 * lam * speed / f_lim)


def attractive_components(
    x: float, y: float, tx: float, ty: float, kappa: float
) -> tuple[float, float]:
    """Constant-magnitude pull of size kappa from (x, y) toward (tx, ty).

    The field is a scaled Euclidean distance, so its negative gradient has
    magnitude exactly kappa regardless of range.  Sitting exactly on the
    target gives a zero force (the engine's stop rule owns that situation).
    """
    dx = tx - x
    dy = ty - y
    r = math.hypot(dx, dy)
    if r == 0.0:
        return 0.0, 0.0
    fx = kappa * dx / r
    fy = kappa * dy / r
    check_finite(fx, fy)
    return fx, fy


def repulsive_view(r, ux, uy, vr, vth, vrel, lam, vortex):
    """Unsaturated, unchecked repulsive input of triggered engagement views.

    The repulsive scalar field's gradient with respect to the relative
    position, holding relative velocity fixed, is ``(gx, gy)``; it is only
    valid for a triggered view (r > 0 and vrel > 0).  The vortex law swaps
    the negative gradient, F = (-dU/dy_rel, +dU/dx_rel); the swap direction
    is the same for every robot, so a reciprocal pair turns the same way and
    its inputs are exact negations of each other.  With ``vortex`` off it is
    the plain negative gradient, the baseline that never turns on an exact
    head-on course.  Pure IEEE arithmetic: it gives the same bits on floats
    and, element-wise, on numpy arrays.
    """
    coef = lam * vr / (vrel * r * r)
    gx = -coef * (2.0 * vth * uy + vr * ux)
    gy = coef * (2.0 * vth * ux - vr * uy)
    if vortex:
        return -gy, gx
    return -gx, -gy


def saturated_components(ux, uy, vr, vth, f_lim):
    """Per-component bound -f_lim * sign(bracket) on the vortex numerators.

    The sign is formed by comparisons alone, so a NaN bracket counts as 0,
    and the same code gives the same bits on floats and, element-wise, on
    numpy arrays.
    """
    bx = 2.0 * vr * vth * ux - vr * vr * uy
    by = 2.0 * vr * vth * uy + vr * vr * ux
    return -f_lim * ((bx > 0.0) * 1.0 - (bx < 0.0)), -f_lim * ((by > 0.0) * 1.0 - (by < 0.0))


def repulsive_components(
    r: float, ux: float, uy: float, vr: float, vth: float, vrel: float, params: PFParams
) -> tuple[float, float]:
    """Repulsive input of one triggered engagement view, with saturation.

    The law is ``repulsive_view``.  The caller skips untriggered views, whose
    input is exactly zero.  The unsaturated input is formed and checked
    first.  Once the pair is closer than ``r_star`` (and ``f_lim`` is finite)
    each component is replaced by -f_lim * sign(bracket) of the vortex
    numerators, so the sign pattern is preserved and exactly-zero components
    stay zero.
    """
    fx, fy = repulsive_view(r, ux, uy, vr, vth, vrel, params.lam, params.vortex)
    check_finite(fx, fy)
    if r > params.r_star or math.isinf(params.f_lim):
        return fx, fy
    return saturated_components(ux, uy, vr, vth, params.f_lim)


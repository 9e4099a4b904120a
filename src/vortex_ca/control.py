"""Heading extraction from a commanded force and proportional heading control."""

from __future__ import annotations

import math

from .fields import PFParams
from .kinematics import wrap_angle

#: Force magnitude below which the desired heading is undefined and the
#: previous command is held (exact goal overlap or perfectly cancelled fields).
EPS_FORCE = 1e-12


def force_heading(fx: float, fy: float) -> float | None:
    """Direction of the force (fx, fy), or None when it is numerically zero.

    The four-quadrant arctangent picks the attracting branch of the two
    mathematically valid heading solutions.  Gains scale force magnitudes
    only, so the result is invariant under positive scaling of the force.
    """
    if math.hypot(fx, fy) <= EPS_FORCE:
        return None
    return math.atan2(fy, fx)


def heading_controller(phi: float, phi_des: float, params: PFParams) -> float:
    """Proportional steering: omega = kp * (shortest wrapped heading error).

    The error is wrapped to (-pi, pi] before scaling so the robot always
    turns the short way; the optional omega_max clamp bounds the result.
    """
    omega = params.kp * wrap_angle(phi_des - phi)
    if omega > params.omega_max:
        return params.omega_max
    if omega < -params.omega_max:
        return -params.omega_max
    return omega

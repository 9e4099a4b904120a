"""Heading extraction from a commanded force, proportional heading control,
and differential-drive wheel speed conversion."""

from __future__ import annotations

import math
from typing import NamedTuple

from .fields import PFParams
from .kinematics import wrap_angle

#: Force magnitude below which the desired heading is undefined and the
#: previous command is held (exact goal overlap or perfectly cancelled fields).
EPS_FORCE = 1e-12


class WheelSpeeds(NamedTuple):
    v_right: float
    v_left: float
    omega_right: float
    omega_left: float


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


def wheel_speeds(speed: float, omega: float, wheel_base: float, wheel_radius: float) -> WheelSpeeds:
    """Differential-drive wheel speeds for a body speed/turn-rate command.

    Exact inverse of V = (v_R + v_L)/2 and omega = (v_R - v_L)/d; the wheel
    angular rates divide the linear speeds by the wheel radius.
    """
    if wheel_base <= 0.0:
        raise ValueError("wheel_base must be > 0")
    if wheel_radius <= 0.0:
        raise ValueError("wheel_radius must be > 0")
    v_right = speed + 0.5 * omega * wheel_base
    v_left = speed - 0.5 * omega * wheel_base
    return WheelSpeeds(v_right, v_left, v_right / wheel_radius, v_left / wheel_radius)

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_ca.control import force_heading, heading_controller
from vortex_ca.fields import PFParams, attractive_components
from vortex_ca.kinematics import wrap_angle


class WheelSpeeds(NamedTuple):
    v_right: float
    v_left: float
    omega_right: float
    omega_left: float


def wheel_speeds(speed: float, omega: float, wheel_base: float, wheel_radius: float) -> WheelSpeeds:
    """Differential-drive wheel speeds for a body speed/turn-rate command.

    Exact inverse of V = (v_R + v_L)/2 and omega = (v_R - v_L)/d; the wheel
    angular rates divide the linear speeds by the wheel radius.  This is the
    conversion docs/formats.md states for a logged ``omega`` with the
    scenario's ``d_wheel`` and ``r_wheel``.
    """
    if wheel_base <= 0.0:
        raise ValueError("wheel_base must be > 0")
    if wheel_radius <= 0.0:
        raise ValueError("wheel_radius must be > 0")
    v_right = speed + 0.5 * omega * wheel_base
    v_left = speed - 0.5 * omega * wheel_base
    return WheelSpeeds(v_right, v_left, v_right / wheel_radius, v_left / wheel_radius)


def test_desired_heading_along_x():
    assert force_heading(10.0, 0.0) == 0.0


def test_desired_heading_matches_goal_los():
    fx, fy = attractive_components(0.0, 0.0, 2.0, 1.0, PFParams().kappa)
    assert force_heading(fx, fy) == pytest.approx(math.atan2(1.0, 2.0))


def test_desired_heading_scale_invariant():
    base = force_heading(3.0, -4.0)
    for c in (0.1, 1.0, 10.0):
        assert force_heading(3.0 * c, -4.0 * c) == pytest.approx(base, abs=1e-12)


def test_desired_heading_sentinel_on_zero_force():
    assert force_heading(0.0, 0.0) is None
    assert force_heading(1e-13, 0.0) is None


def test_heading_controller_equilibrium():
    params = PFParams(kp=5.0)
    assert heading_controller(0.7, 0.7, params) == 0.0


def test_heading_controller_gain():
    assert heading_controller(0.0, math.pi / 2, PFParams(kp=2.0)) == pytest.approx(math.pi)


def test_heading_controller_wraps_across_pi():
    # from -3 rad to +3 rad the short way is backwards through pi, not +6 rad
    omega = heading_controller(-3.0, 3.0, PFParams(kp=1.0))
    assert omega == pytest.approx(-(2 * math.pi - 6.0))
    assert omega == pytest.approx(-0.2832, abs=1e-4)


def test_heading_controller_clamp():
    params = PFParams(kp=5.0, omega_max=0.5)
    assert heading_controller(0.0, 1.0, params) == 0.5
    assert heading_controller(1.0, 0.0, params) == -0.5


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=200)
def test_heading_controller_zero_iff_aligned(phi, phi_des):
    omega = heading_controller(phi, phi_des, PFParams(kp=5.0))
    aligned = wrap_angle(phi_des - phi) == 0.0
    assert (omega == 0.0) == aligned


def test_wheel_speeds_straight():
    ws = wheel_speeds(0.17, 0.0, 0.35, 0.04)
    assert ws.v_right == ws.v_left == pytest.approx(0.17)


def test_wheel_speeds_pure_rotation():
    ws = wheel_speeds(0.0, 1.0, 0.2, 0.04)
    assert ws.v_right == pytest.approx(0.1)
    assert ws.v_left == pytest.approx(-0.1)


def test_wheel_speeds_wheel_rates():
    ws = wheel_speeds(0.17, 0.4, 0.35, 0.05)
    assert ws.omega_right == pytest.approx(ws.v_right / 0.05)
    assert ws.omega_left == pytest.approx(ws.v_left / 0.05)


@given(st.floats(0.0, 1.0), st.floats(-5.0, 5.0))
@settings(max_examples=200)
def test_wheel_speeds_round_trip(speed, omega):
    d = 0.35
    ws = wheel_speeds(speed, omega, d, 0.04)
    assert abs((ws.v_right + ws.v_left) / 2.0 - speed) <= 1e-15
    assert abs((ws.v_right - ws.v_left) / d - omega) <= 1e-12


def test_wheel_speeds_validates_geometry():
    with pytest.raises(ValueError):
        wheel_speeds(0.1, 0.0, 0.0, 0.04)
    with pytest.raises(ValueError):
        wheel_speeds(0.1, 0.0, 0.35, -0.1)

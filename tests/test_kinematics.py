import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_reference import engagement, propagate, stopped
from vortex_ca.kinematics import (
    BehaviorKind,
    CollisionSingularity,
    PlanarVector,
    RobotState,
    ScenarioError,
    SimulationFault,
    wrap_angle,
)

V = 0.17


def relative_speed_from_headings(speed: float, phi_i: float, phi_j: float) -> float:
    """Relative speed of two robots moving at the same linear speed.

    Equals sqrt(Vr^2 + Vth^2) for any equal-speed pair; vanishes exactly for
    parallel motion.
    """
    if speed < 0.0:
        raise ValueError("speed must be >= 0")
    return speed * math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - math.cos(phi_i - phi_j)))


def make_robot(idx, x, y, heading, speed=V, behavior=BehaviorKind.COOPERATIVE, goal=(0.0, 0.0)):
    return RobotState(
        id=idx,
        position=PlanarVector(x, y),
        heading=heading,
        speed=speed,
        body_radius=0.175,
        behavior=behavior if speed > 0 else BehaviorKind.STATIONARY,
        goal=PlanarVector(*goal),
    )


# ---------------------------------------------------------------------------
# angle wrapping


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # open at -pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(6.0) == pytest.approx(6.0 - 2 * math.pi)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_range_and_periodicity(angle):
    w = wrap_angle(angle)
    assert -math.pi < w <= math.pi
    assert math.isclose(
        math.cos(w), math.cos(angle), abs_tol=1e-12
    ) and math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# propagation


def test_propagate_straight_line():
    s = make_robot(1, 0.0, 0.0, 0.0, speed=1.0)
    out = propagate(s, 0.0, 1.0)
    assert out.position.x == pytest.approx(1.0)
    assert out.position.y == pytest.approx(0.0)
    assert out.heading == 0.0


def test_propagate_platform_speed():
    # one second at the platform's set speed covers 0.17 m
    s = make_robot(1, 0.0, 0.0, 0.0)
    out = propagate(s, 0.0, 1.0)
    assert out.position.x == pytest.approx(0.17)


def test_propagate_closes_circle():
    # V = omega = 1 traces a unit circle; 1e4 substeps over one period must
    # return to the start within 1e-6 (oracle: the analytic circle).
    s = make_robot(1, 0.0, 0.0, 0.0, speed=1.0)
    n = 10_000
    dt = 2.0 * math.pi / n
    for _ in range(n):
        s = propagate(s, 1.0, dt)
    assert math.hypot(s.position.x, s.position.y) < 1e-6


def quarter_arc_error(n_steps):
    # exact endpoint of a unit-speed, unit-rate quarter turn is (1, 1)
    s = make_robot(1, 0.0, 0.0, 0.0, speed=1.0)
    dt = (math.pi / 2.0) / n_steps
    for _ in range(n_steps):
        s = propagate(s, 1.0, dt)
    return math.hypot(s.position.x - 1.0, s.position.y - 1.0)


def test_propagate_is_fourth_order():
    e4, e8, e16 = quarter_arc_error(4), quarter_arc_error(8), quarter_arc_error(16)
    assert e4 / e8 > 14.0
    assert e8 / e16 > 14.0


def test_propagate_inactive_unchanged():
    s = stopped(make_robot(1, 1.0, 2.0, 0.3))
    assert propagate(s, 5.0, 0.5) is s


def test_propagate_rejects_bad_inputs():
    s = make_robot(1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        propagate(s, 0.0, 0.0)
    with pytest.raises(SimulationFault):
        propagate(s, math.nan, 0.1)


def test_robot_state_rejects_nonfinite_position_and_goal():
    # PlanarVector is a plain value; RobotState names each non-finite field
    with pytest.raises(ScenarioError) as caught:
        RobotState(id=1, position=PlanarVector(math.inf, 0.0), heading=math.nan, speed=V,
                   body_radius=0.175, behavior=BehaviorKind.COOPERATIVE,
                   goal=PlanarVector(0.0, -math.inf))
    assert caught.value.errors == [
        "robot 1: position must be finite", "robot 1: heading must be finite",
        "robot 1: goal must be finite",
    ]


# ---------------------------------------------------------------------------
# engagement geometry


def test_engagement_head_on():
    a = make_robot(1, 0.0, 0.0, 0.0)
    b = make_robot(2, 2.0, 0.0, math.pi)
    eng = engagement(a, b)
    assert eng.r == pytest.approx(2.0)
    assert eng.vr == pytest.approx(-0.34)
    assert eng.vth == pytest.approx(0.0, abs=1e-15)
    assert eng.vrel == pytest.approx(0.34)
    assert eng.triggered


def test_engagement_parallel_motion_not_triggered():
    a = make_robot(1, 0.0, 0.0, 0.0)
    b = make_robot(2, 2.0, 0.0, 0.0)
    eng = engagement(a, b)
    assert eng.vrel < 1e-12
    assert not eng.triggered


def test_engagement_stationary_obstacle_matches_finite_differences():
    # Moving robot at the origin, stationary obstacle 3 m above.  The oracle
    # finite-differences r(t) and theta(t) along straight-line motion.
    a = make_robot(1, 0.0, 0.0, 0.0)
    b = make_robot(2, 0.0, 3.0, 0.0, speed=0.0)
    eng = engagement(a, b)

    h = 1e-6

    def rel(t):
        ax = a.speed * math.cos(a.heading) * t
        ay = a.speed * math.sin(a.heading) * t
        dx, dy = b.position.x - ax, b.position.y - ay
        return math.hypot(dx, dy), math.atan2(dy, dx)

    r_p, th_p = rel(h)
    r_m, th_m = rel(-h)
    vr_fd = (r_p - r_m) / (2 * h)
    vth_fd = eng.r * (th_p - th_m) / (2 * h)

    assert eng.theta == pytest.approx(math.pi / 2)
    assert eng.vr == pytest.approx(vr_fd, abs=1e-9)
    assert eng.vth == pytest.approx(vth_fd, abs=1e-9)
    # frozen values from the oracle: no closing, LOS rotating at +V/r
    assert eng.vr == pytest.approx(0.0, abs=1e-12)
    assert eng.vth == pytest.approx(0.17)


def test_engagement_identical_positions_is_singular():
    a = make_robot(1, 1.0, 1.0, 0.0)
    b = make_robot(2, 1.0, 1.0, math.pi)
    with pytest.raises(CollisionSingularity):
        engagement(a, b)


headings = st.floats(min_value=-math.pi, max_value=math.pi)
coords = st.floats(min_value=-5.0, max_value=5.0)


@given(coords, coords, headings, coords, coords, headings)
@settings(max_examples=200)
def test_engagement_symmetry(ax, ay, pa, bx, by, pb):
    a = make_robot(1, ax, ay, pa)
    b = make_robot(2, bx, by, pb)
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    e_ab = engagement(a, b)
    e_ba = engagement(b, a)
    assert e_ab.r == e_ba.r
    assert e_ab.vr == pytest.approx(e_ba.vr, abs=1e-12)
    assert e_ab.vth == pytest.approx(e_ba.vth, abs=1e-12)
    # LOS angles differ by pi mod 2*pi (either wrap of the half turn)
    assert abs(wrap_angle(e_ba.theta - e_ab.theta)) == pytest.approx(math.pi, abs=1e-9)


@given(coords, coords, headings, coords, coords, headings)
@settings(max_examples=200)
def test_engagement_circle_identity_and_speed_bound(ax, ay, pa, bx, by, pb):
    a = make_robot(1, ax, ay, pa)
    b = make_robot(2, bx, by, pb)
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    eng = engagement(a, b)
    assert abs(eng.vr**2 + eng.vth**2 - eng.vrel**2) < 1e-15
    # emergent, not clamped: radial speed never exceeds the 2V closing bound
    assert abs(eng.vr) <= 2 * V + 1e-12


@given(headings, headings)
@settings(max_examples=200)
def test_equal_speed_relative_speed_agreement(pa, pb):
    a = make_robot(1, 0.0, 0.0, pa)
    b = make_robot(2, 1.0, 0.5, pb)
    eng = engagement(a, b)
    assert abs(eng.vrel - relative_speed_from_headings(V, pa, pb)) < 1e-9


def test_relative_speed_examples():
    assert relative_speed_from_headings(0.17, 0.0, math.pi) == pytest.approx(0.34)
    assert relative_speed_from_headings(0.17, 1.2, 1.2) == 0.0
    # oracle: subtract unit velocity vectors directly
    vx = math.cos(math.pi / 2) - math.cos(0.0)
    vy = math.sin(math.pi / 2) - math.sin(0.0)
    assert relative_speed_from_headings(1.0, 0.0, math.pi / 2) == pytest.approx(
        math.hypot(vx, vy)
    )
    assert relative_speed_from_headings(1.0, 0.0, math.pi / 2) == pytest.approx(math.sqrt(2.0))


@given(coords, coords, headings)
@settings(max_examples=100)
def test_engagement_with_stationary_target_lies_on_speed_circle(x, y, heading):
    # against a fixed target the relative speed is exactly the robot's speed
    if math.hypot(x - 1.0, y + 0.5) < 1e-6:
        return
    robot = make_robot(1, x, y, heading)
    target = make_robot(2, 1.0, -0.5, 0.0, speed=0.0)
    eng = engagement(robot, target)
    assert abs(eng.vr**2 + eng.vth**2 - V**2) < 1e-15


def test_flipped_engagement_negates_direction_exactly():
    a = make_robot(1, 0.3, -0.2, 0.7)
    b = make_robot(2, 1.9, 2.0, -2.1)
    eng = engagement(a, b)
    flip = eng.flipped()
    assert flip.ux == -eng.ux and flip.uy == -eng.uy
    assert flip.vr == eng.vr and flip.vth == eng.vth
    assert flip.i == eng.j and flip.j == eng.i

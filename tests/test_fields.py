import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_reference import EngagementState, engagement
from vortex_ca.engine import Scenario, ScenarioError, run
from vortex_ca.fields import (
    PFParams,
    attractive_components,
    default_r_star,
    repulsive_components,
)
from vortex_ca.kinematics import BehaviorKind, PlanarVector, RobotState, engagement_terms

V = 0.17
ZERO = PlanarVector(0.0, 0.0)


def make_robot(idx, x, y, heading, speed=V, behavior=BehaviorKind.COOPERATIVE,
               goal=None, target=None):
    return RobotState(
        id=idx,
        position=PlanarVector(x, y),
        heading=heading,
        speed=speed,
        body_radius=0.175,
        behavior=behavior,
        goal=PlanarVector(*goal) if goal is not None else None,
        attack_target=target,
    )


def eng_from_polar(r, theta, vr, vth, i=1, j=2):
    ux, uy = math.cos(theta), math.sin(theta)
    vrel = math.hypot(vr, vth)
    return EngagementState(
        i=i, j=j, r=r, theta=theta, ux=ux, uy=uy, vr=vr, vth=vth, vrel=vrel,
        triggered=vrel > 1e-6 and vr < 0.0,
    )


def repulsive(eng, params):
    # the repulsive kernel on one triggered engagement view
    assert eng.triggered
    return PlanarVector(
        *repulsive_components(eng.r, eng.ux, eng.uy, eng.vr, eng.vth, eng.vrel, params)
    )


def relative_world(r, theta, vr, vth):
    # robot 1 parked at the origin facing its goal, robot 2 moving so that
    # the pair has the given polar relative state
    ux, uy = math.cos(theta), math.sin(theta)
    vx, vy = vr * ux - vth * uy, vr * uy + vth * ux
    a = make_robot(1, 0.0, 0.0, 0.0, speed=0.0, goal=(-3.0, 0.0))
    b = make_robot(2, r * ux, r * uy, math.atan2(vy, vx), speed=math.hypot(vx, vy),
                   behavior=BehaviorKind.NON_COOPERATIVE, goal=(0.0, 0.0))
    return [a, b]


def one_step(world, params):
    # index 0 of each trace is the t = 0 evaluation, index 1 the state after one step
    return run(Scenario(robots=tuple(world), params=params, dt=0.01, t_max=0.01))


def start_force(log, rid):
    trace = log.robots[rid]
    return PlanarVector(trace.fx[0], trace.fy[0])


def start_repulsive(log, rid):
    trace = log.robots[rid]
    return PlanarVector(trace.rep_fx[0], trace.rep_fy[0])


def start_engagement(log, world, params):
    # the t = 0 engagement of robots 1 and 2, which the log must match bit for bit
    eng = engagement(world[0], world[1], params.eps_v)
    pair = log.pairs[(1, 2)]
    logged = (pair.r[0], pair.theta[0], pair.vr[0], pair.vth[0], pair.vrel[0], pair.triggered[0])
    assert logged == (eng.r, eng.theta, eng.vr, eng.vth, eng.vrel, eng.triggered)
    return eng


def field_value(x, y, vx, vy, lam):
    # scalar repulsive field over relative position at fixed relative velocity
    r = math.hypot(x, y)
    vr = (vx * x + vy * y) / r
    return lam * vr * vr / (math.hypot(vx, vy) * r)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        PFParams(kappa=-1.0)
    with pytest.raises(ValueError):
        PFParams(f_lim=0.0)
    with pytest.raises(ValueError):
        PFParams(goal_tol=0.0)
    # degenerate gains used by pure-avoidance and no-repulsion analyses
    PFParams(kappa=0.0)
    PFParams(lam=0.0)


def test_default_r_star_continuity_point():
    # at the switch distance the worst-case head-on magnitude equals f_lim
    lam, f_lim = 10.0, 0.5
    r_star = default_r_star(lam, V, f_lim)
    assert 2.0 * lam * V / r_star**2 == pytest.approx(f_lim)
    assert default_r_star(lam, V, math.inf) == 0.0


# ---------------------------------------------------------------------------
# attractive field


def test_attractive_force_along_x():
    fx, fy = attractive_components(0.0, 0.0, 5.0, 0.0, PFParams().kappa)
    assert (fx, fy) == (pytest.approx(10.0), pytest.approx(0.0))


def test_attractive_force_along_y():
    fx, fy = attractive_components(0.0, 0.0, 0.0, 2.0, 10.0)
    assert (fx, fy) == (pytest.approx(0.0), pytest.approx(10.0))


def test_attractive_force_unit_los_oracle():
    # oracle: kappa times the normalized displacement toward the goal
    fx, fy = attractive_components(1.0, 1.0, 0.0, 0.0, 1.0)
    assert fx == pytest.approx(-math.sqrt(2) / 2)
    assert fy == pytest.approx(-math.sqrt(2) / 2)


def test_attractive_force_at_goal_flag():
    assert attractive_components(2.0, -1.0, 2.0, -1.0, 10.0) == (0.0, 0.0)


@given(st.floats(0.1, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=100)
def test_attractive_magnitude_is_kappa(kappa, gx, gy):
    if math.hypot(gx, gy) < 1e-6:
        return
    fx, fy = attractive_components(0.0, 0.0, gx, gy, kappa)
    assert math.hypot(fx, fy) == pytest.approx(kappa, rel=1e-12)


# ---------------------------------------------------------------------------
# vortex repulsive field


def test_vortex_head_on_turns_self_right():
    # head-on at 2 m: pure downward push on the robot heading +x
    eng = eng_from_polar(2.0, 0.0, -2 * V, 0.0)
    force = repulsive(eng, PFParams(lam=10.0))
    assert force.x == pytest.approx(0.0, abs=1e-15)
    assert force.y == pytest.approx(-0.85)

    # oracle: finite-difference gradient of the scalar field, then swap
    h = 1e-7
    vx, vy = -2 * V, 0.0
    gx = (field_value(2.0 + h, 0.0, vx, vy, 10.0) - field_value(2.0 - h, 0.0, vx, vy, 10.0)) / (2 * h)
    gy = (field_value(2.0, h, vx, vy, 10.0) - field_value(2.0, -h, vx, vy, 10.0)) / (2 * h)
    assert force.x == pytest.approx(-gy, abs=1e-6)
    assert force.y == pytest.approx(gx, abs=1e-6)


def test_vortex_opposite_view_negates():
    eng = eng_from_polar(2.0, 0.0, -2 * V, 0.0)
    params = PFParams(lam=10.0)
    f_self = repulsive(eng, params)
    f_other = repulsive(eng.flipped(), params)
    assert f_other.x == -f_self.x
    assert f_other.y == -f_self.y
    assert f_other.y == pytest.approx(0.85)


def test_vortex_zero_when_receding():
    world, params = relative_world(2.0, 0.0, +0.1, 0.05), PFParams()
    log = one_step(world, params)
    assert not start_engagement(log, world, params).triggered
    assert start_repulsive(log, 1) == ZERO


@given(
    st.floats(0.3, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-0.4, 0.4),
    st.floats(-0.4, 0.4),
)
@settings(max_examples=300)
def test_trigger_soundness(r, theta, vr, vth):
    # exactly zero force whenever receding or relative speed below threshold,
    # the kernel's force otherwise
    params = PFParams()
    world = relative_world(r, theta, vr, vth)
    log = one_step(world, params)
    eng = start_engagement(log, world, params)
    assert eng.triggered == (eng.vr < 0.0 and eng.vrel > params.eps_v)
    if eng.triggered:
        assert start_repulsive(log, 1) == repulsive(eng, params)
    else:
        assert start_repulsive(log, 1) == ZERO


@given(
    st.floats(0.3, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-0.4, -0.01),
    st.floats(-0.4, 0.4),
)
@settings(max_examples=300)
def test_reciprocity(r, theta, vr, vth):
    eng = eng_from_polar(r, theta, vr, vth)
    params = PFParams()
    f_i = repulsive(eng, params)
    f_j = repulsive(eng.flipped(), params)
    assert abs(f_i.x + f_j.x) <= 1e-12
    assert abs(f_i.y + f_j.y) <= 1e-12


def test_vortex_magnitude_law():
    lam = 10.0
    r, vr, vth = 1.7, -0.21, 0.13
    eng = eng_from_polar(r, 0.9, vr, vth)
    force = repulsive(eng, PFParams(lam=lam))
    vrel = math.hypot(vr, vth)
    expected = lam * abs(vr) * math.sqrt(4 * vth**2 + vr**2) / (vrel * r**2)
    assert math.hypot(force.x, force.y) == pytest.approx(expected, rel=1e-12)
    # doubling the separation quarters the magnitude at fixed velocities
    far = repulsive(eng_from_polar(2 * r, 0.9, vr, vth), PFParams(lam=lam))
    assert math.hypot(far.x, far.y) == pytest.approx(expected / 4.0, rel=1e-12)


def test_gradient_consistency_spot_check():
    # analytic gradient vs central differences of the scalar field
    lam = 10.0
    h = 1e-6
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        x, y = rng.uniform(-3, 3, 2)
        pa, pb = rng.uniform(-math.pi, math.pi, 2)
        r = math.hypot(x, y)
        if not 0.5 < r < 5.0:
            continue
        vx = V * math.cos(pb) - V * math.cos(pa)
        vy = V * math.sin(pb) - V * math.sin(pa)
        ux, uy = x / r, y / r
        vr = vx * ux + vy * uy
        if math.hypot(vx, vy) < 1e-3 or vr > -1e-3:
            continue
        vth = -vx * uy + vy * ux
        eng = eng_from_polar(r, math.atan2(y, x), vr, vth)
        force = repulsive(eng, PFParams(lam=lam))
        gx = (field_value(x + h, y, vx, vy, lam) - field_value(x - h, y, vx, vy, lam)) / (2 * h)
        gy = (field_value(x, y + h, vx, vy, lam) - field_value(x, y - h, vx, vy, lam)) / (2 * h)
        scale = max(abs(gx), abs(gy))
        assert abs(force.x - (-gy)) / scale < 1e-5
        assert abs(force.y - gx) / scale < 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# non-vortex baseline


def test_nonvortex_head_on_is_collinear_with_los():
    eng = eng_from_polar(2.0, 0.0, -2 * V, 0.0)
    force = repulsive(eng, PFParams(lam=10.0, vortex=False))
    # with no transverse motion the command never leaves the LOS axis, which
    # is precisely why the baseline cannot make head-on robots turn
    assert force.y == 0.0
    expected_x = 10.0 * (2 * V) ** 2 / ((2 * V) * 4.0)
    assert force.x == pytest.approx(expected_x)


def test_nonvortex_untriggered_zero():
    world, params = relative_world(2.0, 0.0, 0.2, 0.1), PFParams(vortex=False)
    log = one_step(world, params)
    assert not start_engagement(log, world, params).triggered
    assert start_repulsive(log, 1) == ZERO


def test_nonvortex_crossing_matches_negative_gradient():
    # oracle: central differences of the scalar field; perpendicular crossing
    # has a nonzero transverse component
    lam, h = 10.0, 1e-7
    x, y = 1.2, 0.8
    vx, vy = -0.2, -0.1
    r = math.hypot(x, y)
    ux, uy = x / r, y / r
    vr = vx * ux + vy * uy
    vth = -vx * uy + vy * ux
    eng = eng_from_polar(r, math.atan2(y, x), vr, vth)
    force = repulsive(eng, PFParams(lam=lam, vortex=False))
    gx = (field_value(x + h, y, vx, vy, lam) - field_value(x - h, y, vx, vy, lam)) / (2 * h)
    gy = (field_value(x, y + h, vx, vy, lam) - field_value(x, y - h, vx, vy, lam)) / (2 * h)
    assert force.x == pytest.approx(-gx, abs=1e-6)
    assert force.y == pytest.approx(-gy, abs=1e-6)
    assert abs(force.y) > 1e-3


# ---------------------------------------------------------------------------
# saturation


UNBOUNDED = PFParams(lam=10.0)


def test_saturate_passthrough_outside_switch():
    params = PFParams(lam=10.0, f_lim=0.5, r_star=1.0)
    eng = eng_from_polar(2.0, 0.0, -2 * V, 0.0)
    assert repulsive(eng, params) == repulsive(eng, UNBOUNDED)


def test_saturate_head_on_inside_switch():
    params = PFParams(lam=10.0, f_lim=0.5, r_star=1.0)
    eng = eng_from_polar(0.5, 0.0, -2 * V, 0.0)
    force = repulsive(eng, params)
    # x bracket is exactly zero head-on, so sign(0) = 0 keeps the component 0
    assert force.x == 0.0
    assert force.y == -0.5


def test_saturate_unbounded_passthrough():
    params = PFParams(lam=10.0, f_lim=math.inf, r_star=5.0)
    eng = eng_from_polar(0.5, 0.0, -2 * V, 0.0)
    assert repulsive(eng, params) == repulsive(eng, UNBOUNDED)


def test_saturate_components_bounded():
    params = PFParams(lam=10.0, f_lim=0.3, r_star=2.0)
    eng = eng_from_polar(0.7, 1.1, -0.2, 0.15)
    force = repulsive(eng, params)
    for component in (force.x, force.y):
        assert component in (0.0, params.f_lim, -params.f_lim)


def test_saturate_preserves_unsaturated_signs():
    params = PFParams(lam=10.0, f_lim=0.3, r_star=2.0)
    eng = eng_from_polar(0.7, 1.1, -0.2, 0.15)
    raw = repulsive(eng, UNBOUNDED)
    sat = repulsive(eng, params)
    assert math.copysign(1, sat.x) == math.copysign(1, raw.x)
    assert math.copysign(1, sat.y) == math.copysign(1, raw.y)


# ---------------------------------------------------------------------------
# superposition and dispatch (the engine sums the kernels per robot)


def test_total_force_single_robot_is_attractive():
    log = one_step([make_robot(1, 0.0, 0.0, 0.0, goal=(3.0, 0.0))], PFParams())
    assert start_force(log, 1).x == pytest.approx(10.0)
    assert log.pairs == {}
    assert start_repulsive(log, 1) == ZERO


def test_total_force_pair_vortex_terms_negate():
    params = PFParams()
    a = make_robot(1, -1.0, 0.0, 0.0, goal=(1.0, 0.0))
    b = make_robot(2, 1.0, 0.0, math.pi, goal=(-1.0, 0.0))
    log = one_step([a, b], params)
    f_a, f_b = start_force(log, 1), start_force(log, 2)
    att_a = PlanarVector(*attractive_components(-1.0, 0.0, 1.0, 0.0, params.kappa))
    att_b = PlanarVector(*attractive_components(1.0, 0.0, -1.0, 0.0, params.kappa))
    rep_a = (f_a.x - att_a.x, f_a.y - att_a.y)
    rep_b = (f_b.x - att_b.x, f_b.y - att_b.y)
    assert rep_a[0] == pytest.approx(-rep_b[0], abs=1e-12)
    assert rep_a[1] == pytest.approx(-rep_b[1], abs=1e-12)
    assert start_engagement(log, [a, b], params).triggered
    rep = start_repulsive(log, 1)
    assert math.hypot(rep.x, rep.y) > 0.0


def test_total_force_noncooperative_is_zero():
    a = make_robot(1, -1.0, 0.0, 0.0, behavior=BehaviorKind.NON_COOPERATIVE, goal=(1.0, 0.0))
    b = make_robot(2, 1.0, 0.0, math.pi, goal=(-1.0, 0.0))
    log = one_step([a, b], PFParams())
    assert start_force(log, 1) == ZERO


def test_total_force_attacker_aims_at_target():
    atk = make_robot(1, 0.0, 0.0, 0.0, behavior=BehaviorKind.ATTACKING, target=2)
    tgt = make_robot(2, 3.0, 4.0, 0.0, goal=(0.0, 0.0))
    force = start_force(one_step([atk, tgt], PFParams(kappa=10.0)), 1)
    assert force.x == pytest.approx(10.0 * 0.6)
    assert force.y == pytest.approx(10.0 * 0.8)


def test_total_force_attacker_missing_target():
    atk = make_robot(1, 0.0, 0.0, 0.0, behavior=BehaviorKind.ATTACKING, target=9)
    with pytest.raises(ScenarioError, match="attack target 9 does not exist"):
        one_step([atk], PFParams())


# ---------------------------------------------------------------------------
# curl diagnostic: vorticity of the repulsive law over relative-position space


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

    def __post_init__(self):
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


def _repulsive_at(rel_pos, rel_vel, params):
    r, ux, uy, vr, vth, vrel, triggered = engagement_terms(
        rel_pos.x, rel_pos.y, rel_vel.x, rel_vel.y, params.eps_v
    )
    if not triggered:
        return 0.0, 0.0
    return repulsive_components(r, ux, uy, vr, vth, vrel, params)


def field_curl_diagnostic(grid, rel_velocity, params, force_fn=None, out_path=None):
    """Sample the repulsive law over relative positions and report its numerical curl.

    The curl (dFy/dx - dFx/dy) is computed with a second-order central
    stencil on interior nodes; boundary nodes are NaN.  The law is the one
    ``params`` configures; a custom ``force_fn`` of a relative position may
    replace it (fields of known curl check the stencil).  The grid must stay
    outside the ``r_min`` guard band around the origin.  ``out_path`` gets
    the samples as ``x_rel,y_rel,Fx,Fy,curl`` rows.
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
        force_fn = lambda p: _repulsive_at(p, rel_velocity, params)

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

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("x_rel,y_rel,Fx,Fy,curl\n")
            for ix in range(grid.nx):
                for iy in range(grid.ny):
                    handle.write(
                        f"{xs[ix]:.17g},{ys[iy]:.17g},{fx[ix, iy]:.17g},"
                        f"{fy[ix, iy]:.17g},{curl[ix, iy]:.17g}\n"
                    )
    return CurlDiagnostic(x=xs, y=ys, fx=fx, fy=fy, curl=curl)


def test_curl_of_constant_field_is_zero():
    grid = GridSpec(1.0, 3.0, 11, -1.0, 1.0, 11)
    diag = field_curl_diagnostic(grid, PlanarVector(-0.34, 0.0), PFParams(),
                                 force_fn=lambda p: (1.25, -0.5))
    assert np.nanmax(np.abs(diag.curl[1:-1, 1:-1])) == 0.0


def test_curl_grid_guard_band():
    grid = GridSpec(-1.0, 1.0, 11, -1.0, 1.0, 11)
    with pytest.raises(ValueError):
        field_curl_diagnostic(grid, PlanarVector(-0.34, 0.0), PFParams())


def test_curl_vortex_field_finite_and_written(tmp_path):
    grid = GridSpec(1.0, 3.0, 21, -1.0, 1.0, 21)
    out = tmp_path / "curl.csv"
    diag = field_curl_diagnostic(grid, PlanarVector(-0.34, 0.0), PFParams(), out_path=str(out))
    assert np.all(np.isfinite(diag.curl[1:-1, 1:-1]))
    lines = out.read_text().splitlines()
    assert lines[0] == "x_rel,y_rel,Fx,Fy,curl"
    assert len(lines) == 1 + 21 * 21


def test_curl_stencil_second_order():
    # oracle: symbolic differentiation of the head-on vortex force
    sympy = pytest.importorskip("sympy")
    params = PFParams()
    w = 0.34
    x, y = sympy.symbols("x y", positive=True)
    r = sympy.sqrt(x * x + y * y)
    vr = -w * x / r
    vth = w * y / r
    coef = -params.lam * vr / (w * r**2)
    fx = coef * (2 * vth * x / r - vr * y / r)
    fy = coef * (2 * vth * y / r + vr * x / r)
    curl_exact = sympy.lambdify((x, y), sympy.diff(fy, x) - sympy.diff(fx, y))

    x0, y0 = 2.0, 0.5
    rel_velocity = PlanarVector(-w, 0.0)

    def stencil(n):
        span = 0.2
        grid = GridSpec(x0 - span, x0 + span, n, y0 - span, y0 + span, n)
        diag = field_curl_diagnostic(grid, rel_velocity, params)
        return diag.curl[n // 2, n // 2]

    e_coarse = abs(stencil(5) - curl_exact(x0, y0))
    e_fine = abs(stencil(9) - curl_exact(x0, y0))
    assert 3.5 < e_coarse / e_fine < 4.5

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_strategies import BEHAVIORS
from test_engine_reference import EngagementState, propagate
from vortex_ca import scenarios
from vortex_ca.analysis import (
    RegimeKind,
    RelativeTrace,
    _multi_robot_derivative,
    _multi_robot_value,
    analyze_log,
    attacker_standoff,
    closed_loop_errors_from_log,
    closed_loop_rhs,
    grazing_separation,
    lyapunov,
    multi_lyapunov,
    numeric_derivative,
    pair_lyapunov_series,
    regime_mismatch,
    require_regime,
    turn_radius,
    verify_closed_loop,
)
from vortex_ca.cli import regime_lyapunov
from vortex_ca.engine import PairTrace, TrajectoryLog, run
from vortex_ca.fields import PFParams
from vortex_ca.kinematics import BehaviorKind, PlanarVector, RobotState
from vortex_ca.scenarios import load_scenario

V = 0.17
PARAMS = PFParams()


def eng(vr, vth, r=2.0):
    vrel = math.hypot(vr, vth)
    return EngagementState(
        i=1, j=2, r=r, theta=0.0, ux=1.0, uy=0.0, vr=vr, vth=vth, vrel=vrel,
        triggered=vrel > 1e-6 and vr < 0.0,
    )


# ---------------------------------------------------------------------------
# collision predicate


def collision_course(eng: EngagementState, tol_vth: float = 1e-3) -> bool:
    """True iff the pair is closing with (numerically) zero transverse speed.

    Closing with zero LOS rotation is necessary and sufficient for point
    collision at constant velocities; ``tol_vth`` absorbs the fact that an
    exact zero never holds in floating point.
    """
    return eng.vr < 0.0 and abs(eng.vth) <= tol_vth


def test_collision_course_head_on():
    assert collision_course(eng(-2 * V, 0.0))


def test_collision_course_receding():
    assert not collision_course(eng(0.1, 0.0))


def test_collision_course_miss_geometry():
    assert not collision_course(eng(-0.2, 0.5), tol_vth=1e-3)


# ---------------------------------------------------------------------------
# closed-loop right-hand sides


def test_rhs_coop_pair_head_on():
    r, vr, vth = 3.0, -2 * V, 0.0
    dvr, dvth = closed_loop_rhs(RegimeKind.COOP_PAIR, r, vr, vth, abs(vr), PARAMS)
    assert dvr == 0.0
    expected = 2.0 * PARAMS.lam * vr * vr / (abs(vr) * r * r)
    assert dvth == pytest.approx(expected)
    assert dvth > 0.0


def test_rhs_nonvortex_no_turning():
    dvr, dvth = closed_loop_rhs(RegimeKind.NONVORTEX_PAIR, 3.0, -2 * V, 0.0, 2 * V, PARAMS)
    assert dvth == 0.0
    assert dvr < 0.0


def test_rhs_attractive_only():
    dvr, dvth = closed_loop_rhs(RegimeKind.ATTRACTIVE_ONLY, 3.0, -V, 0.0, V, PARAMS)
    assert dvr == pytest.approx(-PARAMS.kappa)
    assert dvth == 0.0


def test_rhs_coefficients_across_regimes():
    # single-sided avoidance has half the reciprocal pair's coupling terms
    r, vr, vth, vrel = 2.0, -0.2, 0.1, math.hypot(-0.2, 0.1)
    alpha = PARAMS.lam / (vrel * r * r)
    pair = closed_loop_rhs(RegimeKind.COOP_PAIR, r, vr, vth, vrel, PARAMS)
    single = closed_loop_rhs(RegimeKind.COOP_VS_NONCOOP, r, vr, vth, vrel, PARAMS)
    attacked = closed_loop_rhs(RegimeKind.COOP_VS_ATTACKER, r, vr, vth, vrel, PARAMS)
    assert pair[0] - vth * vth / r == pytest.approx(2.0 * (single[0] - vth * vth / r))
    assert pair[1] + vr * vth / r == pytest.approx(2.0 * (single[1] + vr * vth / r))
    assert attacked[0] == pytest.approx(single[0] - PARAMS.kappa)
    assert attacked[1] == single[1]
    assert single[1] == pytest.approx(alpha * vr * vr - vr * vth / r)


def test_rhs_domain_errors():
    with pytest.raises(ValueError):
        closed_loop_rhs(RegimeKind.COOP_PAIR, 0.0, -0.1, 0.0, 0.1, PARAMS)
    with pytest.raises(ValueError):
        closed_loop_rhs(RegimeKind.COOP_PAIR, 1.0, -0.1, 0.0, 0.0, PARAMS)
    with pytest.raises(ValueError):
        closed_loop_rhs(RegimeKind.MULTI_ROBOT, 1.0, -0.1, 0.0, 0.1, PARAMS)


# ---------------------------------------------------------------------------
# Lyapunov functions


def test_lyapunov_attacker_zero_at_no_rotation():
    _, deriv = lyapunov(RegimeKind.COOP_VS_ATTACKER, 2.0, -0.3, 0.0, 0.3, PARAMS)
    assert deriv == 0.0


def test_lyapunov_coop_pair_hand_value():
    value, deriv = lyapunov(RegimeKind.COOP_PAIR, 3.0, -0.34, 0.0, 0.34, PARAMS)
    assert value == pytest.approx(3.0 + 0.5 * 0.34**2)
    assert deriv == pytest.approx(-0.34)


def test_lyapunov_attractive_decreases_when_gain_dominates():
    # kappa > V^2 / r makes the approach strictly dissipative
    r = 3.0
    assert PARAMS.kappa > V * V / r
    _, deriv = lyapunov(RegimeKind.ATTRACTIVE_ONLY, r, -0.1, 0.1, V, PARAMS)
    assert deriv < 0.0


@pytest.mark.parametrize(
    "regime",
    [RegimeKind.COOP_PAIR, RegimeKind.COOP_VS_NONCOOP, RegimeKind.COOP_VS_ATTACKER],
)
def test_lyapunov_derivative_is_chain_rule_along_rhs(regime):
    # dual route: the closed-form derivative must equal
    # dV/dt = Vr + Vth*f_th + Vr*f_r (+ kappa*Vr for the kappa-weighted value)
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.5, 4.0)
        vr = rng.uniform(-0.4, -0.01)
        vth = rng.uniform(-0.4, 0.4)
        vrel = math.hypot(vr, vth)
        f_r, f_th = closed_loop_rhs(regime, r, vr, vth, vrel, PARAMS)
        range_weight = PARAMS.kappa if regime is RegimeKind.COOP_VS_ATTACKER else 1.0
        chain = range_weight * vr + vth * f_th + vr * f_r
        _, deriv = lyapunov(regime, r, vr, vth, vrel, PARAMS)
        assert deriv == pytest.approx(chain, rel=1e-9, abs=1e-12)


def test_lyapunov_multi_matches_pair_coefficients():
    # reciprocal pair: two active avoiders double the single-sided coupling
    r, vr, vth = 2.0, -0.2, 0.1
    vrel = math.hypot(vr, vth)
    _, pair_deriv = lyapunov(RegimeKind.COOP_PAIR, r, vr, vth, vrel, PARAMS)
    multi2 = _multi_robot_derivative(r, vr, vth, vrel, PARAMS.lam, 2)
    assert multi2 == pytest.approx(pair_deriv)  # vr < 0 makes -|vr| = vr
    _, single_deriv = lyapunov(RegimeKind.COOP_VS_NONCOOP, r, vr, vth, vrel, PARAMS)
    multi1 = _multi_robot_derivative(r, vr, vth, vrel, PARAMS.lam, 1)
    assert multi1 == pytest.approx(single_deriv)


def test_lyapunov_value_nonnegative():
    rng = np.random.default_rng(11)
    for regime in RegimeKind:
        for _ in range(20):
            r = rng.uniform(0.1, 5.0)
            vr = rng.uniform(-0.4, 0.4)
            vth = rng.uniform(-0.4, 0.4)
            vrel = max(math.hypot(vr, vth), 1e-3)
            if regime is RegimeKind.MULTI_ROBOT:
                value = _multi_robot_value(r, vr, vth)
            else:
                value, _ = lyapunov(regime, r, vr, vth, vrel, PARAMS)
            assert value >= 0.0
    # the multi-robot series sums per-pair terms; it has no single-pair form
    with pytest.raises(ValueError):
        lyapunov(RegimeKind.MULTI_ROBOT, 1.0, -0.1, 0.0, 0.1, PARAMS)


# ---------------------------------------------------------------------------
# closed-loop integration and the dual-route check


_REPULSIVE_REGIMES = (
    RegimeKind.COOP_PAIR,
    RegimeKind.COOP_VS_NONCOOP,
    RegimeKind.COOP_VS_ATTACKER,
    RegimeKind.NONVORTEX_PAIR,
)


def simulate_closed_loop(
    regime: RegimeKind,
    r0: float,
    vr0: float,
    vth0: float,
    params: PFParams,
    dt: float = 1e-4,
    t_max: float = 20.0,
    r_floor: float = 0.05,
) -> RelativeTrace:
    """Integrate the regime's closed-loop relative dynamics with fixed-step RK4.

    Integration stops at ``t_max``, when the separation falls to ``r_floor``,
    or (for repulsive regimes) when the closing condition Vr < 0 is lost, so
    the returned window has a single constant regime throughout.
    """
    if r0 <= 0.0:
        raise ValueError("r0 must be > 0")

    def deriv(state: tuple[float, float, float]) -> tuple[float, float, float]:
        r, vr, vth = state
        vrel = math.hypot(vr, vth)
        f_r, f_th = closed_loop_rhs(regime, r, vr, vth, vrel, params)
        return vr, f_r, f_th

    repulsive = regime in _REPULSIVE_REGIMES
    ts = [0.0]
    rs = [r0]
    vrs = [vr0]
    vths = [vth0]
    state = (r0, vr0, vth0)
    n_steps = int(round(t_max / dt))
    for k in range(n_steps):
        k1 = deriv(state)
        s2 = tuple(state[m] + 0.5 * dt * k1[m] for m in range(3))
        k2 = deriv(s2)
        s3 = tuple(state[m] + 0.5 * dt * k2[m] for m in range(3))
        k3 = deriv(s3)
        s4 = tuple(state[m] + dt * k3[m] for m in range(3))
        k4 = deriv(s4)
        state = tuple(
            state[m] + dt * (k1[m] + 2.0 * k2[m] + 2.0 * k3[m] + k4[m]) / 6.0 for m in range(3)
        )
        ts.append((k + 1) * dt)
        rs.append(state[0])
        vrs.append(state[1])
        vths.append(state[2])
        if state[0] <= r_floor:
            break
        if repulsive and state[1] >= 0.0:
            break
    return RelativeTrace(
        regime=regime,
        t=np.asarray(ts),
        r=np.asarray(rs),
        vr=np.asarray(vrs),
        vth=np.asarray(vths),
    )


def test_closed_loop_coop_pair_baseline():
    trace = simulate_closed_loop(RegimeKind.COOP_PAIR, 3.0, -2 * V, 0.0, PARAMS, dt=1e-4)
    report = verify_closed_loop(trace, PARAMS)
    assert report.max_rel_error < 1e-3
    # window ends at trigger release with the pair escaping
    assert trace.vr[-1] >= 0.0
    assert trace.r.min() > 0.0


def test_closed_loop_attractive_only():
    trace = simulate_closed_loop(
        RegimeKind.ATTRACTIVE_ONLY, 3.0, -V * math.cos(0.5), -V * math.sin(0.5), PARAMS,
        dt=1e-4, t_max=5.0,
    )
    report = verify_closed_loop(trace, PARAMS)
    assert report.max_rel_error < 1e-3


def test_verify_closed_loop_reads_arrays_and_lists_alike():
    trace = simulate_closed_loop(RegimeKind.COOP_PAIR, 3.0, -2 * V, 0.0, PARAMS, dt=1e-3)
    lists = RelativeTrace(trace.regime, trace.t.tolist(), trace.r.tolist(), trace.vr.tolist(),
                          trace.vth.tolist())
    assert verify_closed_loop(lists, PARAMS) == verify_closed_loop(trace, PARAMS)


def test_closed_loop_regime_windows_are_regime_constant():
    trace = simulate_closed_loop(RegimeKind.COOP_VS_NONCOOP, 3.0, -2 * V, 0.0, PARAMS, dt=1e-4)
    assert all(v < 0.0 for v in trace.vr[:-1])


# ---------------------------------------------------------------------------
# geometric bounds


class InfeasibleGeometry(ValueError):
    """No acceleration bound lets the robots avoid grazing at this geometry."""


def required_accel(kind: RegimeKind, body_radius: float, speed: float, half_separation: float) -> float:
    """Minimum acceleration bound that avoids grazing for the given engagement.

    Cooperative pairs share the maneuver; against a non-cooperative robot the
    single maneuvering robot needs a strictly larger bound.  Raises
    InfeasibleGeometry when no bound suffices (offset not larger than the
    effective radius).
    """
    v2 = speed * speed
    if kind is RegimeKind.COOP_PAIR:
        denom = half_separation * half_separation - body_radius * body_radius
        if denom <= 0.0:
            raise InfeasibleGeometry(
                f"half separation {half_separation} must exceed body radius {body_radius}"
            )
        return 2.0 * body_radius * v2 / denom
    if kind is RegimeKind.COOP_VS_NONCOOP:
        denom = half_separation * half_separation - 4.0 * body_radius * body_radius
        if denom <= 0.0:
            raise InfeasibleGeometry(
                f"half separation {half_separation} must exceed twice the body radius"
            )
        return 4.0 * body_radius * v2 / denom
    raise ValueError("required_accel is defined for COOP_PAIR and COOP_VS_NONCOOP")


def fit_circle(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares circle fit (algebraic/Kasa); returns (cx, cy, radius)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least 3 points to fit a circle")
    a = np.column_stack([2.0 * xs, 2.0 * ys, np.ones_like(xs)])
    b = xs * xs + ys * ys
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c = sol
    return float(cx), float(cy), float(math.sqrt(max(c + cx * cx + cy * cy, 0.0)))


def test_turn_radius_values():
    assert turn_radius(1.0, 1.0) == 1.0
    assert turn_radius(0.17, 0.0461) == pytest.approx(0.17**2 / 0.0461)
    assert turn_radius(0.17, 0.0461) == pytest.approx(0.6269, abs=1e-4)
    assert turn_radius(0.17, 0.1) == pytest.approx(0.289)


def test_turn_radius_matches_saturated_simulation():
    # oracle: simulate a clamped constant-rate turn and fit the circle
    f_lim = 0.0461
    omega = f_lim / V
    s = RobotState(
        id=1, position=PlanarVector(0.0, 0.0), heading=0.0, speed=V,
        body_radius=0.0, behavior=BehaviorKind.COOPERATIVE, goal=PlanarVector(0, 0),
    )
    xs, ys = [], []
    for _ in range(2000):
        s = propagate(s, -omega, 0.01)
        xs.append(s.position.x)
        ys.append(s.position.y)
    _, _, radius = fit_circle(np.array(xs), np.array(ys))
    assert radius == pytest.approx(turn_radius(V, f_lim), rel=1e-6)


def test_grazing_separation_touching_circles():
    assert grazing_separation(1.0, 0.0) == 0.0


def test_grazing_separation_formula_and_arc_oracle():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    r_turn, half_sep = 1.0, 1.0
    d = grazing_separation(r_turn, half_sep)
    assert d == pytest.approx(math.sqrt(2.0) - 1.0)

    # oracle: minimum distance between the two mirrored turn arcs, halved.
    # A starts at (0, -l) heading +y and turns clockwise about (R, -l);
    # B starts mirrored through the origin.
    def arc_distance(angle):
        ax = r_turn - r_turn * math.cos(angle)
        ay = -half_sep + r_turn * math.sin(angle)
        return math.hypot(ax - (-ax), ay - (-ay))

    res = scipy_optimize.minimize_scalar(arc_distance, bounds=(0.0, math.pi), method="bounded")
    assert res.fun / 2.0 == pytest.approx(d, rel=1e-6)


def test_grazing_separation_large_offset_limit():
    assert grazing_separation(1.0, 1e6) / 1e6 == pytest.approx(1.0, rel=1e-5)


def test_required_accel_cooperative():
    value = required_accel(RegimeKind.COOP_PAIR, 0.175, 0.17, 0.5)
    assert value == pytest.approx(2 * 0.175 * 0.17**2 / (0.5**2 - 0.175**2))
    assert value == pytest.approx(0.0461, abs=1e-4)


def test_required_accel_noncooperative_is_larger():
    coop_bound = required_accel(RegimeKind.COOP_PAIR, 0.175, 0.17, 0.5)
    noncoop_bound = required_accel(RegimeKind.COOP_VS_NONCOOP, 0.175, 0.17, 0.5)
    assert noncoop_bound == pytest.approx(4 * 0.175 * 0.17**2 / (0.25 - 0.1225))
    assert noncoop_bound == pytest.approx(0.1586667, abs=1e-6)
    assert noncoop_bound > coop_bound


def test_required_accel_infeasible_geometry():
    with pytest.raises(InfeasibleGeometry):
        required_accel(RegimeKind.COOP_PAIR, 0.175, 0.17, 0.175)
    with pytest.raises(InfeasibleGeometry):
        required_accel(RegimeKind.COOP_VS_NONCOOP, 0.175, 0.17, 0.3)


def test_attacker_standoff_values():
    assert attacker_standoff(10.0, 0.17) == pytest.approx(math.sqrt(5.1))
    assert attacker_standoff(10.0, 0.17) == pytest.approx(2.2583, abs=1e-4)
    assert attacker_standoff(1e-9, 0.17) == pytest.approx(0.0, abs=1e-4)
    assert attacker_standoff(3.0, 1.0 / 3.0) == pytest.approx(math.sqrt(3.0))


def test_preset_constants_equal_their_formulas():
    # scenarios writes them as literals so that loading a preset does not
    # import analysis; the literals must be exactly what the formulas give
    r0 = math.ceil(attacker_standoff(PFParams.lam, scenarios._V) * 100.0) / 100.0
    f_lim = 1.1 * required_accel(RegimeKind.COOP_PAIR, scenarios._R_BODY, scenarios._V, 0.5)
    assert scenarios._ATTACKER_R0 == r0
    assert scenarios._SATURATED_F_LIM == f_lim


def test_fit_circle_recovers_synthetic_circle():
    angles = np.linspace(0.3, 2.1, 40)
    xs = 1.5 + 0.7 * np.cos(angles)
    ys = -2.0 + 0.7 * np.sin(angles)
    cx, cy, radius = fit_circle(xs, ys)
    assert (cx, cy, radius) == (
        pytest.approx(1.5, abs=1e-9),
        pytest.approx(-2.0, abs=1e-9),
        pytest.approx(0.7, abs=1e-9),
    )


# ---------------------------------------------------------------------------
# log-based series and checks


@pytest.fixture(scope="module")
def coop_headon_log():
    return run(load_scenario("coop_headon"))


def test_multi_lyapunov_reduces_to_pair_coefficients(coop_headon_log):
    log = coop_headon_log
    params = log.scenario.params
    series = multi_lyapunov(log)
    pair = log.pairs[(1, 2)]
    for k in range(0, len(log.t), 100):
        if not pair.triggered[k]:
            assert series.value[k] == 0.0
            continue
        expected = _multi_robot_derivative(
            pair.r[k], pair.vr[k], pair.vth[k], pair.vrel[k], params.lam, 2
        )
        assert series.derivative_analytic[k] == pytest.approx(expected, rel=1e-12)


def test_pair_lyapunov_series_instability_certificate(coop_headon_log):
    series = pair_lyapunov_series(coop_headon_log, RegimeKind.COOP_PAIR)
    numeric = series.derivative_numeric
    # the value dips while closing, then grows after the reciprocal turn
    sign_change = any(a < 0.0 < b for a, b in zip(numeric, numeric[1:]))
    assert sign_change
    assert min(coop_headon_log.pairs[(1, 2)].r) > 0.0


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def sampled_series(draw):
    """(values, times) of 2-40 samples: engine-like times k * h, irregular
    increasing times, or times with repeated, backward and tiny steps (whose
    products underflow to zero)."""
    n = draw(st.integers(2, 40))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["uniform", "irregular", "degenerate"]))
    if kind == "uniform":
        h = draw(st.floats(1e-4, 1.0))
        return values, [k * h for k in range(n)]
    if kind == "irregular":
        steps = draw(st.lists(st.floats(1e-4, 10.0), min_size=n - 1, max_size=n - 1))
    else:
        steps = draw(st.lists(st.sampled_from([0.0, 0.01, -0.01, 0.02, 1e-170]),
                              min_size=n - 1, max_size=n - 1))
    times = [draw(st.floats(-100.0, 100.0))]
    for step in steps:
        times.append(times[-1] + step)
    return values, times


@settings(max_examples=500, deadline=None)
@given(sampled_series())
def test_numeric_derivative_matches_numpy_gradient_bit_for_bit(series):
    values, times = series
    with np.errstate(all="ignore"):  # repeated times divide by zero in both
        expected = np.gradient(values, times).tolist()
    got = numeric_derivative(values, times)
    assert len(got) == len(expected)
    assert all(map(same_bits, got, expected)), (got, expected)


def test_numeric_derivative_of_one_sample_is_zero():
    assert numeric_derivative([3.0], [0.5]) == [0.0]
    assert numeric_derivative([], []) == []
    with pytest.raises(ValueError):
        numeric_derivative([1.0, 2.0], [0.0])


def test_regime_mismatch_detection(coop_headon_log):
    assert regime_mismatch(coop_headon_log, RegimeKind.COOP_PAIR) is None
    assert regime_mismatch(coop_headon_log, RegimeKind.NONVORTEX_PAIR) is not None
    assert regime_mismatch(coop_headon_log, RegimeKind.ATTRACTIVE_ONLY) is not None
    nonvortex_log = run(load_scenario("nonvortex_headon"))
    assert regime_mismatch(nonvortex_log, RegimeKind.COOP_PAIR) is not None
    assert regime_mismatch(nonvortex_log, RegimeKind.NONVORTEX_PAIR) is None


def analyzed(log, regime):
    """What ``analyze`` checks: the regime, then ``analyze_log`` on the log
    with the series ``analyze`` forms for it."""
    require_regime(log, regime)
    return analyze_log(log, regime, regime_lyapunov(log, regime))


def test_analyze_log_coop_pair_all_pass(coop_headon_log):
    checks = analyzed(coop_headon_log, RegimeKind.COOP_PAIR)
    failed = [c for c in checks if c.failed]
    assert not failed, failed


def test_analyze_log_rejects_mismatched_regime(coop_headon_log):
    with pytest.raises(ValueError, match="^regime mismatch: "):
        analyzed(coop_headon_log, RegimeKind.COOP_VS_ATTACKER)


def test_analyze_log_runs_grazing_check_for_bound_realizing_pair():
    log = run(load_scenario("saturated_headon"))
    checks = analyzed(log, RegimeKind.COOP_PAIR)
    grazing = next(c for c in checks if c.name == "grazing_geometry")
    assert grazing.status == "PASS"
    # not applicable to the unbounded head-on preset
    unbounded = run(load_scenario("coop_headon"))
    names = [c.name for c in analyzed(unbounded, RegimeKind.COOP_PAIR)]
    assert "grazing_geometry" not in names


SPEEDS = st.just(0.0) | st.floats(0.05, 0.4)
BOUNDS = st.none() | st.floats(0.05, 2.0)  # None is null: unbounded


@st.composite
def pair_scenarios(draw):
    """A cooperative robot and a cooperative, non-cooperative, stationary or
    attacking one, 0.5-4 m apart, often head-on with swapped goals, at
    speeds from {0} and [0.05, 0.4], often a common one (0 half the time),
    with ``f_lim`` and ``omega_max`` unbounded or finite (both, half the
    time), sometimes ``omega_max = f_lim / V``, for 20 to 100 steps of 0.05 s."""
    other = draw(st.sampled_from(BEHAVIORS))
    speed = 0.0 if draw(st.booleans()) else draw(st.floats(0.05, 0.4))
    speeds = [speed, 0.0 if other == "stationary" else draw(st.just(speed) | SPEEDS)]
    separation, bearing = draw(st.floats(0.5, 4.0)), draw(st.floats(-math.pi, math.pi))
    x, y = separation * math.cos(bearing), separation * math.sin(bearing)
    robots = [{"id": 1, "x": 0.0, "y": 0.0, "speed": speeds[0]},
              {"id": 2, "x": x, "y": y, "speed": speeds[1], "behavior": other}]
    if draw(st.booleans()):  # head-on, goals swapped
        robots[0].update(heading=bearing, goal=[x, y])
        robots[1].update(heading=bearing + math.pi, goal=[0.0, 0.0])
    else:
        for robot in robots:
            robot.update(heading=draw(st.floats(-math.pi, math.pi)),
                         goal=[draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    if other in ("attacking", "stationary"):
        del robots[1]["goal"]
    if other == "attacking":
        robots[1]["target"] = 1
    bounds = st.floats(0.05, 2.0) if draw(st.booleans()) else BOUNDS
    params = {"lambda": draw(st.floats(0.5, 40.0)), "vortex": draw(st.booleans()),
              "f_lim": draw(bounds), "omega_max": draw(bounds)}
    if params["f_lim"] is not None and speed > 0.0 and draw(st.booleans()):
        params["omega_max"] = params["f_lim"] / speed
    return scenarios.scenario_from_dict({
        "dt": 0.05, "t_max": 0.05 * draw(st.integers(20, 100)), "params": params,
        "robots": robots,
    })


@settings(max_examples=400, deadline=None)
@given(pair_scenarios())
def test_two_robot_runs_analyze_in_every_matching_regime(scenario):
    # what analyze computes, in each regime the run belongs to: analyze
    # reports an ArithmeticError as "cannot analyze", which no valid run of
    # moderate values may reach
    log = run(scenario)
    regimes = [regime for regime in RegimeKind if regime_mismatch(log, regime) is None]
    assert regimes
    for regime in regimes:
        analyzed(log, regime)


def test_closed_loop_gap_on_engine_logs_is_structural(coop_headon_log):
    # engine trajectories track the idealized equations qualitatively only;
    # the quantitative mismatch is order one and does not shrink with dt
    report = closed_loop_errors_from_log(coop_headon_log, RegimeKind.COOP_PAIR)
    assert report is not None
    assert report.max_rel_error > 0.1


def windowed_log(triggered):
    """A hand-made coop_headon log of one step per ``triggered`` flag, on a
    smooth closing trace."""
    steps = range(len(triggered))
    vr = [-0.3 + 0.01 * k + 0.001 * k * k for k in steps]
    vth = [0.1 + 0.02 * k for k in steps]
    pair = PairTrace(
        r=[3.0 - 0.1 * k for k in steps], vr=vr, vth=vth,
        vrel=list(map(math.hypot, vr, vth)), triggered=list(triggered),
    )
    return TrajectoryLog(load_scenario("coop_headon"), t=[0.1 * k for k in steps],
                         pairs={(1, 2): pair})


def window_report(log, lo, hi):
    pair = log.pairs[(1, 2)]
    trace = RelativeTrace(RegimeKind.COOP_PAIR, log.t[lo:hi], pair.r[lo:hi], pair.vr[lo:hi],
                          pair.vth[lo:hi])
    return verify_closed_loop(trace, log.scenario.params)


def test_closed_loop_window_is_the_first_longest_triggered_run():
    log = windowed_log([True] * 8 + [False] + [True] * 8)
    report = closed_loop_errors_from_log(log, RegimeKind.COOP_PAIR)
    # two samples are dropped at each end of the run
    assert report == window_report(log, 2, 6)
    assert report != window_report(log, 11, 15)
    assert report.n_points == 2


def test_closed_loop_window_needs_seven_triggered_steps():
    # seven steps leave three samples, one central difference
    log = windowed_log([False] * 2 + [True] * 7 + [False])
    report = closed_loop_errors_from_log(log, RegimeKind.COOP_PAIR)
    assert report == window_report(log, 4, 7)
    assert report.n_points == 1
    for triggered in ([True] * 6, [True] * 4 + [False] + [True] * 3, [False] * 9, []):
        log = windowed_log(triggered)
        assert closed_loop_errors_from_log(log, RegimeKind.COOP_PAIR) is None


def test_closed_loop_window_with_a_repeated_time_reports_inf():
    # the central difference divides by a zero time span, which gives inf
    # as numpy's array division does, not an exception
    log = windowed_log([True] * 9)
    log.t[4] = log.t[2]
    report = closed_loop_errors_from_log(log, RegimeKind.COOP_PAIR)
    assert report.max_rel_error == math.inf and report.t_worst == log.t[3]

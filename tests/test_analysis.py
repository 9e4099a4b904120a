import math

import numpy as np
import pytest

from vortex_ca.analysis import (
    InfeasibleGeometry,
    RegimeKind,
    analyze_log,
    attacker_standoff,
    closed_loop_rhs,
    collision_course,
    fit_circle,
    grazing_separation,
    lyapunov,
    multi_lyapunov,
    pair_lyapunov_series,
    regime_mismatch,
    required_accel,
    simulate_closed_loop,
    turn_radius,
    verify_closed_loop,
)
from vortex_ca.engine import run
from vortex_ca.fields import PFParams
from vortex_ca.kinematics import BehaviorKind, EngagementState, PlanarVector, RobotState
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
    _, multi2 = lyapunov(RegimeKind.MULTI_ROBOT, r, vr, vth, vrel, PARAMS, n_active=2)
    assert multi2 == pytest.approx(pair_deriv)  # vr < 0 makes -|vr| = vr
    _, single_deriv = lyapunov(RegimeKind.COOP_VS_NONCOOP, r, vr, vth, vrel, PARAMS)
    _, multi1 = lyapunov(RegimeKind.MULTI_ROBOT, r, vr, vth, vrel, PARAMS, n_active=1)
    assert multi1 == pytest.approx(single_deriv)


def test_lyapunov_value_nonnegative():
    rng = np.random.default_rng(11)
    for regime in RegimeKind:
        for _ in range(20):
            r = rng.uniform(0.1, 5.0)
            vr = rng.uniform(-0.4, 0.4)
            vth = rng.uniform(-0.4, 0.4)
            vrel = max(math.hypot(vr, vth), 1e-3)
            value, _ = lyapunov(regime, r, vr, vth, vrel, PARAMS, n_active=1)
            assert value >= 0.0


# ---------------------------------------------------------------------------
# closed-loop integration and the dual-route check


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


def test_closed_loop_regime_windows_are_regime_constant():
    trace = simulate_closed_loop(RegimeKind.COOP_VS_NONCOOP, 3.0, -2 * V, 0.0, PARAMS, dt=1e-4)
    assert all(v < 0.0 for v in trace.vr[:-1])


# ---------------------------------------------------------------------------
# geometric bounds


def test_turn_radius_values():
    assert turn_radius(1.0, 1.0) == 1.0
    assert turn_radius(0.17, 0.0461) == pytest.approx(0.17**2 / 0.0461)
    assert turn_radius(0.17, 0.0461) == pytest.approx(0.6269, abs=1e-4)
    assert turn_radius(0.17, 0.1) == pytest.approx(0.289)


def test_turn_radius_matches_saturated_simulation():
    # oracle: simulate a clamped constant-rate turn and fit the circle
    from vortex_ca.kinematics import propagate

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
    series = multi_lyapunov(log, params)
    pair = log.pairs[(1, 2)]
    for k in range(0, len(log.t), 100):
        if not pair.triggered[k]:
            assert series[k].value == 0.0
            continue
        _, expected = lyapunov(
            RegimeKind.MULTI_ROBOT, pair.r[k], pair.vr[k], pair.vth[k], pair.vrel[k],
            params, n_active=2,
        )
        assert series[k].derivative_analytic == pytest.approx(expected, rel=1e-12)


def test_pair_lyapunov_series_instability_certificate(coop_headon_log):
    series = pair_lyapunov_series(coop_headon_log, (1, 2), RegimeKind.COOP_PAIR,
                                  coop_headon_log.scenario.params)
    numeric = [s.derivative_numeric for s in series]
    # the value dips while closing, then grows after the reciprocal turn
    sign_change = any(a < 0.0 < b for a, b in zip(numeric, numeric[1:]))
    assert sign_change
    assert min(coop_headon_log.pairs[(1, 2)].r) > 0.0


def test_regime_mismatch_detection(coop_headon_log):
    assert regime_mismatch(coop_headon_log, RegimeKind.COOP_PAIR) is None
    assert regime_mismatch(coop_headon_log, RegimeKind.NONVORTEX_PAIR) is not None
    assert regime_mismatch(coop_headon_log, RegimeKind.ATTRACTIVE_ONLY) is not None
    nonvortex_log = run(load_scenario("nonvortex_headon"))
    assert regime_mismatch(nonvortex_log, RegimeKind.COOP_PAIR) is not None
    assert regime_mismatch(nonvortex_log, RegimeKind.NONVORTEX_PAIR) is None


def test_analyze_log_coop_pair_all_pass(coop_headon_log):
    checks = analyze_log(coop_headon_log, RegimeKind.COOP_PAIR,
                         coop_headon_log.scenario.params)
    failed = [c for c in checks if c.failed]
    assert not failed, failed


def test_analyze_log_rejects_mismatched_regime(coop_headon_log):
    with pytest.raises(ValueError):
        analyze_log(coop_headon_log, RegimeKind.COOP_VS_ATTACKER,
                    coop_headon_log.scenario.params)


def test_analyze_log_runs_grazing_check_for_bound_realizing_pair():
    scenario = load_scenario("saturated_headon")
    log = run(scenario)
    checks = analyze_log(log, RegimeKind.COOP_PAIR, scenario.params)
    grazing = next(c for c in checks if c.name == "grazing_geometry")
    assert grazing.status == "PASS"
    # not applicable to the unbounded head-on preset
    unbounded = run(load_scenario("coop_headon"))
    names = [c.name for c in analyze_log(unbounded, RegimeKind.COOP_PAIR,
                                         unbounded.scenario.params)]
    assert "grazing_geometry" not in names


def test_closed_loop_gap_on_engine_logs_is_structural(coop_headon_log):
    # engine trajectories track the idealized equations qualitatively only;
    # the quantitative mismatch is order one and does not shrink with dt
    from vortex_ca.analysis import closed_loop_errors_from_log

    report = closed_loop_errors_from_log(
        coop_headon_log, (1, 2), RegimeKind.COOP_PAIR, coop_headon_log.scenario.params
    )
    assert report is not None
    assert report.max_rel_error > 0.1

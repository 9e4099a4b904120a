"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance is fixed here exactly as specified.  Criterion 3's minimum
separation bound is known to be unattainable under the constant-speed
steering model (see notes in the repository README); its test asserts the
bound as stated and fails honestly.
"""

import json
import math

import numpy as np
import pytest

from vortex_ca.analysis import (
    RegimeKind,
    grazing_separation,
    required_accel,
    simulate_closed_loop,
    turn_radius,
    verify_closed_loop,
    fit_circle,
)
from vortex_ca.cli import main, read_run
from vortex_ca.engine import EVENT_GOAL, EVENT_OVERLAP, EVENT_STOPPED, min_separation, run
from vortex_ca.fields import PFParams, repulsive_components
from vortex_ca.scenarios import load_scenario, scenario_to_dict

V = 0.17


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion:2d} {verdict}: {detail}")


@pytest.fixture(scope="module")
def coop_headon_log():
    return run(load_scenario("coop_headon"))


@pytest.fixture(scope="module")
def attacker_log():
    return run(load_scenario("attacker"))


def test_criterion_01_circle_constraint(coop_headon_log):
    log = coop_headon_log
    assert log.scenario.dt == 0.01
    pair = log.pairs[(1, 2)]
    worst = max(
        abs(pair.vr[k] ** 2 + pair.vth[k] ** 2 - pair.vrel[k] ** 2)
        for k in range(len(log.t))
    )
    report(1, worst < 1e-9, f"max |Vr^2+Vth^2-Vrel^2| = {worst:.3e} (< 1e-9)")
    assert worst < 1e-9


def test_criterion_02_closed_loop_oracle():
    params = PFParams()
    windows = [
        (RegimeKind.COOP_PAIR, 3.0, -2 * V, 0.0, 20.0, 0.05),
        (RegimeKind.COOP_VS_NONCOOP, 3.0, -2 * V, 0.0, 20.0, 0.05),
        (RegimeKind.COOP_VS_ATTACKER, 2.26, -2 * V, 0.0, 5.0, 0.05),
        (RegimeKind.ATTRACTIVE_ONLY, 3.0, -V * math.cos(0.5), -V * math.sin(0.5), 5.0, 0.1),
        # the idealized baseline closing blows up in finite time as r -> 0;
        # the comparison window stops before the singular zone
        (RegimeKind.NONVORTEX_PAIR, 3.0, -2 * V, 0.0, 20.0, 1.0),
    ]
    details = []
    worst = 0.0
    for regime, r0, vr0, vth0, t_max, r_floor in windows:
        trace = simulate_closed_loop(regime, r0, vr0, vth0, params, dt=1e-4,
                                     t_max=t_max, r_floor=r_floor)
        result = verify_closed_loop(trace, params)
        details.append(f"{regime.value}={result.max_rel_error:.2e}")
        worst = max(worst, result.max_rel_error)
    report(2, worst < 1e-3, "finite differences vs closed-loop equations: " + ", ".join(details))
    assert worst < 1e-3


def test_criterion_03_case1_reproduction(coop_headon_log):
    log = coop_headon_log
    scenario = log.scenario
    robots = scenario.sorted_robots()
    assert {r.speed for r in robots} == {0.17}
    assert scenario.params.lam == 10.0 and scenario.params.kappa == 10.0
    assert {r.body_radius for r in robots} == {0.175}
    pair = log.pairs[(1, 2)]
    assert pair.r[0] == pytest.approx(3.0)

    goals = sorted(e.ids[0] for e in log.events if e.kind == EVENT_GOAL)
    trace_start = (pair.vr[0] / V, pair.vth[0] / V)
    release = next(k for k in range(len(log.t)) if pair.vr[k] >= 0.0)
    trace_end = (pair.vr[release] / V, pair.vth[release] / V)
    sign_ok = True
    for k in range(len(log.t)):
        if not pair.triggered[k]:
            continue
        o1, o2 = log.robots[1].omega[k], log.robots[2].omega[k]
        if abs(o1) > 1e-12 and abs(o2) > 1e-12 and math.copysign(1, o1) != math.copysign(1, o2):
            sign_ok = False
    sep = min_separation(log, 1, 2)

    clauses_ok = (
        goals == [1, 2]
        and abs(trace_start[0] + 2.0) < 0.05
        and abs(trace_start[1]) < 0.05
        and abs(trace_end[0]) < 0.05
        and abs(trace_end[1] - 2.0) < 0.05
        and sign_ok
        and sep > 0.35
    )
    report(
        3,
        clauses_ok,
        f"goals={goals}, trace {trace_start[0]:.2f},{trace_start[1]:.2f} -> "
        f"{trace_end[0]:.2f},{trace_end[1]:.2f}, same turn sign={sign_ok}, "
        f"min separation={sep:.4f} (required > 0.35)",
    )
    assert goals == [1, 2]
    assert trace_start[0] == pytest.approx(-2.0, abs=0.05)
    assert trace_start[1] == pytest.approx(0.0, abs=0.05)
    assert trace_end[0] == pytest.approx(0.0, abs=0.05)
    assert trace_end[1] == pytest.approx(2.0, abs=0.05)
    assert sign_ok
    assert sep > 0.35, (
        f"min separation {sep:.4f} <= 0.35 m: constant-speed unicycles cannot "
        "realize the idealized closed-loop escape at lambda=kappa=10 (the "
        "ideal escape needs relative speeds two orders beyond 2V); the "
        "steering-model ceiling is ~0.31 m. See the repository notes."
    )


def test_criterion_04_lambda_ordering(tmp_path):
    spec = {
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.lambda", "values": [5.0, 10.0, 15.0]}],
        "metrics": ["min_separation"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    seps = [float(row.split(",")[1]) for row in rows]
    ordered = seps[0] < seps[1] < seps[2]
    report(4, ordered, f"min separation over lambda {{5,10,15}}: "
           f"{seps[0]:.4f} < {seps[1]:.4f} < {seps[2]:.4f}: {ordered}")
    assert ordered


def test_criterion_05_nonvortex_failure(tmp_path):
    out_nv = tmp_path / "nonvortex"
    code_nv = main(["run", "nonvortex_headon", "-o", str(out_nv)])
    log_nv = read_run(str(out_nv))
    worst_vth = max(abs(v) for v in log_nv.pairs[(1, 2)].vth)

    vortex_dict = scenario_to_dict(load_scenario("nonvortex_headon"))
    vortex_dict["params"]["vortex"] = True
    vortex_path = tmp_path / "vortex_twin.json"
    vortex_path.write_text(json.dumps(vortex_dict))
    code_v = main(["run", str(vortex_path), "-o", str(tmp_path / "vortex")])

    ok = code_nv == 2 and worst_vth < 1e-9 and code_v == 0
    report(5, ok, f"baseline law: exit={code_nv} (want 2), max |Vth|={worst_vth:.2e}; "
           f"identical scenario with vortex: exit={code_v} (want 0)")
    assert code_nv == 2
    assert worst_vth < 1e-9
    assert code_v == 0


def test_criterion_06_reciprocity(coop_headon_log):
    log = coop_headon_log
    pair = log.pairs[(1, 2)]
    t1, t2 = log.robots[1], log.robots[2]
    worst = 0.0
    steps = 0
    for k in range(len(log.t)):
        if not pair.triggered[k]:
            continue
        steps += 1
        worst = max(worst, abs(t1.rep_fx[k] + t2.rep_fx[k]), abs(t1.rep_fy[k] + t2.rep_fy[k]))
    ok = steps > 0 and worst <= 1e-12
    report(6, ok, f"max |F_rep_1 + F_rep_2| = {worst:.3e} over {steps} triggered steps (<= 1e-12)")
    assert steps > 0
    assert worst <= 1e-12


def test_criterion_07_saturated_geometry():
    scenario = load_scenario("saturated_headon")
    params = scenario.params
    half_sep = 0.5
    expected_flim = 1.1 * required_accel(RegimeKind.COOP_PAIR, 0.175, V, half_sep)
    assert params.f_lim == pytest.approx(expected_flim)

    log = run(scenario)
    sep = min_separation(log, 1, 2)
    r_turn = turn_radius(V, params.f_lim)
    predicted = 2.0 * grazing_separation(r_turn, half_sep)
    sep_err = abs(sep - predicted) / predicted

    omega = np.asarray(log.robots[1].omega)
    clamped = np.abs(np.abs(omega) - params.omega_max) < 1e-12
    end = 0
    while end < len(clamped) and clamped[end]:
        end += 1
    _, _, fitted = fit_circle(np.asarray(log.robots[1].x[:end]), np.asarray(log.robots[1].y[:end]))
    radius_err = abs(fitted - r_turn) / r_turn

    ok = sep_err < 0.02 and radius_err < 0.02
    report(7, ok, f"min separation {sep:.5f} vs 2d={predicted:.5f} ({sep_err*100:.2f}%), "
           f"fitted turn radius {fitted:.5f} vs {r_turn:.5f} ({radius_err*100:.2f}%)")
    assert sep_err < 0.02
    assert radius_err < 0.02


def test_criterion_08_attacker_standoff(attacker_log):
    log = attacker_log
    params = log.scenario.params
    pair = log.pairs[(1, 2)]
    assert pair.r[0] == pytest.approx(2.26)

    stop_t = next(e.t for e in log.events if e.kind == EVENT_STOPPED and e.ids == (1,))
    early = [e for e in log.events if e.kind == EVENT_OVERLAP and e.t < stop_t]

    worst = math.inf
    for k in range(len(log.t)):
        if not pair.triggered[k] or pair.vth[k] < 0.0:
            continue
        deriv = 3.0 * params.lam * pair.vr[k] ** 2 * pair.vth[k] / (pair.vrel[k] * pair.r[k] ** 2)
        worst = min(worst, deriv)

    ok = not early and worst >= -1e-12
    report(8, ok, f"overlaps before the evader stopped: {len(early)}; "
           f"min Lyapunov derivative on triggered steps with Vth >= 0: {worst:.3e}")
    assert not early
    assert worst >= -1e-12


def test_criterion_09_triangle_roundabout():
    log = run(load_scenario("coop_triangle"))
    radius = {r.id: r.body_radius for r in log.scenario.robots}
    seps = {key: min_separation(log, *key) for key in log.pair_ids()}
    clearance_ok = all(
        sep > radius[key[0]] + radius[key[1]] for key, sep in seps.items()
    )

    mutual = [
        k for k in range(len(log.t))
        if all(trace.triggered[k] for trace in log.pairs.values())
    ]
    sign_ok = len(mutual) > 0
    for k in mutual:
        signs = {
            math.copysign(1.0, log.robots[rid].omega[k])
            for rid in log.robot_ids()
            if abs(log.robots[rid].omega[k]) > 1e-12
        }
        if len(signs) > 1:
            sign_ok = False
    ok = clearance_ok and sign_ok
    report(9, ok, f"pairwise min separations {sorted(round(s, 4) for s in seps.values())} "
           f"(> 0.35 each), common rotation sense over {len(mutual)} mutual steps: {sign_ok}")
    assert clearance_ok
    assert sign_ok


def test_criterion_10_gradient_consistency():
    lam = 10.0
    params = PFParams(lam=lam)
    rng = np.random.default_rng(42)
    h = 1e-6

    def field_value(x, y, vx, vy):
        r = math.hypot(x, y)
        vr = (vx * x + vy * y) / r
        return lam * vr * vr / (math.hypot(vx, vy) * r)

    worst = 0.0
    count = 0
    while count < 100:
        x, y = rng.uniform(-3, 3, 2)
        pa, pb = rng.uniform(-math.pi, math.pi, 2)
        r = math.hypot(x, y)
        if not 0.5 < r < 5.0:
            continue
        vx = V * math.cos(pb) - V * math.cos(pa)
        vy = V * math.sin(pb) - V * math.sin(pa)
        ux, uy = x / r, y / r
        vr = vx * ux + vy * uy
        if math.hypot(vx, vy) < 1e-3 or vr >= -1e-3:
            continue
        vth = -vx * uy + vy * ux
        fx, fy = repulsive_components(r, ux, uy, vr, vth, math.hypot(vr, vth), params)
        gx = (field_value(x + h, y, vx, vy) - field_value(x - h, y, vx, vy)) / (2 * h)
        gy = (field_value(x, y + h, vx, vy) - field_value(x, y - h, vx, vy)) / (2 * h)
        scale = max(abs(gx), abs(gy), 1e-12)
        worst = max(worst, abs(fx - (-gy)) / scale, abs(fy - gx) / scale)
        count += 1
    report(10, worst < 1e-5, f"analytic vs central-difference gradients over "
           f"{count} random triggered states: max rel err {worst:.3e} (< 1e-5)")
    assert worst < 1e-5


def test_criterion_11_determinism_and_order_invariance(tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", "coop_headon", "-o", str(out_a)]) in (0, 2)
    assert main(["run", "coop_headon", "-o", str(out_b)]) in (0, 2)

    permuted = scenario_to_dict(load_scenario("coop_headon"))
    permuted["robots"] = list(reversed(permuted["robots"]))
    permuted_path = tmp_path / "permuted.json"
    permuted_path.write_text(json.dumps(permuted))
    assert main(["run", str(permuted_path), "-o", str(out_c)]) in (0, 2)

    same = True
    for name in ("trajectory.csv", "pairs.csv", "events.csv"):
        bytes_a = (out_a / name).read_bytes()
        same = same and bytes_a == (out_b / name).read_bytes()
        same = same and bytes_a == (out_c / name).read_bytes()
    report(11, same, "byte-identical logs across repeat runs and robot-order permutation")
    assert same

import copy
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings

from scenario_strategies import stop_scenarios
from vortex_ca.engine import (
    EVENT_GOAL,
    EVENT_OVERLAP,
    EVENT_STOPPED,
    Scenario,
    ScenarioError,
    min_separation,
    run,
)
from vortex_ca.fields import PFParams
from vortex_ca.kinematics import BehaviorKind, PlanarVector, RobotState, SimulationFault
from vortex_ca.scenarios import PRESETS, load_scenario, scenario_from_dict

V = 0.17


def coop(idx, x, y, heading, goal, radius=0.175):
    return RobotState(
        id=idx, position=PlanarVector(x, y), heading=heading, speed=V,
        body_radius=radius, behavior=BehaviorKind.COOPERATIVE, goal=PlanarVector(*goal),
    )


def two_robot_scenario(**overrides):
    fields = dict(
        robots=(coop(1, -1.5, 0.0, 0.0, (1.5, 0.0)), coop(2, 1.5, 0.0, math.pi, (-1.5, 0.0))),
        params=PFParams(),
        dt=0.01,
        t_max=60.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# one step of a run: index 0 of each trace is the t = 0 evaluation, index 1
# the state after one step


def one_step(robots, params=PFParams()):
    return run(Scenario(robots=tuple(robots), params=params, dt=0.01, t_max=0.01))


def test_step_straight_toward_goal():
    log = one_step([coop(1, 0.0, 0.0, 0.0, (5.0, 0.0))])
    trace = log.robots[1]
    assert trace.x[1] == pytest.approx(V * 0.01)
    assert trace.y[1] == 0.0
    assert trace.omega[0] == 0.0


def test_step_head_on_pair_turns_same_direction():
    a = coop(1, -1.5, 0.0, 0.0, (1.5, 0.0))
    b = coop(2, 1.5, 0.0, math.pi, (-1.5, 0.0))
    log = one_step([a, b])
    o1, o2 = log.robots[1].omega[0], log.robots[2].omega[0]
    # vortex sign convention turns both robots to their right
    assert o1 < 0.0 and o2 < 0.0
    assert log.pairs[(1, 2)].triggered[0]


def test_step_stationary_robot_unchanged():
    obstacle = RobotState(
        id=3, position=PlanarVector(1.0, 1.0), heading=0.4, speed=0.0,
        body_radius=0.175, behavior=BehaviorKind.STATIONARY,
    )
    trace = one_step([obstacle]).robots[3]
    assert (trace.x[1], trace.y[1]) == (obstacle.position.x, obstacle.position.y)
    assert trace.phi[1] == obstacle.heading


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_run_rejects_bad_dt(dt):
    robot = coop(1, 0.0, 0.0, 0.0, (5.0, 0.0))
    with pytest.raises(ScenarioError, match="dt must be"):
        run(Scenario(robots=(robot,), params=PFParams(), dt=dt, t_max=1.0))


# ---------------------------------------------------------------------------
# full runs


def test_run_stop_rule_and_events():
    scn = Scenario(
        robots=(coop(1, 0.0, 0.0, 0.0, (1.0, 0.0)),),
        params=PFParams(),
        dt=0.01,
        t_max=30.0,
    )
    log = run(scn)
    goal_events = [e for e in log.events if e.kind == EVENT_GOAL]
    stop_events = [e for e in log.events if e.kind == EVENT_STOPPED]
    assert len(goal_events) == 1 and len(stop_events) == 1
    assert goal_events[0].ids == (1,)
    # stops once within 0.2 m of the goal, then stays put as an obstacle
    expected_t = (1.0 - 0.2) / V
    assert goal_events[0].t == pytest.approx(expected_t, abs=0.05)
    assert not log.robots[1].active[-1]
    assert log.t[-1] < 10.0  # terminated well before t_max


def test_run_body_overlap_is_event_not_termination():
    log = run(load_scenario("nonvortex_headon"))
    overlap = [e for e in log.events if e.kind == EVENT_OVERLAP]
    assert len(overlap) == 1
    # both robots still completed their runs to the swapped goals
    assert sum(1 for e in log.events if e.kind == EVENT_GOAL) == 2


def test_min_separation_diverging_pair():
    scn = Scenario(
        robots=(coop(1, 0.0, 0.0, math.pi, (-2.0, 0.0)), coop(2, 1.0, 0.0, 0.0, (3.0, 0.0))),
        params=PFParams(),
        dt=0.01,
        t_max=30.0,
    )
    log = run(scn)
    assert min_separation(log, 1, 2) == pytest.approx(1.0)
    assert min_separation(log, 2, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        min_separation(log, 1, 9)


def test_run_deterministic():
    scn = load_scenario("coop_headon")
    log_a, log_b = run(scn), run(scn)
    assert log_a.t == log_b.t
    for rid in log_a.robot_ids():
        assert log_a.robots[rid].x == log_b.robots[rid].x
        assert log_a.robots[rid].y == log_b.robots[rid].y
        assert log_a.robots[rid].omega == log_b.robots[rid].omega
    for key in log_a.pair_ids():
        assert log_a.pairs[key].r == log_b.pairs[key].r


def test_run_invariant_to_robot_order():
    base = load_scenario("coop_triangle")
    permuted = Scenario(
        robots=tuple(reversed(base.robots)),
        params=base.params,
        dt=base.dt,
        t_max=base.t_max,
        name=base.name,
    )
    log_a, log_b = run(base), run(permuted)
    assert log_a.t == log_b.t
    for rid in log_a.robot_ids():
        assert log_a.robots[rid].x == log_b.robots[rid].x
        assert log_a.robots[rid].y == log_b.robots[rid].y


def test_constant_speed_straight_run():
    # finite-difference speed along the straight segment equals V to 1e-6
    scn = Scenario(
        robots=(coop(1, 0.0, 0.0, 0.0, (3.0, 0.0)),),
        params=PFParams(),
        dt=0.01,
        t_max=30.0,
    )
    log = run(scn)
    tr = log.robots[1]
    for k in range(1, len(log.t) - 1):
        if not tr.active[k + 1]:
            break
        fd = math.hypot(tr.x[k + 1] - tr.x[k], tr.y[k + 1] - tr.y[k]) / (log.t[k + 1] - log.t[k])
        assert abs(fd - V) / V < 1e-6


def test_constant_speed_while_turning():
    # per-step chord length matches the constant-speed arc model
    # |chord| = V * dt * sinc(omega*dt/2) for the commanded turn rate
    log = run(load_scenario("coop_headon"))
    tr = log.robots[1]
    dt = log.scenario.dt
    for k in range(0, len(log.t) - 2):
        if not tr.active[k + 1]:
            break
        chord = math.hypot(tr.x[k + 1] - tr.x[k], tr.y[k + 1] - tr.y[k])
        half = 0.5 * tr.omega[k] * dt
        expected = V * dt * (math.sin(half) / half if half != 0.0 else 1.0)
        assert abs(chord - expected) / (V * dt) < 1e-6


def test_no_retrigger_after_release():
    log = run(load_scenario("coop_headon"))
    pair = log.pairs[(1, 2)]
    released = False
    for k in range(len(log.t)):
        if not released and pair.vr[k] >= 0.0:
            released = True
        elif released:
            assert not pair.triggered[k]
    assert released


def test_inactive_robot_remains_obstacle():
    # robot 2 stops at its goal directly in robot 1's path; robot 1 must
    # still trigger on the stopped robot and maneuver around it
    scn = Scenario(
        robots=(
            coop(1, -2.0, 0.0, 0.0, (2.0, 0.0)),
            coop(2, -0.5, 0.1, 0.0, (-0.4, 0.1)),
        ),
        params=PFParams(),
        dt=0.01,
        t_max=60.0,
    )
    log = run(scn)
    stop_t = next(e.t for e in log.events if e.kind == EVENT_STOPPED and e.ids == (2,))
    pair = log.pairs[(1, 2)]
    post_stop_triggered = [
        pair.triggered[k] for k in range(len(log.t)) if log.t[k] > stop_t
    ]
    assert any(post_stop_triggered)
    assert min_separation(log, 1, 2) > 0.0


def test_scenario_validation_collects_all_errors():
    bad = Scenario(
        robots=(
            coop(1, 0.0, 0.0, 0.0, (1.0, 0.0)),
            coop(1, 1.0, 0.0, 0.0, (0.0, 0.0)),
            RobotState(
                id=3, position=PlanarVector(2.0, 0.0), heading=0.0, speed=V,
                body_radius=0.1, behavior=BehaviorKind.ATTACKING, attack_target=99,
            ),
        ),
        params=PFParams(),
        dt=0.01,
        t_max=-1.0,
    )
    errors = bad.validation_errors()
    text = "\n".join(errors)
    assert "duplicate robot ids" in text
    assert "attack target 99" in text
    assert "t_max" in text
    with pytest.raises(ScenarioError):
        bad.validate()


def test_record_stride_thins_log_but_keeps_terminal_state():
    scn = two_robot_scenario(record_stride=10)
    log10 = run(scn)
    log1 = run(two_robot_scenario())
    assert len(log10.t) < len(log1.t)
    assert log10.t[-1] == log1.t[-1]
    assert log10.robots[1].x[-1] == log1.robots[1].x[-1]


def test_random_scenarios_run_clean_and_hold_invariants():
    # fuzz: mixed behaviors and placements must never break the circle
    # identity, constant speed, or determinism
    import numpy as np

    rng = np.random.default_rng(2024)
    for _ in range(6):
        robots = []
        n = int(rng.integers(2, 5))
        for idx in range(1, n + 1):
            x, y = rng.uniform(-1.6, 1.6, 2)
            kind = rng.choice(["coop", "coop", "noncoop", "stationary"])
            if kind == "stationary":
                robots.append(RobotState(
                    id=idx, position=PlanarVector(float(x), float(y)),
                    heading=float(rng.uniform(-math.pi, math.pi)), speed=0.0,
                    body_radius=0.05, behavior=BehaviorKind.STATIONARY,
                ))
            else:
                behavior = (BehaviorKind.COOPERATIVE if kind == "coop"
                            else BehaviorKind.NON_COOPERATIVE)
                gx, gy = rng.uniform(-1.6, 1.6, 2)
                robots.append(RobotState(
                    id=idx, position=PlanarVector(float(x), float(y)),
                    heading=float(rng.uniform(-math.pi, math.pi)), speed=V,
                    body_radius=0.05, behavior=behavior, goal=PlanarVector(float(gx), float(gy)),
                ))
        scn = Scenario(robots=tuple(robots), params=PFParams(), dt=0.01, t_max=3.0)
        log_a, log_b = run(scn), run(scn)
        for key, trace in log_a.pairs.items():
            for k in range(len(log_a.t)):
                assert abs(trace.vr[k] ** 2 + trace.vth[k] ** 2 - trace.vrel[k] ** 2) < 1e-9
            assert trace.r == log_b.pairs[key].r


@settings(max_examples=200, deadline=None)
@given(stop_scenarios())
def test_fewest_steps_never_exceed_the_steps_run(scenario):
    try:
        log = run(scenario)
    except SimulationFault:
        assume(False)
    steps = len(log.t) - 1  # every step is recorded, the first at t = 0
    assert scenario.fewest_steps() <= steps <= scenario.n_steps()


def test_fewest_steps_of_the_presets():
    # each preset's last gated robot to arrive needs at least this many
    # steps; saturated_headon's goals lie 200 m away, beyond t_max
    fewest = {name: load_scenario(name).fewest_steps() for name in PRESETS}
    assert fewest == {"coop_headon": 1647, "coop_triangle": 1205, "noncoop_headon": 1647,
                      "attacker": 1211, "nonvortex_headon": 1647, "attractive_only": 1647,
                      "saturated_headon": 8000}
    steps = {name: len(run(load_scenario(name)).t) - 1 for name in ("attractive_only", "attacker")}
    assert steps == {"attractive_only": 1649, "attacker": 1385}


def test_attacker_pursuit_ends_with_capture_after_stop():
    log = run(load_scenario("attacker"))
    stop_t = next(e.t for e in log.events if e.kind == EVENT_STOPPED and e.ids == (1,))
    overlap_t = [e.t for e in log.events if e.kind == EVENT_OVERLAP]
    assert overlap_t and all(t >= stop_t for t in overlap_t)
    # the attacker finally stops on top of its stopped target, ending the run
    assert log.t[-1] < log.scenario.t_max


# ---------------------------------------------------------------------------
# Metamorphic relations: a rigid motion of the whole scenario moves the run
# with it.  The same floats cannot come out (the positions are different
# numbers), so pair distances agree to a tolerance; step times, events and
# trigger series must agree exactly.  The largest |delta r| measured over the
# cases below is 2.6e-12 m (saturated_headon, 8001 steps, 0.3 rad); the
# other presets stay at or below 1.6e-13 m.

R_TOL = 1e-9  # m


def transformed(scenario, angle=0.0, dx=0.0, dy=0.0):
    """The scenario rotated about the origin by ``angle``, then translated by
    (dx, dy): every position, goal and heading."""
    c, s = math.cos(angle), math.sin(angle)

    def move(p):
        return None if p is None else PlanarVector(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy)

    robots = tuple(
        replace(r, position=move(r.position), goal=move(r.goal), heading=r.heading + angle)
        for r in scenario.robots
    )
    return replace(scenario, robots=robots)


def max_r_gap(log, other):
    """Largest |delta r| over every pair and every step the two logs share."""
    gaps = (
        abs(a - b)
        for key, trace in log.pairs.items()
        for a, b in zip(trace.r, other.pairs[key].r)
    )
    return max(gaps, default=0.0)


@pytest.mark.parametrize("motion", [
    {"dx": 0.75, "dy": -0.5}, {"dx": 3.0, "dy": 2.0}, {"angle": 0.3}, {"angle": 1.1},
], ids=["translate_small", "translate_large", "rotate_0.3", "rotate_1.1"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_rigid_motion_moves_the_run(preset, motion):
    scenario = load_scenario(preset)
    log = run(scenario)
    moved = run(transformed(scenario, **motion))
    assert moved.t == log.t
    assert moved.events == log.events
    assert moved.pairs.keys() == log.pairs.keys()
    for key, trace in log.pairs.items():
        assert moved.pairs[key].triggered == trace.triggered, f"pair {key}"
    assert max_r_gap(log, moved) <= R_TOL


def test_per_component_saturation_is_not_rotation_invariant():
    # Saturation clips the x and y components of the repulsive input apart,
    # so it acts along the world axes and a rotated run differs.  No preset
    # reaches that branch with r_star > 0; here r_star resolves to about
    # 8.25 m, beyond the 3 m start, so the branch is live from the first step.
    # Measured: the rotated run's pair distance differs by up to 2.6e-3 m.
    document = copy.deepcopy(PRESETS["coop_headon"])
    document["params"]["f_lim"] = 0.05  # the preset leaves r_star to resolve from it
    scenario = scenario_from_dict(document)
    assert scenario.params.r_star == pytest.approx(8.25, abs=0.01)
    log = run(scenario)
    pair = log.pairs[(1, 2)]
    assert any(trig and r <= scenario.params.r_star for r, trig in zip(pair.r, pair.triggered))
    assert max_r_gap(log, run(transformed(scenario, angle=0.3))) > 1e-4

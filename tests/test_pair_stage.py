"""The numpy pair stage against the scalar pair stage, and the scalar pair
stage against a per-view reference.

Swarms of at least ``engine._ARRAY_MIN_ROBOTS`` robots run the pair stage
(engagements and summed repulsive inputs) on numpy arrays; smaller ones run
the scalar loops.  The two must give the same bits, so every comparison here
is exact: pair series and sums through ``float.hex`` (which also tells +0.0
from -0.0), whole runs through ``log_bits``, and faults by class and
message.
"""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from common_runs import log_bits, ring
from test_engine_reference import engagement, mixed_scenario, total_force_from_engagements
from vortex_ca import engine
from vortex_ca.engine import Scenario, _Swarm, run
from vortex_ca.fields import PFParams
from vortex_ca.kinematics import (
    BehaviorKind,
    CollisionSingularity,
    PlanarVector,
    RobotState,
    SimulationFault,
)
from vortex_ca.scenarios import PRESETS, load_scenario, scenario_from_dict

KINDS = ("cooperative", "stationary", "attacking", "noncooperative", "inactive")
coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def robot_specs(draw, n):
    # Robots drawn with the fleet heading and speed move in parallel with
    # each other: their pairs have vrel = 0 exactly.  A repeated position is
    # dropped, so a swarm may have fewer than n robots.  The pair stages read
    # no goal and no attack target, so neither is drawn: each robot's goal
    # is its antipode and an attacker targets the next robot.
    fleet = (draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.05, 0.4)))
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    positions = list(dict.fromkeys(positions))
    assume(len(positions) >= 2)
    specs = []
    for k, (x, y) in enumerate(positions):
        kind = draw(st.sampled_from(KINDS))
        if draw(st.booleans()):
            heading, speed = fleet
        else:
            heading, speed = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 0.4))
        target = (k + 1) % len(positions) + 1
        specs.append((k + 1, x, y, heading, speed, kind, target, (-x, -y)))
    return specs


def make_robot(rid, x, y, heading, speed, kind, target, goal):
    common = dict(id=rid, position=PlanarVector(x, y), heading=heading, body_radius=0.1)
    if kind == "stationary":
        return RobotState(speed=0.0, behavior=BehaviorKind.STATIONARY, **common)
    if kind == "attacking":
        return RobotState(speed=speed, behavior=BehaviorKind.ATTACKING, attack_target=target,
                          **common)
    if kind == "inactive":
        return RobotState(speed=0.0, behavior=BehaviorKind.COOPERATIVE,
                          goal=PlanarVector(*goal), active=False, **common)
    behavior = BehaviorKind(kind)
    return RobotState(speed=speed, behavior=behavior, goal=PlanarVector(*goal), **common)


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 40))
    robots = tuple(make_robot(*spec) for spec in draw(robot_specs(n)))
    saturate = draw(st.booleans())
    params = PFParams(
        lam=draw(st.floats(0.0, 50.0)),
        vortex=draw(st.booleans()),
        f_lim=draw(st.floats(0.1, 5.0)) if saturate else math.inf,
        # r_star up to the size of the field, so saturation engages on many views
        r_star=draw(st.floats(0.0, 4.0)) if saturate else 0.0,
    )
    return robots, params


def pair_state(swarm):
    """Everything the pair stage leaves for the later stages and the log."""
    floats = [swarm.r, swarm.vr, swarm.vth, swarm.vrel, swarm.rep_x, swarm.rep_y]
    return (
        [[value.hex() for value in series] for series in floats],
        [type(value) for value in swarm.trig],
        swarm.trig,
        [(type(f), str(f)) if f is not None else None for f in swarm.fault],
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_array_pair_stage_matches_scalar_stage(world):
    # Each stage on a fresh swarm, so neither reads what the other left ...
    scalar, array = _Swarm(*world), _Swarm(*world)
    scalar._scalar_pair_stage()
    array._array_pair_stage()
    assert type(scalar.trig) is list and type(array.trig) is list
    assert pair_state(array) == pair_state(scalar)
    # ... and the array stage again over what the scalar stage left.
    scalar._array_pair_stage()
    assert type(scalar.trig) is list
    assert pair_state(scalar) == pair_state(array)


def test_pair_stage_dispatch_follows_threshold():
    threshold = engine._ARRAY_MIN_ROBOTS
    for n, stage in ((threshold - 1, "_scalar_pair_stage"), (threshold, "_array_pair_stage")):
        swarm = _Swarm(ring_scenario(n).sorted_robots(), PFParams())
        assert swarm.pair_stage.__func__ is getattr(_Swarm, stage)


def run_both(monkeypatch, scenario):
    """Run a scenario once on each pair stage; each result is its log or the
    (class, message) of what it raised."""
    results = []
    for threshold in (10**9, 2):
        monkeypatch.setattr(engine, "_ARRAY_MIN_ROBOTS", threshold)
        try:
            results.append(run(scenario))
        except (CollisionSingularity, SimulationFault) as exc:
            results.append((type(exc), str(exc)))
    return results


@pytest.mark.parametrize("name", ["mixed"] + sorted(PRESETS))
def test_run_on_array_stage_matches_scalar_engine(monkeypatch, name):
    scenario = mixed_scenario() if name == "mixed" else load_scenario(name)
    scalar, array = run_both(monkeypatch, scenario)
    assert log_bits(array) == log_bits(scalar)


def ring_scenario(n, **ring_args):
    """``common_runs.ring(n)`` parsed, with bodies of 0.1 m, t_max 8 s and
    the default scenario name unless ``ring_args`` set them."""
    return scenario_from_dict(ring(n, **{"body_radius": 0.1, "t_max": 8.0, "name": "scenario",
                                         **ring_args}))


def test_identical_positions_raise_the_same_error(monkeypatch):
    base = ring_scenario(16)
    robots = list(base.robots)
    # Two coincident pairs; (2, 14) comes first in upper-triangle order.
    for rid, twin in ((10, 5), (14, 2)):
        robots[rid - 1] = RobotState(
            id=rid, position=robots[twin - 1].position, heading=0.3, speed=0.17,
            body_radius=0.1, behavior=BehaviorKind.COOPERATIVE, goal=PlanarVector(0.0, 0.0),
        )
    scalar, array = run_both(monkeypatch, Scenario(robots=tuple(robots), params=base.params))
    assert scalar == array == (CollisionSingularity, "robots 2 and 14 at identical positions")


def test_non_finite_pair_states_raise_the_same_error(monkeypatch):
    # Antipodal robots 3 and 11 drive apart at 1e308 m/s: their relative
    # velocity overflows, so the pair's vrel is not finite (every other
    # pair's is).  No robot is cooperative, so no input is formed that
    # could hand the step to the scalar stage on its own.
    base = ring_scenario(16)
    robots = [replace(robot, behavior=BehaviorKind.NON_COOPERATIVE) for robot in base.robots]
    for rid, heading in ((3, 0.0), (11, math.pi)):
        robots[rid - 1] = replace(robots[rid - 1], heading=heading, speed=1e308)
    scalar, array = run_both(monkeypatch, Scenario(robots=tuple(robots), params=base.params))
    assert scalar == array
    assert scalar[0] is SimulationFault
    assert scalar[1].startswith("robots 3 and 11: non-finite pair state (r=")


def test_overflowing_views_raise_the_same_error(monkeypatch):
    scenario = ring_scenario(16, radius=1.0, lam=1e308)
    scalar, array = run_both(monkeypatch, scenario)
    assert scalar == array
    assert scalar[0] is SimulationFault
    assert scalar[1].startswith("non-finite vector components")
    # A view itself overflows (not only a robot's sum), and the pair stage
    # defers it to that robot.
    swarm = _Swarm(scenario.sorted_robots(), scenario.params)
    swarm._array_pair_stage()
    assert any(fault is not None for fault in swarm.fault)


def test_underflowing_views_raise_the_same_error(monkeypatch):
    # Robots 3 and 9 meet head-on 1e-170 m apart at the ring's centre, where
    # vrel * r * r underflows to 0.0: both stages report it as robot 3's fault.
    base = ring_scenario(16)
    robots = list(base.robots)
    for rid, x, heading in ((3, 0.0, 0.0), (9, 1e-170, math.pi)):
        robots[rid - 1] = RobotState(
            id=rid, position=PlanarVector(x, 0.0), heading=heading, speed=0.17,
            body_radius=0.1, behavior=BehaviorKind.COOPERATIVE, goal=PlanarVector(-x, 2.0),
        )
    scalar, array = run_both(monkeypatch, Scenario(robots=tuple(robots), params=base.params))
    assert scalar == array == (
        SimulationFault, "robot 3: repulsive input divides by zero at separation 1e-170 m"
    )


def test_parallel_ring_runs_without_numpy_warnings(monkeypatch):
    scenario = ring_scenario(16, heading=0.4, t_max=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar, array = run_both(monkeypatch, scenario)
    assert all(trace.vrel[0] == 0.0 for trace in array.pairs.values())
    assert not any(any(trace.triggered) for trace in array.pairs.values())
    assert log_bits(array) == log_bits(scalar)


def test_non_closing_swarm_matches_scalar_bit_for_bit(monkeypatch):
    # No pair of a parallel ring is triggered, so every sum the array stage
    # forms is the +0.0 its accumulation starts from, as in the scalar stage.
    scenario = ring_scenario(engine._ARRAY_MIN_ROBOTS, heading=-2.0, t_max=1.0)
    scalar, array = run_both(monkeypatch, scenario)
    assert not any(any(trace.triggered) for trace in array.pairs.values())
    assert log_bits(array) == log_bits(scalar)
    assert {value.hex() for trace in array.robots.values() for value in trace.rep_fx} == {
        0.0.hex()
    }


# ---------------------------------------------------------------------------
# The pair rule against an independent oracle: each robot's own views summed
# by the reference engine's total_force_from_engagements, one
# repulsive_components call per triggered view, in ascending neighbour order.


def reference_outcomes(robots, params):
    """Per robot in id order: the hex of its summed repulsive input, or the
    (class, message) of the fault its own views raise."""
    pairs = {
        (a.id, b.id): engagement(a, b, params.eps_v)
        for k, a in enumerate(robots) for b in robots[k + 1:]
    }
    outcomes = []
    for robot in robots:
        if not (robot.active and robot.behavior is BehaviorKind.COOPERATIVE):
            outcomes.append((0.0.hex(), 0.0.hex()))
            continue
        others = [other for other in robots if other is not robot]
        views = {}
        for other in others:
            eng = pairs[(min(robot.id, other.id), max(robot.id, other.id))]
            views[other.id] = eng if eng.i == robot.id else eng.flipped()
        try:
            _, rep = total_force_from_engagements(robot, others, views, params)
        except SimulationFault as exc:
            outcomes.append((SimulationFault, str(exc)))
            continue
        except ZeroDivisionError:
            # the first triggered view whose vrel * r * r underflowed
            r = next(eng.r for eng in (views[o.id] for o in others)
                     if eng.triggered and eng.vrel * eng.r * eng.r == 0.0)
            outcomes.append((SimulationFault, f"robot {robot.id}: repulsive input divides by "
                                              f"zero at separation {r!r} m"))
            continue
        outcomes.append((rep.x.hex(), rep.y.hex()))
    return outcomes


def scalar_outcomes(robots, params):
    swarm = _Swarm(robots, params)
    swarm._scalar_pair_stage()
    outcomes = []
    for rep_x, rep_y, fault in zip(swarm.rep_x, swarm.rep_y, swarm.fault):
        if fault is not None:
            outcomes.append((type(fault), str(fault)))
        elif not (math.isfinite(rep_x) and math.isfinite(rep_y)):
            # finite inputs whose sum overflows: the robot stage's finite
            # check reports the total, which is the sum itself at kappa = 0
            outcomes.append((SimulationFault, f"non-finite vector components ({rep_x}, {rep_y})"))
        else:
            outcomes.append((rep_x.hex(), rep_y.hex()))
    return outcomes


@st.composite
def oracle_worlds(draw):
    n = draw(st.integers(2, 8))
    robots = tuple(make_robot(*spec) for spec in draw(robot_specs(n)))
    saturate = draw(st.booleans())
    params = PFParams(
        kappa=0.0,  # the reference's fault on an overflowing sum then names the sum alone
        lam=draw(st.one_of(st.floats(0.0, 50.0), st.sampled_from([1e300, 1e307, 1e308]))),
        vortex=draw(st.booleans()),
        f_lim=draw(st.floats(0.1, 5.0)) if saturate else math.inf,
        r_star=draw(st.floats(0.0, 4.0)) if saturate else 0.0,
    )
    return robots, params


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_worlds())
def test_scalar_pair_stage_matches_per_view_reference(world):
    robots, params = world
    assert scalar_outcomes(robots, params) == reference_outcomes(robots, params)


def robot_at(rid, x, y, heading, speed=0.17, behavior=BehaviorKind.COOPERATIVE):
    if behavior is BehaviorKind.STATIONARY:
        return RobotState(id=rid, position=PlanarVector(x, y), heading=heading, speed=0.0,
                          body_radius=0.1, behavior=behavior)
    return RobotState(id=rid, position=PlanarVector(x, y), heading=heading, speed=speed,
                      body_radius=0.1, behavior=behavior, goal=PlanarVector(-x, -y))


# Three robots: 1 and 2 head-on along the x axis, 3 closing on both from above.
HEADON = (
    robot_at(1, -0.4, 0.0, 0.0), robot_at(2, 0.4, 0.0, math.pi), robot_at(3, 0.1, 0.5, -1.4),
)
ORACLE_CASES = {
    # robot 1 runs into robot 2 from behind along the x axis: vth and the x
    # bracket are zero, so the saturated x input is -f_lim * 0.0 in both views
    "saturated_zero_bracket": (
        (robot_at(1, -0.4, 0.0, 0.0, speed=0.3), robot_at(2, 0.4, 0.0, 0.0)),
        PFParams(kappa=0.0, f_lim=1.0, r_star=2.0),
    ),
    # robots 1 and 2 head-on along the y axis at 1e160 m/s: the view is
    # finite (about 5.6e161), but vr * vr overflows, so the x bracket is
    # -inf and the y bracket inf * 0.0 = nan, whose sign counts as 0: the
    # saturated input is (f_lim, -0.0) in both stages
    "saturated_nan_bracket": (
        (robot_at(1, 0.0, -0.3, math.pi / 2, speed=1e160),
         robot_at(2, 0.0, 0.3, -math.pi / 2, speed=1e160)),
        PFParams(kappa=0.0, f_lim=0.05, r_star=1.0),
    ),
    "non_vortex": (HEADON, PFParams(kappa=0.0, vortex=False)),
    "one_sided": (
        (
            robot_at(1, -0.4, 0.0, 0.0),
            robot_at(2, 0.4, 0.0, math.pi, behavior=BehaviorKind.NON_COOPERATIVE),
            robot_at(3, 0.1, 0.5, -1.4, behavior=BehaviorKind.STATIONARY),
            robot_at(4, 0.5, 0.6, -2.0),
        ),
        PFParams(kappa=0.0, f_lim=1.0, r_star=0.6),
    ),
    "overflowing_pair": (
        (robot_at(1, -0.3, -0.2, 0.5), robot_at(2, 0.3, 0.2, math.pi + 0.3)),
        PFParams(kappa=0.0, lam=1e308),
    ),
    "underflowing_pair": (
        (robot_at(1, 0.0, 0.0, 0.0), robot_at(2, 1e-170, 0.0, math.pi),
         robot_at(3, 0.1, 0.5, -1.4)),
        PFParams(kappa=0.0),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_scalar_pair_stage_matches_per_view_reference_on_edge_cases(case):
    robots, params = ORACLE_CASES[case]
    outcomes = scalar_outcomes(robots, params)
    assert outcomes == reference_outcomes(robots, params)
    swarm = _Swarm(robots, params)
    swarm._scalar_pair_stage()
    assert swarm.trig[0]  # pair (1, 2) is triggered in every case
    if case == "saturated_zero_bracket":
        assert swarm.r[0] <= params.r_star and swarm.vth[0] == 0.0
        assert [outcome[0] for outcome in outcomes] == [0.0.hex(), 0.0.hex()]
    if case == "saturated_nan_bracket":
        assert swarm.r[0] <= params.r_star and math.isinf(swarm.vr[0] * swarm.vr[0])
        assert outcomes == [(0.05.hex(), 0.0.hex()), ((-0.05).hex(), 0.0.hex())]
    if case == "overflowing_pair":
        # both endpoints fault, each with its own view's values
        assert [outcome[0] for outcome in outcomes] == [SimulationFault, SimulationFault]
        assert outcomes[0][1] != outcomes[1][1]
    if case == "underflowing_pair":
        assert [outcome[1] for outcome in outcomes[:2]] == [
            f"robot {rid}: repulsive input divides by zero at separation 1e-170 m"
            for rid in (1, 2)
        ]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_array_pair_stage_matches_scalar_stage_on_edge_cases(monkeypatch, case):
    robots, params = ORACLE_CASES[case]
    scalar = _Swarm(robots, params)
    scalar._scalar_pair_stage()
    calls = 0

    def spy(self):
        nonlocal calls
        calls += 1
        original(self)

    original = _Swarm._scalar_pair_stage
    monkeypatch.setattr(_Swarm, "_scalar_pair_stage", spy)
    array = _Swarm(robots, params)
    array._array_pair_stage()
    assert pair_state(array) == pair_state(scalar)
    # only a non-finite unsaturated input hands the step to the scalar loops
    assert calls == (case in ("overflowing_pair", "underflowing_pair"))


def test_repulsive_input_is_evaluated_once_per_triggered_pair(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    original = engine.repulsive_components
    monkeypatch.setattr(engine, "repulsive_components", counting)
    scenario = load_scenario("coop_triangle")
    assert scenario.record_stride == 1 and all(
        robot.behavior is BehaviorKind.COOPERATIVE for robot in scenario.robots
    )
    log = run(scenario)
    # every step is logged; a pair counts while either robot still steers
    triggered = sum(
        trig and (log.robots[i].active[k] or log.robots[j].active[k])
        for (i, j), trace in log.pairs.items()
        for k, trig in enumerate(trace.triggered)
    )
    assert triggered > 1000
    assert calls == triggered

"""The numpy pair stage against the scalar pair stage.

Swarms of at least ``engine._ARRAY_MIN_ROBOTS`` robots run the pair stage
(engagements and summed repulsive inputs) on numpy arrays; smaller ones run
the scalar loops.  The two must give the same bits, so every comparison here
is exact: pair series and sums through ``float.hex`` (which also tells +0.0
from -0.0), whole runs through ``assert_logs_equal``, and faults by class and
message.
"""

import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_engine_reference import assert_logs_equal, mixed_scenario
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
from vortex_ca.scenarios import PRESETS, load_scenario

KINDS = ("cooperative", "stationary", "attacking", "noncooperative", "inactive")
coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def robot_specs(draw, n):
    # Robots drawn with the fleet heading and speed move in parallel with
    # each other: their pairs have vrel = 0 exactly.
    fleet = (draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.05, 0.4)))
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n,
                              unique=True))
    specs = []
    for k, (x, y) in enumerate(positions):
        kind = draw(st.sampled_from(KINDS))
        if draw(st.booleans()):
            heading, speed = fleet
        else:
            heading, speed = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 0.4))
        target = draw(st.sampled_from([j for j in range(n) if j != k])) + 1
        goal = (draw(coord), draw(coord))
        specs.append((k + 1, x, y, heading, speed, kind, target, goal))
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
def swarms(draw):
    n = draw(st.integers(2, 16))
    robots = tuple(make_robot(*spec) for spec in draw(robot_specs(n)))
    saturate = draw(st.booleans())
    params = PFParams(
        lam=draw(st.floats(0.0, 50.0)),
        vortex=draw(st.booleans()),
        f_lim=draw(st.floats(0.1, 5.0)) if saturate else math.inf,
        # r_star up to the size of the field, so saturation engages on many views
        r_star=draw(st.floats(0.0, 4.0)) if saturate else 0.0,
    )
    return _Swarm(robots, params)


def pair_state(swarm):
    floats = [swarm.r, swarm.ux, swarm.uy, swarm.vr, swarm.vth, swarm.vrel,
              swarm.rep_x, swarm.rep_y]
    return (
        [[value.hex() for value in series] for series in floats],
        list(swarm.trig),
        [(type(f), str(f)) if f is not None else None for f in swarm.fault],
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarms())
def test_array_pair_stage_matches_scalar_stage(swarm):
    swarm._scalar_pair_stage()
    scalar = pair_state(swarm)
    swarm._array_pair_stage()
    assert pair_state(swarm) == scalar


def test_pair_stage_dispatch_follows_threshold():
    threshold = engine._ARRAY_MIN_ROBOTS
    for n, stage in ((threshold - 1, "_scalar_pair_stage"), (threshold, "_array_pair_stage")):
        swarm = _Swarm(ring(n).sorted_robots(), PFParams())
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
    assert_logs_equal(array, scalar)


def ring(n, radius=3.0, lam=10.0, heading=None, t_max=8.0):
    """n cooperative robots on a circle, each bound for the antipodal point;
    with ``heading`` set, all of them move in parallel instead, each bound
    for a point 5 m ahead."""
    robots = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        cx, cy = radius * math.cos(angle), radius * math.sin(angle)
        if heading is None:
            phi, goal = angle + math.pi, PlanarVector(-cx, -cy)
        else:
            phi = heading
            goal = PlanarVector(cx + 5.0 * math.cos(heading), cy + 5.0 * math.sin(heading))
        robots.append(RobotState(
            id=k + 1, position=PlanarVector(cx, cy), heading=phi, speed=0.17,
            body_radius=0.1, behavior=BehaviorKind.COOPERATIVE, goal=goal,
        ))
    return Scenario(robots=tuple(robots), params=PFParams(lam=lam), t_max=t_max)


def test_identical_positions_raise_the_same_error(monkeypatch):
    base = ring(16)
    robots = list(base.robots)
    # Two coincident pairs; (2, 14) comes first in upper-triangle order.
    for rid, twin in ((10, 5), (14, 2)):
        robots[rid - 1] = RobotState(
            id=rid, position=robots[twin - 1].position, heading=0.3, speed=0.17,
            body_radius=0.1, behavior=BehaviorKind.COOPERATIVE, goal=PlanarVector(0.0, 0.0),
        )
    scalar, array = run_both(monkeypatch, Scenario(robots=tuple(robots), params=base.params))
    assert scalar == array == (CollisionSingularity, "robots 2 and 14 at identical positions")


def test_overflowing_views_raise_the_same_error(monkeypatch):
    scenario = ring(16, radius=1.0, lam=1e308)
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
    base = ring(16)
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
    scenario = ring(16, heading=0.4, t_max=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar, array = run_both(monkeypatch, scenario)
    assert all(trace.vrel[0] == 0.0 for trace in array.pairs.values())
    assert not any(any(trace.triggered) for trace in array.pairs.values())
    assert_logs_equal(array, scalar)

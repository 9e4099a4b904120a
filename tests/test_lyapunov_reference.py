"""``multi_lyapunov`` against a per-step reference.

The reference is the per-step loop the column form replaced: at every
recorded step it lists the triggered pairs, collects the engaged robots (the
active cooperative endpoints of those pairs) and sums ``_multi_robot_value``
and ``_multi_robot_derivative`` over the triggered pairs in pair order from
0.0.  ``multi_lyapunov`` must reproduce its value and analytic derivative
bit for bit, so every comparison below is ``==``.
"""

import math

import pytest

from vortex_ca.analysis import _multi_robot_derivative, _multi_robot_value, multi_lyapunov
from vortex_ca.engine import EVENT_STOPPED, Scenario, run
from vortex_ca.fields import PFParams
from vortex_ca.kinematics import BehaviorKind, PlanarVector, RobotState
from vortex_ca.scenarios import load_scenario


def engaged_robots(log, k):
    """The triggered pairs' traces at step k and the ids of their active
    cooperative endpoints."""
    coop_ids = [
        rid
        for rid in log.robot_ids()
        if next(r.behavior for r in log.scenario.robots if r.id == rid)
        is BehaviorKind.COOPERATIVE
    ]
    triggered_pairs = [
        (key, log.pairs[key]) for key in log.pair_ids() if log.pairs[key].triggered[k]
    ]
    engaged = {
        rid
        for rid in coop_ids
        if any(rid in key for key, _ in triggered_pairs) and log.robots[rid].active[k]
    }
    return [trace for _, trace in triggered_pairs], engaged


def reference_multi_lyapunov(log, params):
    """Per recorded step, the summed value and analytic derivative over the
    triggered pairs, with n_active the number of engaged robots."""
    values, derivs = [], []
    for k in range(len(log.t)):
        traces, engaged = engaged_robots(log, k)
        n_active = len(engaged)
        total = 0.0
        dtotal = 0.0
        for trace in traces:
            total += _multi_robot_value(trace.r[k], trace.vr[k], trace.vth[k])
            deriv = _multi_robot_derivative(
                trace.r[k], trace.vr[k], trace.vth[k], trace.vrel[k], params.lam, n_active
            )
            if n_active >= 1:
                dtotal += deriv
        values.append(total)
        derivs.append(dtotal)
    return values, derivs


def gated_scenario():
    """Five robots: a cooperative head-on pair with distant goals, a
    cooperative robot that reaches its goal and stops early, a stationary
    obstacle and a non-cooperative robot driving toward it."""

    def robot(idx, x, y, behavior, goal=None, heading=None, speed=0.17, radius=0.12):
        if heading is None:
            heading = math.atan2(goal[1] - y, goal[0] - x)
        return RobotState(
            id=idx, position=PlanarVector(x, y), heading=heading, speed=speed,
            body_radius=radius, behavior=behavior,
            goal=None if goal is None else PlanarVector(*goal),
        )

    coop = BehaviorKind.COOPERATIVE
    robots = (
        robot(1, -1.5, 2.05, coop, (5.0, 2.0)),
        robot(2, 1.5, 1.95, coop, (-5.0, 2.0)),
        robot(3, -0.5, -0.6, coop, (-0.5, -1.3)),
        robot(4, 2.0, -2.0, BehaviorKind.STATIONARY, heading=0.0, speed=0.0, radius=0.2),
        robot(5, -1.5, -2.0, BehaviorKind.NON_COOPERATIVE, (1.4, -2.0), speed=0.12),
    )
    return Scenario(robots=robots, params=PFParams(lam=30.0, kp=5.0), dt=0.01, t_max=30.0,
                    name="gated")


def assert_matches_reference(log):
    params = log.scenario.params
    series = multi_lyapunov(log)
    values, derivs = reference_multi_lyapunov(log, params)
    assert series.t == log.t
    assert series.value == values
    assert series.derivative_analytic == derivs


def test_multi_lyapunov_matches_reference_on_coop_triangle():
    assert_matches_reference(run(load_scenario("coop_triangle")))


def test_multi_lyapunov_matches_reference_on_gated_scenario():
    log = run(gated_scenario())
    # The scenario reaches every case of the engaged-robot count: a robot
    # stops mid-run and stays an endpoint of triggered pairs, and triggered
    # steps have 0, 1, 2 and 3 engaged robots.
    stopped = [event.ids[0] for event in log.events if event.kind == EVENT_STOPPED]
    assert 3 in stopped and log.t[-1] == pytest.approx(30.0)
    counts = set()
    stopped_endpoint = False
    for k in range(len(log.t)):
        traces, engaged = engaged_robots(log, k)
        if traces:
            counts.add(len(engaged))
        stopped_endpoint |= log.pairs[(3, 5)].triggered[k] and not log.robots[3].active[k]
    assert counts == {0, 1, 2, 3}
    assert stopped_endpoint
    assert_matches_reference(log)


def test_multi_lyapunov_of_one_robot_is_zero_per_step():
    log = run(load_scenario("attractive_only"))
    series = multi_lyapunov(log)
    assert series.value == series.derivative_analytic == [0.0] * len(log.t)
    assert reference_multi_lyapunov(log, log.scenario.params) == (series.value,
                                                                  series.derivative_analytic)

"""The engine against an independent continuous-time integration.

The engine holds each robot's turn rate over a step (it is formed from the
step's snapshot) and propagates the pose by RK4, so its trajectories are
first-order accurate in dt.  The reference integrates the same closed loop,
with the turn rate a function of the current state, by ``solve_ivp``
(DOP853, rtol = atol = 1e-12).  Its right-hand side is built from the
package kernels: ``attractive_components``, ``engagement_terms`` on each
robot's own view of every other robot, ``repulsive_components``,
``force_heading`` and ``heading_controller``.  The final positions must
converge to the reference at first order: the error falls by at least 1.8
each time dt halves.  The windows end before the first event (goal stop or
body overlap), where the dynamics switch.
"""

import math
from dataclasses import replace

import pytest

from vortex_ca.control import force_heading, heading_controller
from vortex_ca.engine import run
from vortex_ca.fields import attractive_components, repulsive_components
from vortex_ca.kinematics import engagement_terms
from vortex_ca.scenarios import load_scenario

integrate = pytest.importorskip(
    "scipy.integrate", reason="scipy is needed for the reference integration"
)

DTS = (0.02, 0.01, 0.005, 0.0025)


def closed_loop(scenario):
    """d(x, y, phi)/dt of every cooperative robot, in id order."""
    robots = scenario.sorted_robots()
    params = scenario.params
    speeds = [robot.speed for robot in robots]

    def rhs(t, state):
        x, y, phi = state[0::3], state[1::3], state[2::3]
        vx = [v * math.cos(a) for v, a in zip(speeds, phi)]
        vy = [v * math.sin(a) for v, a in zip(speeds, phi)]
        derivative = []
        for i, robot in enumerate(robots):
            rep_x = rep_y = 0.0
            for j in range(len(robots)):
                if j == i:
                    continue
                r, ux, uy, vr, vth, vrel, triggered = engagement_terms(
                    x[j] - x[i], y[j] - y[i], vx[j] - vx[i], vy[j] - vy[i], params.eps_v
                )
                if triggered:
                    fx, fy = repulsive_components(r, ux, uy, vr, vth, vrel, params)
                    rep_x += fx
                    rep_y += fy
            fx, fy = attractive_components(x[i], y[i], robot.goal.x, robot.goal.y, params.kappa)
            phi_des = force_heading(fx + rep_x, fy + rep_y)
            assert phi_des is not None
            omega = heading_controller(phi[i], phi_des, params)
            derivative += [vx[i], vy[i], omega]
        return derivative

    return rhs


def reference_positions(scenario, t_end):
    start = [value for robot in scenario.sorted_robots()
             for value in (robot.position.x, robot.position.y, robot.heading)]
    solution = integrate.solve_ivp(closed_loop(scenario), (0.0, t_end), start,
                                   method="DOP853", rtol=1e-12, atol=1e-12)
    assert solution.success, solution.message
    end = solution.y[:, -1]
    return list(zip(end[0::3], end[1::3]))


@pytest.mark.parametrize("name, t_end", [("coop_headon", 6.0), ("coop_triangle", 4.0)])
def test_engine_converges_to_the_continuous_closed_loop_at_first_order(name, t_end):
    scenario = load_scenario(name)
    reference = reference_positions(scenario, t_end)
    errors = []
    for dt in DTS:
        stride = round(t_end / dt)  # the first and the final step only
        log = run(replace(scenario, dt=dt, t_max=t_end, record_stride=stride))
        assert log.events == [] and log.t[-1] == pytest.approx(t_end)
        errors.append(max(
            math.hypot(trace.x[-1] - x, trace.y[-1] - y)
            for trace, (x, y) in zip((log.robots[i] for i in log.robot_ids()), reference)
        ))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(ratio >= 1.8 for ratio in ratios), (errors, ratios)

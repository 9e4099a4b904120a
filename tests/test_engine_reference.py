"""The engine against a reference built from the public object functions.

The reference is the object-level loop the flat engine replaced: per step it
builds an ``EngagementState`` per pair and its flipped view per robot, sums
each robot's force with ``total_force_from_engagements`` below (the force
kernels, called once per engagement view in ascending id order), steers with
``force_heading`` and ``heading_controller``, propagates with ``propagate``
and applies the stop rule.  The engine must reproduce it bit for bit, so
every comparison below is ``==``: any reordering of the floating-point
arithmetic fails here.
"""

import math

import pytest

from vortex_ca.control import ControlOutput, force_heading, heading_controller, wheel_speeds
from vortex_ca.engine import (
    EVENT_GOAL,
    EVENT_OVERLAP,
    EVENT_STOPPED,
    Event,
    PairTrace,
    RobotTrace,
    Scenario,
    TrajectoryLog,
    run,
    step,
)
from vortex_ca.fields import (
    PFParams,
    attractive_components,
    default_r_star,
    repulsive_components,
)
from vortex_ca.kinematics import BehaviorKind, PlanarVector, RobotState, engagement, propagate
from vortex_ca.scenarios import PRESETS, load_scenario

ZERO = PlanarVector(0.0, 0.0)


def total_force_from_engagements(robot, others, engagements, params):
    """Behavior-dispatched total steering force of a steered robot, plus its
    repulsive-only part.

    ``engagements`` maps other-robot id to the engagement viewed from
    ``robot``.  Cooperative robots sum the attractive pull with one saturated
    repulsive term per triggered pair; non-cooperative robots command nothing;
    attacking robots apply only the attractive law aimed at their target's
    current position (never saturated, never repulsive).
    """
    pos = robot.position
    if robot.behavior is BehaviorKind.NON_COOPERATIVE:
        return ZERO, ZERO
    if robot.behavior is BehaviorKind.ATTACKING:
        target = next((o for o in others if o.id == robot.attack_target), None)
        if target is None:
            raise ValueError(f"robot {robot.id}: attack target {robot.attack_target} not in world")
        fx, fy = attractive_components(
            pos.x, pos.y, target.position.x, target.position.y, params.kappa
        )
        return PlanarVector(fx, fy), ZERO
    fx, fy = attractive_components(pos.x, pos.y, robot.goal.x, robot.goal.y, params.kappa)
    rep_x = rep_y = 0.0
    for other in sorted(others, key=lambda o: o.id):
        eng = engagements[other.id]
        if eng.triggered:
            tx, ty = repulsive_components(
                eng.r, eng.ux, eng.uy, eng.vr, eng.vth, eng.vrel, params
            )
            rep_x += tx
            rep_y += ty
    return PlanarVector(fx + rep_x, fy + rep_y), PlanarVector(rep_x, rep_y)


def reference_evaluate(world, params, phi_des_held, d_wheel, r_wheel):
    pair_engs = {}
    for a_idx in range(len(world)):
        for b_idx in range(a_idx + 1, len(world)):
            a, b = world[a_idx], world[b_idx]
            pair_engs[(a.id, b.id)] = engagement(a, b, params.eps_v)

    controls, forces, repulsive = {}, {}, {}
    for robot in world:
        others = [r for r in world if r.id != robot.id]
        view = {}
        for other in others:
            eng = pair_engs[(min(robot.id, other.id), max(robot.id, other.id))]
            view[other.id] = eng if eng.i == robot.id else eng.flipped()

        steered = robot.active and robot.behavior is not BehaviorKind.STATIONARY
        if steered:
            force, rep = total_force_from_engagements(robot, others, view, params)
        else:
            force, rep = ZERO, ZERO

        phi_des = force_heading(force.x, force.y)
        if phi_des is None:
            phi_des = phi_des_held.get(robot.id, robot.heading)
        phi_des_held[robot.id] = phi_des

        omega = heading_controller(robot.heading, phi_des, params) if steered else 0.0
        wheels = wheel_speeds(robot.speed, omega, d_wheel, r_wheel)
        controls[robot.id] = ControlOutput(phi_des, omega, wheels.v_right, wheels.v_left)
        forces[robot.id] = force
        repulsive[robot.id] = rep
    return controls, pair_engs, forces, repulsive


def reference_run(scenario):
    params = scenario.params
    dt = scenario.dt
    world = scenario.sorted_robots()

    log = TrajectoryLog(scenario=scenario)
    for robot in world:
        log.robots[robot.id] = RobotTrace()
    for a_idx in range(len(world)):
        for b_idx in range(a_idx + 1, len(world)):
            log.pairs[(world[a_idx].id, world[b_idx].id)] = PairTrace()

    phi_des_held = {}
    overlapping = {key: False for key in log.pairs}
    radius = {r.id: r.body_radius for r in world}
    contact = {key: radius[key[0]] + radius[key[1]] for key in log.pairs}
    n_steps = int(round(scenario.t_max / dt))
    gated_kinds = (BehaviorKind.COOPERATIVE, BehaviorKind.ATTACKING)

    for k in range(n_steps + 1):
        t = k * dt
        controls, engs, forces, repulsive = reference_evaluate(
            world, params, phi_des_held, scenario.d_wheel, scenario.r_wheel
        )
        for key, eng in engs.items():
            inside = eng.r < contact[key]
            if inside and not overlapping[key]:
                log.events.append(Event(t, EVENT_OVERLAP, key))
            overlapping[key] = inside

        gated = [r for r in world if r.behavior in gated_kinds]
        done = k == n_steps or (bool(gated) and all(not r.active for r in gated))
        if done or k % scenario.record_stride == 0:
            log.t.append(t)
            for robot in world:
                trace = log.robots[robot.id]
                trace.x.append(robot.position.x)
                trace.y.append(robot.position.y)
                trace.phi.append(robot.heading)
                trace.omega.append(controls[robot.id].omega)
                trace.fx.append(forces[robot.id].x)
                trace.fy.append(forces[robot.id].y)
                trace.rep_fx.append(repulsive[robot.id].x)
                trace.rep_fy.append(repulsive[robot.id].y)
                trace.active.append(robot.active)
            for key, eng in engs.items():
                trace = log.pairs[key]
                trace.r.append(eng.r)
                trace.theta.append(eng.theta)
                trace.vr.append(eng.vr)
                trace.vth.append(eng.vth)
                trace.vrel.append(eng.vrel)
                trace.triggered.append(eng.triggered)
        if done:
            break

        world = tuple(propagate(r, controls[r.id].omega, dt) for r in world)

        t_next = (k + 1) * dt
        stopped = []
        for robot in world:
            if not robot.active or robot.behavior is BehaviorKind.STATIONARY:
                stopped.append(robot)
                continue
            if robot.behavior is BehaviorKind.ATTACKING:
                goal_point = next(r.position for r in world if r.id == robot.attack_target)
            else:
                goal_point = robot.goal
            if (robot.position - goal_point).norm() <= params.goal_tol:
                log.events.append(Event(t_next, EVENT_GOAL, (robot.id,)))
                log.events.append(Event(t_next, EVENT_STOPPED, (robot.id,)))
                stopped.append(robot.stopped())
            else:
                stopped.append(robot)
        world = tuple(stopped)
    return log


def mixed_scenario():
    """Eight robots: five cooperative (one crossing the others' paths), a
    stationary obstacle, an attacker pursuing robot 1 and a non-cooperative
    robot; saturation is live inside r_star and the log keeps every third
    step."""

    def coop(idx, x, y, goal):
        return RobotState(
            id=idx, position=PlanarVector(x, y), heading=math.atan2(goal[1] - y, goal[0] - x),
            speed=0.17, body_radius=0.12, behavior=BehaviorKind.COOPERATIVE,
            goal=PlanarVector(*goal),
        )

    robots = (
        coop(1, -1.5, 0.1, (1.5, 0.0)),
        coop(2, 1.5, -0.1, (-1.5, 0.2)),
        coop(3, 0.1, -1.5, (0.0, 1.5)),
        coop(4, -0.2, 1.5, (0.1, -1.5)),
        coop(5, -1.2, -1.2, (1.2, 1.1)),
        RobotState(
            id=6, position=PlanarVector(0.3, 0.35), heading=0.7, speed=0.0,
            body_radius=0.15, behavior=BehaviorKind.STATIONARY,
        ),
        RobotState(
            id=7, position=PlanarVector(2.2, 1.6), heading=-2.4, speed=0.15,
            body_radius=0.12, behavior=BehaviorKind.ATTACKING, attack_target=1,
        ),
        RobotState(
            id=8, position=PlanarVector(1.3, 1.4), heading=-2.3, speed=0.12,
            body_radius=0.12, behavior=BehaviorKind.NON_COOPERATIVE,
            goal=PlanarVector(-1.0, -1.0),
        ),
    )
    f_lim = 1.5
    params = PFParams(lam=10.0, f_lim=f_lim, r_star=default_r_star(10.0, 0.17, f_lim), kp=5.0)
    # Shuffled so the engine's id sort is exercised too.
    shuffled = tuple(robots[i] for i in (5, 2, 7, 0, 6, 3, 1, 4))
    return Scenario(robots=shuffled, params=params, dt=0.01, t_max=25.0, record_stride=3,
                    name="mixed")


def assert_logs_equal(log, ref):
    assert log.t == ref.t
    assert log.robots.keys() == ref.robots.keys()
    assert log.pairs.keys() == ref.pairs.keys()
    for rid, trace in ref.robots.items():
        assert log.robots[rid] == trace, f"robot {rid}"
    for key, trace in ref.pairs.items():
        assert log.pairs[key] == trace, f"pair {key}"
    assert log.events == ref.events


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_run_matches_reference_on_presets(preset):
    scenario = load_scenario(preset)
    assert_logs_equal(run(scenario), reference_run(scenario))


def test_run_matches_reference_on_mixed_scenario():
    scenario = mixed_scenario()
    log = run(scenario)
    # The scenario reaches every branch the comparison is meant to cover.
    params = scenario.params
    assert any(
        r <= params.r_star and trig
        for trace in log.pairs.values()
        for r, trig in zip(trace.r, trace.triggered)
    ), "saturation never engaged"
    kinds = {event.kind for event in log.events}
    assert {EVENT_GOAL, EVENT_STOPPED, EVENT_OVERLAP} <= kinds
    assert_logs_equal(log, reference_run(scenario))


def test_step_matches_reference_on_mixed_scenario():
    scenario = mixed_scenario()
    world = scenario.sorted_robots()
    held, ref_held = {}, {}
    for _ in range(40):
        result = step(world, scenario.params, scenario.dt, held, scenario.d_wheel,
                      scenario.r_wheel)
        controls, engs, forces, repulsive = reference_evaluate(
            world, scenario.params, ref_held, scenario.d_wheel, scenario.r_wheel
        )
        assert result.controls == controls
        assert result.engagements == engs
        assert result.forces == forces
        assert result.repulsive == repulsive
        assert held == ref_held
        ref_world = tuple(propagate(r, controls[r.id].omega, scenario.dt) for r in world)
        assert result.world == ref_world
        world = result.world

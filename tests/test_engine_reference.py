"""The engine against an object-level reference engine.

The reference is the object-level loop the flat engine replaced, with the
object layer it was built on defined here: ``engagement`` builds an
``EngagementState`` per pair, ``EngagementState.flipped`` gives its view
from the other robot, ``propagate`` advances a ``RobotState`` and
``stopped`` applies the stop transition.  Per step the reference builds every
pair's engagement and its flipped view per robot, sums each robot's force
with ``total_force_from_engagements`` below (the force kernels, called once
per engagement view in ascending id order), steers with ``force_heading``
and ``heading_controller``, propagates and applies the stop rule.  The
engine must reproduce it bit for bit, so every comparison below is ``==``:
any reordering of the floating-point arithmetic fails here.  The kinematics,
fields, analysis and pair-stage tests use the same object layer.
"""

import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings

from scenario_strategies import fold_scenarios
from vortex_ca.control import force_heading, heading_controller
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
)
from vortex_ca.fields import (
    PFParams,
    attractive_components,
    default_r_star,
    repulsive_components,
)
from vortex_ca.kinematics import (
    EPS_V_DEFAULT,
    BehaviorKind,
    CollisionSingularity,
    PlanarVector,
    RobotState,
    SimulationFault,
    advance_pose,
    engagement_terms,
    wrap_angle,
)
from vortex_ca.scenarios import PRESETS, load_scenario

ZERO = PlanarVector(0.0, 0.0)


@dataclass(frozen=True)
class EngagementState:
    """Pairwise relative state of robots i and j in polar LOS coordinates.

    ``ux``/``uy`` are the LOS direction cosines from i to j (cos/sin of
    ``theta``); they are carried explicitly so a flipped view negates them
    exactly, which keeps the reciprocal-force identity bit-exact.
    """

    i: int
    j: int
    r: float
    theta: float
    ux: float
    uy: float
    vr: float
    vth: float
    vrel: float
    triggered: bool

    def flipped(self) -> "EngagementState":
        """Same engagement seen from robot j (LOS rotated by pi)."""
        return EngagementState(
            i=self.j,
            j=self.i,
            r=self.r,
            theta=wrap_angle(self.theta + math.pi),
            ux=-self.ux,
            uy=-self.uy,
            vr=self.vr,
            vth=self.vth,
            vrel=self.vrel,
            triggered=self.triggered,
        )


def engagement(a: RobotState, b: RobotState, eps_v: float = EPS_V_DEFAULT) -> EngagementState:
    """Compute the polar engagement state of robot ``a`` (self) against ``b``.

    Separation is the Euclidean distance, the LOS angle uses the
    four-quadrant arctangent, and the radial/transverse relative velocities
    generalize the equal-speed expressions to each robot's own speed.  The
    terms are the engine's kernel, ``engagement_terms``.
    """
    dx = b.position.x - a.position.x
    dy = b.position.y - a.position.y
    terms = engagement_terms(
        dx,
        dy,
        b.speed * math.cos(b.heading) - a.speed * math.cos(a.heading),
        b.speed * math.sin(b.heading) - a.speed * math.sin(a.heading),
        eps_v,
    )
    if terms is None:
        raise CollisionSingularity(f"robots {a.id} and {b.id} at identical positions")
    r, ux, uy, vr, vth, vrel, triggered = terms
    return EngagementState(
        i=a.id,
        j=b.id,
        r=r,
        theta=math.atan2(dy, dx),
        ux=ux,
        uy=uy,
        vr=vr,
        vth=vth,
        vrel=vrel,
        triggered=triggered,
    )


def propagate(state: RobotState, omega: float, dt: float) -> RobotState:
    """Advance a unicycle state by one fixed step of classical 4th-order Runge-Kutta.

    The angular rate ``omega`` is held constant across the step (zero-order
    hold, matching the discrete controller), so the heading stages are exact
    and the position update reduces to a Simpson-weighted average of the
    velocity direction.  Inactive robots are returned unchanged.
    """
    if not (math.isfinite(omega) and math.isfinite(dt)):
        raise SimulationFault(f"robot {state.id}: non-finite propagation input")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if not state.active:
        return state
    phi = state.heading
    x, y, heading = advance_pose(
        state.position.x, state.position.y, phi, math.cos(phi), math.sin(phi), state.speed,
        omega, dt,
    )
    return replace(state, position=PlanarVector(x, y), heading=heading)


def stopped(state: RobotState) -> RobotState:
    """State after the stop transition: speed zeroed, inactive, radius kept."""
    return replace(state, speed=0.0, active=False)


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


def reference_evaluate(world, params, phi_des_held):
    pair_engs = {}
    for a_idx in range(len(world)):
        for b_idx in range(a_idx + 1, len(world)):
            a, b = world[a_idx], world[b_idx]
            pair_engs[(a.id, b.id)] = engagement(a, b, params.eps_v)

    omegas, forces, repulsive = {}, {}, {}
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

        omegas[robot.id] = heading_controller(robot.heading, phi_des, params) if steered else 0.0
        forces[robot.id] = force
        repulsive[robot.id] = rep
    return omegas, pair_engs, forces, repulsive


def reference_run(scenario):
    params = scenario.params
    dt = scenario.dt
    world = scenario.sorted_robots()

    log = TrajectoryLog(scenario=scenario)
    for robot in world:
        log.robots[robot.id] = RobotTrace()
    for a_idx in range(len(world)):
        for b_idx in range(a_idx + 1, len(world)):
            key = (world[a_idx].id, world[b_idx].id)
            log.pairs[key] = PairTrace()

    phi_des_held = {}
    overlapping = {key: False for key in log.pairs}
    radius = {r.id: r.body_radius for r in world}
    contact = {key: radius[key[0]] + radius[key[1]] for key in log.pairs}
    n_steps = int(round(scenario.t_max / dt))
    gated_kinds = (BehaviorKind.COOPERATIVE, BehaviorKind.ATTACKING)

    for k in range(n_steps + 1):
        t = k * dt
        omegas, engs, forces, repulsive = reference_evaluate(world, params, phi_des_held)
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
                trace.omega.append(omegas[robot.id])
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

        world = tuple(propagate(r, omegas[r.id], dt) for r in world)

        t_next = (k + 1) * dt
        after_stop = []
        for robot in world:
            if not robot.active or robot.behavior is BehaviorKind.STATIONARY:
                after_stop.append(robot)
                continue
            if robot.behavior is BehaviorKind.ATTACKING:
                goal_point = next(r.position for r in world if r.id == robot.attack_target)
            else:
                goal_point = robot.goal
            gap = math.hypot(robot.position.x - goal_point.x, robot.position.y - goal_point.y)
            if gap <= params.goal_tol:
                log.events.append(Event(t_next, EVENT_GOAL, (robot.id,)))
                log.events.append(Event(t_next, EVENT_STOPPED, (robot.id,)))
                after_stop.append(stopped(robot))
            else:
                after_stop.append(robot)
        world = tuple(after_stop)
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


def contact_scenario():
    """Five robots: a cooperative robot driving past a wide stationary
    obstacle, inside its contact distance, and meeting a slow
    non-cooperative robot there; and an attacker that catches a cooperative
    robot while that robot keeps moving.  Contact forces are weak (lambda 5),
    so the bodies overlap."""

    def robot(idx, x, y, behavior, goal=None, heading=None, speed=0.17, radius=0.12,
              target=None):
        if heading is None:
            heading = math.atan2(goal[1] - y, goal[0] - x)
        return RobotState(
            id=idx, position=PlanarVector(x, y), heading=heading, speed=speed,
            body_radius=radius, behavior=behavior,
            goal=None if goal is None else PlanarVector(*goal), attack_target=target,
        )

    coop = BehaviorKind.COOPERATIVE
    robots = (
        robot(1, -1.5, 0.0, coop, (1.5, 0.0)),
        robot(2, 0.0, 0.35, BehaviorKind.STATIONARY, heading=0.0, speed=0.0, radius=0.32),
        robot(3, 1.3, 0.0, BehaviorKind.NON_COOPERATIVE, (-1.5, 0.0), speed=0.09),
        robot(4, 0.0, -1.5, coop, (0.0, -4.0)),
        robot(5, 0.6, -0.9, BehaviorKind.ATTACKING, heading=-1.5, speed=0.25, target=4),
    )
    return Scenario(robots=robots, params=PFParams(lam=5.0, kp=5.0), dt=0.01, t_max=25.0,
                    name="contact")


def test_run_matches_reference_on_contact_scenario():
    scenario = contact_scenario()
    log = run(scenario)
    radius = {r.id: r.body_radius for r in scenario.robots}
    inside = {
        key: [r < radius[key[0]] + radius[key[1]] for r in trace.r]
        for key, trace in log.pairs.items()
    }
    # Every step is logged, so step k is at log.t[k].
    entries = [(log.t.index(e.t), e.ids) for e in log.events if e.kind == EVENT_OVERLAP]
    # A pair enters contact while another pair stays in contact.
    assert any(
        inside[other][k - 1] and inside[other][k]
        for k, key in entries
        for other in inside
        if other != key
    )
    # The attacker stops while its target is still moving.
    caught = next(e.t for e in log.events if e.kind == EVENT_GOAL and e.ids == (5,))
    k = log.t.index(caught)
    target = log.robots[4]
    assert target.active[k] and (target.x[k - 1], target.y[k - 1]) != (target.x[k], target.y[k])
    assert_logs_equal(log, reference_run(scenario))


def test_run_matches_reference_on_contact_re_entry():
    # A cooperative robot whose turn rate is too low to settle on its goal
    # circles it and passes a stationary obstacle twice: the pair leaves
    # contact while nothing else is in contact, and enters it again.
    robots = (
        RobotState(id=1, position=PlanarVector(-1.0, 0.0), heading=0.0, speed=0.17,
                   body_radius=0.12, behavior=BehaviorKind.COOPERATIVE,
                   goal=PlanarVector(0.0, 0.0)),
        RobotState(id=2, position=PlanarVector(-0.3, 0.3), heading=0.0, speed=0.0,
                   body_radius=0.12, behavior=BehaviorKind.STATIONARY),
    )
    scenario = Scenario(robots=robots, params=PFParams(lam=5.0, omega_max=0.3), dt=0.01,
                        t_max=40.0, name="orbit")
    log = run(scenario)
    assert [e.kind for e in log.events] == [EVENT_OVERLAP, EVENT_OVERLAP]
    first, second = (log.t.index(e.t) for e in log.events)
    inside = [r < 0.24 for r in log.pairs[(1, 2)].r]
    assert inside[first] and not all(inside[first:second]) and inside[second]
    assert_logs_equal(log, reference_run(scenario))


@settings(max_examples=150, deadline=None)
@given(fold_scenarios())
def test_run_matches_reference_on_drawn_scenarios(scenario):
    # a run the reference aborts must abort in the engine with the same fault
    try:
        ref = reference_run(scenario)
    except Exception as exc:
        with pytest.raises(Exception) as err:
            run(scenario)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    assert_logs_equal(run(scenario), ref)

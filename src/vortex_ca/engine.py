"""Fixed-step world simulation: per-step force evaluation on a frozen
snapshot, heading control, propagation, trigger bookkeeping, the goal-stop
rule, body-overlap detection, and trajectory logging.

Updates are simultaneous (Jacobi-style): every engagement and force in a step
is computed from the pre-step snapshot, never from partially updated robots.
This is what makes the reciprocal-force identity hold exactly in discrete
time and makes runs invariant to the ordering of robots in the scenario file.

The step works on plain float lists, one entry per robot or per pair, and
evaluates the laws through the float kernels (``engagement_terms``,
``attractive_components``, ``repulsive_components``, ``force_heading``,
``heading_controller``, ``advance_pose``), the same ones that the object
functions ``engagement`` and ``propagate`` use, so its results are
bit-identical to theirs.  Objects are built only at the edges: ``step``
returns them, ``run`` logs floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from .control import ControlOutput, force_heading, heading_controller, wheel_speeds
from .fields import PFParams, attractive_components, repulsive_components
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    EngagementState,
    PlanarVector,
    RobotState,
    SimulationFault,
    advance_pose,
    check_finite,
    engagement_terms,
)


class ScenarioError(ValueError):
    """A scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class Scenario:
    """A complete, runnable experiment description."""

    robots: tuple[RobotState, ...]
    params: PFParams
    dt: float = 0.01
    t_max: float = 60.0
    d_wheel: float = 0.35
    r_wheel: float = 0.04
    record_stride: int = 1
    name: str = "scenario"

    def validation_errors(self) -> list[str]:
        errors: list[str] = []
        if not self.robots:
            errors.append("scenario has no robots")
        if not self.dt > 0.0:
            errors.append("dt must be > 0")
        elif not math.isfinite(self.dt):
            errors.append("dt must be finite")
        if not self.t_max > 0.0:
            errors.append("t_max must be > 0")
        elif not math.isfinite(self.t_max):
            errors.append("t_max must be finite")
        if self.record_stride < 1:
            errors.append("record_stride must be >= 1")
        if self.d_wheel <= 0.0:
            errors.append("d_wheel must be > 0")
        if self.r_wheel <= 0.0:
            errors.append("r_wheel must be > 0")
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            errors.append(f"duplicate robot ids: {sorted(ids)}")
        known = set(ids)
        for robot in self.robots:
            if robot.behavior is BehaviorKind.ATTACKING:
                if robot.attack_target not in known:
                    errors.append(
                        f"robot {robot.id}: attack target {robot.attack_target} does not exist"
                    )
                elif robot.attack_target == robot.id:
                    errors.append(f"robot {robot.id}: cannot attack itself")
            if robot.behavior in (BehaviorKind.COOPERATIVE, BehaviorKind.NON_COOPERATIVE):
                if robot.goal is None:
                    errors.append(f"robot {robot.id}: {robot.behavior.value} behavior needs a goal")
        return errors

    def validate(self) -> None:
        errors = self.validation_errors()
        if errors:
            raise ScenarioError(errors)

    def sorted_robots(self) -> tuple[RobotState, ...]:
        return tuple(sorted(self.robots, key=lambda r: r.id))


class Event(NamedTuple):
    t: float
    kind: str  # GoalReached | Stopped | BodyOverlap
    ids: tuple[int, ...]


EVENT_GOAL = "GoalReached"
EVENT_STOPPED = "Stopped"
EVENT_OVERLAP = "BodyOverlap"


@dataclass
class RobotTrace:
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    phi: list[float] = field(default_factory=list)
    omega: list[float] = field(default_factory=list)
    fx: list[float] = field(default_factory=list)
    fy: list[float] = field(default_factory=list)
    rep_fx: list[float] = field(default_factory=list)
    rep_fy: list[float] = field(default_factory=list)
    active: list[bool] = field(default_factory=list)


@dataclass
class PairTrace:
    r: list[float] = field(default_factory=list)
    theta: list[float] = field(default_factory=list)
    vr: list[float] = field(default_factory=list)
    vth: list[float] = field(default_factory=list)
    vrel: list[float] = field(default_factory=list)
    triggered: list[bool] = field(default_factory=list)


@dataclass
class TrajectoryLog:
    """Time-indexed record of robot states, pair engagements, commands, and events."""

    scenario: Scenario
    t: list[float] = field(default_factory=list)
    robots: dict[int, RobotTrace] = field(default_factory=dict)
    pairs: dict[tuple[int, int], PairTrace] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)

    def robot_ids(self) -> list[int]:
        return sorted(self.robots)

    def pair_ids(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def has_event(self, kind: str) -> bool:
        return any(e.kind == kind for e in self.events)


class StepResult(NamedTuple):
    world: tuple[RobotState, ...]
    controls: dict[int, ControlOutput]
    engagements: dict[tuple[int, int], EngagementState]
    forces: dict[int, PlanarVector]
    repulsive: dict[int, PlanarVector]


class _Swarm:
    """Flat float state of a world: per-robot lists in id order and per-pair
    lists in upper-triangle order ((0, 1), (0, 2), ..., (1, 2), ...).

    ``evaluate`` computes every engagement once per pair, then every robot's
    force and turn rate, from the frozen snapshot; ``advance`` propagates
    every robot.  Together they are the one simultaneous-update step that
    ``run`` and ``step`` share.  Robot j sees pair (i, j) through the exact
    negation of its LOS cosines, so reciprocal inputs stay exact negations in
    floating point.
    """

    def __init__(self, robots: tuple[RobotState, ...], params: PFParams):
        self.robots = robots
        self.params = params
        n = len(robots)
        self.ids = [robot.id for robot in robots]
        self.x = [robot.position.x for robot in robots]
        self.y = [robot.position.y for robot in robots]
        self.phi = [robot.heading for robot in robots]
        self.speed = [robot.speed for robot in robots]
        self.active = [robot.active for robot in robots]
        index = {rid: i for i, rid in enumerate(self.ids)}
        # Index of each attacker's target among the *other* robots; None when
        # it is missing, which is an error once the attacker is steered.
        self.target = [
            index.get(robot.attack_target) if robot.attack_target != robot.id else None
            for robot in robots
        ]
        self.pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        # Robot i's pairs in ascending id of the other robot: first those
        # where i is the second robot (LOS reversed), then those where it is
        # the first.
        self.lower: list[list[int]] = [[] for _ in range(n)]
        self.upper: list[list[int]] = [[] for _ in range(n)]
        for p, (a, b) in enumerate(self.pairs):
            self.upper[a].append(p)
            self.lower[b].append(p)
        n_pairs = len(self.pairs)
        self.r = [0.0] * n_pairs
        self.ux = [0.0] * n_pairs
        self.uy = [0.0] * n_pairs
        self.vr = [0.0] * n_pairs
        self.vth = [0.0] * n_pairs
        self.vrel = [0.0] * n_pairs
        self.trig = [False] * n_pairs
        self.fx = [0.0] * n
        self.fy = [0.0] * n
        self.rep_x = [0.0] * n
        self.rep_y = [0.0] * n
        self.omega = [0.0] * n
        self.phi_des: list[float | None] = [None] * n

    def steered(self, i: int) -> BehaviorKind | None:
        """Behavior of robot i if it is active and not stationary, else None."""
        kind = self.robots[i].behavior
        if self.active[i] and kind is not BehaviorKind.STATIONARY:
            return kind
        return None

    def evaluate(self) -> None:
        """Engagements, forces, desired headings and turn rates of the snapshot."""
        params = self.params
        eps_v = params.eps_v
        kappa = params.kappa
        ids, x, y, phi = self.ids, self.x, self.y, self.phi
        r, ux, uy, vr, vth, vrel, trig = (
            self.r, self.ux, self.uy, self.vr, self.vth, self.vrel, self.trig
        )
        vx = [v * math.cos(h) for v, h in zip(self.speed, phi)]
        vy = [v * math.sin(h) for v, h in zip(self.speed, phi)]
        for p, (a, b) in enumerate(self.pairs):
            terms = engagement_terms(x[b] - x[a], y[b] - y[a], vx[b] - vx[a], vy[b] - vy[a], eps_v)
            if terms is None:
                raise CollisionSingularity(f"robots {ids[a]} and {ids[b]} at identical positions")
            r[p], ux[p], uy[p], vr[p], vth[p], vrel[p], trig[p] = terms

        for i, robot in enumerate(self.robots):
            kind = self.steered(i)
            fx = fy = rep_x = rep_y = omega = 0.0
            phi_des = None
            if kind is BehaviorKind.COOPERATIVE:
                if robot.goal is None:
                    raise ValueError(f"robot {robot.id} has no goal to be attracted to")
                fx, fy = attractive_components(x[i], y[i], robot.goal.x, robot.goal.y, kappa)
                for p in self.lower[i]:
                    if trig[p]:
                        tx, ty = repulsive_components(
                            r[p], -ux[p], -uy[p], vr[p], vth[p], vrel[p], params
                        )
                        rep_x += tx
                        rep_y += ty
                for p in self.upper[i]:
                    if trig[p]:
                        tx, ty = repulsive_components(
                            r[p], ux[p], uy[p], vr[p], vth[p], vrel[p], params
                        )
                        rep_x += tx
                        rep_y += ty
                fx += rep_x
                fy += rep_y
                check_finite(fx, fy)
                phi_des = force_heading(fx, fy)
            elif kind is BehaviorKind.ATTACKING:
                t = self.target[i]
                if t is None:
                    raise ValueError(
                        f"robot {robot.id}: attack target {robot.attack_target} not in world"
                    )
                fx, fy = attractive_components(x[i], y[i], x[t], y[t], kappa)
                phi_des = force_heading(fx, fy)
            # A numerically zero force holds the previous desired heading.
            if phi_des is None:
                phi_des = self.phi_des[i]
                if phi_des is None:
                    phi_des = phi[i]
            self.phi_des[i] = phi_des
            if kind is not None:
                omega = heading_controller(phi[i], phi_des, params)
            self.fx[i] = fx
            self.fy[i] = fy
            self.rep_x[i] = rep_x
            self.rep_y[i] = rep_y
            self.omega[i] = omega

    def advance(self, dt: float) -> None:
        """Propagate every active robot by one RK4 step at its commanded rate."""
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        x, y, phi, speed, active = self.x, self.y, self.phi, self.speed, self.active
        dt_finite = math.isfinite(dt)
        for i, omega in enumerate(self.omega):
            if not (math.isfinite(omega) and dt_finite):
                raise SimulationFault(f"robot {self.ids[i]}: non-finite propagation input")
            if active[i]:
                x[i], y[i], phi[i] = advance_pose(x[i], y[i], phi[i], speed[i], omega, dt)

    def theta(self, p: int) -> float:
        """LOS angle of pair p, from its first robot to its second."""
        a, b = self.pairs[p]
        return math.atan2(self.y[b] - self.y[a], self.x[b] - self.x[a])


def step(
    world: Iterable[RobotState],
    params: PFParams,
    dt: float,
    phi_des_held: dict[int, float] | None = None,
    d_wheel: float = 0.35,
    r_wheel: float = 0.04,
) -> StepResult:
    """Advance every robot by one step of simultaneous-update simulation.

    All engagements and forces come from the pre-step snapshot; each robot is
    then propagated with its freshly commanded angular rate held constant for
    ``dt``.  Identical inputs produce bit-identical outputs.
    """
    snapshot = tuple(sorted(world, key=lambda r: r.id))
    if phi_des_held is None:
        phi_des_held = {}
    swarm = _Swarm(snapshot, params)
    swarm.phi_des = [phi_des_held.get(robot.id) for robot in snapshot]
    swarm.evaluate()

    ids = swarm.ids
    engagements: dict[tuple[int, int], EngagementState] = {}
    for p, (a, b) in enumerate(swarm.pairs):
        engagements[(ids[a], ids[b])] = EngagementState(
            i=ids[a],
            j=ids[b],
            r=swarm.r[p],
            theta=swarm.theta(p),
            ux=swarm.ux[p],
            uy=swarm.uy[p],
            vr=swarm.vr[p],
            vth=swarm.vth[p],
            vrel=swarm.vrel[p],
            triggered=swarm.trig[p],
        )

    controls: dict[int, ControlOutput] = {}
    forces: dict[int, PlanarVector] = {}
    repulsive: dict[int, PlanarVector] = {}
    for i, robot in enumerate(snapshot):
        omega = swarm.omega[i]
        wheels = wheel_speeds(robot.speed, omega, d_wheel, r_wheel)
        controls[robot.id] = ControlOutput(swarm.phi_des[i], omega, wheels.v_right, wheels.v_left)
        phi_des_held[robot.id] = swarm.phi_des[i]
        forces[robot.id] = PlanarVector(swarm.fx[i], swarm.fy[i])
        repulsive[robot.id] = PlanarVector(swarm.rep_x[i], swarm.rep_y[i])

    swarm.advance(dt)
    new_world = tuple(
        replace(robot, position=PlanarVector(swarm.x[i], swarm.y[i]), heading=swarm.phi[i])
        if robot.active
        else robot
        for i, robot in enumerate(snapshot)
    )
    return StepResult(new_world, controls, engagements, forces, repulsive)


def _termination_gated(robot: RobotState) -> bool:
    return robot.behavior in (BehaviorKind.COOPERATIVE, BehaviorKind.ATTACKING)


def run(scenario: Scenario) -> TrajectoryLog:
    """Run a scenario to t_max or until every cooperative/attacking robot stops.

    A robot becomes inactive (speed set to zero, exactly once) when it comes
    within ``goal_tol`` of its goal point; inactive robots persist as
    stationary obstacles.  Body overlap (r below the sum of body radii) is
    recorded as an event on entry and the simulation continues.  The state at
    every ``record_stride``-th step plus the terminal state is logged.
    """
    scenario.validate()
    goal_tol = scenario.params.goal_tol
    dt = scenario.dt
    robots = scenario.sorted_robots()
    swarm = _Swarm(robots, scenario.params)
    ids, x, y, active = swarm.ids, swarm.x, swarm.y, swarm.active

    log = TrajectoryLog(scenario=scenario)
    traces = [RobotTrace() for _ in robots]
    log.robots = dict(zip(ids, traces))
    pair_keys = [(ids[a], ids[b]) for a, b in swarm.pairs]
    pair_traces = [PairTrace() for _ in pair_keys]
    log.pairs = dict(zip(pair_keys, pair_traces))

    contact = [robots[a].body_radius + robots[b].body_radius for a, b in swarm.pairs]
    overlapping = [False] * len(pair_keys)
    gated = [i for i, robot in enumerate(robots) if _termination_gated(robot)]
    n_steps = int(round(scenario.t_max / dt))

    def record(t: float) -> None:
        log.t.append(t)
        for i, trace in enumerate(traces):
            trace.x.append(x[i])
            trace.y.append(y[i])
            trace.phi.append(swarm.phi[i])
            trace.omega.append(swarm.omega[i])
            trace.fx.append(swarm.fx[i])
            trace.fy.append(swarm.fy[i])
            trace.rep_fx.append(swarm.rep_x[i])
            trace.rep_fy.append(swarm.rep_y[i])
            trace.active.append(active[i])
        for p, trace in enumerate(pair_traces):
            trace.r.append(swarm.r[p])
            trace.theta.append(swarm.theta(p))
            trace.vr.append(swarm.vr[p])
            trace.vth.append(swarm.vth[p])
            trace.vrel.append(swarm.vrel[p])
            trace.triggered.append(swarm.trig[p])

    for k in range(n_steps + 1):
        t = k * dt
        swarm.evaluate()

        # Body-overlap events fire on entry; the run continues regardless.
        inside = [r < c for r, c in zip(swarm.r, contact)]
        if inside != overlapping:
            for p, now in enumerate(inside):
                if now and not overlapping[p]:
                    log.events.append(Event(t, EVENT_OVERLAP, pair_keys[p]))
            overlapping = inside

        done = k == n_steps or (bool(gated) and not any(active[i] for i in gated))
        if done or k % scenario.record_stride == 0:
            record(t)
        if done:
            break

        swarm.advance(dt)

        # Stop rule: first entry inside goal_tol zeroes the speed for good.
        t_next = (k + 1) * dt
        for i, robot in enumerate(robots):
            if not active[i] or robot.behavior is BehaviorKind.STATIONARY:
                continue
            if robot.behavior is BehaviorKind.ATTACKING:
                target = swarm.target[i]
                dx = x[i] - x[target]
                dy = y[i] - y[target]
            elif robot.goal is not None:
                dx = x[i] - robot.goal.x
                dy = y[i] - robot.goal.y
            else:
                continue
            check_finite(dx, dy)
            if math.hypot(dx, dy) <= goal_tol:
                log.events.append(Event(t_next, EVENT_GOAL, (ids[i],)))
                log.events.append(Event(t_next, EVENT_STOPPED, (ids[i],)))
                swarm.speed[i] = 0.0
                active[i] = False

    return log


def min_separation(log: TrajectoryLog, i: int, j: int) -> float:
    """Minimum recorded separation between robots i and j over the run."""
    key = (min(i, j), max(i, j))
    if key not in log.pairs:
        raise ValueError(f"pair {key} not present in log")
    return min(log.pairs[key].r)

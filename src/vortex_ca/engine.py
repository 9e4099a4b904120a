"""Fixed-step world simulation: per-step force evaluation on a frozen
snapshot, heading control, propagation, trigger bookkeeping, the goal-stop
rule, body-overlap detection, and trajectory logging.

``run`` is the one entry point: it validates a scenario and returns its
trajectory log.

Updates are simultaneous (Jacobi-style): every engagement and force in a step
is computed from the pre-step snapshot, never from partially updated robots.
This is what makes the reciprocal-force identity hold exactly in discrete
time and makes runs invariant to the ordering of robots in the scenario file.

The step works on plain float lists, one entry per robot or per pair, and
evaluates the laws through the float kernels (``engagement_terms``,
``attractive_components``, ``repulsive_components``, ``force_heading``,
``heading_controller``, ``advance_pose``), the same ones that the object
functions ``engagement`` and ``propagate`` use, so its results are
bit-identical to theirs.  The log records floats; no per-step object is built.
The loop keeps only the state the step needs: the LOS angle of each pair,
which nothing in the step reads, is formed after the loop from the logged
positions (``atan2`` on the same floats), and the overlap scan runs only
while some pair is, or comes, inside its contact distance.

Each step is a pair stage (every engagement and every robot's summed
repulsive input, O(N^2)) and then a robot stage (attractive term, finite
check, desired heading, turn rate).  The pair stage runs as scalar loops
below ``_ARRAY_MIN_ROBOTS`` robots and on numpy arrays from there on, where
the arrays are faster; the threshold is the measured crossover, not a
setting.  The array stage gives the same bits because it keeps the scalar
arithmetic: the same kernels (``los_components``, ``repulsive_view``,
``saturation_brackets``) on arrays, ``math.hypot`` through ``map``, views
only where the scalar stage forms them, and per-robot sums added one
neighbour column at a time in the scalar order, never by a numpy reduction
or matrix product (their pairwise summation reorders the additions).  It
raises every fault the scalar stage raises, with the same class and
message, at the same point of the step.

numpy is imported, and the array stage's index arrays (pair endpoints and
view order) are built, on the array stage's first call, not when the module
is imported or a swarm is built: a run of fewer than ``_ARRAY_MIN_ROBOTS``
robots never loads numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .control import force_heading, heading_controller
from .fields import (
    PFParams,
    attractive_components,
    repulsive_components,
    repulsive_view,
    saturation_brackets,
)
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    RobotState,
    SimulationFault,
    advance_pose,
    check_finite,
    engagement_terms,
    los_components,
)

#: Robot count from which the pair stage runs on numpy arrays; below it the
#: scalar loops are faster.  Both give the same bits.  Measured crossover of
#: the two stages (2 CPUs, CPython 3.11, numpy 2.4): about 8 robots when
#: every pair is closing and triggered, about 14 when none is.
_ARRAY_MIN_ROBOTS = 12


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
        if not self.d_wheel > 0.0:
            errors.append("d_wheel must be > 0")
        if not self.r_wheel > 0.0:
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


class _Swarm:
    """Flat float state of a world: per-robot lists in id order and per-pair
    lists in upper-triangle order ((0, 1), (0, 2), ..., (1, 2), ...).

    ``pair_stage`` and then ``robot_stage`` evaluate the frozen snapshot;
    ``advance`` propagates every robot.  Together they are the
    simultaneous-update step that ``run`` repeats; ``run`` validates the
    scenario first, so every goal and attack target the step reads exists.

    The pair stage fills every pair's engagement (``r``, ``ux``, ``uy``,
    ``vr``, ``vth``, ``vrel``, ``trig``) and every cooperative robot's summed
    repulsive input (``rep_x``, ``rep_y``).  Robot j sees pair (i, j) through
    the exact negation of its LOS cosines, so reciprocal inputs stay exact
    negations in floating point, and each robot adds its views in ascending
    id of the other robot, starting from +0.0.  It has two implementations
    with the same bits: scalar loops, and a numpy stage that swarms of at
    least ``_ARRAY_MIN_ROBOTS`` robots use (see ``_array_pair_stage``); it
    leaves ``ux`` and ``uy``, which no later stage reads, as numpy arrays.
    A repulsive view that fails its finite check, or divides by zero, is not
    raised by the pair stage but kept in ``fault`` as a ``SimulationFault``;
    the robot stage raises it after that robot's attractive term, so faults
    surface robot by robot in id order.

    The robot stage has one implementation: the attractive term, the finite
    check, the desired heading and the turn rate of each robot in id order.
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
        self.cooperative = [robot.behavior is BehaviorKind.COOPERATIVE for robot in robots]
        index = {rid: i for i, rid in enumerate(self.ids)}
        # Index of each attacker's target; None for robots that attack nothing.
        self.target = [index.get(robot.attack_target) for robot in robots]
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
        self.fault: list[Exception | None] = [None] * n
        self.omega = [0.0] * n
        self.phi_des: list[float | None] = [None] * n
        self.pair_stage = (
            self._array_pair_stage if n >= _ARRAY_MIN_ROBOTS else self._scalar_pair_stage
        )

    @cached_property
    def _view_index(self):
        """Index arrays of the array stage, built on its first call: the pair
        endpoints, and every view (robot, pair, LOS sign, column) in the
        order the scalar stage adds them: by robot, then by ascending id of
        the other robot, which is also the column."""
        import numpy as np

        views = [
            (i, p, sign, col)
            for i in range(len(self.ids))
            for col, (p, sign) in enumerate(
                [(p, -1.0) for p in self.lower[i]] + [(p, 1.0) for p in self.upper[i]]
            )
        ]
        return (
            np.array([a for a, _ in self.pairs], dtype=np.intp),
            np.array([b for _, b in self.pairs], dtype=np.intp),
            np.array([v[0] for v in views], dtype=np.intp),
            np.array([v[1] for v in views], dtype=np.intp),
            np.array([v[2] for v in views]),
            np.array([v[3] for v in views], dtype=np.intp),
        )

    def _scalar_pair_stage(self) -> None:
        """The pair stage as float loops: one ``engagement_terms`` per pair,
        one ``repulsive_components`` per triggered view."""
        params = self.params
        ids, x, y, active, cooperative = self.ids, self.x, self.y, self.active, self.cooperative
        r, ux, uy, vr, vth, vrel, trig = (
            self.r, self.ux, self.uy, self.vr, self.vth, self.vrel, self.trig
        )
        vx = [v * math.cos(h) for v, h in zip(self.speed, self.phi)]
        vy = [v * math.sin(h) for v, h in zip(self.speed, self.phi)]
        for p, (a, b) in enumerate(self.pairs):
            terms = engagement_terms(
                x[b] - x[a], y[b] - y[a], vx[b] - vx[a], vy[b] - vy[a], params.eps_v
            )
            if terms is None:
                raise CollisionSingularity(f"robots {ids[a]} and {ids[b]} at identical positions")
            r[p], ux[p], uy[p], vr[p], vth[p], vrel[p], trig[p] = terms

        for i in range(len(ids)):
            rep_x = rep_y = 0.0
            fault = None
            if active[i] and cooperative[i]:
                try:
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
                except SimulationFault as exc:
                    fault = exc
                except ZeroDivisionError:
                    # vrel * r * r underflowed to 0.0 on a closing pair
                    fault = SimulationFault(
                        f"robot {ids[i]}: repulsive input divides by zero at separation "
                        f"{r[p]!r} m"
                    )
            self.rep_x[i] = rep_x
            self.rep_y[i] = rep_y
            self.fault[i] = fault

    def _array_pair_stage(self) -> None:
        """The pair stage on numpy arrays, bit-identical to the scalar one.

        IEEE ``+ - * /`` round the same in numpy as in Python, so the
        arithmetic kernels (``los_components``, ``repulsive_view``,
        ``saturation_brackets``) run unchanged on arrays.  ``math.hypot``
        runs through ``map`` over ``.tolist()``, since ``np.hypot`` may
        differ in the last bit.  Views are formed only for triggered pairs
        of cooperative steered robots, saturation keeps the scalar
        ``-f_lim * sign(bracket)`` through ``np.where`` and ``np.sign``, and
        each robot's views are added column by column in ascending id of the
        other robot onto +0.0: an untriggered view adds +0.0, which leaves
        a sum that never is -0.0 unchanged.  A numpy reduction or matrix
        product could reorder the additions and is not used.

        numpy runs with its floating-point warnings off, as Python floats
        overflow silently too.  A zero separation is raised here, the first
        in pair order.  If any view is not finite, the scalar stage redoes
        the step, so every fault keeps its class, message and order.
        """
        import numpy as np

        params = self.params
        n = len(self.ids)
        n_pairs = len(self.pairs)
        a, b, view_robot, view_pair, view_sign, view_col = self._view_index
        with np.errstate(all="ignore"):
            x = np.fromiter(self.x, float, n)
            y = np.fromiter(self.y, float, n)
            speed = np.fromiter(self.speed, float, n)
            vx = speed * np.fromiter(map(math.cos, self.phi), float, n)
            vy = speed * np.fromiter(map(math.sin, self.phi), float, n)
            dx = x[b] - x[a]
            dy = y[b] - y[a]
            r_list = list(map(math.hypot, dx.tolist(), dy.tolist()))
            r = np.fromiter(r_list, float, n_pairs)
            if not r.all():
                a, b = self.pairs[r_list.index(0.0)]
                raise CollisionSingularity(
                    f"robots {self.ids[a]} and {self.ids[b]} at identical positions"
                )
            ux, uy, vr, vth = los_components(dx, dy, r, vx[b] - vx[a], vy[b] - vy[a])
            vrel_list = list(map(math.hypot, vr.tolist(), vth.tolist()))
            vrel = np.fromiter(vrel_list, float, n_pairs)
            trig = (vrel > params.eps_v) & (vr < 0.0)

            coop = np.fromiter(self.cooperative, bool, n) & np.fromiter(self.active, bool, n)
            live = coop[view_robot] & trig[view_pair]
            pv = view_pair[live]
            sign = view_sign[live]
            r_v, ux_v, uy_v, vr_v, vth_v = r[pv], ux[pv] * sign, uy[pv] * sign, vr[pv], vth[pv]
            fx, fy = repulsive_view(r_v, ux_v, uy_v, vr_v, vth_v, vrel[pv], params.lam,
                                    params.vortex)
            finite = np.isfinite(fx).all() and np.isfinite(fy).all()
            if finite and not math.isinf(params.f_lim):
                near = ~(r_v > params.r_star)
                if near.any():
                    bx, by = saturation_brackets(ux_v, uy_v, vr_v, vth_v)
                    fx = np.where(near, -params.f_lim * np.sign(bx), fx)
                    fy = np.where(near, -params.f_lim * np.sign(by), fy)
                    # np.sign keeps a NaN bracket that _sign maps to 0.
                    finite = np.isfinite(fx).all() and np.isfinite(fy).all()
            if not finite:
                # The scalar stage writes Python floats into lists.
                self.ux, self.uy = [0.0] * n_pairs, [0.0] * n_pairs
                self._scalar_pair_stage()
                return

            cols = np.zeros((n - 1, 2, n))
            rows = view_robot[live]
            col = view_col[live]
            cols[col, 0, rows] = fx
            cols[col, 1, rows] = fy
            rep = np.zeros((2, n))
            for column in cols:
                rep += column

        self.r = r_list
        self.ux = ux  # read by no later stage, so left as arrays
        self.uy = uy
        self.vr = vr.tolist()
        self.vth = vth.tolist()
        self.vrel = vrel_list
        self.trig = trig.tolist()
        self.rep_x = rep[0].tolist()
        self.rep_y = rep[1].tolist()
        self.fault = [None] * n

    def robot_stage(self) -> None:
        """Each robot's total force, desired heading and turn rate, in id order."""
        params = self.params
        kappa = params.kappa
        x, y, phi, active = self.x, self.y, self.phi, self.active
        for i, robot in enumerate(self.robots):
            # Active, non-stationary robots steer; kind is None for the rest.
            kind = robot.behavior if active[i] else None
            if kind is BehaviorKind.STATIONARY:
                kind = None
            fx = fy = omega = 0.0
            phi_des = None
            if kind is BehaviorKind.COOPERATIVE:
                fx, fy = attractive_components(x[i], y[i], robot.goal.x, robot.goal.y, kappa)
                fault = self.fault[i]
                if fault is not None:
                    raise fault
                fx += self.rep_x[i]
                fy += self.rep_y[i]
                check_finite(fx, fy)
                phi_des = force_heading(fx, fy)
            elif kind is BehaviorKind.ATTACKING:
                t = self.target[i]
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
            self.omega[i] = omega

    def advance(self, dt: float) -> None:
        """Propagate every active robot by one RK4 step at its commanded rate."""
        x, y, phi, speed, active = self.x, self.y, self.phi, self.speed, self.active
        for i, omega in enumerate(self.omega):
            if not math.isfinite(omega):
                raise SimulationFault(f"robot {self.ids[i]}: non-finite propagation input")
            if active[i]:
                x[i], y[i], phi[i] = advance_pose(x[i], y[i], phi[i], speed[i], omega, dt)


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
    # The run ends once every gated robot has stopped (if there is one).
    gated_active = sum(active[i] for i in gated)
    # The robots the stop rule checks, in id order: index, target index (an
    # attacker's) or None, goal point (anyone else's), and whether it is gated.
    movers = []
    for i, robot in enumerate(robots):
        if robot.behavior is BehaviorKind.ATTACKING:
            movers.append((i, swarm.target[i], None, None, True))
        elif robot.behavior is not BehaviorKind.STATIONARY and robot.goal is not None:
            movers.append((i, None, robot.goal.x, robot.goal.y, _termination_gated(robot)))
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
            trace.vr.append(swarm.vr[p])
            trace.vth.append(swarm.vth[p])
            trace.vrel.append(swarm.vrel[p])
            trace.triggered.append(swarm.trig[p])

    pair_stage, robot_stage = swarm.pair_stage, swarm.robot_stage
    for k in range(n_steps + 1):
        t = k * dt
        pair_stage()
        robot_stage()

        # Body-overlap events fire on entry; the run continues regardless.
        if any(overlapping) or any(map(operator.lt, swarm.r, contact)):
            inside = [r < c for r, c in zip(swarm.r, contact)]
            if inside != overlapping:
                for p, now in enumerate(inside):
                    if now and not overlapping[p]:
                        log.events.append(Event(t, EVENT_OVERLAP, pair_keys[p]))
                overlapping = inside

        done = k == n_steps or (bool(gated) and gated_active == 0)
        if done or k % scenario.record_stride == 0:
            record(t)
        if done:
            break

        swarm.advance(dt)

        # Stop rule: first entry inside goal_tol zeroes the speed for good.
        t_next = (k + 1) * dt
        for i, target, goal_x, goal_y, gates in movers:
            if not active[i]:
                continue
            if target is None:
                dx = x[i] - goal_x
                dy = y[i] - goal_y
            else:
                dx = x[i] - x[target]
                dy = y[i] - y[target]
            check_finite(dx, dy)
            if math.hypot(dx, dy) <= goal_tol:
                log.events.append(Event(t_next, EVENT_GOAL, (ids[i],)))
                log.events.append(Event(t_next, EVENT_STOPPED, (ids[i],)))
                swarm.speed[i] = 0.0
                active[i] = False
                if gates:
                    gated_active -= 1

    # LOS angle of every pair, from its first robot to its second, on the
    # logged positions.
    for (a, b), trace in zip(swarm.pairs, pair_traces):
        trace.theta = list(map(
            math.atan2,
            map(operator.sub, traces[b].y, traces[a].y),
            map(operator.sub, traces[b].x, traces[a].x),
        ))
    return log


def min_separation(log: TrajectoryLog, i: int, j: int) -> float:
    """Minimum recorded separation between robots i and j over the run."""
    key = (min(i, j), max(i, j))
    if key not in log.pairs:
        raise ValueError(f"pair {key} not present in log")
    return min(log.pairs[key].r)

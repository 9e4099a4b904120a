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
``heading_controller``, ``advance_pose``).  The tests build an object-level
reference engine on the same kernels (``tests/test_engine_reference.py``),
and the engine's log must equal the reference's bit for bit.  The log records
floats; no per-step object is built.
The loop keeps only the state the step needs: each robot's constants
(behaviour, goal point, target) are read once, before the loop; the cosine
and sine of each heading are formed once per step, for the pair stage and
the propagation; the LOS angle of each pair, which nothing in the step
reads, is not formed at all (``TrajectoryLog.pair_theta`` forms it from the
logged positions for the writer); and the overlap scan runs only while some
pair is, or comes, inside its contact distance.

Each step is a pair stage (every engagement and every robot's summed
repulsive input, O(N^2)) and then a robot stage (attractive term, finite
check, desired heading, turn rate).  The repulsive law is evaluated once per
triggered pair: the pair's first robot adds the input and its second robot
the negation, which is bit for bit what the second robot's own view gives
(see ``_Swarm``).  The pair stage runs as scalar loops below
``_ARRAY_MIN_ROBOTS`` robots and on numpy arrays from there on, where the
arrays are faster; the threshold is the measured crossover, not a setting.
The array stage gives the same bits because it keeps the scalar arithmetic:
the same kernels (``los_components``, ``repulsive_view``,
``saturation_brackets``) on arrays, ``math.hypot`` through ``map``, inputs
only where the scalar stage forms them, and per-robot sums added by
``np.add.accumulate`` one neighbour column at a time in the scalar order,
never by a numpy reduction or matrix product (their pairwise summation
reorders the additions).  It raises every fault the scalar stage raises,
with the same class and message, at the same point of the step.

numpy is imported, and the array stage's index arrays (pair endpoints) are
built, on the array stage's first call, not when the module is imported or
a swarm is built: a run of fewer than ``_ARRAY_MIN_ROBOTS`` robots never
loads numpy.

``Scenario`` validation caps the step count (``MAX_STEPS``) and the values a
log records (``MAX_RECORDED_VALUES``), so a run never starts that could not
finish or fit in memory.
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

#: Caps on the size of a run, checked by scenario validation before anything
#: is allocated: the physics steps (round(t_max / dt)), and the values a log
#: at record_stride keeps, (steps // record_stride + 2) * (1 + 9 N + 6 P) for
#: N robots and P pairs, one per cell of trajectory.csv and pairs.csv.  Each
#: is over 100 times what the presets and the benchmark workloads use; the
#: values cap keeps a log under about 1.6 GB of Python floats.
MAX_STEPS = 10_000_000
MAX_RECORDED_VALUES = 50_000_000

_COOPERATIVE = BehaviorKind.COOPERATIVE
_ATTACKING = BehaviorKind.ATTACKING


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
        if not errors:
            errors += self._size_errors()
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

    def n_steps(self) -> int:
        """Physics steps after the initial state: round(t_max / dt)."""
        return int(round(self.t_max / self.dt))

    def _size_errors(self) -> list[str]:
        steps = self.t_max / self.dt
        if not math.isfinite(steps):
            return ["t_max / dt overflows"]
        if round(steps) > MAX_STEPS:
            return [f"t_max / dt gives {steps:.6g} steps (the cap is {MAX_STEPS})"]
        n = len(self.robots)
        values = (self.n_steps() // self.record_stride + 2) * (1 + 9 * n + 3 * n * (n - 1))
        if values > MAX_RECORDED_VALUES:
            return [
                f"the log would record {values} values (the cap is {MAX_RECORDED_VALUES}); "
                "use fewer steps or robots or a larger record_stride"
            ]
        return []

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
    """A pair's recorded engagement; its LOS angle is not kept but formed
    from the logged positions (``TrajectoryLog.pair_theta``)."""

    r: list[float] = field(default_factory=list)
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

    def pair_theta(self, key: tuple[int, int]) -> list[float]:
        """LOS angle of a pair at every recorded step, from its first robot to
        its second: ``atan2`` on the logged positions, the floats the step
        used."""
        a, b = self.robots[key[0]], self.robots[key[1]]
        return list(map(math.atan2, map(operator.sub, b.y, a.y), map(operator.sub, b.x, a.x)))


class _Swarm:
    """Flat float state of a world: per-robot lists in id order and per-pair
    lists in upper-triangle order ((0, 1), (0, 2), ..., (1, 2), ...).

    ``pair_stage`` and then ``robot_stage`` evaluate the frozen snapshot;
    ``advance`` propagates every robot.  Together they are the
    simultaneous-update step that ``run`` repeats; ``run`` validates the
    scenario first, so every goal and attack target the step reads exists.

    The pair stage forms the cosine and sine of every heading (``cos_phi``,
    ``sin_phi``; ``advance`` reuses them), every pair's engagement (``r``,
    ``ux``, ``uy``, ``vr``, ``vth``, ``vrel``, ``trig``) and every
    cooperative robot's summed repulsive input (``rep_x``, ``rep_y``).  The
    law is evaluated once per triggered pair that has a cooperative, active
    endpoint, on the LOS from the pair's first robot to its second: the
    first robot adds that input and the second robot its negation.  The
    second robot's own view of the pair has the exactly negated LOS
    cosines, and in IEEE round-to-nearest those negate every nonzero result
    (unsaturated, or the saturated ``-f_lim * sign(bracket)``); only a zero
    may come out with the other sign.  Each robot adds its inputs in
    ascending id of the other robot, starting from +0.0: such a sum never is
    -0.0, so the sign of a zero input cannot change it, and each robot gets
    the sum its own views give.  The stage has two implementations with the
    same bits: scalar loops, and a numpy stage that swarms of at least
    ``_ARRAY_MIN_ROBOTS`` robots use (see ``_array_pair_stage``); it leaves
    ``ux`` and ``uy``, which no later stage reads, as numpy arrays.
    A pair whose input fails its finite check, or divides by zero, is
    evaluated again from each cooperative endpoint's own view, so the fault
    names that robot and its own values.  The pair stage does not raise it
    but keeps each robot's first in ``fault`` as a ``SimulationFault``; the
    robot stage raises it after that robot's attractive term, so faults
    surface robot by robot in id order.  A faulted robot's sums are never
    read.

    The robot stage has one implementation: the attractive term, the finite
    check, the desired heading and the turn rate of each robot in id order.
    It reads each robot's constants from ``steering``, built once: index,
    behaviour (None for a stationary robot), goal point (None, None without
    a goal) and target index (None unless it attacks).
    """

    def __init__(self, robots: tuple[RobotState, ...], params: PFParams):
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
        self.steering = [
            (
                i,
                None if robot.behavior is BehaviorKind.STATIONARY else robot.behavior,
                *((None, None) if robot.goal is None else (robot.goal.x, robot.goal.y)),
                index.get(robot.attack_target) if robot.behavior is _ATTACKING else None,
            )
            for i, robot in enumerate(robots)
        ]
        self.pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
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
    def _pair_index(self):
        """The pair endpoints as index arrays, built on the array stage's
        first call."""
        import numpy as np

        return (
            np.array([a for a, _ in self.pairs], dtype=np.intp),
            np.array([b for _, b in self.pairs], dtype=np.intp),
        )

    def _view_fault(self, i: int, p: int, sign: float) -> SimulationFault | None:
        """The fault of robot ``i``'s own view of pair ``p``, whose LOS
        cosines are the pair's times ``sign``.  Called on a pair whose input
        raised, so the view, which is its exact negation or itself, raises
        too."""
        try:
            repulsive_components(
                self.r[p], sign * self.ux[p], sign * self.uy[p], self.vr[p], self.vth[p],
                self.vrel[p], self.params,
            )
        except SimulationFault as exc:
            return exc
        except ZeroDivisionError:
            # vrel * r * r underflowed to 0.0 on a closing pair
            return SimulationFault(
                f"robot {self.ids[i]}: repulsive input divides by zero at separation "
                f"{self.r[p]!r} m"
            )
        return None

    def _scalar_pair_stage(self) -> None:
        """The pair stage as float loops: one ``engagement_terms`` per pair,
        one ``repulsive_components`` per triggered pair with a cooperative,
        active endpoint."""
        params = self.params
        eps_v = params.eps_v
        ids, x, y = self.ids, self.x, self.y
        r, ux, uy, vr, vth, vrel, trig = (
            self.r, self.ux, self.uy, self.vr, self.vth, self.vrel, self.trig
        )
        self.cos_phi = cos_phi = list(map(math.cos, self.phi))
        self.sin_phi = sin_phi = list(map(math.sin, self.phi))
        vx = list(map(operator.mul, self.speed, cos_phi))
        vy = list(map(operator.mul, self.speed, sin_phi))
        live = list(map(operator.and_, self.active, self.cooperative))
        n = len(ids)
        rep_x = [0.0] * n
        rep_y = [0.0] * n
        fault: list[Exception | None] = [None] * n
        for p, (a, b) in enumerate(self.pairs):
            terms = engagement_terms(x[b] - x[a], y[b] - y[a], vx[b] - vx[a], vy[b] - vy[a], eps_v)
            if terms is None:
                raise CollisionSingularity(f"robots {ids[a]} and {ids[b]} at identical positions")
            r[p], ux[p], uy[p], vr[p], vth[p], vrel[p], trig[p] = terms
            if trig[p] and (live[a] or live[b]):
                try:
                    fx, fy = repulsive_components(
                        r[p], ux[p], uy[p], vr[p], vth[p], vrel[p], params
                    )
                except (SimulationFault, ZeroDivisionError):
                    for i, sign in ((a, 1.0), (b, -1.0)):
                        if live[i] and fault[i] is None:
                            fault[i] = self._view_fault(i, p, sign)
                    continue
                if live[a]:
                    rep_x[a] += fx
                    rep_y[a] += fy
                if live[b]:
                    rep_x[b] -= fx
                    rep_y[b] -= fy
        self.rep_x = rep_x
        self.rep_y = rep_y
        self.fault = fault

    def _array_pair_stage(self) -> None:
        """The pair stage on numpy arrays, bit-identical to the scalar one.

        IEEE ``+ - * /`` round the same in numpy as in Python, so the
        arithmetic kernels (``los_components``, ``repulsive_view``,
        ``saturation_brackets``) run unchanged on arrays.  ``math.hypot``
        runs through ``map`` over ``.tolist()``, since ``np.hypot`` may
        differ in the last bit.  The law runs once per triggered pair with a
        cooperative, active endpoint, and saturation keeps the scalar
        ``-f_lim * sign(bracket)`` through ``np.where`` and ``np.sign``.
        Each input and its negation go into a ``(2, n, n + 1)`` matrix at
        row (robot) and column (1 + the other robot's index), which
        ``np.add.accumulate`` sums along the columns: the sum starts from
        the zero first column and adds one column after the other in
        ascending id of the other robot, as the scalar stage does.  An empty
        entry adds +0.0, which leaves a sum that never is -0.0 unchanged.  A
        numpy reduction or matrix product could reorder the additions and is
        not used.

        numpy runs with its floating-point warnings off, as Python floats
        overflow silently too.  A zero separation is raised here, the first
        in pair order.  If any input is not finite, the scalar stage redoes
        the step, so every fault keeps its class, message and order.
        """
        import numpy as np

        params = self.params
        n = len(self.ids)
        n_pairs = len(self.pairs)
        a, b = self._pair_index
        self.cos_phi = cos_phi = list(map(math.cos, self.phi))
        self.sin_phi = sin_phi = list(map(math.sin, self.phi))
        with np.errstate(all="ignore"):
            x = np.fromiter(self.x, float, n)
            y = np.fromiter(self.y, float, n)
            speed = np.fromiter(self.speed, float, n)
            vx = speed * np.fromiter(cos_phi, float, n)
            vy = speed * np.fromiter(sin_phi, float, n)
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
            live = np.flatnonzero(trig & (coop[a] | coop[b]))
            r_l, ux_l, uy_l, vr_l, vth_l = r[live], ux[live], uy[live], vr[live], vth[live]
            fx, fy = repulsive_view(r_l, ux_l, uy_l, vr_l, vth_l, vrel[live], params.lam,
                                    params.vortex)
            finite = np.isfinite(fx).all() and np.isfinite(fy).all()
            if finite and not math.isinf(params.f_lim):
                near = ~(r_l > params.r_star)
                if near.any():
                    bx, by = saturation_brackets(ux_l, uy_l, vr_l, vth_l)
                    fx = np.where(near, -params.f_lim * np.sign(bx), fx)
                    fy = np.where(near, -params.f_lim * np.sign(by), fy)
                    # np.sign keeps a NaN bracket that _sign maps to 0.
                    finite = np.isfinite(fx).all() and np.isfinite(fy).all()
            if not finite:
                # The scalar stage writes Python floats into lists.
                self.ux, self.uy = [0.0] * n_pairs, [0.0] * n_pairs
                self._scalar_pair_stage()
                return

            inputs = np.zeros((2, n, n + 1))
            first, second = a[live], b[live]
            inputs[:, first, second + 1] = fx, fy
            inputs[:, second, first + 1] = -fx, -fy
            rep = np.add.accumulate(inputs, axis=2)[:, :, -1]
            rep[:, ~coop] = 0.0

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
        x, y, phi, active, held = self.x, self.y, self.phi, self.active, self.phi_des
        for i, kind, goal_x, goal_y, target in self.steering:
            fx = fy = omega = 0.0
            phi_des = None
            # Active, non-stationary robots steer.
            steered = kind is not None and active[i]
            if steered and kind is _COOPERATIVE:
                fx, fy = attractive_components(x[i], y[i], goal_x, goal_y, kappa)
                fault = self.fault[i]
                if fault is not None:
                    raise fault
                fx += self.rep_x[i]
                fy += self.rep_y[i]
                check_finite(fx, fy)
                phi_des = force_heading(fx, fy)
            elif steered and kind is _ATTACKING:
                fx, fy = attractive_components(x[i], y[i], x[target], y[target], kappa)
                phi_des = force_heading(fx, fy)
            # A numerically zero force holds the previous desired heading.
            if phi_des is None:
                phi_des = held[i]
                if phi_des is None:
                    phi_des = phi[i]
            held[i] = phi_des
            if steered:
                omega = heading_controller(phi[i], phi_des, params)
            self.fx[i] = fx
            self.fy[i] = fy
            self.omega[i] = omega

    def advance(self, dt: float) -> None:
        """Propagate every active robot by one RK4 step at its commanded rate."""
        x, y, phi, speed, active = self.x, self.y, self.phi, self.speed, self.active
        cos_phi, sin_phi = self.cos_phi, self.sin_phi
        for i, omega in enumerate(self.omega):
            if not math.isfinite(omega):
                raise SimulationFault(f"robot {self.ids[i]}: non-finite propagation input")
            if active[i]:
                x[i], y[i], phi[i] = advance_pose(
                    x[i], y[i], phi[i], cos_phi[i], sin_phi[i], speed[i], omega, dt
                )


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
    # The robots the stop rule checks, in id order: index, target index (an
    # attacker's) or None, goal point (anyone else's), and whether the run
    # waits for it: it ends once every gated robot has stopped (if there is one).
    movers = [
        (i, target, goal_x, goal_y, kind is _COOPERATIVE or kind is _ATTACKING)
        for i, kind, goal_x, goal_y, target in swarm.steering
        if kind is _ATTACKING or (kind is not None and goal_x is not None)
    ]
    gated = [i for i, _, _, _, gates in movers if gates]
    gated_active = sum(active[i] for i in gated)
    n_steps = scenario.n_steps()

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
    return log


def min_separation(log: TrajectoryLog, i: int, j: int) -> float:
    """Minimum recorded separation between robots i and j over the run."""
    key = (min(i, j), max(i, j))
    if key not in log.pairs:
        raise ValueError(f"pair {key} not present in log")
    return min(log.pairs[key].r)

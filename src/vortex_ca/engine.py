"""Fixed-step world simulation: per-step force evaluation on a frozen
snapshot, heading control, propagation, trigger bookkeeping, the goal-stop
rule, body-overlap detection, and trajectory logging.

``run`` is the one entry point: it validates a scenario, runs it, and hands
what it records to a recorder (``Recorder``).  At every ``record_stride``-th
step and at the last one, ``run`` calls the recorder's per-step callable,
which reads the swarm's state, and it appends each event to the recorder's
``events`` as it happens.  There is one step loop, whatever the recorder.
The default, ``LogRecorder``, appends each recorded step to a
``TrajectoryLog``, which ``run`` then returns; a sweep cell's recorder
(``sweep_metrics.MetricsFold``) keeps only the running values its metrics
read.  The log's traces hold one list per column of trajectory.csv and
pairs.csv; ``ROBOT_COLUMNS`` and ``PAIR_COLUMNS`` are that schema, and
``robot_columns`` and ``pair_columns`` the run layout: which robot or pair
each column belongs to, in what order, under what header name.

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
(behaviour, goal point, target, whether its repulsive input is read) are
formed once, before the loop, and the last of them again only when a robot
stops (``_Swarm.stop``); the cosine and sine of each heading are formed once
per heading, by the propagation that turns to it (``advance_pose``), and
read by the next pair stage and propagation; the LOS angle of each
pair, which nothing in the step reads, is not formed in the step at all
(``LogRecorder.result`` forms it from the logged positions); and the
per-pair overlap list is formed only while some pair is, or comes, inside
its contact distance.  The check for that is the one scan each step makes
over the separations (``_Swarm.touching``).

Each step is a pair stage (every engagement and every robot's summed
repulsive input, O(N^2)) and then a robot stage (attractive term, finite
check, desired heading, turn rate).  The pair stage runs as scalar loops
below ``_ARRAY_MIN_ROBOTS`` robots and on numpy arrays from there on, where
the arrays are faster; the threshold is the measured crossover, not a
setting.  The two give the same bits and raise the same faults (see
``_Swarm`` and ``_Swarm._array_pair_stage``).

numpy is imported, and the array stage's constant arrays (pair endpoints,
contact distances, scatter offsets) are built, on the array stage's first
call, not when the module is imported or a swarm is built: a run of fewer
than ``_ARRAY_MIN_ROBOTS`` robots never loads numpy.

``Scenario`` validation caps the step count (``MAX_STEPS``) and the values a
log records (``MAX_RECORDED_VALUES``), so a run never starts that could not
finish or fit in memory.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Protocol

from .control import force_heading, heading_controller
from .fields import (
    PFParams,
    attractive_components,
    repulsive_components,
    repulsive_view,
    saturated_components,
)
from .kinematics import (
    BehaviorKind,
    CollisionSingularity,
    RobotState,
    ScenarioError,
    SimulationFault,
    advance_pose,
    check_finite,
    engagement_terms,
    los_components,
)

#: Robot count from which the pair stage runs on numpy arrays; below it the
#: scalar loops are faster.  Both give the same bits.  Measured crossover of
#: the two stages with their contact scans (2 CPUs, CPython 3.11, numpy 2.4):
#: about 8 robots when every pair is closing and triggered, about 12 to 13
#: when none is.
_ARRAY_MIN_ROBOTS = 12

#: Caps on the size of a run, checked by scenario validation before anything
#: is allocated: the physics steps (round(t_max / dt)), and the values a log
#: at record_stride keeps, (steps // record_stride + 2) * (1 + 9 N + 6 P) for
#: N robots and P pairs, one per cell of ``ROBOT_COLUMNS`` and
#: ``PAIR_COLUMNS``.  Each is over 100 times what the presets and the
#: benchmark workloads use; the values cap keeps a log under about 1.6 GB of
#: Python floats.
MAX_STEPS = 10_000_000
MAX_RECORDED_VALUES = 50_000_000

_COOPERATIVE = BehaviorKind.COOPERATIVE
_ATTACKING = BehaviorKind.ATTACKING


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

    def validation_errors(self, all_robots: bool = True) -> list[str]:
        """Every problem found; ``all_robots`` False (some robot entries were
        rejected) skips the checks that a rejected robot could satisfy."""
        errors: list[str] = []
        if not self.robots and all_robots:
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
                if robot.attack_target == robot.id:
                    errors.append(f"robot {robot.id}: cannot attack itself")
                elif robot.attack_target not in known and all_robots:
                    errors.append(
                        f"robot {robot.id}: attack target {robot.attack_target} does not exist"
                    )
            if robot.behavior in (BehaviorKind.COOPERATIVE, BehaviorKind.NON_COOPERATIVE):
                if robot.goal is None:
                    errors.append(f"robot {robot.id}: {robot.behavior.value} behavior needs a goal")
        return errors

    def n_steps(self) -> int:
        """Physics steps after the initial state: round(t_max / dt)."""
        return int(round(self.t_max / self.dt))

    def recorded_values(self, steps: int | None = None) -> int:
        """Values a log at ``record_stride`` keeps at most over a run of
        ``steps`` steps (by default ``n_steps``), one per cell of
        ``ROBOT_COLUMNS`` and ``PAIR_COLUMNS`` and ``t``:
        (steps // record_stride + 2) * (1 + 9 N + 6 P)."""
        n = len(self.robots)
        row = 1 + len(ROBOT_COLUMNS) * n + len(PAIR_COLUMNS) * (n * (n - 1) // 2)
        if steps is None:
            steps = self.n_steps()
        return (steps // self.record_stride + 2) * row

    def fewest_steps(self) -> int:
        """A lower bound on the steps ``run`` takes, at most ``n_steps``.
        The run ends before ``n_steps`` only once every gated robot
        (cooperative or attacking) has come within ``goal_tol`` of its goal
        or target, and a step closes that distance by at most the robot's
        speed times ``dt``, plus its target's speed for an attacker.  So an
        active gated robot outside ``goal_tol`` needs floor(excess /
        (closing speed * dt)) steps at least, and ``n_steps`` if it cannot
        close.  A run without a gated robot takes ``n_steps``."""
        n_steps = self.n_steps()
        by_id = {robot.id: robot for robot in self.robots}
        gated = [robot for robot in self.robots if robot.behavior in (_COOPERATIVE, _ATTACKING)]
        if not gated:
            return n_steps
        fewest = 0
        for robot in gated:
            end, closing = robot.goal, robot.speed
            if robot.behavior is _ATTACKING:
                target = by_id[robot.attack_target]
                end, closing = target.position, closing + target.speed
            excess = math.hypot(end.x - robot.position.x,
                                end.y - robot.position.y) - self.params.goal_tol
            if robot.active and excess > 0.0:  # an inactive robot has stopped already
                step = closing * self.dt
                steps = excess / step if step > 0.0 else math.inf
                fewest = max(fewest, int(steps) if steps < n_steps else n_steps)
        return fewest

    def _size_errors(self) -> list[str]:
        steps = self.t_max / self.dt
        if not math.isfinite(steps):
            return ["t_max / dt overflows"]
        if round(steps) > MAX_STEPS:
            return [f"t_max / dt gives {steps:.6g} steps (the cap is {MAX_STEPS})"]
        values = self.recorded_values()
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

    def robot_ids(self) -> list[int]:
        return sorted(robot.id for robot in self.robots)

    def pair_ids(self) -> list[tuple[int, int]]:
        """The order of a log's pairs: each (i, j) with i < j, ascending in
        ``i`` and then in ``j``; the upper triangle of the sorted ids."""
        return list(itertools.combinations(self.robot_ids(), 2))


class Event(NamedTuple):
    t: float
    kind: str  # GoalReached | Stopped | BodyOverlap
    ids: tuple[int, ...]


EVENT_GOAL = "GoalReached"
EVENT_STOPPED = "Stopped"
EVENT_OVERLAP = "BodyOverlap"


class Column(NamedTuple):
    """One per-robot or per-pair CSV column: header suffix, trace attribute, 0/1 flag."""

    suffix: str
    attr: str
    flag: bool = False


# The column contract of trajectory.csv (per robot, after ``t``) and pairs.csv
# (per pair, after ``t``), in the field order of RobotTrace and PairTrace;
# the size cap and the run layout (``robot_columns``, ``pair_columns``) use these.
ROBOT_COLUMNS = (
    Column("x", "x"), Column("y", "y"), Column("phi", "phi"), Column("omega", "omega"),
    Column("fx", "fx"), Column("fy", "fy"), Column("repfx", "rep_fx"), Column("repfy", "rep_fy"),
    Column("active", "active", flag=True),
)
PAIR_COLUMNS = (
    Column("r", "r"), Column("theta", "theta"), Column("vr", "vr"), Column("vth", "vth"),
    Column("vrel", "vrel"), Column("trig", "triggered", flag=True),
)


def robot_columns(ids: Iterable[int]) -> Iterator[tuple[str, Column, int]]:
    """trajectory.csv's columns after ``t`` for the robots ``ids``, in order:
    (``r<id>_<suffix>``, column, robot id)."""
    for rid in ids:
        for col in ROBOT_COLUMNS:
            yield f"r{rid}_{col.suffix}", col, rid


def pair_columns(keys: Iterable[tuple[int, int]]) -> Iterator[tuple[str, Column, Any]]:
    """pairs.csv's columns after ``t`` for the pairs ``keys``, in order:
    (``p<i>_<j>_<suffix>``, column, pair key)."""
    for key in keys:
        tag = f"p{key[0]}_{key[1]}_"
        for col in PAIR_COLUMNS:
            yield tag + col.suffix, col, key


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
    """A pair's recorded engagement; ``theta`` is the LOS angle from its
    first robot to its second."""

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

    @classmethod
    def empty(cls, scenario: Scenario) -> TrajectoryLog:
        """A log of ``scenario`` with an empty trace for each robot and each
        pair, in the order of ``Scenario.robot_ids`` and ``pair_ids``."""
        return cls(scenario, robots={rid: RobotTrace() for rid in scenario.robot_ids()},
                   pairs={key: PairTrace() for key in scenario.pair_ids()})

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

    Each robot's heading is kept with its cosine and sine (``cos_phi``,
    ``sin_phi``): ``advance`` takes the new ones from ``advance_pose``, and
    the pair stage and ``advance`` read them.  The pair stage forms every
    pair's engagement (``r``,
    ``vr``, ``vth``, ``vrel``, ``trig``; the LOS cosines are not kept) and
    every cooperative robot's summed repulsive input (``rep_x``, ``rep_y``).
    The law is evaluated once per triggered pair that has a live endpoint,
    one that is cooperative and active (``_live``), on the LOS from the
    pair's first robot to its second: the first robot adds that input and
    the second robot its negation.  The second robot's own view of the pair
    has the exactly negated LOS cosines, and in IEEE round-to-nearest those
    negate every nonzero result (unsaturated, or the saturated
    ``-f_lim * sign(bracket)``); only a zero may come out with the other
    sign.  Each robot adds its inputs in ascending id of the other robot,
    starting from +0.0: such a sum never is -0.0, so the sign of a zero
    input cannot change it, and each robot gets the sum its own views give.

    The pair stage has two implementations with the same bits: scalar
    loops, and a numpy stage that swarms of at least ``_ARRAY_MIN_ROBOTS``
    robots use (see ``_array_pair_stage``); ``touching`` scans the stage's
    own form of the separations.  A pair at a zero separation, or whose
    separation or relative speed ``vrel`` is not finite, aborts the step with
    a fault that names the pair.  ``stop`` is the one place a robot becomes
    inactive, and so stops being live, during a run.  A pair whose input
    fails its finite check, or divides by zero, is evaluated again from each
    live endpoint's own view (``_view_fault``), so the fault names that
    robot and its own values.  The pair stage does not raise it but keeps
    each robot's first in ``fault`` as a ``SimulationFault``; the robot
    stage raises it after that robot's attractive term, so faults surface
    robot by robot in id order.  A faulted robot's sums are never read.

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
        self.cos_phi = list(map(math.cos, self.phi))
        self.sin_phi = list(map(math.sin, self.phi))
        self.speed = [robot.speed for robot in robots]
        self.active = [robot.active for robot in robots]
        # Whether each robot is cooperative and active, so that its summed
        # repulsive input is read.
        self._live = [robot.active and robot.behavior is _COOPERATIVE for robot in robots]
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
        self.pair_ids = [(self.ids[a], self.ids[b]) for a, b in self.pairs]
        self.contact = [robots[a].body_radius + robots[b].body_radius for a, b in self.pairs]
        n_pairs = len(self.pairs)
        self.r = [0.0] * n_pairs
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
        self.array = n >= _ARRAY_MIN_ROBOTS  # which pair stage runs

    # Properties: bound methods kept on the swarm would make it a GC-only cycle.
    @property
    def pair_stage(self) -> Callable[[], None]:
        return self._array_pair_stage if self.array else self._scalar_pair_stage

    @property
    def touching(self) -> Callable[[], bool]:
        return self._array_touching if self.array else self._scalar_touching

    @cached_property
    def _pair_index(self):
        """The array stage's constant arrays, built on its first call, one
        entry per pair: its endpoints, its contact distance, and the offsets
        at which its inputs are scattered (rows: the first robot's x and y
        input, the second robot's x and y input)."""
        import numpy as np

        n = len(self.ids)
        first = np.array([a for a, _ in self.pairs], dtype=np.intp)
        second = np.array([b for _, b in self.pairs], dtype=np.intp)
        # Flat offsets into a (2, n, n + 1) buffer: component, robot, 1 + the
        # other robot's index; the second component's block is n * (n + 1) on.
        forward = first * (n + 1) + second + 1
        backward = second * (n + 1) + first + 1
        block = n * (n + 1)
        scatter = np.stack((forward, forward + block, backward, backward + block))
        return first, second, np.array(self.contact), scatter

    @cached_property
    def _live_masks(self):
        """The array stage's form of ``_live``: the robots whose sums are
        zeroed, and the pairs with a live endpoint."""
        import numpy as np

        live = np.array(self._live)
        first, second, _, _ = self._pair_index
        return ~live, live[first] | live[second]

    def stop(self, i: int) -> None:
        """Robot ``i`` stops for good: zero speed, inactive, not live; the
        array stage rebuilds ``_live_masks`` on its next call."""
        self.speed[i] = 0.0
        self.active[i] = False
        self._live[i] = False
        self.__dict__.pop("_live_masks", None)

    def _scalar_touching(self) -> bool:
        """Whether some pair of the last pair stage is inside its contact
        distance."""
        return any(map(operator.lt, self.r, self.contact))

    def _array_touching(self) -> bool:
        """``_scalar_touching`` on the array stage's separations."""
        return bool((self._r < self._pair_index[2]).any())

    def _view_fault(
        self, i: int, r: float, ux: float, uy: float, vr: float, vth: float, vrel: float
    ) -> SimulationFault | None:
        """The fault of robot ``i``'s own view ``(r, ux, uy, vr, vth, vrel)``
        of a pair whose input raised; the view is that input's exact negation
        or itself, so it raises too."""
        try:
            repulsive_components(r, ux, uy, vr, vth, vrel, self.params)
        except SimulationFault as exc:
            return exc
        except ZeroDivisionError:
            # vrel * r * r underflowed to 0.0 on a closing pair
            return SimulationFault(
                f"robot {self.ids[i]}: repulsive input divides by zero at separation {r!r} m"
            )
        return None

    def _scalar_pair_stage(self) -> None:
        """The pair stage as float loops: one ``engagement_terms`` per pair,
        one ``repulsive_components`` per triggered pair with a cooperative,
        active endpoint."""
        params = self.params
        eps_v, inf = params.eps_v, math.inf
        ids, x, y = self.ids, self.x, self.y
        r, vr, vth, vrel, trig = self.r, self.vr, self.vth, self.vrel, self.trig
        vx = list(map(operator.mul, self.speed, self.cos_phi))
        vy = list(map(operator.mul, self.speed, self.sin_phi))
        live = self._live
        n = len(ids)
        rep_x = [0.0] * n
        rep_y = [0.0] * n
        fault: list[Exception | None] = [None] * n
        for p, (a, b) in enumerate(self.pairs):
            terms = engagement_terms(x[b] - x[a], y[b] - y[a], vx[b] - vx[a], vy[b] - vy[a], eps_v)
            if terms is None:
                raise CollisionSingularity(f"robots {ids[a]} and {ids[b]} at identical positions")
            r[p], ux, uy, vr[p], vth[p], vrel[p], trig[p] = terms
            if not (r[p] < inf and vrel[p] < inf):  # vrel = hypot(vr, vth) covers both
                raise SimulationFault(f"robots {ids[a]} and {ids[b]}: non-finite pair state "
                                      f"(r={r[p]!r}, vrel={vrel[p]!r})")
            if trig[p] and (live[a] or live[b]):
                try:
                    fx, fy = repulsive_components(r[p], ux, uy, vr[p], vth[p], vrel[p], params)
                except (SimulationFault, ZeroDivisionError):
                    for i, sign in ((a, 1.0), (b, -1.0)):
                        if live[i] and fault[i] is None:
                            fault[i] = self._view_fault(
                                i, r[p], sign * ux, sign * uy, vr[p], vth[p], vrel[p]
                            )
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

        IEEE ``+ - * /`` and comparisons give the same results in numpy as
        in Python, so the arithmetic kernels (``los_components``,
        ``repulsive_view``, ``saturated_components``) run unchanged on
        arrays.  ``math.hypot`` runs through ``map`` over ``.tolist()``,
        since ``np.hypot`` may differ in the last bit.  The stage leaves
        what the scalar stage leaves (``r``, ``vr``, ``vth``, ``vrel`` and
        ``trig`` as lists), and the separations as ``_r`` for
        ``_array_touching``.  The law runs on the triggered pairs with a
        live endpoint (``_live_masks``), and those inside ``r_star`` take
        ``saturated_components`` through ``np.where``.  Each input and its
        negation are scattered through the flat offsets of ``_pair_index``
        into a zeroed ``(2, n, n + 1)`` buffer at row (robot) and column
        (1 + the other robot's index), which ``np.add.accumulate`` sums
        along the columns: the sum starts from the zero first column and
        adds one column after the other in ascending id of the other robot,
        as the scalar stage does.  An empty entry adds +0.0, which leaves a
        sum that never is -0.0 unchanged.  A numpy reduction or matrix
        product could reorder the additions and is not used.

        numpy runs with its floating-point warnings off, as Python floats
        overflow silently too.  If a separation is zero, a separation or
        ``vrel`` is not finite, or an unsaturated input is not finite, the
        scalar stage redoes the step, so every fault keeps its class,
        message and order; a saturated input is always finite.
        """
        import numpy as np

        params = self.params
        n = len(self.ids)
        a, b, _, scatter = self._pair_index
        with np.errstate(all="ignore"):
            state = np.array((self.x, self.y, self.cos_phi, self.sin_phi, self.speed))
            state[2:4] *= state[4]  # velocities: speed * cos and speed * sin
            ends = state[:4]
            dx, dy, rvx, rvy = ends.take(b, axis=1) - ends.take(a, axis=1)
            r_list = list(map(math.hypot, dx.tolist(), dy.tolist()))
            self._r = r = np.fromiter(r_list, float, len(r_list))
            ux, uy, vr, vth = los_components(dx, dy, r, rvx, rvy)
            vr_list, vth_list = vr.tolist(), vth.tolist()
            vrel_list = list(map(math.hypot, vr_list, vth_list))
            vrel = np.fromiter(vrel_list, float, len(vrel_list))
            # r and vrel are never negative: r - vrel is finite iff both are
            if not (r.all() and np.isfinite(r - vrel).all()):
                self._scalar_pair_stage()
                return
            trig = (vrel > params.eps_v) & (vr < 0.0)

            idle, live_pairs = self._live_masks
            live = np.flatnonzero(trig & live_pairs)
            r_l, ux_l, uy_l, vr_l, vth_l = r[live], ux[live], uy[live], vr[live], vth[live]
            fx, fy = repulsive_view(r_l, ux_l, uy_l, vr_l, vth_l, vrel[live], params.lam,
                                    params.vortex)
            if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
                self._scalar_pair_stage()
                return
            if not math.isinf(params.f_lim):
                near = ~(r_l > params.r_star)
                if near.any():
                    sx, sy = saturated_components(ux_l, uy_l, vr_l, vth_l, params.f_lim)
                    fx = np.where(near, sx, fx)
                    fy = np.where(near, sy, fy)

            inputs = np.zeros((2, n, n + 1))
            inputs.put(scatter.take(live, axis=1), (fx, fy, -fx, -fy))
            rep = np.add.accumulate(inputs, axis=2)[:, :, -1]
            rep[:, idle] = 0.0

        self.r = r_list
        self.vr = vr_list
        self.vth = vth_list
        self.vrel = vrel_list
        self.trig = trig.tolist()
        self.rep_x, self.rep_y = rep.tolist()
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
            if not math.isfinite(omega * dt):  # advance_pose turns by omega * dt
                raise SimulationFault(f"robot {self.ids[i]}: non-finite propagation input")
            if active[i]:
                x[i], y[i], phi[i], cos_phi[i], sin_phi[i] = advance_pose(
                    x[i], y[i], phi[i], cos_phi[i], sin_phi[i], speed[i], omega, dt
                )


class Recorder(Protocol):
    """What ``run`` reports a run to.  ``run`` calls ``start`` once, with the
    scenario and the swarm, before the first step, and the callable it
    returns at every recorded step, with the step's time; it appends each
    event to ``events`` as it happens, and returns ``result()`` at the end."""

    events: list[Event]

    def start(self, scenario: Scenario, swarm: _Swarm) -> Callable[[float], None]: ...

    def result(self) -> Any: ...


class LogRecorder:
    """The default recorder: every recorded step appended to a
    ``TrajectoryLog``, which ``result`` returns after forming each pair's
    ``theta`` by ``atan2`` on the logged positions, the floats the step used
    (``form_theta``)."""

    def start(self, scenario: Scenario, swarm: _Swarm) -> Callable[[float], None]:
        x, y, active = swarm.x, swarm.y, swarm.active
        self.log = TrajectoryLog.empty(scenario)  # the swarm's order: ids ascending
        traces, pair_traces = list(self.log.robots.values()), list(self.log.pairs.values())
        self.events = self.log.events
        t_column = self.log.t

        def record(t: float) -> None:
            t_column.append(t)
            phi, omega, fx, fy, rep_x, rep_y = (
                swarm.phi, swarm.omega, swarm.fx, swarm.fy, swarm.rep_x, swarm.rep_y
            )
            for i, trace in enumerate(traces):
                trace.x.append(x[i])
                trace.y.append(y[i])
                trace.phi.append(phi[i])
                trace.omega.append(omega[i])
                trace.fx.append(fx[i])
                trace.fy.append(fy[i])
                trace.rep_fx.append(rep_x[i])
                trace.rep_fy.append(rep_y[i])
                trace.active.append(active[i])
            r, vr, vth, vrel, trig = swarm.r, swarm.vr, swarm.vth, swarm.vrel, swarm.trig
            for p, trace in enumerate(pair_traces):
                trace.r.append(r[p])
                trace.vr.append(vr[p])
                trace.vth.append(vth[p])
                trace.vrel.append(vrel[p])
                trace.triggered.append(trig[p])

        return record

    def result(self) -> TrajectoryLog:
        form_theta(self.log)
        return self.log


def recorded_lists(log: TrajectoryLog) -> list[list]:
    """What a run records of ``log``, in the run layout's order: ``t``, then
    the list of each ``robot_columns`` and ``pair_columns`` column but the
    pairs' ``theta``, which ``form_theta`` forms after the run."""
    return (
        [log.t]
        + [getattr(log.robots[rid], col.attr) for _, col, rid in robot_columns(log.robot_ids())]
        + [getattr(log.pairs[key], col.attr) for _, col, key in pair_columns(log.pair_ids())
           if col.attr != "theta"]
    )


def form_theta(log: TrajectoryLog) -> None:
    """Fill each pair's ``theta`` list in ``log`` in place: the LOS angle from
    its first robot to its second at each recorded row, by ``atan2`` on the
    logged positions."""
    for (i, j), trace in log.pairs.items():
        a, b = log.robots[i], log.robots[j]
        dy, dx = map(operator.sub, b.y, a.y), map(operator.sub, b.x, a.x)
        trace.theta[:] = map(math.atan2, dy, dx)


def run(scenario: Scenario, recorder: Recorder | None = None) -> Any:
    """Run a scenario to t_max or until every cooperative/attacking robot stops.

    A robot becomes inactive (speed set to zero, exactly once) when it comes
    within ``goal_tol`` of its goal point; inactive robots persist as
    stationary obstacles.  Body overlap (r below the sum of body radii) is
    recorded as an event on entry and the simulation continues.  The state at
    every ``record_stride``-th step plus the terminal state goes to
    ``recorder``, a fresh ``LogRecorder`` unless given, and ``run`` returns
    its ``result()``: by default the ``TrajectoryLog``.
    """
    scenario.validate()
    goal_tol = scenario.params.goal_tol
    dt = scenario.dt
    swarm = _Swarm(scenario.sorted_robots(), scenario.params)
    ids, x, y, active = swarm.ids, swarm.x, swarm.y, swarm.active
    if recorder is None:
        recorder = LogRecorder()
    record = recorder.start(scenario, swarm)
    events = recorder.events

    overlapping = [False] * len(swarm.pairs)
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

    pair_stage, robot_stage, touching = swarm.pair_stage, swarm.robot_stage, swarm.touching
    for k in range(n_steps + 1):
        t = k * dt
        pair_stage()
        robot_stage()

        # Body-overlap events fire on entry; the run continues regardless.
        if any(overlapping) or touching():
            inside = [r < c for r, c in zip(swarm.r, swarm.contact)]
            if inside != overlapping:
                for p, now in enumerate(inside):
                    if now and not overlapping[p]:
                        events.append(Event(t, EVENT_OVERLAP, swarm.pair_ids[p]))
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
                events.append(Event(t_next, EVENT_GOAL, (ids[i],)))
                events.append(Event(t_next, EVENT_STOPPED, (ids[i],)))
                swarm.stop(i)
                if gates:
                    gated_active -= 1
    return recorder.result()


def min_separation(log: TrajectoryLog, i: int, j: int) -> float:
    """Minimum recorded separation between robots i and j over the run."""
    key = (min(i, j), max(i, j))
    if key not in log.pairs:
        raise ValueError(f"pair {key} not present in log")
    return min(log.pairs[key].r)

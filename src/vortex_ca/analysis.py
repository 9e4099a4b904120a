"""Analytic oracles and verification: the closed-loop relative-acceleration
right-hand sides for every engagement regime, the matching Lyapunov functions
and derivatives, geometric bounds for bounded-input maneuvers, and post-hoc
checks over trajectory logs.

The closed-loop equations describe the idealized engagement in relative polar
coordinates, where commanded forces act directly as accelerations.  A
constant-speed unicycle can only realize the force component perpendicular to
its velocity, so engine trajectories track these equations qualitatively, not
pointwise: ``closed_loop_errors_from_log`` reports the gap and nothing
asserts it, while the log-based checks assert the qualitative certificates.
The quantitative finite-difference cross-check (``verify_closed_loop``) runs
in the tests on direct integrations of the equations themselves
(integration and differentiation as independent routes).

The CLI imports this module on first use, in ``analyze`` and in the
``max_lyap_derivative`` sweep metric; ``run``, ``plotdata`` and the other
sweeps never load it.  ``RegimeKind`` lives in ``kinematics`` and is
re-exported here.  Every series and check works on plain floats, so this
module never loads numpy; the numeric derivative of a Lyapunov series is
numpy's ``gradient`` rewritten with the same operation order.

A function of a log reads the run's parameters from ``log.scenario``, so a
log is checked under the parameters it was run with; a single-pair regime's
pair is the log's only one.

A regime is one ``REGIMES`` entry: its rules, its Lyapunov series and its
checks.  A new check declares the trace attributes it reads in its ``Check``,
and ``analyze`` parses only the columns its regime declares (``REGIME_COLUMNS``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .engine import EVENT_OVERLAP, EVENT_STOPPED, TrajectoryLog
from .fields import PFParams
from .kinematics import BehaviorKind, RegimeKind, RobotState, wrap_angle


@dataclass(frozen=True)
class LyapunovSeries:
    """A regime's Lyapunov value with its analytic and numeric derivatives, one
    column entry per recorded step (``t`` is the log's recorded times).

    A dataclass, not a tuple, so ``len(series)`` and ``for s in series`` fail
    instead of running over the columns.
    """

    t: list[float]
    value: list[float]
    derivative_analytic: list[float]
    derivative_numeric: list[float]
    regime: RegimeKind


def closed_loop_rhs(
    regime: RegimeKind,
    r: float,
    vr: float,
    vth: float,
    vrel: float,
    params: PFParams,
) -> tuple[float, float]:
    """Analytic (dVr/dt, dVth/dt) for the regime's idealized closed loop."""
    if r <= 0.0:
        raise ValueError("closed-loop dynamics need r > 0")
    if regime is RegimeKind.ATTRACTIVE_ONLY:
        return vth * vth / r - params.kappa, -vr * vth / r
    if regime is RegimeKind.MULTI_ROBOT:
        raise ValueError("no single-pair closed form exists for the multi-robot regime")
    if vrel <= 0.0:
        raise ValueError("repulsive regimes need vrel > 0")
    alpha = params.lam / (vrel * r * r)
    if regime is RegimeKind.COOP_PAIR:
        return vth * vth / r + 4.0 * alpha * vr * vth, -vr * vth / r + 2.0 * alpha * vr * vr
    if regime is RegimeKind.COOP_VS_NONCOOP:
        return vth * vth / r + 2.0 * alpha * vr * vth, -vr * vth / r + alpha * vr * vr
    if regime is RegimeKind.COOP_VS_ATTACKER:
        return (
            vth * vth / r + 2.0 * alpha * vr * vth - params.kappa,
            -vr * vth / r + alpha * vr * vr,
        )
    if regime is RegimeKind.NONVORTEX_PAIR:
        return vth * vth / r - 2.0 * alpha * vr * vr, -vr * vth / r + 4.0 * alpha * vr * vth
    raise ValueError(f"unknown regime {regime}")


def lyapunov(
    regime: RegimeKind,
    r: float,
    vr: float,
    vth: float,
    vrel: float,
    params: PFParams,
) -> tuple[float, float]:
    """Lyapunov value and its analytic time derivative for a single-pair regime.

    ``vrel`` doubles as the constant speed scale where the function needs one:
    for the attractive-only regime it equals the robot speed (exact for a
    stationary goal), and for the non-vortex pair it is the head-on relative
    speed.  The multi-robot regime sums ``_multi_robot_value`` and
    ``_multi_robot_derivative`` over the triggered pairs (``multi_lyapunov``).
    """
    if r <= 0.0:
        raise ValueError("lyapunov functions need r > 0")
    if regime is RegimeKind.ATTRACTIVE_ONLY:
        value = params.kappa * r + 0.5 * vth * vth + 0.5 * (vr + vrel) ** 2
        return value, -vrel * (params.kappa - vth * vth / r)
    if vrel <= 0.0:
        raise ValueError("repulsive regimes need vrel > 0")
    alpha = params.lam / (vrel * r * r)
    if regime is RegimeKind.COOP_PAIR:
        return _multi_robot_value(r, vr, vth), vr * (1.0 + 6.0 * alpha * vr * vth)
    if regime is RegimeKind.COOP_VS_NONCOOP:
        return _multi_robot_value(r, vr, vth), -abs(vr) * (1.0 + 3.0 * alpha * vr * vth)
    if regime is RegimeKind.COOP_VS_ATTACKER:
        value = params.kappa * r + 0.5 * (vth * vth + vr * vr)
        return value, 3.0 * alpha * vr * vr * vth
    if regime is RegimeKind.NONVORTEX_PAIR:
        # Value offsets Vr by the head-on relative speed; the derivative is the
        # chain rule along the non-vortex closed loop with that offset constant.
        value = r + 0.5 * vth * vth + 0.5 * (vr + vrel) ** 2
        f_r, f_th = closed_loop_rhs(regime, r, vr, vth, vrel, params)
        return value, vr + vth * f_th + (vr + vrel) * f_r
    raise ValueError(f"no single-pair Lyapunov function for {regime}")


def _multi_robot_value(r: float, vr: float, vth: float) -> float:
    """One triggered pair's term of the multi-robot Lyapunov value, and the
    whole value of the cooperative pair and cooperative/non-cooperative regimes."""
    return r + 0.5 * (vth * vth + vr * vr)


def _multi_robot_derivative(
    r: float, vr: float, vth: float, vrel: float, lam: float, n_active: int
) -> float:
    """One triggered pair's term of the multi-robot Lyapunov function's
    analytic derivative, with ``n_active`` cooperative robots applying
    repulsive inputs."""
    return -abs(vr) * (1.0 + 3.0 * n_active * lam * vr * vth / (vrel * r * r))


def cooperative_ends(robots: Sequence[RobotState]) -> list[tuple[int, ...]]:
    """For each pair of ``robots`` (sorted by id; pairs in upper-triangle
    order, as a log's ``pair_ids``), the indices of its cooperative robots."""
    coop = [robot.behavior is BehaviorKind.COOPERATIVE for robot in robots]
    n = len(robots)
    return [tuple(i for i in (a, b) if coop[i]) for a in range(n) for b in range(a + 1, n)]


def multi_robot_derivative(
    r: Sequence[float], vr: Sequence[float], vth: Sequence[float], vrel: Sequence[float],
    triggered: Sequence[bool], active: Sequence[bool], ends: Sequence[Sequence[int]],
    lam: float,
) -> float:
    """The multi-robot Lyapunov function's analytic derivative at one
    recorded step, from its pair columns (one entry per pair, in the
    swarm's pair order) and its robots' ``active`` flags.

    ``ends`` are the pairs' cooperative robots (``cooperative_ends``).
    n_active counts the active ones among the triggered pairs' ends; the
    derivative is the sum, from 0.0 in pair order, of every triggered pair's
    term, or 0.0 when n_active is 0.  Every term is formed either way, so a
    term that divides by zero raises.  ``multi_lyapunov`` and the sweep's
    ``max_lyap_derivative`` both form the derivative here.
    """
    on = list(compress(range(len(triggered)), triggered))
    n_active = len({i for p in on for i in ends[p] if active[i]})
    total = 0.0
    for p in on:
        term = _multi_robot_derivative(r[p], vr[p], vth[p], vrel[p], lam, n_active)
        if n_active >= 1:
            total += term
    return total


# ---------------------------------------------------------------------------
# Finite differences against the closed-loop equations


@dataclass
class RelativeTrace:
    """Trajectory of the relative state (r, Vr, Vth) under a closed-loop regime."""

    regime: RegimeKind
    t: Sequence[float]
    r: Sequence[float]
    vr: Sequence[float]
    vth: Sequence[float]


@dataclass(frozen=True)
class ClosedLoopReport:
    """Outcome of the finite-difference vs analytic right-hand-side comparison."""

    regime: RegimeKind
    max_rel_error: float
    t_worst: float
    n_points: int


def verify_closed_loop(trace: RelativeTrace, params: PFParams) -> ClosedLoopReport:
    """Compare central finite differences of Vr(t), Vth(t) against the analytic
    right-hand sides at every interior sample.

    Errors are normalized by the peak magnitude of the corresponding analytic
    component over the window, so the report is meaningful across the zero
    crossings every engagement passes through.
    """
    regime = trace.regime
    t, vr, vth = trace.t, trace.vr, trace.vth
    if len(t) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    rhs = [
        closed_loop_rhs(regime, float(r), float(v_r), float(v_th), math.hypot(v_r, v_th), params)
        for r, v_r, v_th in zip(trace.r, vr, vth)
    ]
    scale_r = max(max(abs(f_r) for f_r, _ in rhs), 1e-30)
    scale_th = max(max(abs(f_th) for _, f_th in rhs), 1e-30)
    err = []
    for k in range(1, len(t) - 1):
        # IEEE division: a repeated time gives inf or nan, as in numpy
        span = t[k + 1] - t[k - 1]
        f_r, f_th = rhs[k]
        err.append(max(
            abs(_ieee_div(vr[k + 1] - vr[k - 1], span) - f_r) / scale_r,
            abs(_ieee_div(vth[k + 1] - vth[k - 1], span) - f_th) / scale_th,
        ))
    worst = err.index(max(err))
    return ClosedLoopReport(
        regime=regime,
        max_rel_error=float(err[worst]),
        t_worst=float(t[worst + 1]),
        n_points=len(err),
    )


# Samples dropped at each end of a triggered window, next to the trigger
# switching on or off.
_BOUNDARY_SKIP = 2


def closed_loop_errors_from_log(
    log: TrajectoryLog, regime: RegimeKind
) -> ClosedLoopReport | None:
    """Descriptive comparison of the logged engine pair against the idealized
    closed loop, restricted to the interior of triggered intervals.

    Constant-speed robots cannot realize force components along their
    velocity, so this error does not shrink with dt; it is reported for
    inspection, never asserted.
    """
    trace = log.pairs[log.pair_ids()[0]]
    # The longest contiguous triggered run; the first one among equal ones.
    start = length = run = 0
    for k, flag in enumerate(trace.triggered):
        run = run + 1 if flag else 0
        if run > length:
            start, length = k + 1 - run, run
    if length < 2 * _BOUNDARY_SKIP + 3:
        return None
    window = slice(start + _BOUNDARY_SKIP, start + length - _BOUNDARY_SKIP)
    sub = RelativeTrace(regime, log.t[window], trace.r[window], trace.vr[window], trace.vth[window])
    return verify_closed_loop(sub, log.scenario.params)


# ---------------------------------------------------------------------------
# Geometric bounds for non-point robots with bounded inputs


def turn_radius(speed: float, f_lim: float) -> float:
    """Radius of the circle traced under saturated lateral acceleration."""
    if not f_lim > 0.0:
        raise ValueError("f_lim must be > 0")
    return speed * speed / f_lim


def grazing_separation(r_turn: float, half_separation: float) -> float:
    """Half the minimum center distance in the symmetric saturated head-on maneuver.

    Both robots trace circles of radius ``r_turn`` from an initial lateral
    offset ``half_separation``; zero offset makes the circles touch.
    """
    if not r_turn > 0.0:
        raise ValueError("r_turn must be > 0")
    if half_separation < 0.0:
        raise ValueError("half_separation must be >= 0")
    return math.hypot(r_turn, half_separation) - r_turn


def attacker_standoff(lam: float, speed: float) -> float:
    """Initial separation sufficient for a cooperative robot to evade a pursuer."""
    if lam < 0.0 or speed < 0.0:
        raise ValueError("lam and speed must be >= 0")
    return math.sqrt(3.0 * lam * speed)


# ---------------------------------------------------------------------------
# Log-based Lyapunov series


def multi_lyapunov(log: TrajectoryLog) -> LyapunovSeries:
    """Summed Lyapunov value over all currently triggered pairs, per recorded step.

    The analytic derivative is ``multi_robot_derivative`` at each step.
    Untriggered steps contribute an empty sum (value 0).  The numeric
    derivative is a central difference of the value series (one-sided at
    the ends).
    """
    traces = [log.pairs[key] for key in log.pair_ids()]
    ends = cooperative_ends(log.scenario.sorted_robots())
    lam = log.scenario.params.lam

    def by_step(name: str):  # the pairs' column ``name``, one tuple per step
        if not traces:
            return repeat((), len(log.t))
        return zip(*(getattr(trace, name) for trace in traces))

    active = zip(*(log.robots[rid].active for rid in log.robot_ids()))
    values: list[float] = []
    derivs: list[float] = []
    for r, vr, vth, vrel, triggered, flags in zip(
        by_step("r"), by_step("vr"), by_step("vth"), by_step("vrel"), by_step("triggered"), active
    ):
        total = 0.0
        for p, flag in enumerate(triggered):
            if flag:
                total += _multi_robot_value(r[p], vr[p], vth[p])
        values.append(total)
        derivs.append(multi_robot_derivative(r, vr, vth, vrel, triggered, flags, ends, lam))
    return LyapunovSeries(
        log.t, values, derivs, numeric_derivative(values, log.t), RegimeKind.MULTI_ROBOT
    )


def _ieee_div(a: float, b: float) -> float:
    """``a / b`` as IEEE division, as numpy divides: a zero divisor gives a
    signed infinity or nan instead of raising."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def numeric_derivative(f: Sequence[float], t: Sequence[float]) -> list[float]:
    """``np.gradient(f, t).tolist()`` in plain floats, bit for bit.

    It keeps numpy's operation order: second-order central differences
    inside, ``(f[k+1] - f[k-1]) / (2h)`` when every step of ``t`` equals
    the first and numpy's three-point weights otherwise, and one-sided
    differences at the two ends.  One sample gives ``[0.0]``.  A zero
    divisor (a repeated time, or a weight whose denominator underflows)
    gives inf or nan as in numpy, not an exception.
    """
    n = len(f)
    if n != len(t):
        raise ValueError(f"{n} values for {len(t)} times")
    if n < 2:
        return [0.0] * n
    dx = list(map(sub, t[1:], t[:-1]))
    h = dx[0]
    if all(d == h for d in dx):
        h2 = 2.0 * h
        inner = [_ieee_div(f2 - f0, h2) for f0, f2 in zip(f, f[2:])]
        first = last = h
    else:
        inner = [
            _ieee_div(-d2, d1 * (d1 + d2)) * f0 + _ieee_div(d2 - d1, d1 * d2) * f1
            + _ieee_div(d1, d2 * (d1 + d2)) * f2
            for d1, d2, f0, f1, f2 in zip(dx, dx[1:], f, f[1:], f[2:])
        ]
        first, last = dx[0], dx[-1]
    return [_ieee_div(f[1] - f[0], first), *inner, _ieee_div(f[-1] - f[-2], last)]


def _lyapunov_series(
    log: TrajectoryLog, regime: RegimeKind, r: Sequence[float], vr: Sequence[float],
    vth: Sequence[float], vrel: Sequence[float],
) -> LyapunovSeries:
    """The regime's Lyapunov value and analytic derivative on the given relative states."""
    params = log.scenario.params
    values: list[float] = []
    derivs: list[float] = []
    for state in zip(r, vr, vth, vrel, strict=True):
        value, deriv = lyapunov(regime, *state, params)
        values.append(value)
        derivs.append(deriv)
    return LyapunovSeries(log.t, values, derivs, numeric_derivative(values, log.t), regime)


def pair_lyapunov_series(log: TrajectoryLog, regime: RegimeKind) -> LyapunovSeries:
    """Per-step Lyapunov value/derivatives for the logged pair under a regime."""
    trace = log.pairs[log.pair_ids()[0]]
    eps_v = log.scenario.params.eps_v
    vrel = [eps_v if v <= 0.0 else v for v in trace.vrel]
    return _lyapunov_series(log, regime, trace.r, trace.vr, trace.vth, vrel)


def attractive_only_lyapunov(log: TrajectoryLog) -> LyapunovSeries:
    """Attractive-only Lyapunov series of the lowest-id robot about its own goal."""
    rid = log.robot_ids()[0]
    robot = next(r for r in log.scenario.robots if r.id == rid)
    r, _, vr, vth = goal_engagement_series(log, rid)
    speed = [robot.speed if a else 0.0 for a in log.robots[rid].active]
    return _lyapunov_series(log, RegimeKind.ATTRACTIVE_ONLY, r, vr, vth, speed)


def goal_engagement_series(
    log: TrajectoryLog, robot_id: int
) -> tuple[list[float], list[float], list[float], list[float]]:
    """(r, theta, vr, vth) of a robot relative to its own stationary goal."""
    robot = next(r for r in log.scenario.robots if r.id == robot_id)
    if robot.goal is None:
        raise ValueError(f"robot {robot_id} has no goal")
    trace = log.robots[robot_id]
    gx, gy = robot.goal.x, robot.goal.y
    r: list[float] = []
    theta: list[float] = []
    vr: list[float] = []
    vth: list[float] = []
    for x, y, phi, active in zip(trace.x, trace.y, trace.phi, trace.active):
        dx = gx - x
        dy = gy - y
        los = math.atan2(dy, dx)
        speed = robot.speed if active else 0.0
        r.append(math.hypot(dx, dy))
        theta.append(los)
        vr.append(-speed * math.cos(phi - los))
        vth.append(-speed * math.sin(phi - los))
    return r, theta, vr, vth


# ---------------------------------------------------------------------------
# Log checks and the regime table (drives the analyze command)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | WARN | INFO
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


def _fold(pick: Callable[[float, float], float], values: Iterable[float], start: float) -> float:
    """``pick(start, *values)`` for ``pick`` ``max`` or ``min``, except that a
    nan value gives nan (the builtins drop a nan after the first value), so
    a check's tolerance comparison on its worst value fails and prints it."""
    worst = start
    for value in values:
        if value != value:
            return math.nan
        worst = pick(worst, value)
    return worst


def _time_monotone_check(log: TrajectoryLog) -> list[CheckResult]:
    monotone = all(b > a for a, b in zip(log.t, log.t[1:]))
    return [_check("time_monotone", monotone, "recorded times strictly increase")]


def _circle_constraint_check(log: TrajectoryLog) -> list[CheckResult]:
    if not log.pairs:
        return []
    worst = _fold(max, (
        abs(vr ** 2 + vth ** 2 - vrel ** 2)
        for trace in log.pairs.values() for vr, vth, vrel in zip(trace.vr, trace.vth, trace.vrel)
    ), 0.0)
    return [_check("circle_constraint", worst < 1e-9, f"max |Vr^2+Vth^2-Vrel^2| = {worst:.3e}")]


_RECIPROCITY_TOL = 1e-12  # largest |F_rep_i + F_rep_j| accepted on a triggered step


def _reciprocity_check(log: TrajectoryLog) -> list[CheckResult]:
    (i, j) = log.pair_ids()[0]
    ti, tj = log.robots[i], log.robots[j]
    pair = log.pairs[(i, j)]
    steps = sum(pair.triggered)
    forces = zip(pair.triggered, ti.rep_fx, tj.rep_fx, ti.rep_fy, tj.rep_fy)
    worst = _fold(max, (
        abs(f) for on, fxi, fxj, fyi, fyj in forces if on for f in (fxi + fxj, fyi + fyj)
    ), 0.0)
    return [_check(
        "reciprocity",
        steps > 0 and worst <= _RECIPROCITY_TOL,
        f"max |F_rep_i + F_rep_j| = {worst:.3e} over {steps} triggered steps",
    )]


def _instability_certificate(log: TrajectoryLog, series: LyapunovSeries) -> list[CheckResult]:
    pair = log.pair_ids()[0]
    numeric = series.derivative_numeric
    rs = log.pairs[pair].r
    sign_change_at = None
    for k in range(1, len(numeric)):
        if numeric[k - 1] < 0.0 and numeric[k] > 0.0:
            sign_change_at = k
            break
    min_r = _fold(min, rs, math.inf)
    ok = sign_change_at is not None and rs[sign_change_at] > 0.0 and min_r > 0.0
    detail = (
        f"derivative sign change at t={log.t[sign_change_at]:.3f}, r={rs[sign_change_at]:.3f}, "
        f"min separation {min_r:.3f}"
        if sign_change_at is not None
        else "no negative-to-positive transition found"
    )
    return [_check("instability_certificate", ok, detail)]


def _no_retrigger_check(log: TrajectoryLog) -> list[CheckResult]:
    pair = log.pairs[log.pair_ids()[0]]
    released = False
    retriggered = False
    for k in range(len(pair.vr)):
        if not released and pair.vr[k] >= 0.0:
            released = True
        elif released and pair.triggered[k]:
            retriggered = True
            break
    return [_check(
        "no_retrigger",
        released and not retriggered,
        "trigger stayed off after the first release" if released else "trigger never released",
    )]


def _grazing_geometry_check(log: TrajectoryLog) -> list[CheckResult]:
    """Min separation vs the mirrored-circle prediction, for bound-realizing
    head-on pairs (finite f_lim held through the steering channel)."""
    params = log.scenario.params
    if math.isinf(params.f_lim) or math.isinf(params.omega_max):
        return []
    speeds = {r.speed for r in log.scenario.robots}
    if len(speeds) != 1 or 0.0 in speeds:  # no common speed, or robots at rest
        return []
    speed = speeds.pop()
    if abs(params.omega_max - params.f_lim / speed) > 1e-9:
        return []
    pair = log.pairs[log.pair_ids()[0]]
    if not pair.triggered[0] or abs(pair.vth[0]) > 1e-6:
        return []
    r_turn = turn_radius(speed, params.f_lim)
    # a turn radius or a prediction lost to underflow or rounding cannot match
    predicted = 2.0 * grazing_separation(r_turn, pair.r[0] / 2.0) if r_turn > 0.0 else 0.0
    measured = _fold(min, pair.r, math.inf)
    rel = abs(measured - predicted) / predicted if predicted > 0.0 else math.inf
    return [_check(
        "grazing_geometry",
        rel < 0.02,
        f"min separation {measured:.4f} vs mirrored-circle prediction {predicted:.4f} "
        f"({rel * 100:.2f}%, tolerance 2%)",
    )]


def _closed_loop_gap_check(log: TrajectoryLog) -> list[CheckResult]:
    report = closed_loop_errors_from_log(log, RegimeKind.COOP_PAIR)
    if report is None:
        return []
    return [CheckResult(
        "closed_loop_gap",
        "INFO",
        "idealized closed-loop mismatch (constant-speed steering cannot "
        f"realize tangential force): max rel error {report.max_rel_error:.3f}",
    )]


def _noncoop_checks(log: TrajectoryLog) -> list[CheckResult]:
    results: list[CheckResult] = []
    noncoop = next(r for r in log.scenario.robots if r.behavior is not BehaviorKind.COOPERATIVE)
    if noncoop.behavior is BehaviorKind.NON_COOPERATIVE:  # it keeps its initial line
        trace = log.robots[noncoop.id]
        x0, y0, phi0 = trace.x[0], trace.y[0], trace.phi[0]
        nx, ny = -math.sin(phi0), math.cos(phi0)
        worst = _fold(max, (abs((x - x0) * nx + (y - y0) * ny)
                            for x, y in zip(trace.x, trace.y)), 0.0)
        results.append(_check(
            "noncooperative_straight_path",
            worst < 1e-9,
            f"max lateral deviation {worst:.3e} m",
        ))
    key = log.pair_ids()[0]
    min_r = _fold(min, log.pairs[key].r, math.inf)
    radius = {r.id: r.body_radius for r in log.scenario.robots}
    results.append(_check("separation_positive", min_r > 0.0, f"min separation {min_r:.3f} m"))
    results.append(
        CheckResult(
            "body_margin",
            "INFO",
            f"margin over body contact {min_r - (radius[key[0]] + radius[key[1]]):.3f} m",
        )
    )
    return results


def _attacker_checks(log: TrajectoryLog, series: LyapunovSeries) -> list[CheckResult]:
    params = log.scenario.params
    results: list[CheckResult] = []
    robots = log.scenario.sorted_robots()
    coop = next(r for r in robots if r.behavior is BehaviorKind.COOPERATIVE)
    pair_key = log.pair_ids()[0]
    pair = log.pairs[pair_key]

    # A triggered step has vrel > eps_v, where the series' vrel floor is idle.
    worst = _fold(min, (
        deriv for deriv, on, vth in zip(series.derivative_analytic, pair.triggered, pair.vth)
        if on and vth >= 0.0
    ), 0.0)
    results.append(
        _check(
            "attacker_certificate",
            worst >= -1e-12,
            f"min Lyapunov derivative over triggered steps with Vth >= 0: {worst:.3e}",
        )
    )

    r0 = pair.r[0]
    standoff = attacker_standoff(params.lam, coop.speed)
    if r0 < standoff:
        results.append(
            CheckResult(
                "standoff_bound",
                "WARN",
                f"initial separation {r0:.3f} below sufficient bound {standoff:.3f}; "
                "avoidance not guaranteed (bound is sufficient only)",
            )
        )
    else:
        # The standoff derivation bounds the Lyapunov-to-range rate ratio by
        # 3*lam*Vrel/(2*r0^2) with r0 the initial separation; pointwise values
        # with the instantaneous r exceed 1 once the dodge closes below r0 and
        # are reported for inspection only.
        def closing():  # (3*lam*Vr*Vth/Vrel, r) on triggered steps with Vr < 0 and Vth < 0
            for on, r, vr, vth, vrel in zip(pair.triggered, pair.r, pair.vr, pair.vth, pair.vrel):
                if on and vr < 0.0 and vth < 0.0:
                    yield 3.0 * params.lam * vr * vth / vrel, r

        worst_bound = _fold(max, (abs(common / (r0 * r0)) for common, _ in closing()), 0.0)
        worst_inst = _fold(max, (abs(common / (r ** 2)) for common, r in closing()), 0.0)
        results.append(
            _check(
                "ratio_bound",
                worst_bound < 1.0,
                f"max |3*lam*Vr*Vth/(Vrel*r0^2)| = {worst_bound:.4f} on closing steps with Vth < 0",
            )
        )
        results.append(
            CheckResult(
                "ratio_instantaneous",
                "INFO",
                f"same ratio with instantaneous r peaks at {worst_inst:.3f}",
            )
        )

    stop_t = next((e.t for e in log.events if e.kind == EVENT_STOPPED and e.ids == (coop.id,)), None)
    overlaps = [e for e in log.events if e.kind == EVENT_OVERLAP]
    early = [e for e in overlaps if stop_t is None or e.t < stop_t]
    results.append(
        _check(
            "no_overlap_while_active",
            not early,
            f"{len(early)} overlap event(s) before the cooperative robot stopped",
        )
    )
    return results


def _nonvortex_checks(log: TrajectoryLog) -> list[CheckResult]:
    pair = log.pairs[log.pair_ids()[0]]
    worst_vth = _fold(max, map(abs, pair.vth), 0.0)
    overlap_t = next((e.t for e in log.events if e.kind == EVENT_OVERLAP), None)
    rise = None  # the first step at which the separation did not fall
    for k in range(1, len(pair.r)):
        if overlap_t is not None and log.t[k] > overlap_t:
            break
        if not pair.r[k] < pair.r[k - 1]:
            rise = k
            break
    return [
        _check("no_turning", worst_vth < 1e-9, f"max |Vth| = {worst_vth:.3e}"),
        _check("monotone_closing", rise is None,
               "separation decreased monotonically until overlap" if rise is None
               else f"separation did not decrease at t={log.t[rise]:.3f}, r={pair.r[rise]:.3f}"),
        _check("overlap_occurred", overlap_t is not None,
               "no overlap event recorded" if overlap_t is None
               else f"first overlap at t={overlap_t}"),
    ]


def _attractive_only_checks(log: TrajectoryLog) -> list[CheckResult]:
    robot_id = log.robot_ids()[0]
    robot = next(r for r in log.scenario.robots if r.id == robot_id)
    _, theta, vr, _ = goal_engagement_series(log, robot_id)
    trace = log.robots[robot_id]
    err = [abs(wrap_angle(phi - los)) for phi, los in zip(trace.phi, theta)]
    live = [k for k, active in enumerate(trace.active) if active]
    settled_at = next((k for k in live if err[k] < 0.05), None)
    stays = settled_at is not None and all(err[k] < 0.05 for k in live if k >= settled_at)
    results = [
        _check(
            "heading_converges",
            stays,
            f"|heading - LOS| < 0.05 rad from t={log.t[settled_at]:.2f} on"
            if settled_at is not None
            else "heading never settled near the LOS",
        )
    ]
    if not live:
        results.append(_check("closing_at_speed", False, "the robot is never active"))
        return results
    last_live = live[-1]
    results.append(
        _check(
            "closing_at_speed",
            abs(vr[last_live] + robot.speed) < 1e-3,
            f"final active Vr = {vr[last_live]:.5f} vs -V = {-robot.speed}",
        )
    )
    return results


def _multi_checks(log: TrajectoryLog) -> list[CheckResult]:
    results: list[CheckResult] = []
    robots = log.scenario.sorted_robots()
    radius = {r.id: r.body_radius for r in robots}
    worst_margin = _fold(min, (
        _fold(min, trace.r, math.inf) - (radius[i] + radius[j])
        for (i, j), trace in log.pairs.items()
    ), math.inf)
    results.append(
        _check(
            "pairwise_clearance",
            worst_margin > 0.0,
            f"worst min-separation margin over body contact: {worst_margin:.3f} m",
        )
    )

    traces = [log.robots[rid] for rid in log.robot_ids()]
    all_coop = all(r.behavior is BehaviorKind.COOPERATIVE for r in robots)
    if all_coop:
        fx = zip(*(trace.rep_fx for trace in traces))
        fy = zip(*(trace.rep_fy for trace in traces))
        worst = _fold(max, (abs(sum(f)) for step in zip(fx, fy) for f in step), 0.0)
        results.append(
            _check(
                "repulsive_sum_cancels",
                worst < 1e-9,
                f"max |sum of repulsive inputs| = {worst:.3e}",
            )
        )

    mutual_steps = [
        k
        for k in range(len(log.t))
        if all(trace.triggered[k] for trace in log.pairs.values())
    ]
    agree = True
    for k in mutual_steps:
        signs = {math.copysign(1.0, t.omega[k]) for t in traces if abs(t.omega[k]) > 1e-12}
        if len(signs) > 1:
            agree = False
            break
    results.append(
        _check(
            "common_rotation_sense",
            agree,
            f"turn-rate signs agree on {len(mutual_steps)} mutually triggered steps",
        )
    )
    return results


class Check(NamedTuple):
    """A check: ``run(log)``, or ``run(log, series)`` where ``series`` is set,
    gives its result lines; ``reads`` names the RobotTrace and PairTrace fields it reads."""

    run: Callable[..., list[CheckResult]]
    reads: tuple[str, ...]
    series: bool = False


class Regime(NamedTuple):
    """An engagement regime.  The first of the (test, reason) ``requires`` whose
    test fails on the run's robot count by behaviour and ``vortex`` flag gives
    the mismatch; ``series(log)`` reads ``series_reads``."""

    requires: tuple[tuple[Callable[[Counter[BehaviorKind], bool], bool], str], ...]
    series: Callable[[TrajectoryLog], LyapunovSeries]
    series_reads: tuple[str, ...]
    checks: tuple[Check, ...]


_PAIR_STATE = ("r", "vr", "vth", "vrel")
_GOAL_STATE = ("x", "y", "phi", "active")  # a robot's state about its own goal
_COMMON_CHECKS = (Check(_time_monotone_check, ()), Check(_circle_constraint_check, _PAIR_STATE))

REGIMES: dict[RegimeKind, Regime] = {
    RegimeKind.ATTRACTIVE_ONLY: Regime(
        ((lambda crew, vortex: crew.total() == 1 and crew[BehaviorKind.COOPERATIVE] == 1,
          "attractive-only regime needs exactly one cooperative robot"),),
        attractive_only_lyapunov, _GOAL_STATE, (Check(_attractive_only_checks, _GOAL_STATE),),
    ),
    RegimeKind.COOP_PAIR: Regime(
        ((lambda crew, vortex: crew.total() == 2 and crew[BehaviorKind.COOPERATIVE] == 2,
          "cooperative-pair regime needs exactly two cooperative robots"),
         (lambda crew, vortex: vortex, "cooperative-pair regime needs the vortex law enabled")),
        partial(pair_lyapunov_series, regime=RegimeKind.COOP_PAIR), _PAIR_STATE,
        (Check(_reciprocity_check, ("triggered", "rep_fx", "rep_fy")),
         Check(_instability_certificate, ("r",), series=True),
         Check(_no_retrigger_check, ("vr", "triggered")),
         Check(_grazing_geometry_check, ("r", "vth", "triggered")),
         Check(_closed_loop_gap_check, ("r", "vr", "vth", "triggered"))),
    ),
    RegimeKind.COOP_VS_NONCOOP: Regime(
        ((lambda crew, vortex: crew.total() == 2 and crew[BehaviorKind.COOPERATIVE] == 1
          and crew[BehaviorKind.NON_COOPERATIVE] + crew[BehaviorKind.STATIONARY] == 1,
          "regime needs one cooperative and one non-cooperative/stationary robot"),),
        partial(pair_lyapunov_series, regime=RegimeKind.COOP_VS_NONCOOP), _PAIR_STATE,
        (Check(_noncoop_checks, ("x", "y", "phi", "r")),),
    ),
    RegimeKind.COOP_VS_ATTACKER: Regime(
        ((lambda crew, vortex: crew.total() == 2 and crew[BehaviorKind.COOPERATIVE] == 1
          and crew[BehaviorKind.ATTACKING] == 1,
          "regime needs one cooperative and one attacking robot"),),
        partial(pair_lyapunov_series, regime=RegimeKind.COOP_VS_ATTACKER), _PAIR_STATE,
        (Check(_attacker_checks, (*_PAIR_STATE, "triggered"), series=True),),
    ),
    RegimeKind.NONVORTEX_PAIR: Regime(
        ((lambda crew, vortex: crew.total() == 2 and crew[BehaviorKind.COOPERATIVE] == 2,
          "non-vortex pair regime needs exactly two cooperative robots"),
         (lambda crew, vortex: not vortex, "non-vortex pair regime needs the vortex law disabled")),
        partial(pair_lyapunov_series, regime=RegimeKind.NONVORTEX_PAIR), _PAIR_STATE,
        (Check(_nonvortex_checks, ("r", "vth")),),
    ),
    RegimeKind.MULTI_ROBOT: Regime(
        ((lambda crew, vortex: crew[BehaviorKind.COOPERATIVE] >= 2,
          "multi-robot regime needs at least two cooperative robots"),),
        multi_lyapunov, (*_PAIR_STATE, "triggered", "active"),
        (Check(_multi_checks, ("r", "triggered", "rep_fx", "rep_fy", "omega")),),
    ),
}

# The trace attributes that each regime's series and checks read; ``analyze``
# parses only these columns of a run directory.
REGIME_COLUMNS: dict[RegimeKind, frozenset[str]] = {
    kind: frozenset(entry.series_reads).union(
        *(check.reads for check in (*_COMMON_CHECKS, *entry.checks)))
    for kind, entry in REGIMES.items()
}


def regime_mismatch(log: TrajectoryLog, regime: RegimeKind) -> str | None:
    """Reason the log cannot belong to the regime, or None when it matches."""
    crew = Counter(robot.behavior for robot in log.scenario.robots)
    vortex = log.scenario.params.vortex
    return next((why for holds, why in REGIMES[regime].requires if not holds(crew, vortex)), None)


def analyze_log(
    log: TrajectoryLog, regime: RegimeKind
) -> tuple[LyapunovSeries, list[CheckResult]]:
    """The regime's Lyapunov series and its checks' results on a log, which
    ``analyze`` writes to lyapunov.csv and verification.txt.  A log the regime
    does not match raises ValueError before the series is formed."""
    mismatch = regime_mismatch(log, regime)
    if mismatch is not None:
        raise ValueError(f"regime mismatch: {mismatch}")
    entry = REGIMES[regime]
    series = entry.series(log)
    results: list[CheckResult] = []
    for check in (*_COMMON_CHECKS, *entry.checks):
        results += check.run(log, series) if check.series else check.run(log)
    return series, results

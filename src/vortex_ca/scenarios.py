"""Scenario and sweep-spec serialization, validation, and the bundled presets.

Scenario files are plain JSON with SI units throughout.  Unbounded values
(``f_lim``, ``omega_max``) are written as ``null``.  Bundled presets
reconstruct the reference experiments at desk scale; exact initial positions
are not published for the original runs, so the presets place robots
consistently within a 3.5 x 3.5 m workspace and document the choices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from .analysis import RegimeKind, attacker_standoff, required_accel
from .engine import Scenario, ScenarioError
from .fields import PFParams, default_r_star
from .kinematics import BehaviorKind, PlanarVector, RobotState, SimulationFault

_BEHAVIOR_NAMES = {kind.value: kind for kind in BehaviorKind}

SWEEP_METRICS = ("min_separation", "time_to_goal", "body_overlap", "max_lyap_derivative")


def _opt_inf(value: Any, field: str, errors: list[str]) -> float:
    """A positive bound, or math.inf for null; anything else is an error."""
    if value is None:
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0.0:
        return float(value)
    errors.append(f"{field}: expected a positive number or null, got {value!r}")
    return math.inf


def _integer(value: Any, field: str) -> int:
    """An integer field; booleans and numbers with a fractional part are rejected."""
    if isinstance(value, bool) or (
        isinstance(value, float) and math.isfinite(value) and not value.is_integer()
    ):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def params_from_dict(data: dict[str, Any], errors: list[str], max_speed: float) -> PFParams | None:
    if not isinstance(data, dict):
        errors.append(f"params: expected an object, got {data!r}")
        return None
    try:
        lam = float(data.get("lambda", 10.0))
        f_lim = _opt_inf(data.get("f_lim"), "params.f_lim", errors)
        r_star = data.get("r_star")
        vortex = data.get("vortex", True)
        if not isinstance(vortex, bool):
            errors.append(f"params.vortex: expected true or false, got {vortex!r}")
            vortex = True
        if r_star is None:
            r_star = default_r_star(lam, max_speed, f_lim)
        return PFParams(
            kappa=float(data.get("kappa", 10.0)),
            lam=lam,
            r_star=float(r_star),
            f_lim=f_lim,
            kp=float(data.get("kp", 5.0)),
            goal_tol=float(data.get("goal_tol", 0.2)),
            eps_v=float(data.get("eps_v", 1e-6)),
            omega_max=_opt_inf(data.get("omega_max"), "params.omega_max", errors),
            vortex=vortex,
        )
    except (TypeError, ValueError) as exc:
        errors.append(f"params: {exc}")
        return None


def params_to_dict(params: PFParams) -> dict[str, Any]:
    return {
        "kappa": params.kappa,
        "lambda": params.lam,
        "r_star": params.r_star,
        "f_lim": None if math.isinf(params.f_lim) else params.f_lim,
        "kp": params.kp,
        "goal_tol": params.goal_tol,
        "eps_v": params.eps_v,
        "omega_max": None if math.isinf(params.omega_max) else params.omega_max,
        "vortex": params.vortex,
    }


def _robot_from_dict(data: dict[str, Any], index: int, errors: list[str]) -> RobotState | None:
    where = f"robots[{index}]"
    if not isinstance(data, dict):
        errors.append(f"{where}: expected an object, got {data!r}")
        return None
    try:
        behavior_name = str(data.get("behavior", "cooperative"))
        behavior = _BEHAVIOR_NAMES.get(behavior_name)
        if behavior is None:
            errors.append(f"{where}: unknown behavior {behavior_name!r}")
            return None
        goal = data.get("goal")
        goal_vec = PlanarVector(float(goal[0]), float(goal[1])) if goal is not None else None
        target = data.get("target")
        default_speed = 0.0 if behavior is BehaviorKind.STATIONARY else 0.17
        return RobotState(
            id=_integer(data["id"], "id"),
            position=PlanarVector(float(data["x"]), float(data["y"])),
            heading=float(data.get("heading", 0.0)),
            speed=float(data.get("speed", default_speed)),
            body_radius=float(data.get("radius", 0.175)),
            behavior=behavior,
            goal=goal_vec,
            attack_target=_integer(target, "target") if target is not None else None,
        )
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc}")
    except (TypeError, ValueError, IndexError, OverflowError, SimulationFault) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _robot_to_dict(robot: RobotState) -> dict[str, Any]:
    data: dict[str, Any] = {
        "id": robot.id,
        "x": robot.position.x,
        "y": robot.position.y,
        "heading": robot.heading,
        "speed": robot.speed,
        "radius": robot.body_radius,
        "behavior": robot.behavior.value,
        "goal": [robot.goal.x, robot.goal.y] if robot.goal is not None else None,
    }
    if robot.attack_target is not None:
        data["target"] = robot.attack_target
    return data


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build and fully validate a Scenario; every problem found is reported."""
    if not isinstance(data, dict):
        raise ScenarioError([f"scenario: expected an object, got {data!r}"])
    errors: list[str] = []
    robots_data = data.get("robots")
    if not isinstance(robots_data, list) or not robots_data:
        errors.append("robots: expected a non-empty list")
        robots_data = []
    robots = []
    for index, entry in enumerate(robots_data):
        robot = _robot_from_dict(entry, index, errors)
        if robot is not None:
            robots.append(robot)
    max_speed = max((r.speed for r in robots), default=0.17)
    params = params_from_dict(data.get("params", {}), errors, max_speed)
    scenario = None
    try:
        scenario = Scenario(
            robots=tuple(robots),
            params=params if params is not None else PFParams(),
            dt=float(data.get("dt", 0.01)),
            t_max=float(data.get("t_max", 60.0)),
            d_wheel=float(data.get("d_wheel", 0.35)),
            r_wheel=float(data.get("r_wheel", 0.04)),
            record_stride=_integer(data.get("record_stride", 1), "record_stride"),
            name=str(data.get("name", "scenario")),
        )
        errors.extend(scenario.validation_errors())
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(str(exc))
    if errors:
        raise ScenarioError(errors)
    assert scenario is not None
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "name": scenario.name,
        "dt": scenario.dt,
        "t_max": scenario.t_max,
        "d_wheel": scenario.d_wheel,
        "r_wheel": scenario.r_wheel,
        "record_stride": scenario.record_stride,
        "params": params_to_dict(scenario.params),
        "robots": [_robot_to_dict(r) for r in scenario.sorted_robots()],
    }


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a JSON file, or by bundled preset name."""
    import os

    if os.path.isfile(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                [f"{path_or_name}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
            ) from exc
        return scenario_from_dict(data)
    if path_or_name in PRESETS:
        return PRESETS[path_or_name]()
    raise ScenarioError(
        [f"{path_or_name}: no such file and no such preset (presets: {', '.join(sorted(PRESETS))})"]
    )


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Bundled presets (desk-scale reconstructions, 3.5 x 3.5 m workspace)
#
# Shared platform constants follow the reference differential-drive robot:
# 0.17 m/s set speed and a 0.35 m body diameter.  Where the source
# experiments left a quantity unreported (initial placements, heading gain,
# steering rate), each preset documents its reconstruction choice.  Steering
# is modelled as proportional heading control with an optional turn-rate
# clamp; the clamp doubles as the platform's lateral-acceleration limit
# (V * omega_max).

_V = 0.17  # shared robot speed, m/s
_R_BODY = 0.175  # body radius, m (0.35 m diameter platform)

#: Steering-rate limit used by the reciprocal head-on presets.  Constant-speed
#: robots realize commanded forces only through their turn rate; a limit of
#: V * 0.03 m/s^2 lateral acceleration reproduces the sluggish yaw response of
#: the physical platform and is what lets the pair clear each other widely
#: instead of spiraling to close range under instant steering.
_HEADON_OMEGA_MAX = 0.03
_HEADON_KP = 12.0


def _coop(idx: int, x: float, y: float, goal: tuple[float, float]) -> RobotState:
    heading = math.atan2(goal[1] - y, goal[0] - x)
    return RobotState(
        id=idx,
        position=PlanarVector(x, y),
        heading=heading,
        speed=_V,
        body_radius=_R_BODY,
        behavior=BehaviorKind.COOPERATIVE,
        goal=PlanarVector(*goal),
    )


def preset_coop_headon() -> Scenario:
    """Two cooperative robots head-on, 3 m apart, goals swapped."""
    return Scenario(
        name="coop_headon",
        robots=(_coop(1, -1.5, 0.0, (1.5, 0.0)), _coop(2, 1.5, 0.0, (-1.5, 0.0))),
        params=PFParams(kp=_HEADON_KP, omega_max=_HEADON_OMEGA_MAX),
        dt=0.01,
        t_max=60.0,
    )


def preset_nonvortex_headon() -> Scenario:
    """The head-on pair under the plain negative-gradient repulsion.

    This is the simulation-only comparison case: the baseline law commands no
    turning on an exact head-on course, so the paths cross at the midpoint.
    The robots are modelled as near-points (0.1 m radius) as in the original
    comparison simulation, so body contact reflects the actual path crossing
    rather than the wide platform footprint.
    """
    base = preset_coop_headon()
    robots = tuple(
        RobotState(
            id=r.id,
            position=r.position,
            heading=r.heading,
            speed=r.speed,
            body_radius=0.1,
            behavior=r.behavior,
            goal=r.goal,
        )
        for r in base.robots
    )
    return Scenario(
        name="nonvortex_headon",
        robots=robots,
        params=PFParams(kp=_HEADON_KP, omega_max=_HEADON_OMEGA_MAX, vortex=False),
        dt=base.dt,
        t_max=base.t_max,
    )


def preset_noncoop_headon() -> Scenario:
    """A cooperative robot meeting a constant-velocity robot head-on."""
    noncoop = RobotState(
        id=2,
        position=PlanarVector(1.5, 0.0),
        heading=math.pi,
        speed=_V,
        body_radius=_R_BODY,
        behavior=BehaviorKind.NON_COOPERATIVE,
        goal=PlanarVector(-1.5, 0.0),
    )
    return Scenario(
        name="noncoop_headon",
        robots=(_coop(1, -1.5, 0.0, (1.5, 0.0)), noncoop),
        params=PFParams(),
        dt=0.01,
        t_max=60.0,
    )


def preset_coop_triangle() -> Scenario:
    """Three cooperative robots at the vertices of an equilateral triangle,
    each heading for the midpoint of the opposite side.

    The repulsive gain is tuned per scenario, as in the original experiments,
    so that the three-way roundabout clears the 0.35 m body diameter; the
    triangle (circumradius 1.5 m) fills the workspace.
    """
    circumradius = 1.5
    robots = []
    for idx, angle_deg in enumerate((90.0, 210.0, 330.0), start=1):
        angle = math.radians(angle_deg)
        x = circumradius * math.cos(angle)
        y = circumradius * math.sin(angle)
        robots.append(_coop(idx, x, y, (-0.5 * x, -0.5 * y)))
    return Scenario(
        name="coop_triangle",
        robots=tuple(robots),
        params=PFParams(lam=40.0, omega_max=0.1),
        dt=0.01,
        t_max=60.0,
    )


def preset_attacker() -> Scenario:
    """A cooperative robot evading a pursuer that starts head-on at the
    sufficient standoff separation (rounded up to the centimeter grid).

    The evader's goal sits 45 degrees off the initial line of sight: it must
    still dodge past the oncoming pursuer, then runs for its goal, stops
    there, and only then is caught, matching the reported engagement ending.
    """
    standoff = attacker_standoff(10.0, _V)
    r0 = math.ceil(standoff * 100.0) / 100.0
    half = r0 / 2.0
    goal = (-half + r0 * math.cos(math.pi / 4.0), r0 * math.sin(math.pi / 4.0))
    coop = RobotState(
        id=1,
        position=PlanarVector(-half, 0.0),
        heading=0.0,
        speed=_V,
        body_radius=_R_BODY,
        behavior=BehaviorKind.COOPERATIVE,
        goal=PlanarVector(*goal),
    )
    attacker = RobotState(
        id=2,
        position=PlanarVector(half, 0.0),
        heading=math.pi,
        speed=_V,
        body_radius=_R_BODY,
        behavior=BehaviorKind.ATTACKING,
        attack_target=1,
    )
    return Scenario(
        name="attacker",
        robots=(coop, attacker),
        params=PFParams(),
        dt=0.01,
        t_max=120.0,
    )


def preset_attractive_only() -> Scenario:
    """A single robot steered to its goal by the attractive field alone."""
    robot = RobotState(
        id=1,
        position=PlanarVector(-1.5, 0.0),
        heading=0.5,
        speed=_V,
        body_radius=_R_BODY,
        behavior=BehaviorKind.COOPERATIVE,
        goal=PlanarVector(1.5, 0.0),
    )
    return Scenario(name="attractive_only", robots=(robot,), params=PFParams(), dt=0.01, t_max=40.0)


def preset_saturated_headon() -> Scenario:
    """Symmetric head-on pair forced through a full evasive turn at the
    acceleration bound, for the grazing-geometry oracle.

    The bound carries a 10% margin over the grazing requirement at half
    separation l = 0.5 m and is realized through the steering channel
    (V * omega_max = f_lim), which is the only way a constant-speed robot
    can hold a lateral acceleration.  Each goal sits far out on the robot's
    avoidance side, so the commanded direction keeps the turn saturated all
    the way to the side-by-side point that the circle construction assumes;
    the repulsive gain is kept small so the trigger and turn direction still
    come from the vortex field without distorting the saturated arc.
    """
    half_sep = 0.5
    f_lim = 1.1 * required_accel(RegimeKind.COOP_PAIR, _R_BODY, _V, half_sep)
    robots = (
        RobotState(
            id=1,
            position=PlanarVector(-half_sep, 0.0),
            heading=0.0,
            speed=_V,
            body_radius=_R_BODY,
            behavior=BehaviorKind.COOPERATIVE,
            goal=PlanarVector(-half_sep, -100.0),
        ),
        RobotState(
            id=2,
            position=PlanarVector(half_sep, 0.0),
            heading=math.pi,
            speed=_V,
            body_radius=_R_BODY,
            behavior=BehaviorKind.COOPERATIVE,
            goal=PlanarVector(half_sep, 100.0),
        ),
    )
    params = PFParams(
        kappa=10.0,
        lam=1.0,
        r_star=0.0,
        f_lim=f_lim,
        omega_max=f_lim / _V,
    )
    return Scenario(
        name="saturated_headon",
        robots=robots,
        params=params,
        dt=0.005,
        t_max=40.0,
    )


PRESETS: dict[str, Callable[[], Scenario]] = {
    "coop_headon": preset_coop_headon,
    "coop_triangle": preset_coop_triangle,
    "noncoop_headon": preset_noncoop_headon,
    "attacker": preset_attacker,
    "nonvortex_headon": preset_nonvortex_headon,
    "attractive_only": preset_attractive_only,
    "saturated_headon": preset_saturated_headon,
}


# ---------------------------------------------------------------------------
# Sweep specifications


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian parameter sweep over a base scenario."""

    base_scenario: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    metrics: tuple[str, ...]


def set_by_path(data: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path (list indices as numeric tokens) in a scenario dict."""
    tokens = path.split(".")
    node: Any = data
    for token in tokens[:-1]:
        if isinstance(node, list):
            node = node[int(token)]
        elif token in node:
            node = node[token]
        else:
            raise KeyError(f"path {path!r}: no such field {token!r}")
    last = tokens[-1]
    if isinstance(node, list):
        node[int(last)] = value
    elif last in node:
        node[last] = value
    else:
        raise KeyError(f"path {path!r}: no such field {last!r}")


def load_sweep(path: str) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    errors: list[str] = []
    base = data.get("base_scenario")
    if not isinstance(base, str):
        errors.append("base_scenario: expected a file path or preset name")
        base = ""
    axes_data = data.get("axes", [])
    axes: list[tuple[str, tuple[Any, ...]]] = []
    if not axes_data:
        errors.append("axes: at least one sweep axis is required")
    for entry in axes_data:
        if not isinstance(entry, dict) or "path" not in entry or "values" not in entry:
            errors.append(f"axes: each axis needs 'path' and 'values' ({entry!r})")
            continue
        values = entry["values"]
        if not isinstance(values, list) or not values:
            errors.append(f"axes[{entry['path']}]: values must be a non-empty list")
            continue
        axes.append((str(entry["path"]), tuple(values)))
    metrics = tuple(data.get("metrics", ["min_separation"]))
    for metric in metrics:
        if metric not in SWEEP_METRICS:
            errors.append(f"metrics: unknown metric {metric!r} (known: {', '.join(SWEEP_METRICS)})")
    if not errors and base:
        # Paths must resolve against the base scenario's schema; whether a
        # particular value is admissible is a per-cell concern.
        base_dict = scenario_to_dict(load_scenario(base))
        for axis_path, values in axes:
            probe = json.loads(json.dumps(base_dict))
            try:
                set_by_path(probe, axis_path, values[0])
            except KeyError as exc:
                errors.append(str(exc))
    if errors:
        raise ScenarioError(errors)
    return SweepSpec(base_scenario=base, axes=tuple(axes), metrics=metrics)

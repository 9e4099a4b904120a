"""Scenario and sweep-spec serialization, validation, and the bundled presets.

Scenario files are plain JSON with SI units throughout.  Unbounded values
(``f_lim``, ``omega_max``) are written as ``null``.  Bundled presets are
scenario documents, parsed like any file; they reconstruct the reference
experiments at desk scale.  Exact initial positions are not published for the
original runs, so the presets place robots consistently within a 3.5 x 3.5 m
workspace and document the choices.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .engine import Scenario, ScenarioError
from .fields import PFParams, default_r_star
from .kinematics import BehaviorKind, PlanarVector, RobotState

_BEHAVIOR_NAMES = {kind.value: kind for kind in BehaviorKind}

SWEEP_METRICS = ("min_separation", "time_to_goal", "body_overlap", "max_lyap_derivative")

#: Most cells one sweep may run (the product of its axis lengths); a larger
#: spec is a validation error, reported before any cell is built.
MAX_SWEEP_CELLS = 100_000

# Defaults of a robot entry, from the reference differential-drive platform:
# 0.17 m/s set speed (0 for a stationary robot) and a 0.35 m body diameter.
_V = 0.17  # m/s
_R_BODY = 0.175  # m


# ---------------------------------------------------------------------------
# Field readers take a JSON value and its key, and return the parsed value or
# raise ValueError naming the key.


def _number(value: Any, key: str) -> float:
    """A JSON number; booleans, strings and null are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            return float(value)
    raise ValueError(f"{key}: expected a number, got {value!r}")


def _bound(value: Any, key: str) -> float:
    """A positive bound, or math.inf for null."""
    if value is None:
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0.0:
        return _number(value, key)
    raise ValueError(f"{key}: expected a positive number or null, got {value!r}")


def _integer(value: Any, key: str) -> int:
    """An integer; booleans, strings and numbers with a fractional part are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _point(value: Any, key: str) -> PlanarVector:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{key}: expected [x, y] or null, got {value!r}")
    return PlanarVector(_number(value[0], key), _number(value[1], key))


def _flag(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key}: expected true or false, got {value!r}")
    return value


def _text(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key}: expected a string, got {value!r}")
    return value


def _or_null(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``read``, with null read as None: the fields where the format allows null."""
    return lambda value, key: None if value is None else read(value, key)


def _inf_to_null(value: float) -> float | None:
    return None if math.isinf(value) else value


class Field(NamedTuple):
    """One JSON field of a dataclass: key, attribute, reader and writer."""

    key: str
    attr: str
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any] = lambda value: value


# The fields of a ``params`` object and of the top level of a scenario file, in
# the order scenario_to_dict writes them.
PARAM_FIELDS = (
    Field("kappa", "kappa", _number),
    Field("lambda", "lam", _number),
    Field("r_star", "r_star", _or_null(_number)),
    Field("f_lim", "f_lim", _bound, _inf_to_null),
    Field("kp", "kp", _number),
    Field("goal_tol", "goal_tol", _number),
    Field("eps_v", "eps_v", _number),
    Field("omega_max", "omega_max", _bound, _inf_to_null),
    Field("vortex", "vortex", _flag),
)
SCENARIO_FIELDS = (
    Field("name", "name", _text),
    Field("dt", "dt", _number),
    Field("t_max", "t_max", _number),
    Field("d_wheel", "d_wheel", _number),
    Field("r_wheel", "r_wheel", _number),
    Field("record_stride", "record_stride", _integer),
)
# The fields of a robot entry besides ``behavior``, read as RobotState keywords
# (``x`` and ``y`` form its position); the first three are required.
ROBOT_FIELDS = (
    Field("id", "id", _integer),
    Field("x", "x", _number),
    Field("y", "y", _number),
    Field("heading", "heading", _number),
    Field("speed", "speed", _number),
    Field("radius", "body_radius", _number),
    Field("goal", "goal", _or_null(_point)),
    Field("target", "attack_target", _or_null(_integer)),
)


def _read_fields(data: dict, fields: tuple[Field, ...], errors: list[str], where: str = "") -> dict:
    """Dataclass keyword arguments for the fields present in ``data``; an absent
    field is left out, so it takes the dataclass's default."""
    values = {}
    for f in fields:
        if f.key in data:
            try:
                values[f.attr] = f.read(data[f.key], f.key)
            except ValueError as exc:
                errors.append(f"{where}{exc}")
    return values


def _write_fields(obj: Any, fields: tuple[Field, ...]) -> dict[str, Any]:
    return {f.key: f.write(getattr(obj, f.attr)) for f in fields}


def params_from_dict(data: Any, errors: list[str], max_speed: float) -> PFParams:
    """The parameters of a ``params`` object; on an error, the defaults."""
    if not isinstance(data, dict):
        errors.append(f"params: expected an object, got {data!r}")
        return PFParams()
    values = _read_fields(data, PARAM_FIELDS, errors, "params.")
    lam = values.get("lam", PFParams.lam)
    if values.get("r_star") is None:  # omitted or null; a negative lambda is PFParams' error
        f_lim = values.get("f_lim", PFParams.f_lim)
        values["r_star"] = default_r_star(lam, max_speed, f_lim) if lam >= 0.0 else PFParams.r_star
    try:
        return PFParams(**values)
    except ScenarioError as exc:
        errors.extend(f"params: {error}" for error in exc.errors)
        return PFParams()


# What ``_robot_from_dict`` checks in place of a robot field that it could not
# read: values that pass every check of RobotState.  "?" names a robot whose
# id did not read.
_UNREAD = {"id": "?", "x": 0.0, "y": 0.0, "heading": 0.0, "speed": 0.0, "body_radius": 0.0,
           "goal": None, "attack_target": 0}


def _robot_from_dict(data: Any, index: int, errors: list[str]) -> RobotState | None:
    where = f"robots[{index}]: "
    if not isinstance(data, dict):
        errors.append(f"{where}expected an object, got {data!r}")
        return None
    n_errors = len(errors)
    name = data.get("behavior", "cooperative")
    behavior = _BEHAVIOR_NAMES.get(name) if isinstance(name, str) else None
    if behavior is None:
        errors.append(f"{where}unknown behavior {name!r}")
    errors.extend(f"{where}missing field {f.key!r}" for f in ROBOT_FIELDS[:3] if f.key not in data)
    speed = 0.0 if behavior is BehaviorKind.STATIONARY else _V
    given = {"heading": 0.0, "speed": speed, "radius": _R_BODY, **data}
    values = _read_fields(given, ROBOT_FIELDS, errors, where)
    # A field that is missing or did not read takes a value RobotState's
    # checks pass, so that they still report the entry's other problems.
    for f in ROBOT_FIELDS:
        if f.attr not in values and (f.key in given or f in ROBOT_FIELDS[:3]):
            values[f.attr] = _UNREAD[f.attr]
    try:
        position = PlanarVector(values.pop("x"), values.pop("y"))
        robot = RobotState(position=position, behavior=behavior, **values)
    except ScenarioError as exc:
        errors.extend(f"{where}{error}" for error in exc.errors)
        return None
    return robot if len(errors) == n_errors else None


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


def scenario_from_dict(data: Any) -> Scenario:
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
    max_speed = max((r.speed for r in robots), default=0.0)
    scenario = Scenario(
        robots=tuple(robots),
        params=params_from_dict(data.get("params", {}), errors, max_speed),
        **_read_fields(data, SCENARIO_FIELDS, errors),
    )
    complete = bool(robots_data) and len(robots) == len(robots_data)
    errors.extend(scenario.validation_errors(all_robots=complete))
    if errors:
        raise ScenarioError(errors)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        **_write_fields(scenario, SCENARIO_FIELDS),
        "params": _write_fields(scenario.params, PARAM_FIELDS),
        "robots": [_robot_to_dict(r) for r in scenario.sorted_robots()],
    }


def read_json(path: str) -> Any:
    """The JSON document in ``path``; a file that does not parse raises ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ScenarioError([f"{path}: parse error: {exc}"]) from exc


def scenario_document(path_or_name: str) -> Any:
    """The JSON document of a scenario file, or of a bundled preset by name."""
    if os.path.isfile(path_or_name):
        return read_json(path_or_name)
    if path_or_name in PRESETS:
        return copy.deepcopy(PRESETS[path_or_name])
    raise ScenarioError(
        [f"{path_or_name}: no such file and no such preset (presets: {', '.join(sorted(PRESETS))})"]
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a JSON file, or by bundled preset name."""
    return scenario_from_dict(scenario_document(path_or_name))


# ---------------------------------------------------------------------------
# Bundled presets (desk-scale reconstructions, 3.5 x 3.5 m workspace)
#
# Each preset is the scenario document a user would write, so robot speed,
# body radius, behavior and every parameter it leaves out take the parser's
# defaults (the reference platform's 0.17 m/s and 0.35 m body diameter).
# Where the source experiments left a quantity unreported (initial placements,
# heading gain, steering rate), each preset documents its reconstruction
# choice.  Steering is modelled as proportional heading control with an
# optional turn-rate clamp; the clamp doubles as the platform's
# lateral-acceleration limit (V * omega_max).

#: Steering-rate limit used by the reciprocal head-on presets.  Constant-speed
#: robots realize commanded forces only through their turn rate; a limit of
#: V * 0.03 m/s^2 lateral acceleration reproduces the sluggish yaw response of
#: the physical platform and is what lets the pair clear each other widely
#: instead of spiraling to close range under instant steering.
_HEADON_OMEGA_MAX = 0.03
_HEADON_KP = 12.0


def _coop(idx: int, x: float, y: float, goal: tuple[float, float]) -> dict[str, Any]:
    """A cooperative robot at (x, y), heading straight for its goal."""
    heading = math.atan2(goal[1] - y, goal[0] - x)
    return {"id": idx, "x": x, "y": y, "heading": heading, "goal": list(goal)}


def _triangle_vertex(idx: int, angle_deg: float) -> dict[str, Any]:
    """A cooperative robot on the coop_triangle circumcircle (radius 1.5 m),
    bound for the midpoint of the opposite side."""
    angle = math.radians(angle_deg)
    x = 1.5 * math.cos(angle)
    y = 1.5 * math.sin(angle)
    return _coop(idx, x, y, (-0.5 * x, -0.5 * y))


# Two cooperative robots head-on, 3 m apart, goals swapped.
_COOP_HEADON = {
    "name": "coop_headon",
    "params": {"kp": _HEADON_KP, "omega_max": _HEADON_OMEGA_MAX},
    "robots": [_coop(1, -1.5, 0.0, (1.5, 0.0)), _coop(2, 1.5, 0.0, (-1.5, 0.0))],
}

# The two analysis bounds the presets use are literals, so that loading a
# preset does not import analysis; tests/test_analysis.py checks each against
# its formula.
# attacker: the sufficient standoff separation, rounded up to the centimeter grid.
_ATTACKER_R0 = 2.26

# saturated_headon: the grazing requirement at half separation 0.5 m, with a 10% margin.
_SATURATED_F_LIM = 0.05071908831908833

PRESETS: dict[str, dict[str, Any]] = {
    "coop_headon": _COOP_HEADON,
    # Three cooperative robots at the vertices of an equilateral triangle,
    # each heading for the midpoint of the opposite side.  The repulsive gain
    # is tuned per scenario, as in the original experiments, so that the
    # three-way roundabout clears the 0.35 m body diameter; the triangle
    # (circumradius 1.5 m) fills the workspace.
    "coop_triangle": {
        "name": "coop_triangle",
        "params": {"lambda": 40.0, "omega_max": 0.1},
        "robots": [_triangle_vertex(1, 90.0), _triangle_vertex(2, 210.0),
                   _triangle_vertex(3, 330.0)],
    },
    # A cooperative robot meeting a constant-velocity robot head-on.
    "noncoop_headon": {
        "name": "noncoop_headon",
        "robots": [
            _coop(1, -1.5, 0.0, (1.5, 0.0)),
            {"id": 2, "x": 1.5, "y": 0.0, "heading": math.pi, "behavior": "noncooperative",
             "goal": [-1.5, 0.0]},
        ],
    },
    # A cooperative robot evading a pursuer that starts head-on at the
    # standoff separation.  The evader's goal sits 45 degrees off the initial
    # line of sight: it must still dodge past the oncoming pursuer, then runs
    # for its goal, stops there, and only then is caught, matching the
    # reported engagement ending.
    "attacker": {
        "name": "attacker",
        "t_max": 120.0,
        "robots": [
            {"id": 1, "x": -_ATTACKER_R0 / 2.0, "y": 0.0,
             "goal": [-_ATTACKER_R0 / 2.0 + _ATTACKER_R0 * math.cos(math.pi / 4.0),
                      _ATTACKER_R0 * math.sin(math.pi / 4.0)]},
            {"id": 2, "x": _ATTACKER_R0 / 2.0, "y": 0.0, "heading": math.pi,
             "behavior": "attacking", "target": 1},
        ],
    },
    # The head-on pair under the plain negative-gradient repulsion: the
    # simulation-only comparison case.  The baseline law commands no turning
    # on an exact head-on course, so the paths cross at the midpoint.  The
    # robots are modelled as near-points (0.1 m radius) as in the original
    # comparison simulation, so body contact reflects the actual path
    # crossing rather than the wide platform footprint.
    "nonvortex_headon": dict(
        _COOP_HEADON,
        name="nonvortex_headon",
        params=dict(_COOP_HEADON["params"], vortex=False),
        robots=[dict(robot, radius=0.1) for robot in _COOP_HEADON["robots"]],
    ),
    # A single robot steered to its goal by the attractive field alone.
    "attractive_only": {
        "name": "attractive_only",
        "t_max": 40.0,
        "robots": [{"id": 1, "x": -1.5, "y": 0.0, "heading": 0.5, "goal": [1.5, 0.0]}],
    },
    # A symmetric head-on pair forced through a full evasive turn at the
    # acceleration bound, for the grazing-geometry oracle.  The bound is
    # realized through the steering channel (V * omega_max = f_lim), which is
    # the only way a constant-speed robot can hold a lateral acceleration.
    # Each goal sits far out on the robot's avoidance side, so the commanded
    # direction keeps the turn saturated all the way to the side-by-side point
    # that the circle construction assumes; the repulsive gain is kept small
    # so the trigger and turn direction still come from the vortex field
    # without distorting the saturated arc.
    "saturated_headon": {
        "name": "saturated_headon",
        "dt": 0.005,
        "t_max": 40.0,
        "params": {"lambda": 1.0, "r_star": 0.0, "f_lim": _SATURATED_F_LIM,
                   "omega_max": _SATURATED_F_LIM / _V},
        "robots": [
            {"id": 1, "x": -0.5, "y": 0.0, "goal": [-0.5, -100.0]},
            {"id": 2, "x": 0.5, "y": 0.0, "heading": math.pi, "goal": [0.5, 100.0]},
        ],
    },
}


# ---------------------------------------------------------------------------
# Sweep specifications


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian parameter sweep over ``base``, the base scenario's complete
    document, in which an ``r_star`` the base leaves out stays null, so that
    each cell resolves it from its own lambda, speeds and ``f_lim``."""

    base: dict[str, Any]
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    metrics: tuple[str, ...]

    def steps(self) -> int:
        """The physics steps of every cell together: each cell's
        ``Scenario.n_steps`` from its own ``t_max`` and ``dt``, an axis's
        value where one sets them, else the base's.  A cell whose ``t_max``
        and ``dt`` a scenario rejects counts 0: it runs no step."""
        axes = dict(self.axes)
        t_maxes = axes.pop("t_max", (self.base["t_max"],))
        dts = axes.pop("dt", (self.base["dt"],))
        cells = math.prod(len(values) for values in axes.values())
        return cells * sum(itertools.starmap(_steps, itertools.product(t_maxes, dts)))


def _steps(t_max: Any, dt: Any) -> int:
    """``Scenario.n_steps`` of a scenario document's ``t_max`` and ``dt``
    values, or 0 where reading them or validating them fails."""
    errors: list[str] = []
    times = _read_fields({"t_max": t_max, "dt": dt}, SCENARIO_FIELDS, errors)
    scenario = Scenario(robots=(), params=PFParams(), **times)
    if errors or scenario.validation_errors(all_robots=False):
        return 0
    return scenario.n_steps()


def set_by_path(data: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path (list indices as ASCII digit tokens) in a scenario dict;
    a path that does not resolve raises KeyError."""
    *parents, last = path.split(".")
    node: Any = data
    for token in parents:
        node = node[_slot(node, token, path)]
    node[_slot(node, last, path)] = value


def _slot(node: Any, token: str, path: str) -> str | int:
    """The key or list index that ``token`` names in ``node``."""
    if isinstance(node, dict) and token in node:
        return token
    if isinstance(node, list) and token.isascii() and token.isdigit() and int(token) < len(node):
        return int(token)
    raise KeyError(f"path {path!r}: no such field {token!r}")


def load_sweep(path: str) -> SweepSpec:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: expected an object, got {data!r}"])
    errors: list[str] = []
    base = data.get("base_scenario")
    if not isinstance(base, str):
        errors.append("base_scenario: expected a file path or preset name")
    axes_data = data.get("axes")
    axes: list[tuple[str, tuple[Any, ...]]] = []
    if not isinstance(axes_data, list) or not axes_data:
        errors.append("axes: at least one sweep axis is required")
        axes_data = []
    for entry in axes_data:
        if not isinstance(entry, dict) or "path" not in entry or "values" not in entry:
            errors.append(f"axes: each axis needs 'path' and 'values' ({entry!r})")
            continue
        values = entry["values"]
        if not isinstance(values, list) or not values:
            errors.append(f"axes[{entry['path']}]: values must be a non-empty list")
            continue
        axis_path = str(entry["path"])
        if any(axis_path == seen for seen, _ in axes):
            errors.append(f"axes[{axis_path}]: path listed more than once")
            continue
        axes.append((axis_path, tuple(values)))
        for text in (axis_path, *(str(value) for value in values)):
            try:  # results.csv is UTF-8, and a lone surrogate has no UTF-8 form
                text.encode("utf-8")
            except UnicodeEncodeError:
                errors.append(f"axes[{axis_path}]: {text!r} has no UTF-8 form for results.csv")
    n_cells = math.prod(len(values) for _, values in axes)
    if n_cells > MAX_SWEEP_CELLS:
        lengths = " x ".join(str(len(values)) for _, values in axes)
        errors.append(f"axes: {lengths} = {n_cells} cells, more than the {MAX_SWEEP_CELLS} allowed")
    metrics = data.get("metrics", ["min_separation"])
    if not isinstance(metrics, list):
        errors.append(f"metrics: expected a list, got {metrics!r}")
        metrics = []
    for k, metric in enumerate(metrics):
        if metric not in SWEEP_METRICS:
            errors.append(f"metrics: unknown metric {metric!r} (known: {', '.join(SWEEP_METRICS)})")
        elif metric in metrics[:k]:
            errors.append(f"metrics: {metric!r} listed more than once")
    if errors:
        raise ScenarioError(errors)
    document = scenario_document(base)
    scenario = scenario_from_dict(document)
    base_dict = scenario_to_dict(scenario)
    if document.get("params", {}).get("r_star") is None:
        base_dict["params"]["r_star"] = None
    # Paths must resolve against the base scenario's schema; whether a
    # particular value is admissible is a per-cell concern.
    for axis_path, values in axes:
        try:
            set_by_path(json.loads(json.dumps(base_dict)), axis_path, values[0])
        except KeyError as exc:
            errors.append(str(exc))
    if errors:
        raise ScenarioError(errors)
    return SweepSpec(base=base_dict, axes=tuple(axes), metrics=tuple(metrics))

"""A sweep's spec (``load_sweep``), and the metrics of each cell, folded over
its run's recorded steps.

``cli.fold_metrics`` runs each sweep cell with a ``MetricsFold`` recorder
(``engine.Recorder``): one value per metric, no trajectory log.  Only
sweeps import this module, and it imports ``analysis`` only for the
``max_lyap_derivative`` metric; docs/formats.md defines each metric.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .engine import EVENT_GOAL, EVENT_OVERLAP, Event, Scenario, ScenarioError
from .fields import PFParams
from .scenarios import (
    SCENARIO_FIELDS, _read_fields, read_json, scenario_document, scenario_from_dict,
    scenario_to_dict,
)

if TYPE_CHECKING:
    from .engine import _Swarm

SWEEP_METRICS = ("min_separation", "time_to_goal", "body_overlap", "max_lyap_derivative")

#: Most cells one sweep may run (the product of its axis lengths); a larger
#: spec is a validation error, reported before any cell is built.
MAX_SWEEP_CELLS = 100_000


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


class MetricsFold:
    """A sweep cell's recorder.  It keeps the events and one running value
    per metric it folds over the recorded steps: the smallest separation
    (nan without pairs), and the running ``>`` maximum of
    ``analysis.multi_robot_derivative``, seeded from the first step as in
    ``max``.  A derivative that raises is held and raised by ``result``, so
    an engine fault later in the run is what the cell reports.  ``start``
    reads the derivative's pair ends and λ from the scenario ``run`` gives it."""

    def __init__(self, metrics: Sequence[str]):
        self.metrics = metrics
        self.events: list[Event] = []
        self.min_separation = math.nan
        self.derivative: Callable[..., float] | None = None
        self.max_derivative: float | None = None
        self.fault: Exception | None = None

    def start(self, scenario: Scenario, swarm: _Swarm) -> Callable[[float], None]:
        self.folds_separation = "min_separation" in self.metrics and bool(swarm.pairs)
        if "max_lyap_derivative" in self.metrics:
            from . import analysis

            self.derivative = analysis.multi_robot_derivative
            self.ends = analysis.cooperative_ends(scenario)
            self.lam = scenario.params.lam
        self.swarm = swarm
        return self.record

    def record(self, t: float) -> None:
        swarm = self.swarm
        if self.folds_separation:  # a separation is never nan, -0.0 or infinite
            r = min(swarm.r)
            if not r >= self.min_separation:  # the first step replaces the nan
                self.min_separation = r
        if self.derivative is not None:
            try:
                value = self.derivative(swarm.r, swarm.vr, swarm.vth, swarm.vrel, swarm.trig,
                                        swarm.active, self.ends, self.lam)
            except Exception as exc:  # the cell's error, unless the run fails later
                self.fault, self.derivative = exc, None
                return
            if self.max_derivative is None or value > self.max_derivative:
                self.max_derivative = value

    def result(self) -> dict[str, Any]:
        if self.fault is not None:
            raise self.fault
        values: dict[str, Any] = {}
        for metric in self.metrics:
            if metric == "min_separation":
                values[metric] = self.min_separation
            elif metric == "time_to_goal":  # a robot reaches its goal once at most
                goals = (event.t for event in self.events if event.kind == EVENT_GOAL)
                values[metric] = max(goals, default=math.nan)
            elif metric == "body_overlap":
                values[metric] = int(any(event.kind == EVENT_OVERLAP for event in self.events))
            elif metric == "max_lyap_derivative":
                values[metric] = math.nan if self.max_derivative is None else self.max_derivative
        return values

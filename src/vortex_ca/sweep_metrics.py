"""The metrics of one sweep cell, folded over its run's recorded steps.

``cli.fold_metrics`` runs each sweep cell with a ``MetricsFold`` as its
recorder (``engine.Recorder``), so no cell builds a trajectory log.  Only
sweeps import this module, and it imports ``analysis`` only for the
``max_lyap_derivative`` metric; docs/formats.md defines each metric.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .engine import EVENT_GOAL, EVENT_OVERLAP, Event

if TYPE_CHECKING:
    from .engine import Scenario, _Swarm


class MetricsFold:
    """A sweep cell's recorder.  It keeps the events and folds over the
    recorded steps only what the metrics read: each pair's running minimum
    separation (``map(min, ...)``: the first of equals wins, as in ``min``),
    and the running ``>`` maximum of ``analysis.multi_robot_derivative``,
    seeded from the first step as in ``max``.  A derivative that raises is
    held and raised by ``result``, so an engine fault later in the run is
    what the cell reports.  ``start`` reads the derivative's pair ends and
    λ from the scenario ``run`` gives it."""

    def __init__(self, metrics: Sequence[str]):
        self.metrics = metrics
        self.events: list[Event] = []
        self.min_r: list[float] | None = [] if "min_separation" in metrics else None
        self.lyapunov: tuple[Callable[..., float], list, float] | None = None
        self.max_derivative: float | None = None
        self.fault: Exception | None = None

    def start(self, scenario: Scenario, swarm: _Swarm) -> Callable[[float], None]:
        if "max_lyap_derivative" in self.metrics:
            from . import analysis

            ends = analysis.cooperative_ends(scenario.sorted_robots())
            self.lyapunov = (analysis.multi_robot_derivative, ends, scenario.params.lam)
        self.swarm = swarm
        return self.record

    def record(self, t: float) -> None:
        swarm, min_r = self.swarm, self.min_r
        if min_r is not None:
            self.min_r = list(map(min, min_r, swarm.r)) if min_r else list(swarm.r)
        if self.lyapunov:
            derivative, ends, lam = self.lyapunov
            try:
                value = derivative(swarm.r, swarm.vr, swarm.vth, swarm.vrel, swarm.trig,
                                   swarm.active, ends, lam)
            except Exception as exc:  # the cell's error, unless the run fails later
                self.fault, self.lyapunov = exc, None
                return
            if self.max_derivative is None or value > self.max_derivative:
                self.max_derivative = value

    def result(self) -> dict[str, Any]:
        if self.fault is not None:
            raise self.fault
        values: dict[str, Any] = {}
        for metric in self.metrics:
            if metric == "min_separation":
                values[metric] = min(self.min_r or (), default=math.nan)
            elif metric == "time_to_goal":  # a robot reaches its goal once at most
                goals = (event.t for event in self.events if event.kind == EVENT_GOAL)
                values[metric] = max(goals, default=math.nan)
            elif metric == "body_overlap":
                values[metric] = int(any(event.kind == EVENT_OVERLAP for event in self.events))
            elif metric == "max_lyap_derivative":
                best = self.max_derivative
                values[metric] = math.nan if best is None else best
        return values

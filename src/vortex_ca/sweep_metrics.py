"""The metrics of one sweep cell, folded over its run's recorded steps.

``cli.fold_metrics`` runs each sweep cell with a ``MetricsFold`` recorder
(``engine.Recorder``): one value per metric, no trajectory log.  Only
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

"""Fuzz oracles for the scenario JSON boundary: whatever JSON value a user
gives, ``scenario_from_dict`` returns a Scenario or raises ScenarioError;
a valid scenario, however extreme its numbers, goes through ``run``,
``analyze`` and ``plotdata`` to an exit code, never a traceback; and so
does any sweep spec through ``sweep``."""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_strategies import extreme_scenarios
from vortex_ca import engine
from vortex_ca.cli import REGIME_NAMES, main
from vortex_ca.engine import Scenario, ScenarioError
from vortex_ca.scenarios import SWEEP_METRICS, scenario_from_dict

# Every value json.load can return, Infinity and NaN included.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)

# The documented keys (docs/formats.md).
TOP_KEYS = ("name", "dt", "t_max", "d_wheel", "r_wheel", "record_stride", "params", "robots")
PARAM_KEYS = ("kappa", "lambda", "r_star", "f_lim", "kp", "goal_tol", "eps_v", "omega_max", "vortex")
ROBOT_KEYS = ("id", "x", "y", "heading", "speed", "radius", "behavior", "goal", "target")


def _valid_robot(rid):
    return {"id": rid, "x": 1.5 * rid, "y": 0.0, "heading": math.pi, "goal": [0.0, 1.0]}


@st.composite
def scenario_shaped(draw):
    """A valid two-robot scenario with some fields replaced by arbitrary JSON,
    and some goals by two floats, Infinity and NaN included."""
    robots = [_valid_robot(1), _valid_robot(2)]
    for robot in robots:
        robot.update(draw(st.dictionaries(st.sampled_from(ROBOT_KEYS), JSON, max_size=3)))
        if draw(st.booleans()):
            robot["goal"] = draw(st.lists(st.floats(), min_size=2, max_size=2))
    data = {
        "params": draw(st.dictionaries(st.sampled_from(PARAM_KEYS), JSON, max_size=3)),
        "robots": robots,
    }
    data.update(draw(st.dictionaries(st.sampled_from(TOP_KEYS), JSON, max_size=2)))
    return data


def _parses_or_reports(data):
    try:
        assert isinstance(scenario_from_dict(data), Scenario)
    except ScenarioError as exc:
        assert exc.errors


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_any_json_value_parses_or_reports(data):
    _parses_or_reports(data)


@settings(max_examples=200, deadline=None)
@given(scenario_shaped())
def test_wrong_typed_fields_parse_or_report(data):
    _parses_or_reports(data)


@settings(max_examples=150, deadline=None)
@given(extreme_scenarios())
def test_extreme_scenarios_end_in_an_exit_code(data):
    assert isinstance(scenario_from_dict(data), Scenario)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "run")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        assert main(["run", path, "-o", out]) in (0, 1, 2)
        for regime in sorted(REGIME_NAMES):
            assert main(["analyze", out, "--regime", regime]) in (0, 1)
        assert main(["plotdata", out]) in (0, 1)


# The axis paths a sweep spec may name (docs/formats.md): every field of the
# base scenario below.
AXIS_PATHS = (
    [key for key in TOP_KEYS if key not in ("params", "robots")]
    + [f"params.{key}" for key in PARAM_KEYS]
    + [f"robots.{k}.{key}" for k in (0, 1) for key in ROBOT_KEYS] + ["robots.0.goal.1"]
)
SWEEP_BASE = {"dt": 0.05, "t_max": 0.5, "robots": [_valid_robot(1), _valid_robot(2)]}


@st.composite
def sweep_specs(draw):
    """A sweep spec over SWEEP_BASE of 1 to 2 x 2 cells: documented axis
    paths given arbitrary JSON values or plausible numbers, and metric lists
    that may repeat or misname a metric; a key may be replaced by arbitrary
    JSON."""
    value = st.floats(0.05, 2.0) | JSON
    axis = st.fixed_dictionaries({
        "path": st.sampled_from(AXIS_PATHS), "values": st.lists(value, min_size=1, max_size=2)})
    spec = {
        "axes": draw(st.lists(axis, min_size=1, max_size=2)),
        "metrics": draw(st.lists(st.sampled_from((*SWEEP_METRICS, "bogus")), max_size=3)),
    }
    spec.update(draw(st.dictionaries(st.sampled_from(("base_scenario", "axes", "metrics")),
                                     JSON, max_size=1)))
    return spec


@settings(max_examples=100, deadline=None)
@given(sweep_specs())
def test_sweep_specs_end_in_an_exit_code(spec):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # every cell runs in this process, and a cell's t_max or dt cannot
        # make it long
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patch.setattr(engine, "MAX_STEPS", 200)
        base, path = os.path.join(tmp, "base.json"), os.path.join(tmp, "spec.json")
        with open(base, "w", encoding="utf-8") as handle:
            json.dump(SWEEP_BASE, handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"base_scenario": base, **spec}, handle)
        assert main(["sweep", path, "-o", os.path.join(tmp, "out")]) in (0, 1)

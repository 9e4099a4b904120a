"""Fuzz oracles for the scenario JSON boundary: whatever JSON value a user
gives, ``scenario_from_dict`` returns a Scenario or raises ScenarioError;
and a valid scenario, however extreme its numbers, goes through ``run``,
``analyze`` and ``plotdata`` to an exit code, never a traceback."""

import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_strategies import extreme_scenarios
from vortex_ca.cli import REGIME_NAMES, main
from vortex_ca.engine import Scenario, ScenarioError
from vortex_ca.scenarios import scenario_from_dict

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
    """A valid two-robot scenario with some fields replaced by arbitrary JSON."""
    robots = [_valid_robot(1), _valid_robot(2)]
    for robot in robots:
        robot.update(draw(st.dictionaries(st.sampled_from(ROBOT_KEYS), JSON, max_size=3)))
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

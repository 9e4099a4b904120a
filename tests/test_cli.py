import ast
import csv
import functools
import hashlib
import json
import math
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from common_runs import PRESET_RUNS, log_bits
from scenario_strategies import fold_scenarios
from vortex_ca import analysis, cli, engine
from vortex_ca.analysis import REGIME_COLUMNS, RegimeKind, analyze_log
from vortex_ca.cli import main, read_run, write_run_outputs
from vortex_ca.engine import (
    EVENT_OVERLAP, PAIR_COLUMNS, ROBOT_COLUMNS, ScenarioError, min_separation, run,
)
from vortex_ca.kinematics import CollisionSingularity, SimulationFault
from vortex_ca.scenarios import (
    PRESETS,
    SWEEP_METRICS,
    load_scenario,
    load_sweep,
    scenario_from_dict,
    scenario_to_dict,
    set_by_path,
)
from vortex_ca.sweep_metrics import MetricsFold

MINIMAL = {
    "robots": [
        {"id": 1, "x": 0.0, "y": 0.0, "heading": 0.0, "speed": 0.17,
         "behavior": "cooperative", "goal": [2.0, 0.0]}
    ]
}


# ---------------------------------------------------------------------------
# scenario loading


def test_load_minimal_scenario_fills_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(MINIMAL))
    scn = load_scenario(str(path))
    assert scn.dt == 0.01
    assert scn.params.goal_tol == 0.2
    assert scn.params.kp == 5.0
    assert scn.record_stride == 1
    assert scn.robots[0].body_radius == 0.175


def test_load_scenario_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"robots": [}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "line 1" in str(err.value)


def test_load_scenario_semantic_errors_are_exhaustive(tmp_path):
    data = {
        "t_max": -5.0,
        "params": {"kp": -1.0},
        "robots": [
            {"id": 1, "x": 0.0, "y": 0.0, "behavior": "cooperative", "goal": [1.0, 0.0]},
            {"id": 1, "x": 1.0, "y": 0.0, "behavior": "cooperative", "goal": [0.0, 0.0]},
            {"id": 2, "x": 2.0, "y": 0.0, "behavior": "attacking", "target": 99},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    text = str(err.value)
    assert "kp" in text
    assert "duplicate" in text
    assert "99" in text


def test_load_dangling_attacker_target(tmp_path):
    data = {
        "robots": [
            {"id": 1, "x": 0.0, "y": 0.0, "behavior": "cooperative", "goal": [1.0, 0.0]},
            {"id": 2, "x": 1.0, "y": 0.0, "behavior": "attacking", "target": 99},
        ]
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_unknown_preset_or_file():
    with pytest.raises(ScenarioError):
        load_scenario("no_such_preset_or_file")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_scenario_round_trip(tmp_path, name):
    scn = load_scenario(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario_to_dict(scn), indent=2))
    assert load_scenario(str(path)) == scn


def test_preset_coop_headon_matches_reference_setup():
    scn = load_scenario("coop_headon")
    a, b = scn.sorted_robots()
    assert (a.position.x, a.position.y) == (-1.5, 0.0)
    assert (b.position.x, b.position.y) == (1.5, 0.0)
    assert a.goal == b.position and b.goal == a.position
    assert scn.params.lam == 10.0 and scn.params.kappa == 10.0
    assert a.speed == 0.17 and a.body_radius == 0.175


def test_set_by_path_resolution():
    data = scenario_to_dict(load_scenario("coop_headon"))
    set_by_path(data, "params.lambda", 15.0)
    set_by_path(data, "robots.0.speed", 0.2)
    scn = scenario_from_dict(data)
    assert scn.params.lam == 15.0
    assert scn.sorted_robots()[0].speed == 0.2
    with pytest.raises(KeyError):
        set_by_path(data, "params.no_such_field", 1.0)


# ---------------------------------------------------------------------------
# run command and outputs


@pytest.fixture(scope="module")
def headon_rundir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "coop_headon"
    code = main(["run", "coop_headon", "-o", str(out)])
    assert code in (0, 2)
    return str(out)


def test_cmd_run_writes_expected_files(headon_rundir):
    for name in ("trajectory.csv", "pairs.csv", "events.csv", "summary.json"):
        assert os.path.exists(os.path.join(headon_rundir, name))


def test_golden_csv_headers(headon_rundir):
    with open(os.path.join(headon_rundir, "trajectory.csv")) as handle:
        header = handle.readline().strip()
    assert header == (
        "t,r1_x,r1_y,r1_phi,r1_omega,r1_fx,r1_fy,r1_repfx,r1_repfy,r1_active,"
        "r2_x,r2_y,r2_phi,r2_omega,r2_fx,r2_fy,r2_repfx,r2_repfy,r2_active"
    )
    with open(os.path.join(headon_rundir, "pairs.csv")) as handle:
        header = handle.readline().strip()
    assert header == "t,p1_2_r,p1_2_theta,p1_2_vr,p1_2_vth,p1_2_vrel,p1_2_trig"
    with open(os.path.join(headon_rundir, "events.csv")) as handle:
        assert handle.readline().strip() == "t,kind,ids"


@functools.lru_cache(maxsize=None)
def _preset_log(name):
    return run(load_scenario(name))


def test_read_run_round_trips_exactly(headon_rundir, tmp_path):
    # 17 significant digits keep every float bit-exact through the text layer
    assert log_bits(read_run(headon_rundir)) == log_bits(_preset_log("coop_headon"))
    for name in ("coop_triangle", "saturated_headon"):
        log = _preset_log(name)
        write_run_outputs(log, str(tmp_path / name))
        assert log_bits(read_run(str(tmp_path / name))) == log_bits(log)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_run_files_rewrite_byte_identical(tmp_path, name):
    first, second = tmp_path / "first", tmp_path / "second"
    write_run_outputs(_preset_log(name), str(first))
    write_run_outputs(read_run(str(first)), str(second))
    for filename in ("trajectory.csv", "pairs.csv", "events.csv", "summary.json"):
        assert (first / filename).read_bytes() == (second / filename).read_bytes(), filename


def test_float_format_matches_17g_bit_for_bit():
    # the writers format a row with one %-operation; it must print exactly what
    # f"{v:.17g}" prints, so every float survives the text layer bit-exact
    rng = random.Random(5)
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 0.1]
    values += [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(20000)]
    assert [cli.FLOAT % v for v in values] == [f"{v:.17g}" for v in values]


def _replace_in(filename, old, new, count=1):
    def edit(rundir):
        path = rundir / filename
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, count))
    return edit


def _write(filename, text):
    return lambda rundir: (rundir / filename).write_text(text)


def _ragged_row(rundir):
    path = rundir / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[4] += ",0"
    path.write_text("\n".join(lines) + "\n")


def _non_numeric_cell(index):
    def edit(rundir):
        path = rundir / "pairs.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[index] = "fast"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return edit


def _bad_time(rundir):
    path = rundir / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[3] = "soon" + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")


BAD_TIME = "trajectory.csv: column 't': bad cell (could not convert string to float: 'soon')"

MALFORMED_RUNS = {
    "ragged_row": (_ragged_row, "trajectory.csv: line 5 has 20 cells, the header has 19"),
    "non_numeric_time": (_bad_time, BAD_TIME),
    # t is checked before any robot column
    "non_numeric_time_and_renamed_column": (
        lambda rundir: (_bad_time(rundir),
                        _replace_in("trajectory.csv", "r1_phi", "r1_heading")(rundir)),
        BAD_TIME,
    ),
    "renamed_column": (_replace_in("trajectory.csv", "r1_phi", "r1_heading"), "'r1_phi'"),
    "non_numeric_cell": (_non_numeric_cell(3), "pairs.csv: column 'p1_2_vr'"),
    "bad_flag": (_replace_in("pairs.csv", ",0\n", ",no\n"), "column 'p1_2_trig': bad cell ('no')"),
    "empty_pairs": (_write("pairs.csv", ""), "pairs.csv: no header line"),
    "header_only_pairs": (
        _write("pairs.csv", "t,p1_2_r,p1_2_theta,p1_2_vr,p1_2_vth,p1_2_vrel,p1_2_trig\n"),
        "pairs.csv: column 't' differs from trajectory.csv",
    ),
    "header_only_trajectory": (
        _write("trajectory.csv", "t,r1_x\n"), "trajectory.csv: no data rows"
    ),
    "empty_summary": (_write("summary.json", "{}"), "summary.json: expected an object"),
    "non_object_summary": (_write("summary.json", "[1, 2]"), "summary.json: expected an object"),
    "deep_summary": (_write("summary.json", "[" * 100_000), "summary.json: parse error: "),
    "non_object_robot": (
        _write("summary.json", '{"scenario": {"robots": [1]}}'),
        "summary.json: scenario: robots[0]: expected an object, got 1",
    ),
    "non_object_params": (
        _replace_in("summary.json", '"params": {', '"params": [], "unused": {'),
        "summary.json: scenario: params: expected an object, got []",
    ),
    "non_finite_position": (
        _replace_in("summary.json", '"x": -1.5', '"x": NaN'),
        "summary.json: scenario: robots[0]: robot 1: position must be finite",
    ),
    "non_finite_goal": (
        _replace_in("summary.json", '"goal": [\n          1.5', '"goal": [\n          NaN'),
        "summary.json: scenario: robots[0]: robot 1: goal must be finite",
    ),
    "bad_event_ids": (_replace_in("events.csv", ",1\n", ",1:x\n"), "events.csv: column 'ids': bad cell"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
def test_malformed_run_directory_exits_1(headon_rundir, tmp_path, capsys, case):
    corrupt, message = MALFORMED_RUNS[case]
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    corrupt(rundir)
    files = sorted(os.listdir(rundir))
    capsys.readouterr()
    for argv in (["analyze", str(rundir), "--regime", "coop_pair"], ["plotdata", str(rundir)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read run directory {rundir}: ")
        assert message in err
        # no panel and no temporary panel file is left behind
        assert sorted(os.listdir(rundir)) == files


def test_bad_cell_in_a_column_no_command_reads_is_ignored(headon_rundir, tmp_path):
    # neither analyze nor plotdata reads theta, so its cells are never parsed
    outputs = ("lyapunov.csv", "verification.txt", "xy_paths.csv", "vrvth.csv", "separation.csv")
    clean, corrupt = tmp_path / "clean", tmp_path / "corrupt"
    shutil.copytree(headon_rundir, clean)
    shutil.copytree(headon_rundir, corrupt)
    _non_numeric_cell(2)(corrupt)
    assert (corrupt / "pairs.csv").read_text().splitlines()[0].split(",")[2] == "p1_2_theta"
    for rundir in (clean, corrupt):
        assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 0
        assert main(["plotdata", str(rundir)]) == 0
    for filename in outputs:
        assert (corrupt / filename).read_bytes() == (clean / filename).read_bytes(), filename


def test_analyze_reports_a_repeated_time_as_a_failed_check(headon_rundir, tmp_path, capsys):
    # the numeric derivative divides by a zero time step there, which gives
    # nan in lyapunov.csv (as numpy's gradient does), not an exception
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir)
    for name in ("trajectory.csv", "pairs.csv"):
        path = rundir / name
        lines = path.read_text().splitlines()
        lines[3] = lines[2].split(",")[0] + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL time_monotone" in out and err == ""
    rows = (rundir / "lyapunov.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[2:4]] == ["nan", "nan"]
    assert "nan" not in rows[1] + rows[4]


def _never_active(rundir):
    path = rundir / "trajectory.csv"
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",r1_active")
    lines[1:] = [line[:line.rindex(",")] + ",0" for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")


def _set_column(filename, column, cell, row=None):
    """An edit that sets ``column`` of data row ``row`` (0 is the first
    after the header), or of every row, to the text ``cell``."""
    def edit(rundir):
        path = rundir / filename
        header, *rows = path.read_text().splitlines()
        index = header.split(",").index(column)
        lines = [header]
        for k, line in enumerate(rows):
            cells = line.split(",")
            if row is None or k == row:
                cells[index] = cell
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
    return edit


# Runs that read cleanly but that a check cannot measure: the check fails.
UNMEASURABLE_RUNS = {
    "never_active": ("attractive_only", "attractive_only", _never_active,
                     "FAIL closing_at_speed: the robot is never active"),
    # the mirrored-circle prediction from a 1e-12 m initial separation is 0
    "zero_grazing_prediction": ("saturated_headon", "coop_pair",
                                _set_column("pairs.csv", "p1_2_r", "1e-12", 0),
                                "FAIL grazing_geometry: "),
    # One nan cell that the check folds into its worst value.  Row 5 is
    # triggered in every preset and comes before any overlap; row 0 is the
    # attacker run's one triggered step with Vth >= 0.
    "nan_circle_constraint": ("coop_headon", "coop_pair",
                              _set_column("pairs.csv", "p1_2_vr", "nan", 5),
                              "FAIL circle_constraint: max |Vr^2+Vth^2-Vrel^2| = nan\n"),
    "nan_reciprocity": ("coop_headon", "coop_pair",
                        _set_column("trajectory.csv", "r1_repfx", "nan", 5),
                        "FAIL reciprocity: max |F_rep_i + F_rep_j| = nan over 878 triggered "
                        "steps\n"),
    "nan_instability_certificate": ("saturated_headon", "coop_pair",
                                    _set_column("pairs.csv", "p1_2_r", "nan", 5),
                                    "FAIL instability_certificate: derivative sign change at "
                                    "t=2.415, r=0.377, min separation nan\n"),
    "nan_grazing_geometry": ("saturated_headon", "coop_pair",
                             _set_column("pairs.csv", "p1_2_r", "nan", 5),
                             "FAIL grazing_geometry: min separation nan vs mirrored-circle "
                             "prediction 0.3765 (nan%, tolerance 2%)\n"),
    "nan_noncooperative_straight_path": ("noncoop_headon", "coop_vs_noncoop",
                                         _set_column("trajectory.csv", "r2_y", "nan", 5),
                                         "FAIL noncooperative_straight_path: max lateral "
                                         "deviation nan m\n"),
    "nan_separation_positive": ("noncoop_headon", "coop_vs_noncoop",
                                _set_column("pairs.csv", "p1_2_r", "nan", 5),
                                "FAIL separation_positive: min separation nan m\n"),
    "nan_attacker_certificate": ("attacker", "coop_vs_attacker",
                                 _set_column("pairs.csv", "p1_2_vr", "nan", 0),
                                 "FAIL attacker_certificate: min Lyapunov derivative over "
                                 "triggered steps with Vth >= 0: nan\n"),
    "nan_no_turning": ("nonvortex_headon", "nonvortex_pair",
                       _set_column("pairs.csv", "p1_2_vth", "nan", 5),
                       "FAIL no_turning: max |Vth| = nan\n"),
    "nan_monotone_closing": ("nonvortex_headon", "nonvortex_pair",
                             _set_column("pairs.csv", "p1_2_r", "nan", 5),
                             "FAIL monotone_closing: separation did not decrease at t=0.050, "
                             "r=nan\n"),
    "nan_pairwise_clearance": ("coop_triangle", "multi_robot",
                               _set_column("pairs.csv", "p1_2_r", "nan", 5),
                               "FAIL pairwise_clearance: worst min-separation margin over body "
                               "contact: nan m\n"),
    "nan_repulsive_sum_cancels": ("coop_triangle", "multi_robot",
                                  _set_column("trajectory.csv", "r1_repfx", "nan", 5),
                                  "FAIL repulsive_sum_cancels: max |sum of repulsive inputs| = "
                                  "nan\n"),
}


@pytest.mark.parametrize("case", sorted(UNMEASURABLE_RUNS))
def test_analyze_reports_an_unmeasurable_run_as_a_failed_check(tmp_path, capsys, case):
    preset, regime, corrupt, message = UNMEASURABLE_RUNS[case]
    rundir = tmp_path / "run"
    main(["run", preset, "-o", str(rundir)])
    corrupt(rundir)
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", regime]) == 1
    out, err = capsys.readouterr()
    assert message in out and err == ""


def test_nonvortex_failures_say_what_failed(tmp_path, capsys):
    # a nan separation at row 5 and no overlap event: each FAIL line names
    # what went wrong, not the text of a pass
    rundir = tmp_path / "run"
    main(["run", "nonvortex_headon", "-o", str(rundir)])
    _set_column("pairs.csv", "p1_2_r", "nan", 5)(rundir)
    events = rundir / "events.csv"
    lines = events.read_text().splitlines(keepends=True)
    events.write_text("".join(line for line in lines if ",BodyOverlap," not in line))
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", "nonvortex_pair"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-2:] == [
        "FAIL monotone_closing: separation did not decrease at t=0.050, r=nan",
        "FAIL overlap_occurred: no overlap event recorded",
    ]


def test_analyze_skips_the_grazing_check_for_robots_at_rest(tmp_path, capsys):
    # finite f_lim and omega_max at a common speed of 0: the mirrored-circle
    # prediction does not apply, and the check must not divide by the speed
    scenario = tmp_path / "rest.json"
    scenario.write_text(json.dumps({"t_max": 1.0, "params": {"f_lim": 1.0, "omega_max": 1.0},
                                    "robots": [
        {"id": 1, "x": -1.0, "y": 0.0, "speed": 0.0, "goal": [1.0, 0.0]},
        {"id": 2, "x": 1.0, "y": 0.0, "heading": math.pi, "speed": 0.0, "goal": [-1.0, 0.0]},
    ]}))
    rundir = tmp_path / "run"
    assert main(["run", str(scenario), "-o", str(rundir)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == (rundir / "verification.txt").read_text().splitlines()
    assert "PASS time_monotone: recorded times strictly increase" in out
    assert "grazing_geometry" not in out


def test_analyze_fails_the_grazing_check_when_the_turn_radius_underflows(tmp_path, capsys):
    # a bound-realizing head-on pair whose turn radius V^2 / f_lim underflows
    # to 0: the prediction cannot be formed, so the check fails and the
    # other checks still print
    data = scenario_to_dict(load_scenario("coop_headon"))
    data["t_max"] = 0.05
    data["params"].update(f_lim=1e-300, omega_max=1.0, eps_v=1e-310)
    for robot in data["robots"]:
        robot["speed"] = 1e-300
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(data))
    rundir = tmp_path / "run"
    assert main(["run", str(scenario), "-o", str(rundir)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == (rundir / "verification.txt").read_text().splitlines()
    assert "PASS time_monotone: recorded times strictly increase" in out
    grazing = [line for line in out.splitlines() if "grazing_geometry" in line]
    assert len(grazing) == 1 and grazing[0].startswith("FAIL grazing_geometry: ")
    assert "(inf%, tolerance 2%)" in grazing[0]


# Runs that read cleanly but hold cells beyond the range of a check's
# formula: analyze reports an error, not a traceback.
OUT_OF_RANGE_RUNS = {
    "overflowing_vr": ("coop_headon", "coop_pair",
                       _set_column("pairs.csv", "p1_2_vr", "1e200"), "OverflowError"),
    "overflowing_vrel": ("nonvortex_headon", "nonvortex_pair",
                         _set_column("pairs.csv", "p1_2_vrel", "1e200"), "OverflowError"),
    "underflowing_r": ("attacker", "coop_vs_attacker",
                       _set_column("pairs.csv", "p1_2_r", "1e-300"), "ZeroDivisionError"),
    "zero_r": ("coop_triangle", "multi_robot",
               _set_column("pairs.csv", "p1_2_r", "0"), "ZeroDivisionError"),
    "infinite_heading": ("attractive_only", "attractive_only",
                         _set_column("trajectory.csv", "r1_phi", "inf"), "math domain error"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_RUNS))
def test_analyze_reports_out_of_range_cells_as_an_error(tmp_path, capsys, case):
    preset, regime, corrupt, message = OUT_OF_RANGE_RUNS[case]
    rundir = tmp_path / "run"
    main(["run", preset, "-o", str(rundir)])
    corrupt(rundir)
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", regime]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and out == ""
    assert not (rundir / "verification.txt").exists()


def test_analyze_fails_the_circle_check_on_an_engine_written_nan(tmp_path, capsys):
    # two robots 2 m apart driving apart at 1e308 m/s: the pair state is
    # vr = inf, vth = nan and vrel = inf, so the engine aborts the run
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps({"t_max": 0.05, "robots": [
        {"id": 1, "x": -1.0, "y": 0.0, "heading": math.pi, "speed": 1e308, "goal": [-5.0, 0.0]},
        {"id": 2, "x": 1.0, "y": 0.0, "heading": 0.0, "speed": 1e308,
         "behavior": "noncooperative", "goal": [5.0, 0.0]},
    ]}))
    rundir = tmp_path / "run"
    assert main(["run", str(scenario), "-o", str(rundir)]) == 1
    assert capsys.readouterr() == ("", "error: simulation aborted: robots 1 and 2: non-finite "
                                       "pair state (r=2.0, vrel=inf)\n")
    assert not rundir.exists()
    # the same cells in a run directory: analyze fails the circle check
    main(["run", "noncoop_headon", "-o", str(rundir)])
    for column, cell in (("p1_2_vr", "inf"), ("p1_2_vth", "nan"), ("p1_2_vrel", "inf")):
        _set_column("pairs.csv", column, cell, 0)(rundir)
    capsys.readouterr()
    assert main(["analyze", str(rundir), "--regime", "coop_vs_noncoop"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "FAIL circle_constraint: max |Vr^2+Vth^2-Vrel^2| = nan" in out.splitlines()


def test_cli_io_spans_are_called_through_module_bindings(tmp_path, monkeypatch):
    # the benchmark tracer wraps these module-level bindings; a refactor that
    # bypasses them would silently empty the read, write and analysis spans
    calls = {"read_run": 0, "write_trajectory_csv": 0, "write_pairs_csv": 0,
             "analyze_log": 0, "fold_metrics": 0}
    for name in calls:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counting)
    one_worker(monkeypatch)  # calls made in forked sweep workers are not counted here
    out = str(tmp_path / "run")
    assert main(["run", "coop_headon", "-o", out]) == 2
    assert main(["analyze", out, "--regime", "coop_pair"]) == 0
    assert main(["plotdata", out]) == 0
    # plotdata streams its panels from the run's chunks (cli._read_traces),
    # so only analyze reads the run back through read_run
    assert calls == {"read_run": 1, "write_trajectory_csv": 1, "write_pairs_csv": 1,
                     "analyze_log": 1, "fold_metrics": 0}
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.lambda", "values": [8.0, 10.0, 12.0]}],
        "metrics": ["max_lyap_derivative"],
    }))
    assert main(["sweep", str(spec), "-o", str(tmp_path / "sweep")]) == 0
    # each cell folds its metrics as it runs
    assert calls["fold_metrics"] == 3
    out = str(tmp_path / "triangle")
    assert main(["run", "coop_triangle", "-o", out]) == 0
    assert main(["analyze", out, "--regime", "multi_robot"]) == 0
    assert calls["analyze_log"] == 2


def test_summary_contents(headon_rundir):
    with open(os.path.join(headon_rundir, "summary.json")) as handle:
        summary = json.load(handle)
    assert summary["min_separation"]["1-2"] > 0.0
    assert summary["goal_times"]["1"] is not None
    assert summary["exit_code"] in (0, 2)
    assert summary["scenario"]["robots"][0]["id"] == 1


def test_cmd_run_exit_codes(tmp_path):
    assert main(["run", "nonvortex_headon", "-o", str(tmp_path / "nv")]) == 2
    assert main(["run", "attractive_only", "-o", str(tmp_path / "att")]) == 0
    assert main(["run", "coop_triangle", "-o", str(tmp_path / "tri")]) == 0
    assert main(["run", "no_such_preset", "-o", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv, message", [
    (["run", "coop_headon"], "vortex-ca run: error: the following arguments are required: -o/--out"),
    (["frobnicate"], "vortex-ca: error: argument command: invalid choice: 'frobnicate'"),
], ids=["missing_out", "unknown_command"])
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 means a body overlap, so a usage error must not use argparse's 2
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: vortex-ca") and message in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: vortex-ca") == 2


def test_command_failures_are_raised_for_main_to_report(headon_rundir, tmp_path):
    # the commands print no error line themselves; main prints what they raise
    with pytest.raises(cli.CommandError, match="^unknown regime 'bogus' "):
        cli.cmd_analyze(headon_rundir, "bogus")
    for command in (lambda d: cli.cmd_analyze(d, "coop_pair"), cli.cmd_plotdata):
        with pytest.raises(cli.CommandError, match="^cannot read run directory "):
            command(str(tmp_path / "missing"))
    with pytest.raises(cli.CommandError, match="^regime mismatch: "):
        cli.cmd_analyze(headon_rundir, "nonvortex_pair")


ROBOT = {"id": 1, "x": 0.0, "y": 0.0, "goal": [2.0, 0.0]}

EXHAUSTIVE_CASES = {
    "three_params": (
        dict(MINIMAL, params={"kappa": -1, "lambda": -1, "kp": 0}),
        ["params: kappa must be >= 0", "params: lambda must be >= 0", "params: kp must be > 0"],
    ),
    "two_robot_fields": (
        {"robots": [{"id": 1, "x": "a", "y": "b"}]},
        ["robots[0]: x: expected a number, got 'a'", "robots[0]: y: expected a number, got 'b'"],
    ),
    "missing_and_bad_fields": (
        {"robots": [{"x": True, "behavior": "flying"}]},
        ["robots[0]: unknown behavior 'flying'", "robots[0]: missing field 'id'",
         "robots[0]: missing field 'y'", "robots[0]: x: expected a number, got True"],
    ),
    "two_robot_bounds": (
        {"robots": [dict(ROBOT, speed=-1, radius=-1)]},
        ["robots[0]: robot 1: speed must be >= 0", "robots[0]: robot 1: body radius must be >= 0"],
    ),
    # robot 1 exists in the file, so robot 2's target is not reported missing
    "target_of_a_rejected_robot": (
        {"robots": [dict(ROBOT, x="a"),
                    {"id": 2, "x": 1.0, "y": 0.0, "behavior": "attacking", "target": 1}]},
        ["robots[0]: x: expected a number, got 'a'"],
    ),
    "every_robot_rejected": (
        {"robots": [dict(ROBOT, x="a"), dict(ROBOT, id=2, y=None)], "dt": -1},
        ["robots[0]: x: expected a number, got 'a'", "robots[1]: y: expected a number, got None",
         "dt must be > 0"],
    ),
    "empty_robot_list": ({"robots": []}, ["robots: expected a non-empty list"]),
    # a non-finite field is one entry among the robot's other problems
    "non_finite_x_and_radius": (
        {"robots": [dict(ROBOT, x=math.nan, radius=-1)]},
        ["robots[0]: robot 1: position must be finite",
         "robots[0]: robot 1: body radius must be >= 0"],
    ),
    "non_finite_goal": (
        {"dt": -1, "robots": [dict(ROBOT, goal=[math.nan, 0], radius=-1)]},
        ["robots[0]: robot 1: body radius must be >= 0", "robots[0]: robot 1: goal must be finite",
         "dt must be > 0"],
    ),
    # a field that does not read hides none of the entry's other problems
    "read_error_bound_and_non_finite_goal": (
        {"robots": [{"id": 1, "x": "a", "y": 0, "radius": -1, "goal": [math.nan, 0]}]},
        ["robots[0]: x: expected a number, got 'a'",
         "robots[0]: robot 1: body radius must be >= 0", "robots[0]: robot 1: goal must be finite"],
    ),
    "unread_id_and_bound": (
        {"robots": [dict(ROBOT, id="a", speed=-1)]},
        ["robots[0]: id: expected an integer, got 'a'", "robots[0]: robot ?: speed must be >= 0"],
    ),
}


@pytest.mark.parametrize("case", sorted(EXHAUSTIVE_CASES))
def test_validation_reports_every_problem_and_only_real_ones(case):
    document, errors = EXHAUSTIVE_CASES[case]
    with pytest.raises(ScenarioError) as caught:
        scenario_from_dict(document)
    assert caught.value.errors == errors


# The name each numeric robot field has in RobotState's error entries.
ROBOT_FIELD_NAMES = {"x": "position", "y": "position", "heading": "heading", "speed": "speed",
                     "radius": "body radius", "goal[0]": "goal", "goal[1]": "goal"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(ROBOT_FIELD_NAMES))
def test_non_finite_robot_field_is_reported_with_other_problems(field, value):
    robot = dict(ROBOT)
    if field.startswith("goal"):
        robot["goal"] = [value, 0.0] if field == "goal[0]" else [0.0, value]
    else:
        robot[field] = value
    with pytest.raises(ScenarioError) as caught:
        scenario_from_dict({"dt": -1, "robots": [robot]})
    entry, dt_error = caught.value.errors
    assert entry.startswith(f"robots[0]: robot 1: {ROBOT_FIELD_NAMES[field]} must be ")
    assert dt_error == "dt must be > 0"


# A goal that JSON's NaN literal makes non-finite: a validation error, not an aborted run.
NAN_GOAL = '{"dt": -1, "robots": [{"id": 1, "x": 0, "y": 0, "goal": [NaN, 0], "radius": -1}]}'
NAN_GOAL_ERRORS = ("error: robots[0]: robot 1: body radius must be >= 0\n"
                   "error: robots[0]: robot 1: goal must be finite\n"
                   "error: dt must be > 0\n")


def test_non_finite_goal_is_reported_by_run_and_sweep(tmp_path, capsys):
    base = tmp_path / "nan_goal.json"
    base.write_text(NAN_GOAL)
    spec = _write_spec(tmp_path / "sweep.json", base, [("params.lambda", [10.0])])
    for argv in (["run", str(base)], ["sweep", str(spec)]):
        assert main([*argv, "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == NAN_GOAL_ERRORS
    assert not (tmp_path / "out").exists()


def test_collision_singularity_is_a_simulation_fault(tmp_path, capsys):
    assert issubclass(CollisionSingularity, SimulationFault)
    path = tmp_path / "same_point.json"
    path.write_text(json.dumps({"robots": [dict(ROBOT), dict(ROBOT, id=2, goal=[-2.0, 0.0])]}))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: simulation aborted: robots 1 and 2 at identical positions\n"
    )


def test_cmd_run_rejects_non_finite_times(tmp_path, capsys):
    # json accepts the non-standard Infinity literal; run must not overflow on it
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(MINIMAL, t_max=float("inf"), dt=float("inf"))))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: t_max must be finite" in err
    assert "error: dt must be finite" in err
    assert not (tmp_path / "out").exists()


def _stationary_robots(n):
    return [{"id": k + 1, "x": 0.5 * k, "y": 0.0, "speed": 0.0, "behavior": "stationary"}
            for k in range(n)]


def _values_over_cap(n, steps):
    # per recorded row: t, the trajectory.csv columns of every robot and the
    # pairs.csv columns of every pair, so a new column raises the count too
    values = (steps + 2) * (1 + len(ROBOT_COLUMNS) * n + len(PAIR_COLUMNS) * n * (n - 1) // 2)
    return f"the log would record {values} values (the cap is {engine.MAX_RECORDED_VALUES})"


SIZE_CASES = {
    # t_max / dt overflows to inf although both are finite
    "overflowing_steps": ({"dt": 1e-300, "t_max": 1e300}, "t_max / dt overflows"),
    "too_many_steps": (
        {"dt": 1e-3, "t_max": 1e-3 * (engine.MAX_STEPS + 1)},
        f"steps (the cap is {engine.MAX_STEPS})",
    ),
    # 150 robots record 1 + 9 * 150 + 6 * 11175 = 68401 values a row
    "too_many_values": (
        {"t_max": 10.0, "robots": _stationary_robots(150)}, _values_over_cap(150, 1000)
    ),
    "too_many_rows": (
        {"t_max": 30_000.0, "robots": _stationary_robots(2)}, _values_over_cap(2, 3_000_000)
    ),
}


@pytest.mark.parametrize("case", sorted(SIZE_CASES))
def test_cmd_run_rejects_runs_over_the_size_caps(tmp_path, capsys, case):
    fields, message = SIZE_CASES[case]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(MINIMAL, **fields)))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert not (tmp_path / "out").exists()


def test_size_caps_leave_wide_margins():
    # the longest preset and the largest test scenario stay far below the caps
    saturated = load_scenario("saturated_headon")
    assert saturated.n_steps() == 8000 and 100 * 8001 < engine.MAX_STEPS
    n = 32  # the benchmark ring, recording 7 rows
    assert 100 * 7 * (1 + 9 * n + 3 * n * (n - 1)) < engine.MAX_RECORDED_VALUES


def test_cmd_sweep_reports_size_caps_as_cell_errors(tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base_scenario": "coop_headon",
        "axes": [{"path": "t_max", "values": [1.0, 1e300]}, {"path": "dt", "values": [1e-300]}],
        "metrics": ["min_separation"],
    }))
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[-1] for row in rows] == [
        f"t_max / dt gives 1e+300 steps (the cap is {engine.MAX_STEPS})",
        "t_max / dt overflows",
    ]


@pytest.mark.parametrize("scenario, message", [
    ([MINIMAL], "error: scenario: expected an object"),
    ({"robots": [1]}, "error: robots[0]: expected an object, got 1"),
    (dict(MINIMAL, params=[]), "error: params: expected an object, got []"),
    ({"robots": [dict(MINIMAL["robots"][0], id=float("inf"))]},
     "error: robots[0]: id: expected an integer, got inf"),
    ({"robots": [dict(MINIMAL["robots"][0], x=float("nan"))]},
     "error: robots[0]: robot 1: position must be finite"),
    (dict(MINIMAL, params={"f_lim": 0}),
     "error: params.f_lim: expected a positive number or null, got 0"),
    (dict(MINIMAL, params={"f_lim": -1}),
     "error: params.f_lim: expected a positive number or null, got -1"),
    (dict(MINIMAL, params={"f_lim": True}),
     "error: params.f_lim: expected a positive number or null, got True"),
    (dict(MINIMAL, params={"omega_max": 0}),
     "error: params.omega_max: expected a positive number or null, got 0"),
    ({"robots": [dict(MINIMAL["robots"][0], id=1.9)]},
     "error: robots[0]: id: expected an integer, got 1.9"),
    ({"robots": [dict(MINIMAL["robots"][0], id=True)]},
     "error: robots[0]: id: expected an integer, got True"),
    ({"robots": [MINIMAL["robots"][0],
                 {"id": 2, "x": 1.0, "y": 0.0, "behavior": "attacking", "target": 1.5}]},
     "error: robots[1]: target: expected an integer, got 1.5"),
    (dict(MINIMAL, record_stride=2.7), "error: record_stride: expected an integer, got 2.7"),
    (dict(MINIMAL, record_stride=True), "error: record_stride: expected an integer, got True"),
    ({"robots": [dict(MINIMAL["robots"][0], x=True)]},
     "error: robots[0]: x: expected a number, got True"),
    ({"robots": [dict(MINIMAL["robots"][0], y="0.5")]},
     "error: robots[0]: y: expected a number, got '0.5'"),
    (dict(MINIMAL, params={"kappa": True}), "error: params.kappa: expected a number, got True"),
    (dict(MINIMAL, dt="0.01"), "error: dt: expected a number, got '0.01'"),
    (dict(MINIMAL, params={"lambda": -1, "f_lim": 1}), "error: params: lambda must be >= 0"),
    (dict(MINIMAL, params={"kappa": math.nan}), "error: params: kappa must be >= 0"),
    (dict(MINIMAL, params={"lambda": math.nan}), "error: params: lambda must be >= 0"),
    (dict(MINIMAL, params={"r_star": math.nan}), "error: params: r_star must be >= 0"),
    ({"robots": [dict(MINIMAL["robots"][0], radius=math.nan)]},
     "error: robots[0]: robot 1: body radius must be >= 0"),
    (dict(MINIMAL, d_wheel=math.nan), "error: d_wheel must be > 0"),
    (dict(MINIMAL, r_wheel=math.nan), "error: r_wheel must be > 0"),
    (dict(MINIMAL, params={"eps_v": math.inf}), "error: params: eps_v must be finite"),
    (dict(MINIMAL, params={"goal_tol": math.inf}), "error: params: goal_tol must be finite"),
    (dict(MINIMAL, params={"kp": math.inf}), "error: params: kp must be finite"),
    (dict(MINIMAL, params={"lambda": math.inf}), "error: params: lambda must be finite"),
    (dict(MINIMAL, params={"kappa": math.inf}), "error: params: kappa must be finite"),
    ({"robots": [{"id": 2, "x": 1.0, "y": 0.0, "behavior": "attacking", "target": 1}]},
     "error: robot 2: attack target 1 does not exist"),
], ids=["list", "robot_int", "params_list", "id_inf", "x_nan", "f_lim_0", "f_lim_negative",
        "f_lim_true", "omega_max_0", "id_fraction", "id_true", "target_fraction",
        "stride_fraction", "stride_true", "x_true", "y_string", "kappa_true", "dt_string",
        "lambda_negative", "kappa_nan", "lambda_nan", "r_star_nan", "radius_nan", "d_wheel_nan",
        "r_wheel_nan", "eps_v_inf", "goal_tol_inf", "kp_inf", "lambda_inf", "kappa_inf",
        "missing_target"])
def test_cmd_run_rejects_malformed_scenario_entries(tmp_path, capsys, scenario, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "too_deep"])
def test_cmd_run_rejects_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: parse error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_run_rejects_non_boolean_vortex(tmp_path, capsys):
    path = tmp_path / "vortex.json"
    path.write_text(json.dumps(dict(MINIMAL, params={"vortex": "false"})))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "error: params.vortex: expected true or false, got 'false'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_run_reports_underflowing_repulsion(tmp_path, capsys):
    # vrel * r * r underflows to 0.0 below r of about 1e-162 m; the closing
    # pair must end in an error line and exit 1, not a ZeroDivisionError.
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"robots": [
        {"id": 1, "x": 0.0, "y": 0.0, "heading": 0.0, "goal": [1.5, 0.0]},
        {"id": 2, "x": 1e-170, "y": 0.0, "heading": math.pi, "goal": [-1.5, 0.0]},
    ]}))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: simulation aborted: robot 1: repulsive input divides by zero "
        "at separation 1e-170 m\n"
    )
    assert not (tmp_path / "out").exists()


# An attacker whose turn over one step, omega * dt, overflows although omega
# is finite: the step would turn by an infinite angle.
OVERTURN = {"dt": 1e10, "t_max": 1e10, "params": {"kp": 1e300}, "robots": [
    {"id": 1, "x": 0.0, "y": 1.0, "behavior": "stationary"},
    {"id": 2, "x": 0.0, "y": 0.0, "behavior": "attacking", "target": 1},
]}
OVERTURN_ERROR = "robot 2: non-finite propagation input"


def test_cmd_run_reports_a_turn_that_overflows(tmp_path, capsys):
    path = tmp_path / "overturn.json"
    path.write_text(json.dumps(OVERTURN))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: simulation aborted: {OVERTURN_ERROR}\n"
    assert not (tmp_path / "out").exists()


def test_cmd_sweep_reports_a_turn_that_overflows_as_a_cell_error(tmp_path):
    base = tmp_path / "overturn.json"
    base.write_text(json.dumps(OVERTURN))
    spec = _write_spec(tmp_path / "sweep.json", base, [("params.lambda", [10.0])])
    assert main(["sweep", str(spec), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "results.csv").read_text().splitlines() == [
        "params.lambda,min_separation,error", f"10,nan,{OVERTURN_ERROR}",
    ]


# ---------------------------------------------------------------------------
# sweep command

SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# A sweep in a new interpreter, where only the main thread runs, so that
# cmd_sweep may fork; in this process numpy's threads often keep it at one
# worker.  The probe fixes the usable CPU count, may lower the fork
# threshold, and may make a fork fail, a child end on one cell or hold for
# 30 s on the cell of one name, or the parent's row writing fail on one cell
# text, or run a second thread.  It
# records how each child ended.  Its interpreter warns of every file left
# open, so a pipe the parent leaks shows on stderr.
SWEEP_PROBE = """
import json, os, sys, threading, time
from vortex_ca import cli

args = json.loads(sys.argv[1])
parent, forks, ends = os.getpid(), [], []
real_fork, real_waitpid, real_run, real_cell = os.fork, os.waitpid, cli.run, cli._sweep_cell
os.sched_getaffinity = lambda pid: set(range(args["cpus"]))
if args["min_work"] is not None:
    cli._FORK_MIN_WORK = args["min_work"]


def fork():
    if len(forks) == args["forks_before_failure"]:
        raise OSError(11, "Resource temporarily unavailable")
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid


def waitpid(pid, options):
    done, status = real_waitpid(pid, options)
    if os.WIFSIGNALED(status):
        ends.append(["signal", os.WTERMSIG(status)])
    else:
        ends.append(["exit", os.WEXITSTATUS(status)])
    return done, status


def run(scenario, *recorder):
    if os.getpid() != parent and scenario.params.lam == args["die_at_lambda"]:
        os._exit(3)
    if os.getpid() != parent and scenario.name == args["hold_at"]:
        time.sleep(30)
    return real_run(scenario, *recorder)


def sweep_cell(value):
    if os.getpid() == parent and value == args["fail_at"]:
        raise OSError(5, "Input/output error")
    return real_cell(value)


os.fork, os.waitpid, cli.run, cli._sweep_cell = fork, waitpid, run, sweep_cell
release = threading.Event()
if args["thread"]:
    threading.Thread(target=release.wait).start()
codes, forked = [], []
for spec, out in args["sweeps"]:
    before = len(forks)
    codes.append(cli.main(["sweep", spec, "-o", out]))
    forked.append(len(forks) - before)
release.set()
try:
    real_waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps({"codes": codes, "forked": forked, "ends": sorted(ends), "reaped": reaped}))
"""

EXITED = ["exit", 0]


def fresh_sweep(*sweeps, cpus=2, min_work=None, forks_before_failure=None,
                die_at_lambda=None, hold_at=None, fail_at=None, thread=False):
    """Run each (spec, outdir) ``sweep`` in one new interpreter (see
    SWEEP_PROBE).  Returns the exit codes, the children each sweep forked,
    how the children ended, whether none was left unreaped, and stderr."""
    args = {"sweeps": [[str(spec), str(out)] for spec, out in sweeps], "cpus": cpus,
            "min_work": min_work, "forks_before_failure": forks_before_failure,
            "die_at_lambda": die_at_lambda, "hold_at": hold_at, "fail_at": fail_at,
            "thread": thread}
    done = subprocess.run(
        [sys.executable, "-W", "default::ResourceWarning", "-c", SWEEP_PROBE, json.dumps(args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return dict(json.loads(done.stdout.splitlines()[-1]), stderr=done.stderr)


def one_worker(monkeypatch):
    """Pin in-process sweeps to one worker: they see a single usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _write_spec(path, base, axes, metrics=("min_separation",)):
    path.write_text(json.dumps({"base_scenario": str(base), "metrics": list(metrics),
                                "axes": [{"path": p, "values": v} for p, v in axes]}))
    return path


def test_forked_sweep_of_the_benchmark_matches_its_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench

    pinned = json.loads((BENCHMARKS / "digests.json").read_text())["full"]["param_sweep"]
    sweep = bench.ParamSweep(tmp_path, bench.DEFAULT_SEED, fast=False)
    # below the fork threshold: 2 cells of 10 steps of one pair
    base = tmp_path / "short.json"
    base.write_text(json.dumps(dict(scenario_to_dict(load_scenario("coop_headon")), t_max=0.1)))
    small = _write_spec(tmp_path / "small.json", base, [("params.lambda", [9.0, 11.0])])
    assert fresh_sweep((small, tmp_path / "small"), (sweep.spec_path, tmp_path / "bench")) == {
        "codes": [0, 0], "forked": [0, 1], "ends": [EXITED], "reaped": True, "stderr": ""}
    results = (tmp_path / "bench" / "results.csv").read_bytes()
    assert hashlib.sha256(results).hexdigest() == pinned["results.csv"]
    assert (tmp_path / "small" / "results.csv").read_text().count("\n") == 3


def test_sweep_sizes_its_fork_from_each_cells_steps(tmp_path, monkeypatch):
    # 4 cells of coop_headon over 0.05-0.08 s are 26 pair-steps, and stay in
    # one process; 4 cells over 30-33 s on a 0.05 s base are about 12,600,
    # and fork.  A sweep sized from the base's steps did the opposite.
    base = tmp_path / "short.json"
    base.write_text(json.dumps(dict(scenario_to_dict(load_scenario("coop_headon")), t_max=0.05)))
    short = _write_spec(tmp_path / "short_spec.json", "coop_headon",
                        [("t_max", [0.05, 0.06, 0.07, 0.08])])
    long = _write_spec(tmp_path / "long_spec.json", base, [("t_max", [30.0, 31.0, 32.0, 33.0])])
    assert load_sweep(str(short)).steps() == 26
    assert load_sweep(str(long)).steps() == 12_600
    one_worker(monkeypatch)
    for name in ("short", "long"):
        spec = tmp_path / f"{name}_spec.json"
        assert main(["sweep", str(spec), "-o", str(tmp_path / "one" / name)]) == 0
    fresh = tmp_path / "fresh"
    assert fresh_sweep((short, fresh / "short"), (long, fresh / "long")) == {
        "codes": [0, 0], "forked": [0, 1], "ends": [EXITED], "reaped": True, "stderr": ""}
    assert _tree(fresh) == _tree(tmp_path / "one")


def test_sweep_counts_no_steps_for_times_a_cell_rejects(tmp_path):
    spec = _write_spec(tmp_path / "spec.json", "coop_headon", [
        ("t_max", [1.0, -1.0, "2", None, 1e308]), ("dt", [0.01, 0.0, 1e-308])])
    # only t_max 1 s in steps of 0.01 s runs: every other pair is rejected
    assert load_sweep(str(spec)).steps() == 100


def test_sweep_in_a_process_with_a_second_thread_never_forks(tmp_path, monkeypatch):
    spec = _write_spec(tmp_path / "cells.json", "coop_headon", [("params.lambda", [9.0, 11.0])])
    one_worker(monkeypatch)
    assert main(["sweep", str(spec), "-o", str(tmp_path / "one")]) == 0
    assert fresh_sweep((spec, tmp_path / "threaded"), min_work=0, thread=True) == {
        "codes": [0], "forked": [0], "ends": [], "reaped": True, "stderr": ""}
    one = (tmp_path / "one" / "results.csv").read_bytes()
    assert (tmp_path / "threaded" / "results.csv").read_bytes() == one


def _error_and_quoted_cells(tmp_path):
    # lambda -1 is an error cell; the name axis needs quoting
    return _write_spec(tmp_path / "cells.json", "coop_headon", [
        ("params.lambda", [10.0, -1.0, 12.0]), ("name", ['a,"b"', "plain"])],
        metrics=("min_separation", "body_overlap"))


def test_forked_sweep_rows_equal_one_worker_rows(tmp_path, monkeypatch):
    spec = _error_and_quoted_cells(tmp_path)
    one_worker(monkeypatch)
    assert main(["sweep", str(spec), "-o", str(tmp_path / "one")]) == 0
    assert fresh_sweep((spec, tmp_path / "three"), cpus=3, min_work=0) == {
        "codes": [0], "forked": [2], "ends": [EXITED] * 2, "reaped": True, "stderr": ""}
    one = (tmp_path / "one" / "results.csv").read_bytes()
    assert b"lambda must be >= 0" in one and b'"a,""b"""' in one
    assert (tmp_path / "three" / "results.csv").read_bytes() == one


def test_forked_sweep_runs_the_cells_of_a_worker_it_could_not_fork(tmp_path, monkeypatch):
    spec = _error_and_quoted_cells(tmp_path)
    one_worker(monkeypatch)
    assert main(["sweep", str(spec), "-o", str(tmp_path / "one")]) == 0
    # the second fork fails; the parent runs worker 2's cells too
    assert fresh_sweep((spec, tmp_path / "three"), cpus=3, min_work=0,
                       forks_before_failure=1) == {
        "codes": [0], "forked": [1], "ends": [EXITED], "reaped": True, "stderr": ""}
    one = (tmp_path / "one" / "results.csv").read_bytes()
    assert (tmp_path / "three" / "results.csv").read_bytes() == one


def test_forked_sweep_runs_a_dead_childs_cells_in_the_parent(tmp_path, monkeypatch):
    spec = _write_spec(tmp_path / "cells.json", "coop_headon",
                       [("params.lambda", [8.0, 9.0, 10.0, 11.0, 12.0, 13.0])])
    one_worker(monkeypatch)
    assert main(["sweep", str(spec), "-o", str(tmp_path / "one")]) == 0
    # worker 1 of 3 runs cells 1 and 4 and ends on cell 4 (lambda 12)
    assert fresh_sweep((spec, tmp_path / "three"), cpus=3, min_work=0, die_at_lambda=12.0) == {
        "codes": [0], "forked": [2], "ends": [EXITED, ["exit", 3]], "reaped": True, "stderr": ""}
    one = (tmp_path / "one" / "results.csv").read_bytes()
    assert (tmp_path / "three" / "results.csv").read_bytes() == one


def test_forked_sweep_reaps_its_children_after_an_os_error(tmp_path):
    spec = _write_spec(tmp_path / "cells.json", "coop_headon",
                       [("name", ["a", "b", "fails", "d", "e", "f", "g", "h"])])
    out = tmp_path / "out"
    # the parent runs the even cells and fails writing the row of cell 2,
    # while the child, which runs cells 1, 3, 5 and 7, holds on cell 3 (d):
    # it is killed
    assert fresh_sweep((spec, out), min_work=0, hold_at="d", fail_at="fails") == {
        "codes": [1], "forked": [1], "ends": [["signal", signal.SIGKILL]], "reaped": True,
        "stderr": f"error: {out}: Input/output error\n"}


# ---------------------------------------------------------------------------
# run's forked writer

# Runs in a new interpreter, where numpy is not loaded and only the main
# thread runs, so that cmd_run may fork its writer; in this process numpy's
# threads often keep it serial.  The probe fixes the usable CPU count, and
# may make a fork fail, the writer child end in the row formatter after a
# pause, or close its pipe's read end there and then end as if done, or end
# with a status of its own once it has written every row, or run a second
# thread, or put a directory where each run's staged trajectory.csv goes.  It
# counts forks and the parent's form_theta calls, records how each child
# ended and whether numpy was loaded before each run, and may trace the
# parent's memory over each run.  Its interpreter warns of every file left
# open, so a handle the parent leaks shows on stderr.
RUN_PROBE = """
import json, os, stat, sys, threading, time, tracemalloc
from vortex_ca import cli, engine

args = json.loads(sys.argv[1])
parent, forks, ends, thetas = os.getpid(), [], [], []
real_fork, real_waitpid, real_rows = os.fork, os.waitpid, cli.table_rows
real_theta = engine.form_theta
os.sched_getaffinity = lambda pid: set(range(args["cpus"]))


def fork():
    if args["fork_fails"]:
        raise OSError(11, "Resource temporarily unavailable")
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid


def waitpid(pid, options):
    done, status = real_waitpid(pid, options)
    if os.WIFSIGNALED(status):
        ends.append(["signal", os.WTERMSIG(status)])
    else:
        ends.append(["exit", os.WEXITSTATUS(status)])
    return done, status


def table_rows(columns):
    if os.getpid() != parent and args["writer_exits"] is not None:
        time.sleep(args["writer_exits"])
        os._exit(3)
    if os.getpid() != parent and args["writer_closes"] is not None:
        for fd in map(int, os.listdir("/proc/self/fd")):
            try:  # the pipe's read end is the one FIFO above stderr
                if fd > 2 and stat.S_ISFIFO(os.fstat(fd).st_mode):
                    os.close(fd)
            except OSError:  # the listing's own descriptor, closed already
                pass
        time.sleep(args["writer_closes"])
        os._exit(0)
    return real_rows(columns)


def form_theta(log):
    if os.getpid() == parent:
        thetas[-1] += 1
    return real_theta(log)


def counted(name, real):
    def table(log):
        if os.getpid() != parent:
            with open(args["builds"], "a") as out:
                out.write(name + "\\n")
        return real(log)
    return table


def built():
    try:
        with open(args["builds"]) as names:
            return names.read().split()
    except FileNotFoundError:
        return []


os.fork, os.waitpid, cli.table_rows = fork, waitpid, table_rows
engine.form_theta = form_theta
if args["builds"]:
    for name in ("trajectory_table", "pairs_table"):
        setattr(cli, name, counted(name, getattr(cli, name)))
if args["force_fork"]:
    cli._processes = lambda *job: 2
import vortex_ca.forks  # after the patch, which counts the parent's calls alone
real_write = vortex_ca.forks._write_shipped


def write_shipped(*job):
    real_write(*job)
    if args["writer_status"] is not None:
        os._exit(args["writer_status"])


vortex_ca.forks._write_shipped = write_shipped
release = threading.Event()
if args["thread"]:
    threading.Thread(target=release.wait).start()
codes, forked, numpy, peaks, builds = [], [], [], [], []
for argv in args["argvs"]:
    earlier = len(built()) if args["builds"] else 0
    if args["block_staged"]:
        os.makedirs(os.path.join(argv[-1], f".trajectory.csv.{parent}.part"))
    before = len(forks)
    numpy.append("numpy" in sys.modules)
    thetas.append(0)
    if args["trace"]:
        tracemalloc.start()
    codes.append(cli.main(argv))
    if args["trace"]:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    forked.append(len(forks) - before)
    if args["builds"]:
        names = built()[earlier:]
        builds.append([names.count("trajectory_table"), names.count("pairs_table")])
release.set()
try:
    real_waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
result = {"codes": codes, "forked": forked, "ends": sorted(ends), "reaped": reaped,
          "numpy": numpy, "thetas": thetas}
if args["trace"]:
    result["peaks"] = peaks
if args["builds"]:
    result["builds"] = builds
print(json.dumps(result))
"""

KILLED = ["signal", signal.SIGKILL]


def fresh_run(*runs, cpus=2, fork_fails=False, writer_exits=None, writer_closes=None,
              writer_status=None, thread=False, block_staged=False, trace=False,
              builds=None, force_fork=False):
    """``run`` each (scenario, outdir) in one new interpreter (see RUN_PROBE).
    Returns the exit codes, the children each run forked, how the children
    ended, whether none was left unreaped, whether numpy was loaded before
    each run, how often each run's parent formed the pairs' theta, and
    stderr; with ``trace``, also each run's traced peak in the parent
    (``peaks``, in bytes); with ``builds``, a file path, also how often each
    run's writer child built trajectory.csv's and pairs.csv's tables
    (``builds``).  ``force_fork`` lets every run fork its writer."""
    args = {"argvs": [["run", str(scenario), "-o", str(out)] for scenario, out in runs],
            "cpus": cpus, "fork_fails": fork_fails, "writer_exits": writer_exits,
            "writer_closes": writer_closes, "writer_status": writer_status, "thread": thread,
            "block_staged": block_staged, "trace": trace,
            "builds": builds and str(builds), "force_fork": force_fork}
    done = subprocess.run(
        [sys.executable, "-W", "default::ResourceWarning", "-c", RUN_PROBE, json.dumps(args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return dict(json.loads(done.stdout.splitlines()[-1]), stderr=done.stderr)


def _tree(root):
    """Every file under ``root`` with its bytes, and every directory as None."""
    return {path.relative_to(root).as_posix(): None if path.is_dir() else path.read_bytes()
            for path in sorted(Path(root).rglob("*"))}


def _ring32(path):
    """32 cooperative robots on a 3 m circle, each bound for the antipodal
    point, recording every step: the array pair stage, which loads numpy."""
    robots = []
    for k in range(32):
        angle = 2.0 * math.pi * k / 32
        x, y = 3.0 * math.cos(angle), 3.0 * math.sin(angle)
        robots.append({"id": k + 1, "x": x, "y": y, "heading": angle + math.pi,
                       "goal": [-x, -y], "radius": 0.02})
    path.write_text(json.dumps({"name": "ring32", "t_max": 0.5, "robots": robots}))
    return path


# two robots 5 cm short of their goals: t_max allows 150,050 recorded values,
# but the run stops after a few steps, and writes serially
NEAR_GOALS = {"robots": [{"id": 1, "x": -1.5, "y": 0.0, "goal": [-1.45, 0.0]},
                         {"id": 2, "x": 1.5, "y": 0.0, "goal": [1.55, 0.0]}]}

# the runs that write serially where forking is safe.  attractive_only and
# near each record fewer than 30,000 values over the fewest steps they can
# take: the one robot of attractive_only needs 1,647 steps to its goal at
# least, 16,490 values.  The ring records more, but runs the array pair
# stage, where numpy's OpenBLAS thread in each process made it about twice
# as slow forked as in one process (fresh processes, 2 CPUs).
SERIAL_RUNS = {"attractive_only", "near", "ring"}


def test_forked_run_writes_the_serial_bytes(tmp_path, monkeypatch):
    (tmp_path / "near.json").write_text(json.dumps(NEAR_GOALS))
    runs = ([(name, name) for name in sorted(PRESETS)] + [(tmp_path / "near.json", "near")]
            + [(_ring32(tmp_path / "ring.json"), "ring")])
    one_worker(monkeypatch)
    codes = [main(["run", str(scenario), "-o", str(tmp_path / "serial" / out)])
             for scenario, out in runs]
    assert codes == [PRESET_RUNS[name][1] for name, _ in runs[:-2]] + [0, 0]
    forked = [int(out not in SERIAL_RUNS) for _, out in runs]
    assert sum(forked) == len(runs) - 3
    # the ring runs last: it loads numpy, and then nothing forks.  Every
    # forked run streams its CSVs, so its parent forms no pairs' theta: the
    # child did.  A serial run's parent, the ring's too, forms it for the
    # serial writers.
    assert fresh_run(*((scenario, tmp_path / "forked" / out) for scenario, out in runs)) == {
        "codes": codes, "forked": forked, "ends": [EXITED] * sum(forked), "reaped": True,
        "numpy": [False] * len(runs), "thetas": [1 - fork for fork in forked], "stderr": ""}
    serial = _tree(tmp_path / "serial")
    assert len(serial) == 5 * len(runs)  # each run's directory and its four files
    assert _tree(tmp_path / "forked") == serial


def _shuffled_ids(path):
    """Four cooperative robots listed as ids 40, 9, 2 and 10, whose numeric
    order (2, 9, 10, 40) is not their text order ("10", "2", "40", "9"), on
    a 1.5 m circle, each bound for the antipodal point 3 m away."""
    robots = []
    for k, rid in enumerate((40, 9, 2, 10)):
        angle = 0.5 * math.pi * k + 0.3
        x, y = 1.5 * math.cos(angle), 1.5 * math.sin(angle)
        robots.append({"id": rid, "x": x, "y": y, "heading": angle + math.pi, "goal": [-x, -y]})
    path.write_text(json.dumps({"name": "shuffled", "robots": robots}))
    return path


def test_ids_out_of_order_are_laid_out_in_numeric_order(tmp_path, monkeypatch):
    scenario = _shuffled_ids(tmp_path / "shuffled.json")
    loaded = load_scenario(str(scenario))
    # the run records well over the fork threshold over its fewest steps
    assert loaded.recorded_values(loaded.fewest_steps()) > 4 * cli._FORK_MIN_VALUES
    log = run(loaded)
    write_run_outputs(log, str(tmp_path / "written"))
    back = read_run(str(tmp_path / "written"))
    assert log_bits(back) == log_bits(log)
    pairs = [(2, 9), (2, 10), (2, 40), (9, 10), (9, 40), (10, 40)]
    assert list(back.robots) == list(log.robots) == [2, 9, 10, 40]
    assert list(back.pairs) == list(log.pairs) == pairs

    one_worker(monkeypatch)
    code = main(["run", str(scenario), "-o", str(tmp_path / "serial")])
    assert fresh_run((scenario, tmp_path / "forked")) == {
        "codes": [code], "forked": [1], "ends": [EXITED], "reaped": True, "numpy": [False],
        "thetas": [0], "stderr": ""}
    assert _tree(tmp_path / "forked") == _tree(tmp_path / "serial")

    assert main(["plotdata", str(tmp_path / "serial")]) == 0
    headers = {name: (tmp_path / "serial" / name).read_text().split("\n", 1)[0]
               for name in ("trajectory.csv", "pairs.csv", *cli.PANELS)}
    robots = [f"r{rid}" for rid in (2, 9, 10, 40)]
    tags = [f"p{i}_{j}" for i, j in pairs]
    assert headers == {
        "trajectory.csv": ",".join(["t"] + [f"{tag}_{col.suffix}" for tag in robots
                                            for col in ROBOT_COLUMNS]),
        "pairs.csv": ",".join(["t"] + [f"{tag}_{col.suffix}" for tag in tags
                                       for col in PAIR_COLUMNS]),
        "xy_paths.csv": "t," + ",".join(f"{tag}_x,{tag}_y" for tag in robots),
        "vrvth.csv": "t," + ",".join(f"{tag}_vr_norm,{tag}_vth_norm,{tag}_trig" for tag in tags),
        "separation.csv": "t," + ",".join(f"{tag}_r" for tag in tags),
    }
    assert headers["xy_paths.csv"].index("r9_x") < headers["xy_paths.csv"].index("r40_x")
    assert headers["separation.csv"].index("p2_9_r") < headers["separation.csv"].index("p2_10_r")


@pytest.mark.parametrize("case, forked, ends", [
    ({"writer_exits": 0.0}, [1], [["exit", 3]]),
    # the writer writes every row and then exits 3: only its exit status
    # tells that its files may be incomplete
    ({"writer_status": 3}, [1], [["exit", 3]]),
    # the writer stops reading after its first chunk and exits 0 with
    # incomplete files: only the failed pipe write tells
    ({"writer_closes": 0.2}, [1], [EXITED]),
    ({"fork_fails": True}, [0], []),
    ({"thread": True}, [0], []),
    ({"cpus": 1}, [0], []),
], ids=["writer_exits", "writer_exits_late", "writer_closes", "fork_fails", "second_thread",
        "one_cpu"])
def test_run_that_cannot_stream_writes_the_serial_bytes(tmp_path, monkeypatch, case, forked, ends):
    one_worker(monkeypatch)
    code = main(["run", "coop_headon", "-o", str(tmp_path / "serial")])
    # the parent forms the pairs' theta once, in the run the serial writers
    # write: after a failed writer, the run again
    assert fresh_run(("coop_headon", tmp_path / "forked"), **case) == {
        "codes": [code], "forked": forked, "ends": ends, "reaped": True, "numpy": [False],
        "thetas": [1], "stderr": ""}
    assert _tree(tmp_path / "forked") == _tree(tmp_path / "serial")


#: The recorded values from which run forks its writer, over the fewest steps
#: each preset can take: (steps // record_stride + 2) * (1 + 9 N + 6 P).
FORK_VALUES = {"coop_headon": 41_225, "coop_triangle": 55_522, "noncoop_headon": 41_225,
               "attacker": 30_325, "nonvortex_headon": 41_225, "attractive_only": 16_490,
               "saturated_headon": 200_050}


def test_run_forks_on_the_values_its_fewest_steps_record(tmp_path):
    (tmp_path / "near.json").write_text(json.dumps(NEAR_GOALS))
    scenarios = {name: load_scenario(name) for name in PRESETS}
    values = {name: scn.recorded_values(scn.fewest_steps()) for name, scn in scenarios.items()}
    assert values == FORK_VALUES
    forking = {name for name, count in values.items() if count >= cli._FORK_MIN_VALUES}
    assert forking == set(PRESETS) - SERIAL_RUNS
    near = load_scenario(str(tmp_path / "near.json"))
    # t_max allows 150,050 values; the robots start inside goal_tol
    assert near.recorded_values() == 150_050 and near.fewest_steps() == 0


def test_forked_writer_builds_its_tables_once_per_run(tmp_path):
    # coop_headon ships many chunks, and each row of the 32-robot ring
    # (forced to fork: the array stage never does) is a chunk of its own.
    # The child builds each table once however many chunks come.
    ring = _ring32(tmp_path / "ring.json")
    result = fresh_run(("coop_headon", tmp_path / "headon"), (ring, tmp_path / "ring"),
                       builds=tmp_path / "builds.txt", force_fork=True)
    assert result["forked"] == [1, 1] and result["ends"] == [EXITED] * 2
    assert result["builds"] == [[1, 1], [1, 1]]


def test_forked_run_parent_keeps_no_copy_of_the_shipped_rows(tmp_path):
    # the parent holds one chunk, t and each pair's r: 8,001 rows of two
    # floats are about 0.5 MB.  A parent that kept every shipped column,
    # 24 floats a row, peaked at 5.15 MB.
    result = fresh_run(("saturated_headon", tmp_path / "run"), trace=True)
    assert result["forked"] == [1] and result["thetas"] == [0]
    assert result["peaks"][0] < 1.5e6


def test_run_that_cannot_stage_writes_the_serial_bytes(tmp_path, monkeypatch):
    # a directory where the staged trajectory.csv goes: nothing is staged,
    # nothing forks, the serial writers write the run, and the directory,
    # which the run did not make, stays
    one_worker(monkeypatch)
    code = main(["run", "coop_headon", "-o", str(tmp_path / "serial")])
    forked = tmp_path / "forked"
    result = fresh_run(("coop_headon", forked), block_staged=True)
    blocked = [name for name in os.listdir(forked) if name.endswith(".part")]
    assert result == {
        "codes": [code], "forked": [0], "ends": [], "reaped": True, "numpy": [False],
        "thetas": [1], "stderr": ""}
    assert len(blocked) == 1 and blocked[0].startswith(".trajectory.csv.")
    assert (forked / blocked[0]).is_dir() and not os.listdir(forked / blocked[0])
    assert {path: data for path, data in _tree(forked).items()
            if path != blocked[0]} == _tree(tmp_path / "serial")


# two non-cooperative robots 2 m apart driving apart at 1e308 m/s for the
# default 60 s: neither gates the stop rule, so the run must take every step
# and forks, and it aborts on its first step
FAR_APART = {"robots": [
    {"id": 1, "x": -1.0, "y": 0.0, "heading": math.pi, "speed": 1e308,
     "behavior": "noncooperative", "goal": [-5.0, 0.0]},
    {"id": 2, "x": 1.0, "y": 0.0, "heading": 0.0, "speed": 1e308,
     "behavior": "noncooperative", "goal": [5.0, 0.0]},
]}
FAR_APART_ERROR = ("error: simulation aborted: robots 1 and 2: non-finite pair state "
                   "(r=2.0, vrel=inf)\n")


def test_aborted_forked_run_leaves_no_files(tmp_path, monkeypatch):
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(FAR_APART))
    one_worker(monkeypatch)
    assert main(["run", "coop_headon", "-o", str(tmp_path / "serial")]) == 2
    new, earlier = tmp_path / "new" / "run", tmp_path / "earlier"
    # an aborted run into new directories, then into one with an earlier run
    assert fresh_run((scenario, new), ("coop_headon", earlier), (scenario, earlier)) == {
        "codes": [1, 2, 1], "forked": [1, 1, 1], "ends": sorted([KILLED, EXITED, KILLED]),
        "reaped": True, "numpy": [False] * 3, "thetas": [0, 0, 0],
        "stderr": FAR_APART_ERROR * 2}
    assert not (tmp_path / "new").exists()
    assert _tree(earlier) == _tree(tmp_path / "serial")


def _earlier_files(root, how):
    """An earlier run's trajectory.csv in ``root``, with a mode of its own,
    or as a symbolic or a second hard link to a file beside ``root``."""
    root.mkdir()
    if how == "mode":
        (root / "trajectory.csv").write_text("earlier\n")
        os.chmod(root / "trajectory.csv", 0o600)
        return None
    target = root.parent / f"{root.name}_elsewhere.csv"
    target.write_text("earlier\n")
    (os.symlink if how == "symlink" else os.link)(target, root / "trajectory.csv")
    return target


@pytest.mark.parametrize("how", ["mode", "symlink", "hardlink"])
def test_forked_run_rewrites_an_earlier_file_as_the_serial_run_does(tmp_path, monkeypatch, how):
    # the serial writers rewrite a file in place: its mode, a link to it and
    # the file a link leads to all stay; a run that could fork must not
    # rename over it, so it stages nothing, forks nothing and writes serially
    serial, forked = tmp_path / "serial", tmp_path / "forked"
    outside = {root: _earlier_files(root, how) for root in (serial, forked)}
    one_worker(monkeypatch)
    assert main(["run", "coop_headon", "-o", str(serial)]) == 2
    assert fresh_run(("coop_headon", forked)) == {
        "codes": [2], "forked": [0], "ends": [], "reaped": True, "numpy": [False],
        "thetas": [1], "stderr": ""}
    assert _tree(forked) == _tree(serial)
    for root, target in outside.items():
        path = root / "trajectory.csv"
        if target is not None:  # the file the link leads to holds the run
            assert target.read_bytes() == path.read_bytes() != b"earlier\n"
    assert os.lstat(forked / "trajectory.csv").st_mode == os.lstat(serial / "trajectory.csv").st_mode


@pytest.mark.parametrize("blocked", ["trajectory.csv", "pairs.csv", "afile/run"])
def test_forked_run_reports_an_output_in_its_way_as_the_serial_run_does(
    tmp_path, capsys, monkeypatch, blocked
):
    def layout(root):
        # a directory where a run CSV goes, or -o under a file
        if blocked == "afile/run":
            root.mkdir()
            (root / "afile").write_text("")
            return root / blocked
        (root / blocked).mkdir(parents=True)
        return root

    serial, forked = layout(tmp_path / "serial"), layout(tmp_path / "forked")
    one_worker(monkeypatch)
    capsys.readouterr()
    assert main(["run", "coop_headon", "-o", str(serial)]) == 1
    message = capsys.readouterr().err
    in_the_way = serial if blocked == "afile/run" else serial / blocked
    assert message == f"error: {in_the_way}: " + (
        "Not a directory\n" if blocked == "afile/run" else "Is a directory\n")
    # a directory in a run CSV's way fails the staging, and one under a
    # file fails makedirs, before anything forks
    assert fresh_run(("coop_headon", forked)) == {
        "codes": [1], "forked": [0], "ends": [], "reaped": True,
        "numpy": [False], "thetas": [1], "stderr": message.replace(str(tmp_path / "serial"),
                                                    str(tmp_path / "forked"))}
    assert _tree(tmp_path / "forked") == _tree(tmp_path / "serial")


def test_cmd_sweep_quotes_cells_that_need_it(tmp_path):
    # the duplicate-id message has a comma, the name value every special character
    spec = {
        "base_scenario": "coop_headon",
        "axes": [{"path": "robots.1.id", "values": [1, 2]},
                 {"path": "name", "values": ['a,"b"\r\nc', "plain"]}],
        "metrics": ["min_separation", "time_to_goal"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    with open(out / "results.csv", encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["robots.1.id", "name", "min_separation", "time_to_goal", "error"]
    assert [len(row) for row in rows] == [len(header)] * 4
    assert [row[:2] for row in rows] == [
        ["1", 'a,"b"\r\nc'], ["1", "plain"], ["2", 'a,"b"\r\nc'], ["2", "plain"]
    ]
    assert [row[-1] for row in rows] == ["duplicate robot ids: [1, 1]"] * 2 + ["", ""]
    # a row that needs no quoting is written as before
    assert "\n2,plain,0.30753106136603786,16.949999999999999,\n" in (
        (out / "results.csv").read_text(encoding="utf-8")
    )


def test_cmd_sweep_lambda_axis(tmp_path):
    spec = {
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.lambda", "values": [5.0, 10.0, 15.0]}],
        "metrics": ["min_separation", "body_overlap"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep_out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "params.lambda,min_separation,body_overlap,error"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [5.0, 10.0, 15.0]
    seps = [float(r[1]) for r in rows]
    assert seps[0] < seps[1] < seps[2]


def test_cmd_sweep_repeats_byte_identical(tmp_path, monkeypatch):
    spec = {
        "base_scenario": "attractive_only",
        "axes": [{"path": "params.kp", "values": [2.0, 5.0]}],
        "metrics": ["time_to_goal"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out_a, out_b, out_c, out_d = (tmp_path / name for name in "abcd")
    one_worker(monkeypatch)
    assert main(["sweep", str(spec_path), "-o", str(out_a)]) == 0
    assert main(["sweep", str(spec_path), "-o", str(out_b)]) == 0
    # and forked, with one cell in each of two workers
    assert fresh_sweep((spec_path, out_c), (spec_path, out_d), min_work=0) == {
        "codes": [0, 0], "forked": [1, 1], "ends": [EXITED] * 2, "reaped": True, "stderr": ""}
    for out in (out_b, out_c, out_d):
        assert (out_a / "results.csv").read_bytes() == (out / "results.csv").read_bytes()


def test_cmd_sweep_rows_match_runs_of_their_cells(tmp_path, monkeypatch):
    # The base leaves r_star out, so each cell resolves it from its own lambda.
    base = {
        "t_max": 30.0,
        "params": {"f_lim": 1.0},
        "robots": [
            {"id": 1, "x": -1.5, "y": 0.0, "goal": [1.5, 0.0]},
            {"id": 2, "x": 1.5, "y": 0.0, "heading": math.pi, "goal": [-1.5, 0.0]},
        ],
    }
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    lambdas = [10.0, 40.0]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base_scenario": str(base_path),
        "axes": [{"path": "params.lambda", "values": lambdas}],
        "metrics": ["min_separation"],
    }))
    one_worker(monkeypatch)
    assert main(["sweep", str(spec_path), "-o", str(tmp_path / "sweep")]) == 0
    assert fresh_sweep((spec_path, tmp_path / "forked"), min_work=0) == {
        "codes": [0], "forked": [1], "ends": [EXITED], "reaped": True, "stderr": ""}
    rows = {out: [line.split(",") for line in
                  (tmp_path / out / "results.csv").read_text().splitlines()[1:]]
            for out in ("sweep", "forked")}
    for k, lam in enumerate(lambdas):
        cell_path = tmp_path / f"cell_{lam}.json"
        cell_path.write_text(json.dumps(dict(base, params=dict(base["params"], **{"lambda": lam}))))
        rundir = tmp_path / f"run_{lam}"
        assert main(["run", str(cell_path), "-o", str(rundir)]) in (0, 2)
        summary = json.loads((rundir / "summary.json").read_text())
        for out, out_rows in rows.items():
            assert len(out_rows) == len(lambdas), out
            assert float(out_rows[k][1]) == summary["min_separation_overall"], (out, lam)


def test_sweep_validation_errors(tmp_path):
    empty_axes = tmp_path / "empty.json"
    empty_axes.write_text(json.dumps({"base_scenario": "coop_headon", "axes": []}))
    with pytest.raises(ScenarioError):
        load_sweep(str(empty_axes))

    bad_metric = tmp_path / "metric.json"
    bad_metric.write_text(json.dumps({
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.lambda", "values": [1.0]}],
        "metrics": ["no_such_metric"],
    }))
    with pytest.raises(ScenarioError):
        load_sweep(str(bad_metric))

    bad_path = tmp_path / "path.json"
    bad_path.write_text(json.dumps({
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.bogus", "values": [1.0]}],
    }))
    with pytest.raises(ScenarioError):
        load_sweep(str(bad_path))

    # json reads the escape as a lone surrogate, which results.csv (UTF-8)
    # cannot hold; the spec is rejected before any cell runs
    surrogate = tmp_path / "surrogate.json"
    surrogate.write_text(json.dumps({
        "base_scenario": "coop_headon",
        "axes": [{"path": "name", "values": ["\ud800", "plain"]}],
    }))
    with pytest.raises(ScenarioError) as caught:
        load_sweep(str(surrogate))
    assert caught.value.errors == ["axes[name]: '\\ud800' has no UTF-8 form for results.csv"]


def _axis_spec(path, **extra):
    return dict({"base_scenario": "coop_headon", "axes": [{"path": path, "values": [1.0]}]},
                **extra)


@pytest.mark.parametrize("spec", [
    [1],
    {"base_scenario": "coop_headon", "axes": 3},
    _axis_spec("params.kappa", metrics=3),
    _axis_spec("robots.5.speed"),
    _axis_spec("robots.x.speed"),
    _axis_spec("name.c"),
    _axis_spec("params.kappa.x"),
    # str.isdigit() accepts both; int() rejects the first and reads the second as 1
    _axis_spec("robots.\u00b2.x"),
    _axis_spec("robots.\u0661.x"),
    {"base_scenario": "coop_headon", "axes": [{"path": "params.lambda", "values": [1.0, 2.0]},
                                              {"path": "params.lambda", "values": [30.0]}]},
    _axis_spec("params.lambda", metrics=["min_separation", "min_separation"]),
    {"base_scenario": "coop_headon", "axes": [{"path": "name", "values": ["\ud800"]}]},
    # a million cells: rejected before any cell is built
    {"base_scenario": "coop_headon", "axes": [
        {"path": path, "values": [float(v) for v in range(1, 101)]}
        for path in ("params.lambda", "params.kappa", "params.kp")]},
], ids=["list", "axes_int", "metrics_int", "index_past_end", "index_not_int", "into_string",
        "into_number", "index_superscript_two", "index_arabic_indic_one", "repeated_axis_path",
        "repeated_metric", "lone_surrogate", "over_cell_cap"])
def test_cmd_sweep_rejects_malformed_specs(tmp_path, capsys, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_max_lyap_derivative_sweep_forms_no_numeric_derivative(tmp_path, monkeypatch):
    from vortex_ca import analysis

    def numeric_derivative(*args):
        raise AssertionError("a sweep cell reads only the analytic derivative")

    monkeypatch.setattr(analysis, "numeric_derivative", numeric_derivative)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base_scenario": "coop_triangle",
        "axes": [{"path": "params.lambda", "values": [30.0, 40.0]}],
        "metrics": ["max_lyap_derivative"],
    }))
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    rows = [row.split(",") for row in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["", ""]
    assert all(math.isfinite(float(row[1])) for row in rows)


def outcome(compute):
    """What ``compute()`` returns, or the class and text of what it raised."""
    try:
        return compute()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def metrics_from_log(scenario):
    """The four sweep metrics and the events, read from the full log."""
    log = run(scenario)
    seps = [min_separation(log, i, j) for (i, j) in log.pair_ids()]
    times = [t for t in cli.run_summary(log)["goal_times"].values() if t is not None]
    series = analysis.multi_lyapunov(log)
    return {
        "min_separation": min(seps) if seps else math.nan,
        "time_to_goal": max(times) if times else math.nan,
        "body_overlap": int(log.has_event(EVENT_OVERLAP)),
        "max_lyap_derivative": max(series.derivative_analytic, default=math.nan),
    }, log.events


def folded_metrics(scenario):
    fold = MetricsFold(SWEEP_METRICS)
    return run(scenario, fold), fold.events


@settings(max_examples=60, deadline=None)
@given(fold_scenarios())
@example(load_scenario("attractive_only"))  # one robot: no pair, min_separation nan
def test_folded_metrics_equal_the_full_logs(scenario):
    # repr, so that nan equals nan and 0.0 differs from -0.0
    expected = outcome(lambda: metrics_from_log(scenario))
    assert repr(outcome(lambda: folded_metrics(scenario))) == repr(expected)


def _spy_sweep(tmp_path, base, monkeypatch):
    one_worker(monkeypatch)
    spec = _write_spec(tmp_path / "spy.json", base, [("params.lambda", [10.0])],
                       metrics=("min_separation", "max_lyap_derivative"))
    assert main(["sweep", str(spec), "-o", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / "results.csv").read_text().splitlines()[1]


def test_fold_reports_an_engine_fault_after_a_failed_derivative(tmp_path, monkeypatch):
    calls = {"derivative": 0, "advance": 0}
    advance = engine._Swarm.advance

    def failing_derivative(*args):
        calls["derivative"] += 1
        raise ZeroDivisionError("spy derivative")

    def faulting_advance(self, dt):
        calls["advance"] += 1
        if calls["advance"] == 5:
            raise SimulationFault("robot 1: spy fault")
        advance(self, dt)

    monkeypatch.setattr(analysis, "multi_robot_derivative", failing_derivative)
    monkeypatch.setattr(engine._Swarm, "advance", faulting_advance)
    # the derivative raises on the first recorded step and is not formed again
    assert _spy_sweep(tmp_path, "coop_headon", monkeypatch) == "10,nan,nan,robot 1: spy fault"
    assert calls == {"derivative": 1, "advance": 5}


def test_fold_reports_a_failed_derivative_once_the_run_has_ended(tmp_path, monkeypatch):
    # Two non-cooperative robots 1e-170 m apart: vrel * r * r underflows, so
    # the pair's derivative term divides by zero, while the engine, which
    # evaluates no repulsive input for them, runs to the end.  The text is
    # what multi_lyapunov raised on the full log.
    base = tmp_path / "underflow.json"
    base.write_text(json.dumps({"t_max": 0.5, "robots": [
        {"id": 1, "x": 0.0, "y": 0.0, "heading": 0.0, "behavior": "noncooperative",
         "goal": [1.5, 0.0]},
        {"id": 2, "x": 1e-170, "y": 0.0, "heading": math.pi, "behavior": "noncooperative",
         "goal": [-1.5, 0.0]},
    ]}))
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        analysis.multi_lyapunov(run(load_scenario(str(base))))
    assert _spy_sweep(tmp_path, base, monkeypatch) == "10,nan,nan,float division by zero"


def test_cmd_sweep_records_cell_errors(tmp_path):
    spec = {
        "base_scenario": "coop_headon",
        "axes": [{"path": "params.lambda", "values": [10.0, -1.0]}],
        "metrics": ["min_separation"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    good, bad = lines[1].split(","), lines[2].split(",")
    assert good[-1] == ""
    assert bad[-1] != ""


def test_cmd_sweep_reports_an_unusable_output_path_before_any_cell(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert main(["run", "coop_headon", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: Not a directory\n"

    def no_cells(scenario):
        raise AssertionError("a cell ran before the output was opened")

    monkeypatch.setattr(cli, "run", no_cells)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(_axis_spec("params.lambda", metrics=["min_separation"])))
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: Not a directory\n"


def test_cmd_sweep_reports_a_spec_it_cannot_read(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.mkdir()
    assert main(["sweep", str(spec), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {spec}: Is a directory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, blocked", [
    ("analyze", "lyapunov.csv"),
    ("analyze", "verification.txt"),
    ("plotdata", "xy_paths.csv"),
    ("plotdata", "vrvth.csv"),
    ("plotdata", "separation.csv"),
])
def test_analyze_and_plotdata_report_an_output_they_cannot_write(
    headon_rundir, tmp_path, capsys, command, blocked
):
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(blocked))
    (rundir / blocked).mkdir()
    argv = [command, str(rundir)] + (["--regime", "coop_pair"] if command == "analyze" else [])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {rundir / blocked}: Is a directory\n"


# ---------------------------------------------------------------------------
# analyze and plotdata commands


def test_cmd_analyze_coop_pair_passes(headon_rundir):
    assert main(["analyze", headon_rundir, "--regime", "coop_pair"]) == 0
    assert os.path.exists(os.path.join(headon_rundir, "lyapunov.csv"))
    report = Path(headon_rundir, "verification.txt").read_text()
    assert "PASS reciprocity" in report
    with open(os.path.join(headon_rundir, "lyapunov.csv")) as handle:
        assert handle.readline().strip() == "t,value,d_analytic,d_numeric,regime"


def test_cmd_analyze_attractive_only_convergence(tmp_path):
    out = tmp_path / "att"
    assert main(["run", "attractive_only", "-o", str(out)]) == 0
    assert main(["analyze", str(out), "--regime", "attractive_only"]) == 0
    report = (out / "verification.txt").read_text()
    # heading settles onto the line of sight and the robot closes at full speed
    assert "PASS heading_converges" in report
    assert "PASS closing_at_speed" in report


def test_cmd_analyze_regime_mismatch(headon_rundir):
    assert main(["analyze", headon_rundir, "--regime", "nonvortex_pair"]) == 1
    assert main(["analyze", headon_rundir, "--regime", "bogus"]) == 1


def test_analyze_checks_the_regime_once(headon_rundir, tmp_path, monkeypatch, capsys):
    calls = []
    original = analysis.regime_mismatch

    def counting(log, regime):
        calls.append(regime)
        return original(log, regime)

    monkeypatch.setattr(analysis, "regime_mismatch", counting)
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir)
    assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 0
    assert calls == [RegimeKind.COOP_PAIR]
    capsys.readouterr()
    # a mismatch ends the command before the series is formed
    regime = RegimeKind.NONVORTEX_PAIR
    monkeypatch.setitem(analysis.REGIMES, regime, analysis.REGIMES[regime]._replace(series=None))
    assert main(["analyze", str(rundir), "--regime", "nonvortex_pair"]) == 1
    assert calls == [RegimeKind.COOP_PAIR, RegimeKind.NONVORTEX_PAIR]
    assert capsys.readouterr().err.startswith("error: regime mismatch: ")


def test_cmd_analyze_attacker_below_standoff_warns(tmp_path):
    scn = load_scenario("attacker")
    data = scenario_to_dict(scn)
    # halve the initial separation: the sufficient bound no longer holds
    for robot in data["robots"]:
        robot["x"] *= 0.5
    data["robots"][0]["goal"][0] *= 0.5
    path = tmp_path / "close_attacker.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    main(["run", str(path), "-o", str(out)])
    main(["analyze", str(out), "--regime", "coop_vs_attacker"])
    report = (out / "verification.txt").read_text()
    assert "WARN standoff_bound" in report


def test_cmd_plotdata_outputs(headon_rundir):
    assert main(["plotdata", headon_rundir]) == 0
    with open(os.path.join(headon_rundir, "vrvth.csv")) as handle:
        header = handle.readline().strip()
        first = handle.readline().strip().split(",")
    assert header == "t,p1_2_vr_norm,p1_2_vth_norm,p1_2_trig"
    # head-on start: normalized trace begins at (-2, 0)
    assert float(first[1]) == pytest.approx(-2.0)
    assert float(first[2]) == pytest.approx(0.0, abs=1e-12)

    with open(os.path.join(headon_rundir, "separation.csv")) as handle:
        assert handle.readline().strip() == "t,p1_2_r"
    with open(os.path.join(headon_rundir, "xy_paths.csv")) as handle:
        assert handle.readline().strip() == "t,r1_x,r1_y,r2_x,r2_y"


def test_plotdata_stationary_obstacle_is_single_point(tmp_path):
    data = {
        "t_max": 5.0,
        "robots": [
            {"id": 1, "x": 0.0, "y": 0.0, "behavior": "cooperative", "goal": [3.0, 0.0]},
            {"id": 2, "x": 1.5, "y": 0.4, "speed": 0.0, "behavior": "stationary"},
        ],
    }
    path = tmp_path / "obstacle.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    main(["run", str(path), "-o", str(out)])
    main(["plotdata", str(out)])
    lines = (out / "xy_paths.csv").read_text().splitlines()[1:]
    xs = {line.split(",")[3] for line in lines}
    ys = {line.split(",")[4] for line in lines}
    assert xs == {"1.5"} and ys == {"0.40000000000000002"}


def _reference_panels(log):
    """plotdata's panels from a fully parsed log, every cell formatted as the writers do."""
    def table(columns):
        lines = [",".join(columns)] + [",".join(row) for row in zip(*columns.values())]
        return "\n".join(lines) + "\n"

    def floats(values):
        return [f"{v:.17g}" for v in values]

    speeds = {robot.id: robot.speed for robot in log.scenario.robots}
    paths, vrvth, separation = ({"t": floats(log.t)} for _ in range(3))
    for rid in log.robot_ids():
        paths[f"r{rid}_x"] = floats(log.robots[rid].x)
        paths[f"r{rid}_y"] = floats(log.robots[rid].y)
    for (i, j) in log.pair_ids():
        trace, tag = log.pairs[(i, j)], f"p{i}_{j}"
        scale = max(speeds[i], speeds[j], 1e-30)
        vrvth[f"{tag}_vr_norm"] = floats(v / scale for v in trace.vr)
        vrvth[f"{tag}_vth_norm"] = floats(v / scale for v in trace.vth)
        vrvth[f"{tag}_trig"] = [str(int(flag)) for flag in trace.triggered]
        separation[f"{tag}_r"] = floats(trace.r)
    return {"xy_paths.csv": table(paths), "vrvth.csv": table(vrvth),
            "separation.csv": table(separation)}


@pytest.mark.parametrize("name", sorted(PRESET_RUNS))
def test_commands_read_every_column_they_use(tmp_path, name):
    # An unread trace attribute is None, so a check or a panel that reads a
    # column its command does not ask for raises here.
    regime = RegimeKind(PRESET_RUNS[name][0])
    rundir = tmp_path / name
    write_run_outputs(_preset_log(name), str(rundir))
    full = read_run(str(rundir))
    part = read_run(str(rundir), REGIME_COLUMNS[regime])
    for trace in [*part.robots.values(), *part.pairs.values()]:
        for attr, values in vars(trace).items():
            assert (values is None) == (attr not in REGIME_COLUMNS[regime]), attr
    part_series, part_checks = analyze_log(part, regime)
    full_series, full_checks = analyze_log(full, regime)
    assert part_series == full_series
    assert part_checks == full_checks

    assert main(["plotdata", str(rundir)]) == 0
    for filename, text in _reference_panels(full).items():
        assert (rundir / filename).read_text() == text, filename


def _panels(rundir):
    return {name: (rundir / name).read_bytes() for name in cli.PANELS}


@pytest.fixture
def headon_panels(headon_rundir, tmp_path):
    """coop_headon's panels, from a plotdata that streamed them."""
    rundir = tmp_path / "streamed"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    assert main(["plotdata", str(rundir)]) == 0
    assert not [name for name in os.listdir(rundir) if name.endswith(".part")]
    return _panels(rundir)


def _block_temporary(rundir, name):
    """A directory where plotdata's temporary ``name`` panel of this process goes."""
    (rundir / f".{name}.{os.getpid()}.part").mkdir()


@pytest.mark.parametrize("malformed", [False, True], ids=["clean", "malformed"])
def test_plotdata_without_temporary_files_reads_then_writes(
    headon_rundir, headon_panels, tmp_path, capsys, malformed
):
    # A temporary panel that cannot be created: plotdata reads the whole run
    # first and then writes each panel in place, so the panels are the same
    # and a malformed run reports its input error, leaving no panel.
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    _block_temporary(rundir, "separation.csv")
    if malformed:
        _non_numeric_cell(3)(rundir)
    files = sorted(os.listdir(rundir))
    capsys.readouterr()
    assert main(["plotdata", str(rundir)]) == int(malformed)
    if malformed:
        assert "pairs.csv: column 'p1_2_vr'" in capsys.readouterr().err
        assert sorted(os.listdir(rundir)) == files
    else:
        assert _panels(rundir) == headon_panels
        assert sorted(os.listdir(rundir)) == sorted(files + list(cli.PANELS))


def test_plotdata_keeps_a_temporary_name_it_did_not_create(headon_rundir, headon_panels, tmp_path):
    # a file of someone else's at vrvth.csv's temporary name: plotdata
    # writes the panels in place and removes only the files it created
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    other = rundir / f".vrvth.csv.{os.getpid()}.part"
    other.write_bytes(b"not plotdata's\n")
    files = sorted(os.listdir(rundir))
    assert main(["plotdata", str(rundir)]) == 0
    assert _panels(rundir) == headon_panels
    assert other.read_bytes() == b"not plotdata's\n"
    assert sorted(os.listdir(rundir)) == sorted(files + list(cli.PANELS))


def test_plotdata_names_a_panel_that_turned_into_a_directory(
    headon_rundir, tmp_path, capsys, monkeypatch
):
    # staged before the read, vrvth.csv is a directory once the run has
    # read: its rename fails, and the error names the panel, not the staged file
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    read_traces = cli._read_traces

    def then_block(*args):
        read = read_traces(*args)
        (rundir / "vrvth.csv").mkdir()
        return read

    monkeypatch.setattr(cli, "_read_traces", then_block)
    capsys.readouterr()
    assert main(["plotdata", str(rundir)]) == 1
    assert capsys.readouterr().err == f"error: {rundir / 'vrvth.csv'}: Is a directory\n"
    assert not [name for name in os.listdir(rundir) if name.endswith(".part")]


@pytest.mark.parametrize("malformed", [False, True], ids=["clean", "malformed"])
def test_plotdata_reports_a_failed_panel_write_after_the_read(
    headon_rundir, headon_panels, tmp_path, capsys, monkeypatch, malformed
):
    # vrvth.csv's temporary file is a full device: its writes fail.  A clean
    # run then reports the write's error, with the panel before it in place
    # and none after it; a malformed run reports its input error first.
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    if malformed:
        _non_numeric_cell(3)(rundir)
    files = sorted(os.listdir(rundir))
    real_open = os.open

    def full_vrvth(path, flags, mode=0o777):
        if os.path.basename(path) == f".vrvth.csv.{os.getpid()}.part":
            return real_open("/dev/full", os.O_WRONLY)
        return real_open(path, flags, mode)

    monkeypatch.setattr(os, "open", full_vrvth)
    capsys.readouterr()
    assert main(["plotdata", str(rundir)]) == 1
    err = capsys.readouterr().err
    if malformed:
        assert "pairs.csv: column 'p1_2_vr'" in err
        assert sorted(os.listdir(rundir)) == files
    else:
        assert err == f"error: {rundir}: No space left on device\n"
        assert sorted(os.listdir(rundir)) == sorted(files + ["xy_paths.csv"])
        assert (rundir / "xy_paths.csv").read_bytes() == headon_panels["xy_paths.csv"]


@pytest.mark.parametrize("how", ["mode", "symlink", "hardlink"])
def test_plotdata_rewrites_an_earlier_panel_in_place(headon_rundir, headon_panels, tmp_path, how):
    # as the panels were always written: a panel's mode, a link to it and
    # the file a link leads to all stay, and the file holds the new panel
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    panel = rundir / "vrvth.csv"
    if how == "mode":
        panel.write_text("earlier\n")
        os.chmod(panel, 0o600)
        target = panel
    else:
        target = tmp_path / "elsewhere.csv"
        target.write_text("earlier\n")
        (os.symlink if how == "symlink" else os.link)(target, panel)
    mode = os.lstat(panel).st_mode
    assert main(["plotdata", str(rundir)]) == 0
    assert os.lstat(panel).st_mode == mode
    assert target.read_bytes() == panel.read_bytes() == headon_panels["vrvth.csv"]
    assert _panels(rundir) == headon_panels
    assert not [name for name in os.listdir(rundir) if name.endswith(".part")]


def test_outputs_are_staged_only_by_one_class():
    # run's forked CSVs and plotdata's panels share one rule for creating a
    # staged file and putting it in place: no module but cli.Staged creates
    # a file with O_EXCL or renames one
    def staging(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "os"
                and node.attr in ("O_EXCL", "replace", "rename")]

    found, inside = [], []
    for path in sorted((SRC / "vortex_ca").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += staging(tree)
        imports = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "os"
                   for alias in node.names]
        assert not set(imports) & {"O_EXCL", "replace", "rename"}, path.name
        if path.name == "cli.py":
            staged = next(node for node in tree.body
                          if isinstance(node, ast.ClassDef) and node.name == "Staged")
            inside = staging(staged)
    assert {node.attr for node in inside} == {"O_EXCL", "replace"}
    assert len(found) == len(inside)


def test_the_run_layout_is_stated_once(headon_rundir, tmp_path, monkeypatch):
    # the writers, the forked writer, read_run and plotdata name a robot's
    # or a pair's columns only through engine.robot_columns and
    # engine.pair_columns, and make a log's traces only through
    # TrajectoryLog.empty
    def suffixes(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "suffix"]

    def traces(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("RobotTrace", "PairTrace")]

    found_suffixes, found_traces = [], []
    for path in sorted((SRC / "vortex_ca").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found_suffixes += suffixes(tree)
        found_traces += traces(tree)
        if path.name == "engine.py":
            top = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            layout = suffixes(top["robot_columns"]) + suffixes(top["pair_columns"])
            empty = next(node for node in top["TrajectoryLog"].body
                         if isinstance(node, ast.FunctionDef) and node.name == "empty")
            made = traces(empty)
    assert len(layout) == 2 and len(found_suffixes) == len(layout)
    assert len(made) == 2 and len(found_traces) == len(made)

    # plotdata holds the scenario's ids, and no trace; read_run makes its
    # log's traces, which the spy sees
    constructed = []

    def spy(init):
        def counted(self, *args, **kwargs):
            constructed.append(type(self).__name__)
            init(self, *args, **kwargs)
        return counted

    for cls in (engine.RobotTrace, engine.PairTrace):
        monkeypatch.setattr(cls, "__init__", spy(cls.__init__))
    rundir = tmp_path / "run"
    shutil.copytree(headon_rundir, rundir, ignore=shutil.ignore_patterns(*cli.PANELS))
    assert main(["plotdata", str(rundir)]) == 0
    assert constructed == []
    read_run(str(rundir))
    assert constructed == ["RobotTrace", "RobotTrace", "PairTrace"]


def test_separation_trace_has_single_minimum(headon_rundir):
    rows = Path(headon_rundir, "separation.csv").read_text().splitlines()[1:]
    rs = [float(r.split(",")[1]) for r in rows]
    k_min = rs.index(min(rs))
    # strictly decreasing into the minimum and increasing out of it
    assert all(a > b for a, b in zip(rs[:k_min], rs[1:k_min + 1]))
    assert all(a < b for a, b in zip(rs[k_min:-1], rs[k_min + 1:]))

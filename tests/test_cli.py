import json
import os

import pytest

from vortex_ca.cli import main, read_run
from vortex_ca.engine import ScenarioError, run
from vortex_ca.scenarios import (
    PRESETS,
    load_scenario,
    load_sweep,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    set_by_path,
)

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
    save_scenario(scn, str(path))
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


def test_read_run_round_trips_exactly(headon_rundir):
    # 17 significant digits keep every float bit-exact through the text layer
    log = run(load_scenario("coop_headon"))
    restored = read_run(headon_rundir)
    assert restored.t == log.t
    for rid in log.robot_ids():
        assert restored.robots[rid].x == log.robots[rid].x
        assert restored.robots[rid].rep_fy == log.robots[rid].rep_fy
    for key in log.pair_ids():
        assert restored.pairs[key].vr == log.pairs[key].vr
    assert [e.kind for e in restored.events] == [e.kind for e in log.events]


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


def test_cmd_run_rejects_non_finite_times(tmp_path, capsys):
    # json accepts the non-standard Infinity literal; run must not overflow on it
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(MINIMAL, t_max=float("inf"), dt=float("inf"))))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: t_max must be finite" in err
    assert "error: dt must be finite" in err
    assert not (tmp_path / "out").exists()


def test_cmd_run_rejects_non_boolean_vortex(tmp_path, capsys):
    path = tmp_path / "vortex.json"
    path.write_text(json.dumps(dict(MINIMAL, params={"vortex": "false"})))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "error: params.vortex: expected true or false, got 'false'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# sweep command


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


def test_cmd_sweep_repeats_byte_identical(tmp_path):
    spec = {
        "base_scenario": "attractive_only",
        "axes": [{"path": "params.kp", "values": [2.0, 5.0]}],
        "metrics": ["time_to_goal"],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", str(spec_path), "-o", str(out_a)]) == 0
    assert main(["sweep", str(spec_path), "-o", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


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


# ---------------------------------------------------------------------------
# analyze and plotdata commands


def test_cmd_analyze_coop_pair_passes(headon_rundir):
    assert main(["analyze", headon_rundir, "--regime", "coop_pair"]) == 0
    assert os.path.exists(os.path.join(headon_rundir, "lyapunov.csv"))
    report = open(os.path.join(headon_rundir, "verification.txt")).read()
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
    report = open(out / "verification.txt").read()
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


def test_separation_trace_has_single_minimum(headon_rundir):
    lines = (os.path.join(headon_rundir, "separation.csv"))
    rows = open(lines).read().splitlines()[1:]
    rs = [float(r.split(",")[1]) for r in rows]
    k_min = rs.index(min(rs))
    # strictly decreasing into the minimum and increasing out of it
    assert all(a > b for a, b in zip(rs[:k_min], rs[1:k_min + 1]))
    assert all(a < b for a, b in zip(rs[k_min:-1], rs[k_min + 1:]))

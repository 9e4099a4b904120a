"""Which commands load numpy, ``vortex_ca.analysis``, the run directory's
reader and the sweep spec, each checked in a fresh interpreter.

The engine uses numpy only on the array pair stage (swarms of at least
``engine._ARRAY_MIN_ROBOTS`` robots), and no other module imports it;
``analysis`` works on plain floats throughout.  ``run`` and ``sweep`` (every
metric) on smaller swarms, ``plotdata``, and ``analyze`` in every regime
must therefore start and finish without importing numpy; ``run`` on a
larger swarm loads it on first use and exits as before.

``analysis`` is imported by ``analyze`` and the ``max_lyap_derivative`` sweep
metric only: importing the package or the CLI, ``run``, ``plotdata`` and the
other sweeps never compile or execute it.  ``sweep_metrics``, which holds
the sweep spec, is imported by sweeps only, and ``rundir``, which holds the
run directory's reader, by ``analyze`` and ``plotdata`` only: importing the
CLI loads neither, and ``run`` neither, forked or not.

No command loads ``multiprocessing``, ``concurrent.futures`` or
``subprocess``: a sweep below the fork threshold runs in one process, and
one above it forks its workers with ``os.fork``; a ``run`` that records
enough values forks its CSV writer the same way.  ``vortex_ca.forks``, which
holds every fork, loads only for a job that ``cli._processes`` lets fork.
Each check runs its commands through ``common_runs.fresh``
(``tests/probe.py``), in a new interpreter that, like every other the probe
starts, sees two usable CPUs, so that both fork.
"""

import ast
import importlib
import math
import os

from common_runs import (
    ANALYSIS, EXITED, FORKS, PRESET_RUNS, RUNDIR, SRC, SWEEP, fresh, ring, written,
)
from vortex_ca import cli, engine, scenarios
from vortex_ca.cli import main
from vortex_ca.scenarios import load_scenario, scenario_to_dict

# One preset per regime, the first by name: preset -> the regime it is
# analyzed under.
PRESET_REGIMES = {}
for name, (regime, _) in sorted(PRESET_RUNS.items()):
    if regime not in PRESET_REGIMES.values():
        PRESET_REGIMES[name] = regime


def test_small_swarm_commands_never_load_numpy(tmp_path):
    spec = written(tmp_path / "sweep.json", {
        "base_scenario": "coop_triangle",
        "axes": [{"path": "params.lambda", "values": [30.0, 40.0]}],
        "metrics": ["min_separation", "time_to_goal", "body_overlap"],
    })
    lyap_spec = written(tmp_path / "lyap_sweep.json", {
        "base_scenario": "coop_triangle",
        "axes": [{"path": "params.lambda", "values": [40.0]}],
        "metrics": ["max_lyap_derivative"],
    })
    # 2 cells of 10 steps of one pair: below the fork threshold, so one process
    short = written(tmp_path / "short.json", {"t_max": 0.1, "robots": [
        {"id": 1, "x": -1.5, "y": 0.0, "goal": [1.5, 0.0]},
        {"id": 2, "x": 1.5, "y": 0.0, "heading": math.pi, "goal": [-1.5, 0.0]}]})
    short_spec = written(tmp_path / "short_sweep.json", {
        "base_scenario": str(short),
        "axes": [{"path": "params.lambda", "values": [9.0, 11.0]}],
    })
    ring11 = written(tmp_path / "ring11.json", ring(11))
    names = sorted(PRESET_RUNS)
    # the commands that never load analysis come first, since nothing unloads it
    plain = [
        *(["run", name, "-o", tmp_path / name] for name in names),
        *(["plotdata", tmp_path / name] for name in names),
        ["sweep", spec, "-o", tmp_path / "sweep_out"],
        ["sweep", short_spec, "-o", tmp_path / "short_out"],
        ["run", ring11, "-o", tmp_path / "ring11"],
    ]
    analyses = [
        ["sweep", lyap_spec, "-o", tmp_path / "lyap_out"],
        *(["analyze", tmp_path / name, "--regime", regime]
          for name, regime in sorted(PRESET_REGIMES.items())),
    ]
    ring_code = main(["run", str(ring11), "-o", str(tmp_path / "ring11_again")])
    # each preset run but attractive_only's forks its writer, and the first
    # sweep a worker; attractive_only's run and the ring's record too little,
    # the short sweep estimates too little work, and the one-cell sweep runs
    # its cell in the parent.  A run's parent forms the pairs' theta only
    # for the serial writers.
    runs_forked = [int(name != "attractive_only") for name in names]
    forked = runs_forked + [0] * len(names) + [1, 0, 0] + [0] * len(analyses)
    # the imports, then the plain commands, leave every watched module out but
    # forks, from the first job that forks (the first run), rundir from the
    # first plotdata and the sweeps' sweep_metrics; the max_lyap_derivative
    # sweep and analyze load analysis
    assert fresh(*plain, *analyses) == {
        "codes": [PRESET_RUNS[name][1] for name in names] + [0] * len(names)
        + [0, 0, ring_code] + [0] * len(analyses),
        "forked": forked, "ends": [EXITED] * sum(forked), "reaped": True,
        "loaded": [[]] + [FORKS] * len(names) + [FORKS + RUNDIR] * len(names)
        + [SWEEP + FORKS + RUNDIR] * (len(plain) - 2 * len(names))
        + [ANALYSIS + SWEEP + FORKS + RUNDIR] * len(analyses),
        "numpy": [False] * (len(plain) + len(analyses)),
        "thetas": [1 - fork for fork in runs_forked] + [0] * (len(names) + 2) + [1]
        + [0] * len(analyses),
        "stderr": ""}
    assert (tmp_path / "sweep_out" / "results.csv").read_text().count("\n") == 3
    assert (tmp_path / "short_out" / "results.csv").read_text().count("\n") == 3
    assert main(["sweep", str(lyap_spec), "-o", str(tmp_path / "lyap_again")]) == 0
    results = (tmp_path / "lyap_out" / "results.csv").read_bytes()
    assert results == (tmp_path / "lyap_again" / "results.csv").read_bytes()


def test_the_reader_and_the_sweep_spec_load_only_for_their_commands(tmp_path):
    # importing the CLI loads no watched module; a forked and a serial run
    # load neither the reader nor the sweep spec, and plotdata and analyze
    # load the reader only.  test_one_process_jobs_never_load_forks (a serial
    # sweep) and test_jobs_on_the_array_pair_stage_never_fork (a forked one)
    # show that a sweep never loads the reader.
    out = tmp_path / "coop_headon"
    assert fresh(["run", "coop_headon", "-o", out],
                 ["run", "attractive_only", "-o", tmp_path / "attractive_only"],
                 ["plotdata", out], ["analyze", out, "--regime", "coop_pair"]) == {
        "codes": [2, 0, 0, 0], "forked": [1, 0, 0, 0], "ends": [EXITED], "reaped": True,
        "loaded": [[], FORKS, FORKS, FORKS + RUNDIR, ANALYSIS + FORKS + RUNDIR],
        "numpy": [False] * 4, "thetas": [0, 1, 0, 0], "stderr": ""}


# The names that the run directory's reader and the sweep spec took with them
# out of the modules every command imports.
MOVED = {
    "rundir": (cli, (
        "_CHUNK_CELLS", "_parse_flag", "_parse_ids", "_each", "_kept_text", "_text", "_FLOATS",
        "_FLAGS", "_FLOAT_TEXT", "_FLAG_TEXT", "_bad_cell", "_Table", "_read_columns",
        "_parsers", "_appender", "_read_traces", "_write_lyapunov_csv", "_PLOT_PARSERS",
        "_normed", "_plot_tables", "_panel_rows")),
    "sweep_metrics": (scenarios, (
        "SweepSpec", "_steps", "set_by_path", "_slot", "load_sweep", "SWEEP_METRICS",
        "MAX_SWEEP_CELLS")),
}


def test_moved_names_are_defined_in_their_new_modules_only():
    for new, (old, names) in MOVED.items():
        module = importlib.import_module(f"vortex_ca.{new}")
        assert [name for name in names if hasattr(old, name)] == [], old.__name__
        assert [name for name in names if not hasattr(module, name)] == [], new


def test_array_commands_load_numpy_on_first_use(tmp_path):
    ring12 = written(tmp_path / "ring12.json", ring(12))
    code = main(["run", str(ring12), "-o", str(tmp_path / "ring12_again")])
    assert fresh(["run", ring12, "-o", tmp_path / "ring12"]) == {
        "codes": [code], "forked": [0], "ends": [], "reaped": True, "loaded": [[], ["numpy"]],
        "numpy": [False], "thetas": [1], "stderr": ""}
    for name in ("trajectory.csv", "pairs.csv", "events.csv", "summary.json"):
        new = (tmp_path / "ring12" / name).read_bytes()
        assert new == (tmp_path / "ring12_again" / name).read_bytes(), name


def test_jobs_on_the_array_pair_stage_never_fork(tmp_path, monkeypatch):
    # one robot short of the array pair stage, a run above 30,000 recorded
    # values and a sweep above 4,000 pair-steps each fork; on the array
    # stage neither does.  The 12-robot sweep has an interpreter of its own:
    # after the 12-robot run, numpy's thread alone would keep it from forking
    jobs = {}
    for n in (engine._ARRAY_MIN_ROBOTS - 1, engine._ARRAY_MIN_ROBOTS):
        path = written(tmp_path / f"ring{n}.json", ring(n, t_max=1.0))
        scenario = load_scenario(str(path))
        assert scenario.recorded_values(scenario.fewest_steps()) >= cli._FORK_MIN_VALUES
        assert 2 * scenario.n_steps() * math.comb(n, 2) >= cli._FORK_MIN_WORK
        spec = written(tmp_path / f"sweep{n}.json", {"base_scenario": str(path), "axes": [
            {"path": "params.lambda", "values": [30.0, 40.0]}]})
        jobs[n] = [["run", path, "-o", f"run{n}"], ["sweep", spec, "-o", f"sweep{n}"]]
    small, swarm = jobs.values()
    forked_dir, serial_dir = tmp_path / "forked", tmp_path / "serial"

    def into(root, argv):
        return [*argv[:-1], root / argv[-1]]

    # the bytes of each job run in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    codes = [main([str(a) for a in into(serial_dir, argv)]) for argv in small + swarm]
    # the 12-robot run is written serially, and loads numpy
    assert fresh(*(into(forked_dir, argv) for argv in small + swarm[:1])) == {
        "codes": codes[:3], "forked": [1, 1, 0], "ends": [EXITED] * 2, "reaped": True,
        "loaded": [[], FORKS, SWEEP + FORKS, ["numpy"] + SWEEP + FORKS],
        "numpy": [False] * 3, "thetas": [0, 0, 1], "stderr": ""}
    assert fresh(into(forked_dir, swarm[1])) == {
        "codes": codes[3:], "forked": [0], "ends": [], "reaped": True,
        "loaded": [[], ["numpy"] + SWEEP], "numpy": [False], "thetas": [0], "stderr": ""}
    files = sorted(path.relative_to(serial_dir) for path in serial_dir.rglob("*.*"))
    assert len(files) == 2 * (4 + 1)  # each run's four files, each sweep's results.csv
    for path in files:
        assert (forked_dir / path).read_bytes() == (serial_dir / path).read_bytes(), path


def test_only_the_engine_imports_numpy():
    # the fresh-interpreter checks above reach only the preset paths; this
    # covers every module, on every path
    importers = []
    for path in sorted((SRC / "vortex_ca").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.relative_to(SRC).as_posix())
    assert set(importers) == {"vortex_ca/engine.py"}


def test_input_problems_are_scenario_errors_only():
    # RobotState checks every robot field, so parsing never raises or
    # catches a runtime fault, and PlanarVector checks nothing
    package = SRC / "vortex_ca"
    text = (package / "scenarios.py").read_text(encoding="utf-8")
    assert "SimulationFault" not in text and "check_finite" not in text
    tree = ast.parse((package / "kinematics.py").read_text(encoding="utf-8"))
    vector = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "PlanarVector")
    methods = {node.name for node in vector.body if isinstance(node, ast.FunctionDef)}
    assert "__post_init__" not in methods


def _arguments(path, *names):
    """The parameter names and annotations of the function at ``names``
    (a module-level function, or a class and its method) in ``path``."""
    node = ast.parse(path.read_text(encoding="utf-8"))
    for name in names:
        node = next(child for child in node.body if getattr(child, "name", None) == name)
    params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
    return [(param.arg, ast.unparse(param.annotation) if param.annotation else "")
            for param in params]


def test_runs_pass_their_scenario_once():
    # a log's consumers read the run's parameters and pair from the log, and
    # a recorder gets its scenario from run, so neither can be handed another
    package = SRC / "vortex_ca"
    consumers = [("analysis.py", name) for name in (
        "analyze_log", "pair_lyapunov_series", "multi_lyapunov", "closed_loop_errors_from_log",
        "_lyapunov_series", "_grazing_geometry_check", "_attacker_checks", "_reciprocity_check",
    )] + [("cli.py", "analyze_log")]
    for module, name in consumers:
        for arg, annotation in _arguments(package / module, name):
            assert arg not in ("pair", "params") and "PFParams" not in annotation, (name, arg)
    assert _arguments(package / "analysis.py", "_reciprocity_check") == [("log", "TrajectoryLog")]
    for module, recorder in (("engine.py", "LogRecorder"), ("sweep_metrics.py", "MetricsFold")):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        body = next(node for node in tree.body if getattr(node, "name", None) == recorder).body
        if any(getattr(node, "name", None) == "__init__" for node in body):
            for arg, annotation in _arguments(package / module, recorder, "__init__"):
                assert arg != "scenario" and "Scenario" not in annotation, (recorder, arg)
        assert [arg for arg, _ in _arguments(package / module, recorder, "start")] == [
            "self", "scenario", "swarm"]


def test_checks_fold_columns_only_through_one_helper():
    # builtin max and min keep a value against a nan that follows it, so a
    # check passed on nan cells; every check named in a Check(...) entry
    # reduces with max or min only as the first argument of analysis._fold
    tree = ast.parse((SRC / "vortex_ca" / "analysis.py").read_text(encoding="utf-8"))
    checks = {node.args[0].id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check"}
    assert {"_circle_constraint_check", "_reciprocity_check", "_instability_certificate",
            "_grazing_geometry_check", "_noncoop_checks", "_attacker_checks",
            "_nonvortex_checks", "_multi_checks"} <= checks
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in sorted(checks):
        nodes = list(ast.walk(functions[name]))
        picks = [node.args[0] for node in nodes if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_fold" and node.args]
        builtins = [node for node in nodes
                    if isinstance(node, ast.Name) and node.id in ("max", "min")]
        assert all(any(node is pick for pick in picks) for node in builtins), name


def test_metrics_fold_record_builds_no_list():
    # a sweep cell keeps one running value per metric: the per-step record
    # reads the swarm's columns and copies none of them
    tree = ast.parse((SRC / "vortex_ca" / "sweep_metrics.py").read_text(encoding="utf-8"))
    fold = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "MetricsFold")
    record = next(node for node in fold.body
                  if isinstance(node, ast.FunctionDef) and node.name == "record")
    nodes = list(ast.walk(record))
    assert not [node for node in nodes
                if isinstance(node, (ast.List, ast.ListComp, ast.Starred))]
    called = {node.func.id for node in nodes
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"list", "sorted", "map", "tuple"}


def test_one_process_jobs_never_load_forks(tmp_path):
    # a sweep below the fork threshold (2 cells of 5 steps of one pair), a
    # run below the values threshold, a 12-robot run, and then a run above
    # the threshold kept in one process by numpy's thread: none forks, and
    # none loads the module that holds every fork
    base = written(tmp_path / "short.json",
                   dict(scenario_to_dict(load_scenario("coop_headon")), t_max=0.05))
    spec = written(tmp_path / "sweep.json", {"base_scenario": str(base), "axes": [
        {"path": "params.lambda", "values": [9.0, 11.0]}]})
    ring12 = written(tmp_path / "ring12.json", ring(12))
    argvs = [["sweep", spec, "-o", tmp_path / "sweep"],
             ["run", "attractive_only", "-o", tmp_path / "attractive_only"],
             ["run", ring12, "-o", tmp_path / "ring12"],
             ["run", "coop_headon", "-o", tmp_path / "coop_headon"]]
    assert fresh(*argvs) == {
        "codes": [0, 0, 0, 2], "forked": [0] * 4, "ends": [], "reaped": True,
        "loaded": [[], SWEEP, SWEEP, ["numpy"] + SWEEP, ["numpy"] + SWEEP],
        "numpy": [False, False, False, True], "thetas": [0, 1, 1, 1], "stderr": ""}


def test_every_fork_and_pipe_is_in_forks_and_every_run_file_format_in_cli():
    package = SRC / "vortex_ca"
    paths = sorted(package.glob("*.py"))
    assert package / "rundir.py" in paths  # the reader forks nothing either
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        calls = {f"os.{node.attr}" for node in nodes if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "os"}
        calls |= {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                  for node in nodes}
        found = calls & {"os.pipe", "os.fork", "os.waitpid", "Children"}
        assert found == (set() if path.name != "forks.py" else
                         {"os.pipe", "os.fork", "os.waitpid", "Children"}), path.name
    tree = ast.parse((package / "forks.py").read_text(encoding="utf-8"))
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [text for text in literals if ".csv" in text]
    # nor a column: what a run records is the engine's to say
    columns = {name for col in engine.ROBOT_COLUMNS + engine.PAIR_COLUMNS
               for name in (col.suffix, col.attr)}
    assert not columns & set(literals)
    referenced = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    referenced |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not referenced & {"trajectory_table", "pairs_table", "table_header", "table_rows"}

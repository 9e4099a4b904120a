"""Which commands load numpy and ``vortex_ca.analysis``, each checked in a
fresh interpreter.

The engine uses numpy only on the array pair stage (swarms of at least
``engine._ARRAY_MIN_ROBOTS`` robots), and no other module imports it;
``analysis`` works on plain floats throughout.  ``run`` and ``sweep`` (every
metric) on smaller swarms, ``plotdata``, and ``analyze`` in every regime
must therefore start and finish without importing numpy; ``run`` on a
larger swarm loads it on first use and exits as before.

``analysis`` is imported by ``analyze`` and the ``max_lyap_derivative`` sweep
metric only: importing the package or the CLI, ``run``, ``plotdata`` and the
other sweeps never compile or execute it.  ``sweep_metrics`` is imported by
sweeps only.

No command loads ``multiprocessing``, ``concurrent.futures`` or
``subprocess``: a sweep below the fork threshold runs in one process, and
one above it forks its workers with ``os.fork``; a ``run`` that records
enough values forks its CSV writer the same way.  The probe sees two usable
CPUs, so that both fork.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from common_runs import PRESET_RUNS
from vortex_ca import cli, engine
from vortex_ca.cli import main
from vortex_ca.scenarios import load_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

# One preset per regime, the first by name: preset -> the regime it is
# analyzed under.
PRESET_REGIMES = {}
for name, (regime, _) in sorted(PRESET_RUNS.items()):
    if regime not in PRESET_REGIMES.values():
        PRESET_REGIMES[name] = regime

WATCHED = ("numpy", "vortex_ca.analysis", "vortex_ca.sweep_metrics", "multiprocessing",
           "concurrent.futures", "subprocess")
ANALYSIS = ["vortex_ca.analysis"]
SWEEP = ["vortex_ca.sweep_metrics"]

PROBE = """
import json, os, sys
import vortex_ca, vortex_ca.cli
from vortex_ca.cli import main
watched = {watched!r}
unresolved = [name for name in vortex_ca.__all__ if not hasattr(vortex_ca, name)]
loaded = [[name for name in watched if name in sys.modules]]
os.sched_getaffinity = lambda pid: {{0, 1}}
real_fork, forks = os.fork, []


def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = fork
codes, forked = [], []
for argv in json.loads(sys.argv[1]):
    before = len(forks)
    codes.append(main(argv))
    forked.append(len(forks) - before)
    loaded.append([name for name in watched if name in sys.modules])
print(json.dumps({{"codes": codes, "loaded": loaded, "forked": forked,
                  "unresolved": unresolved}}))
""".format(watched=WATCHED)


def fresh_main(*argvs):
    """Run ``main`` over ``argvs`` in one new interpreter with two usable
    CPUs, after importing ``vortex_ca`` and ``vortex_ca.cli`` and checking
    that every name in ``vortex_ca.__all__`` resolves.  Returns the exit
    codes, the children each command forked and, after the imports and then
    after each command, which ``WATCHED`` modules are loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([[str(a) for a in argv] for argv in argvs])],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["unresolved"] == []
    return result["codes"], result["forked"], result["loaded"]


def ring_scenario(path, n, t_max=0.5):
    """n cooperative robots on a 3 m circle, each bound for the antipodal point."""
    robots = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        x, y = 3.0 * math.cos(angle), 3.0 * math.sin(angle)
        robots.append({"id": k + 1, "x": x, "y": y, "heading": angle + math.pi,
                       "goal": [-x, -y]})
    path.write_text(json.dumps({"name": f"ring{n}", "t_max": t_max, "robots": robots}))
    return path


def test_small_swarm_commands_never_load_numpy(tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "base_scenario": "coop_triangle",
        "axes": [{"path": "params.lambda", "values": [30.0, 40.0]}],
        "metrics": ["min_separation", "time_to_goal", "body_overlap"],
    }))
    lyap_spec = tmp_path / "lyap_sweep.json"
    lyap_spec.write_text(json.dumps({
        "base_scenario": "coop_triangle",
        "axes": [{"path": "params.lambda", "values": [40.0]}],
        "metrics": ["max_lyap_derivative"],
    }))
    # 2 cells of 10 steps of one pair: below the fork threshold, so one process
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"t_max": 0.1, "robots": [
        {"id": 1, "x": -1.5, "y": 0.0, "goal": [1.5, 0.0]},
        {"id": 2, "x": 1.5, "y": 0.0, "heading": math.pi, "goal": [-1.5, 0.0]}]}))
    short_spec = tmp_path / "short_sweep.json"
    short_spec.write_text(json.dumps({
        "base_scenario": str(short),
        "axes": [{"path": "params.lambda", "values": [9.0, 11.0]}],
    }))
    ring = ring_scenario(tmp_path / "ring11.json", 11)
    names = sorted(PRESET_RUNS)
    # the commands that never load analysis come first, since nothing unloads it
    plain = [
        *(["run", name, "-o", tmp_path / name] for name in names),
        *(["plotdata", tmp_path / name] for name in names),
        ["sweep", spec, "-o", tmp_path / "sweep_out"],
        ["sweep", short_spec, "-o", tmp_path / "short_out"],
        ["run", ring, "-o", tmp_path / "ring11"],
    ]
    analyses = [
        ["sweep", lyap_spec, "-o", tmp_path / "lyap_out"],
        *(["analyze", tmp_path / name, "--regime", regime]
          for name, regime in sorted(PRESET_REGIMES.items())),
    ]
    codes, forked, loaded = fresh_main(*plain, *analyses)
    ring_code = main(["run", str(ring), "-o", str(tmp_path / "ring11_again")])
    assert codes == (
        [PRESET_RUNS[name][1] for name in names] + [0] * len(names) + [0, 0, ring_code]
        + [0] * len(analyses)
    )
    # each preset run but attractive_only's forks its writer, and the first
    # sweep a worker; attractive_only's run and the ring's record too little,
    # the short sweep estimates too little work, and the one-cell sweep runs
    # its cell in the parent
    runs_forked = [int(name != "attractive_only") for name in names]
    assert forked == runs_forked + [0] * len(names) + [1, 0, 0] + [0] * len(analyses)
    # the imports, then the plain commands, leave every watched module out but
    # the sweeps' sweep_metrics; the max_lyap_derivative sweep and analyze load
    # analysis
    assert loaded == (
        [[]] * (1 + 2 * len(names)) + [SWEEP] * (len(plain) - 2 * len(names))
        + [ANALYSIS + SWEEP] * len(analyses)
    )
    assert (tmp_path / "sweep_out" / "results.csv").read_text().count("\n") == 3
    assert (tmp_path / "short_out" / "results.csv").read_text().count("\n") == 3
    assert main(["sweep", str(lyap_spec), "-o", str(tmp_path / "lyap_again")]) == 0
    fresh = (tmp_path / "lyap_out" / "results.csv").read_bytes()
    assert fresh == (tmp_path / "lyap_again" / "results.csv").read_bytes()


def test_array_commands_load_numpy_on_first_use(tmp_path):
    ring = ring_scenario(tmp_path / "ring12.json", 12)
    codes, _, loaded = fresh_main(["run", ring, "-o", tmp_path / "ring12"])
    assert codes == [main(["run", str(ring), "-o", str(tmp_path / "ring12_again")])]
    assert loaded == [[], ["numpy"]]
    for name in ("trajectory.csv", "pairs.csv", "events.csv", "summary.json"):
        fresh = (tmp_path / "ring12" / name).read_bytes()
        assert fresh == (tmp_path / "ring12_again" / name).read_bytes(), name


def test_jobs_on_the_array_pair_stage_never_fork(tmp_path, monkeypatch):
    # one robot short of the array pair stage, a run above 30,000 recorded
    # values and a sweep above 4,000 pair-steps each fork; on the array
    # stage neither does.  The 12-robot sweep has an interpreter of its own:
    # after the 12-robot run, numpy's thread alone would keep it from forking
    jobs = {}
    for n in (engine._ARRAY_MIN_ROBOTS - 1, engine._ARRAY_MIN_ROBOTS):
        ring = ring_scenario(tmp_path / f"ring{n}.json", n, t_max=1.0)
        scenario = load_scenario(str(ring))
        assert scenario.recorded_values(scenario.fewest_steps()) >= cli._FORK_MIN_VALUES
        assert 2 * scenario.n_steps() * math.comb(n, 2) >= cli._FORK_MIN_WORK
        spec = tmp_path / f"sweep{n}.json"
        spec.write_text(json.dumps({"base_scenario": str(ring), "axes": [
            {"path": "params.lambda", "values": [30.0, 40.0]}]}))
        jobs[n] = [["run", ring, "-o", f"run{n}"], ["sweep", spec, "-o", f"sweep{n}"]]
    small, swarm = jobs.values()
    forked_dir, serial_dir = tmp_path / "forked", tmp_path / "serial"

    def into(root, argv):
        return [*argv[:-1], root / argv[-1]]

    codes, forked, _ = fresh_main(*(into(forked_dir, argv) for argv in small + swarm[:1]))
    swarm_codes, swarm_forked, _ = fresh_main(into(forked_dir, swarm[1]))
    assert forked + swarm_forked == [1, 1, 0, 0]
    # the bytes of each job run in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert codes + swarm_codes == [main([str(a) for a in into(serial_dir, argv)])
                                   for argv in small + swarm]
    written = sorted(path.relative_to(serial_dir) for path in serial_dir.rglob("*.*"))
    assert len(written) == 2 * (4 + 1)  # each run's four files, each sweep's results.csv
    for path in written:
        assert (forked_dir / path).read_bytes() == (serial_dir / path).read_bytes(), path


def test_only_the_engine_imports_numpy():
    # the fresh-interpreter probes above reach only the preset paths; this
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

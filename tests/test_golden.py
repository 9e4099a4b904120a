"""Golden-output gate: every preset through ``run``, ``analyze`` and
``plotdata``, the benchmark's 32-robot ring through ``run`` and its
``coop_triangle`` parameter sweep through ``sweep`` reproduce the pinned
SHA-256 of each file they write.

The digests are the benchmark's own (``benchmarks/digests.json``, the
``full`` ``preset_pipeline``, ``ring_swarm`` and ``param_sweep`` entries);
these tests only read them.  One more sweep, of every metric over a
12-robot ring, is pinned here (``RING_SWEEP_DIGEST``), and so is a head-on
run that engages both bounds (``SATURATING_DIGESTS``).  A change that alters
any output byte, in the run files, ``lyapunov.csv``, ``verification.txt``,
the ``plotdata`` panels or a sweep's ``results.csv``, fails here.  Both
rings run on the numpy pair stage, so they pin that stage byte for byte
against digests the scalar engine made.
"""

import hashlib
import json
import math
from pathlib import Path

from common_runs import PRESET_RUNS
from vortex_ca.cli import main, read_run

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
DIGESTS = BENCHMARKS / "digests.json"


def test_preset_pipeline_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())["full"]["preset_pipeline"]
    digests = {}
    for preset, (regime, run_code) in sorted(PRESET_RUNS.items()):
        rundir = tmp_path / preset
        assert main(["run", preset, "-o", str(rundir)]) == run_code, preset
        assert main(["analyze", str(rundir), "--regime", regime]) == 0, preset
        assert main(["plotdata", str(rundir)]) == 0, preset
        for path in sorted(rundir.iterdir()):
            digests[f"{preset}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(digests) == sorted(pinned)
    changed = sorted(key for key in pinned if digests[key] != pinned[key])
    assert not changed, f"outputs differ from the pinned digests: {changed}"


def test_ring_swarm_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench

    pinned = json.loads(DIGESTS.read_text())["full"]["ring_swarm"]
    ring = bench.RingSwarm(tmp_path, bench.DEFAULT_SEED, fast=False)
    rundir = tmp_path / "ring"
    assert main(["run", str(ring.scenario_path), "-o", str(rundir)]) in (0, 2)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(rundir.iterdir())
    }
    assert digests == pinned


def test_param_sweep_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench

    pinned = json.loads(DIGESTS.read_text())["full"]["param_sweep"]
    sweep = bench.ParamSweep(tmp_path, bench.DEFAULT_SEED, fast=False)
    outdir = tmp_path / "sweep"
    assert main(["sweep", str(sweep.spec_path), "-o", str(outdir)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
    }
    assert digests == pinned


# results.csv of ``ring_sweep`` below, as the engine wrote it when each cell
# built its full trajectory log and read its metrics from it.
RING_SWEEP_DIGEST = "bd354602af5bd5483b1282eee1d10e2341860d0130496552f69024a102b33a84"


def ring_sweep(tmp_path):
    """A two-cell lambda sweep of every metric over 12 robots on a 1.2 m
    circle, each bound for its antipode: robot 1 has a near goal, which it
    reaches at one lambda and not at the other, robot 2 is non-cooperative,
    robot 3 stationary and robot 4 attacks robot 7.  Every third of the 70
    steps is recorded, so the last one is recorded only as the last, and it
    holds the smallest separation."""
    robots = []
    for k in range(12):
        angle = 2.0 * math.pi * k / 12
        x, y = 1.2 * math.cos(angle), 1.2 * math.sin(angle)
        robots.append({"id": k + 1, "x": x, "y": y, "heading": angle + math.pi,
                       "goal": [-x, -y]})
    robots[0]["goal"] = [robots[0]["x"] * 0.75, robots[0]["y"] * 0.75]
    robots[1]["behavior"] = "noncooperative"
    robots[2] = {key: value for key, value in robots[2].items() if key != "goal"}
    robots[2]["behavior"] = "stationary"
    robots[3].update(behavior="attacking", target=7)
    base = tmp_path / "ring12.json"
    base.write_text(json.dumps({"name": "ring12", "t_max": 0.7, "record_stride": 3,
                                "robots": robots}))
    spec = tmp_path / "ring_sweep.json"
    spec.write_text(json.dumps({
        "base_scenario": str(base),
        "axes": [{"path": "params.lambda", "values": [10.0, 40.0]}],
        "metrics": ["min_separation", "time_to_goal", "body_overlap", "max_lyap_derivative"],
    }))
    return spec


def test_array_stage_sweep_matches_its_pinned_digest(tmp_path):
    outdir = tmp_path / "sweep"
    assert main(["sweep", str(ring_sweep(tmp_path)), "-o", str(outdir)]) == 0
    results = (outdir / "results.csv").read_bytes()
    assert hashlib.sha256(results).hexdigest() == RING_SWEEP_DIGEST, results.decode()


# Every file of ``saturating_headon`` below after run, analyze and plotdata,
# as the engine wrote them when the run was pinned.
SATURATING_DIGESTS = {
    "events.csv": "fd6c859f7e4adcd51f10bd512befc404ed7fafa7f8fb238434e7da7dfd4b3147",
    "lyapunov.csv": "d542b7159c2c9ffd2fa72496c1947c329bbdc4279cef6b33acaa1b499057df18",
    "pairs.csv": "208ecc87ebb4dc51ee8b78693add4039126da9cf51b033cc38b6f0097c7f4af9",
    "separation.csv": "d6066613b7027a07e361aea5ed5245a7673757829bcf842a9122f57dc00facf2",
    "summary.json": "feece6e0f961cf1eb0adf13f718c50973993b70e55456a87ede8a9019972fccc",
    "trajectory.csv": "a1bdc51869aefee8ee6c544a99a4880c053b28af354606d62b3fe971b7c549b8",
    "verification.txt": "557943b7f248a986ef38c080e1ae64a578650f54071e0b0002cf540d8535a831",
    "vrvth.csv": "4601bda6db13b890a91adfd4cdc75f8beb561f89e7ac6d0937b6378b3deb8a35",
    "xy_paths.csv": "2d7ce74b296c3c77edab255cbe3a2e8bba6a5c9a87593adb031c089488842014",
}


def test_saturating_run_matches_its_pinned_digests(tmp_path):
    # No preset has both a finite f_lim and r_star > 0: this head-on pair,
    # offset 0.2 m, has f_lim 5 with the default r_star (0.82 m) and
    # omega_max 1.  The capped repulsion does not keep the bodies apart.
    scenario = tmp_path / "saturating_headon.json"
    scenario.write_text(json.dumps({
        "name": "saturating_headon", "t_max": 30.0,
        "params": {"lambda": 10.0, "f_lim": 5.0, "omega_max": 1.0},
        "robots": [{"id": 1, "x": -1.5, "y": 0.1, "goal": [1.5, 0.0]},
                   {"id": 2, "x": 1.5, "y": -0.1, "heading": math.pi, "goal": [-1.5, 0.0]}],
    }))
    rundir = tmp_path / "run"
    assert main(["run", str(scenario), "-o", str(rundir)]) == 2
    assert main(["analyze", str(rundir), "--regime", "coop_pair"]) == 0
    assert main(["plotdata", str(rundir)]) == 0

    log = read_run(str(rundir))
    params, pair = log.scenario.params, log.pairs[(1, 2)]
    assert any(trig and r < params.r_star for r, trig in zip(pair.r, pair.triggered))
    omegas = [omega for trace in log.robots.values() for omega in trace.omega]
    assert params.omega_max in map(abs, omegas)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(rundir.iterdir())
    }
    assert digests == SATURATING_DIGESTS

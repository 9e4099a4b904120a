"""Golden-output gate: every preset through ``run``, ``analyze`` and
``plotdata``, the benchmark's 32-robot ring through ``run`` and its
``coop_triangle`` parameter sweep through ``sweep`` reproduce the pinned
SHA-256 of each file they write.

The digests are the benchmark's own (``benchmarks/digests.json``, the
``full`` ``preset_pipeline``, ``ring_swarm`` and ``param_sweep`` entries);
these tests only read them.  One more sweep, of every metric over a
12-robot ring, is pinned here (``RING_SWEEP_DIGEST``).  A change that alters
any output byte, in the run files, ``lyapunov.csv``, ``verification.txt``,
the ``plotdata`` panels or a sweep's ``results.csv``, fails here.  Both
rings run on the numpy pair stage, so they pin that stage byte for byte
against digests the scalar engine made.
"""

import hashlib
import json
import math
from pathlib import Path

from vortex_ca.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
DIGESTS = BENCHMARKS / "digests.json"

# Preset -> (analyze regime, expected `run` exit code), as in the benchmark's
# PRESETS map (benchmarks/bench.py).
PRESETS = {
    "coop_headon": ("coop_pair", 2),
    "coop_triangle": ("multi_robot", 0),
    "noncoop_headon": ("coop_vs_noncoop", 2),
    "attacker": ("coop_vs_attacker", 2),
    "nonvortex_headon": ("nonvortex_pair", 2),
    "attractive_only": ("attractive_only", 0),
    "saturated_headon": ("coop_pair", 0),
}


def test_preset_pipeline_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())["full"]["preset_pipeline"]
    digests = {}
    for preset, (regime, run_code) in sorted(PRESETS.items()):
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

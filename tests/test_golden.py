"""Golden-output gate: every preset through ``run``, ``analyze`` and
``plotdata``, the benchmark's 32-robot ring through ``run`` and its
``coop_triangle`` parameter sweep through ``sweep`` reproduce the pinned
SHA-256 of each file they write.

The digests are the benchmark's own (``benchmarks/digests.json``, the
``full`` ``preset_pipeline``, ``ring_swarm`` and ``param_sweep`` entries);
these tests only read them.  A change that alters any output byte, in the
run files, ``lyapunov.csv``, ``verification.txt``, the ``plotdata`` panels
or the sweep's ``results.csv``, fails here.  The ring runs on the numpy
pair stage, so it pins that stage byte for byte against digests the scalar
engine made.
"""

import hashlib
import json
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

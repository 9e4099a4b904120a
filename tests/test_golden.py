"""Golden-output gate: every preset through ``run``, ``analyze`` and
``plotdata`` reproduces the pinned SHA-256 of each file it writes.

The digests are the benchmark's own (``benchmarks/digests.json``, the
``full`` ``preset_pipeline`` entry); this test only reads them.  A change that
alters any output byte, in the run files, ``lyapunov.csv``,
``verification.txt`` or the ``plotdata`` panels, fails here.
"""

import hashlib
import json
from pathlib import Path

from vortex_ca.cli import main

DIGESTS = Path(__file__).resolve().parents[1] / "benchmarks" / "digests.json"

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

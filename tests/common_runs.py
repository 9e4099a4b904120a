"""What several test modules share: the presets' analysis regimes and
``run`` exit codes, a bit-level form of a trajectory log, the ring swarm's
scenario, and ``fresh``, which runs commands in a new interpreter."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = Path(__file__).resolve().with_name("probe.py")

# what ``fresh`` reports: the watched modules that commands load, and a
# child that exited 0
ANALYSIS = ["vortex_ca.analysis"]
SWEEP = ["vortex_ca.sweep_metrics"]
FORKS = ["vortex_ca.forks"]
RUNDIR = ["vortex_ca.rundir"]
EXITED = ["exit", 0]

# Preset -> (the regime it is analyzed under, its `run` exit code), as in the
# benchmark's PRESETS map (benchmarks/bench.py), which keeps its own copy.
PRESET_RUNS = {
    "coop_headon": ("coop_pair", 2),
    "coop_triangle": ("multi_robot", 0),
    "noncoop_headon": ("coop_vs_noncoop", 2),
    "attacker": ("coop_vs_attacker", 2),
    "nonvortex_headon": ("nonvortex_pair", 2),
    "attractive_only": ("attractive_only", 0),
    "saturated_headon": ("coop_pair", 0),
}


def log_bits(log):
    """Every recorded value of ``log``, each float as its bits: two logs hold
    the same bits exactly when their ``log_bits`` are equal.  A float is its
    ``float.hex``, which tells +0.0 from -0.0; a NaN, which ``float.hex``
    writes as ``'nan'`` whatever its sign and payload, is its IEEE 754 bits."""
    def cell(value):
        if not isinstance(value, float):
            return value
        return value.hex() if value == value else struct.pack(">d", value).hex()

    def traces(mapping):
        return {key: {attr: list(map(cell, values)) for attr, values in vars(trace).items()}
                for key, trace in mapping.items()}

    events = [(cell(event.t), event.kind, event.ids) for event in log.events]
    return list(map(cell, log.t)), traces(log.robots), traces(log.pairs), events


def written(path, document):
    """``path``, once ``document`` is written to it as JSON."""
    path.write_text(json.dumps(document))
    return path


def ring(n, radius=3.0, t_max=0.5, name=None, heading=None, lam=None, body_radius=None):
    """The scenario document of ``n`` cooperative robots on a circle of
    ``radius`` m, robot k + 1 at angle 2 pi k / n, each bound for the
    antipodal point; with ``heading``, all move in parallel instead, each
    bound for a point 5 m ahead.  The name is ``ring<n>``, and λ, the speed
    and the body radius are the defaults, unless given."""
    robots = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        phi, goal = angle + math.pi, [-x, -y]
        if heading is not None:
            phi, goal = heading, [x + 5.0 * math.cos(heading), y + 5.0 * math.sin(heading)]
        robots.append({"id": k + 1, "x": x, "y": y, "heading": phi, "goal": goal})
        if body_radius is not None:
            robots[-1]["radius"] = body_radius
    document = {"name": f"ring{n}" if name is None else name, "t_max": t_max, "robots": robots}
    if lam is not None:
        document["params"] = {"lambda": lam}
    return document


def fresh(*argvs, **hooks):
    """Run the command lines ``argvs`` in one new interpreter that warns of
    every file left open, with the ``hooks`` of ``probe.py``, which says what
    it returns.  Asserts that the probe ended cleanly and that every name in
    ``vortex_ca.__all__`` resolves; returns the result and stderr."""
    request = {"argvs": [[str(arg) for arg in argv] for argv in argvs], "hooks": hooks}
    done = subprocess.run(
        [sys.executable, "-W", "default::ResourceWarning", str(PROBE), json.dumps(request)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.pop("unresolved") == []
    return dict(result, stderr=done.stderr)

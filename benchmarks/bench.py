#!/usr/bin/env python3
"""Benchmark for vortex-ca: three CLI workloads, end-to-end metrics and traced
per-layer spans.

Run from the repository root:

    python3 benchmarks/bench.py --workload ring_swarm --seed 3 --seconds 25 --trace 0
    python3 benchmarks/bench.py                # every workload, one process each
    python3 benchmarks/bench.py --fast         # tiny sizes; checks the result schema
    python3 benchmarks/bench.py --pin          # rewrite digests.json (numerics changed)

vortex-ca is driven only through ``vortex_ca.cli.main(argv)`` in this process
and through the files docs/formats.md specifies, so the untraced path keeps
working when the engine, the force laws or the trajectory log are rewritten.
Work counts come from the outputs (``summary.json`` ``t_final / dt``).

One invocation runs one workload:

1. ``setup_s``: five fresh interpreters each import ``vortex_ca.cli`` and
   generate the workload's inputs from the seed; the median is reported.
2. A reference pass on the default-seed inputs (untimed; it also warms
   caches).  Its output digests must equal the pinned ones in
   ``digests.json``.
3. The timed phase repeats whole passes over the seeded inputs until
   ``--seconds`` have passed.  Every pass's output digests must equal the
   first pass's.  With ``--trace 1`` untraced and traced passes alternate;
   the traced ones give the per-layer metrics, and the ratio of the two
   median pass walls gives the tracing overhead.

Times are in reference seconds (see ``KERNEL_REF_S``).  Every run output
goes to a temporary directory under ``.bench_build/`` (git ignores it),
removed before exit.  The last stdout line is the result JSON:
``{"correct", "attempted", "failed", "metrics"}``.  Earlier ``#`` lines give
each metric with its unit and sample count, and a ``# record`` line with the
machine, versions, git rev, seed, raw times and the failed-operation fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
DIGESTS_PATH = HERE / "digests.json"

DEFAULT_SEED = 0
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
clock = time.perf_counter

# Timings are reported in reference seconds: the raw time of a unit of work
# times KERNEL_REF_S over the time the calibration kernel took right before
# and after it.  The host this was tuned on moves, over seconds to minutes,
# between states up to 1.8x apart in speed.  The kernel does what the
# simulator's time goes to (random reads over boxed floats, allocation of
# small frozen dataclasses, tuples and dicts), so it slows by about the same
# factor, and the ratio removes that drift while every change to vortex_ca
# still shows in full.  Raw times are in the record line.
KERNEL_REF_S = 0.010
KERNEL_READS = 40_000
KERNEL_ALLOCS = 6_000


@dataclass(frozen=True)
class _Vec:
    x: float
    y: float


@functools.cache
def _kernel_data() -> tuple[list[float], list[int]]:
    size = 250_000  # about 8 MB of boxed floats, beyond the private caches
    return [float(i) for i in range(size)], random.Random(0).sample(range(size), KERNEL_READS)


def kernel_s() -> float:
    """Time one run of the calibration kernel (independent of vortex_ca)."""
    data, order = _kernel_data()
    start = clock()
    acc = 0.0
    for i in order:
        acc += data[i]
    prev = _Vec(0.0, 0.0)
    for i in range(KERNEL_ALLOCS):
        vec = _Vec(prev.x + 1.0, prev.y * 0.5 + i)
        acc += {"vec": vec, "xy": (vec.x, vec.y)}["xy"][0]
        prev = vec
    return clock() - start

# Preset -> (analyze regime, expected `run` exit code).  `analyze` and
# `plotdata` exit 0 on every preset.
PRESETS = {
    "coop_headon": ("coop_pair", 2),
    "coop_triangle": ("multi_robot", 0),
    "noncoop_headon": ("coop_vs_noncoop", 2),
    "attacker": ("coop_vs_attacker", 2),
    "nonvortex_headon": ("nonvortex_pair", 2),
    "attractive_only": ("attractive_only", 0),
    "saturated_headon": ("coop_pair", 0),
}
FAST_PRESETS = ("coop_headon", "coop_triangle")
RUN_FILES = ("trajectory.csv", "pairs.csv", "events.csv", "summary.json")
SWEEP_METRICS = ["min_separation", "time_to_goal", "body_overlap", "max_lyap_derivative"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(argv: list[str]) -> int | None:
    """Run ``vortex_ca.cli.main``; None when it raised instead of returning a code."""
    cli = sys.modules["vortex_ca.cli"]
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        print(f"bench: vortex-ca {' '.join(argv)} raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return None


def run_outputs_work(rundir: Path) -> "Work":
    """Physics work of one finished `run`, read from its output files."""
    summary = json.loads((rundir / "summary.json").read_text())
    scenario = summary["scenario"]
    n = len(scenario["robots"])
    steps = round(summary["t_final"] / scenario["dt"])
    with open(rundir / "pairs.csv", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        trig_cols = [i for i, name in enumerate(header) if name.endswith("_trig")]
        rows = trig = 0
        for line in handle:
            cells = line.rstrip("\n").split(",")
            rows += 1
            trig += sum(cells[i] == "1" for i in trig_cols)
    run_bytes = sum((rundir / name).stat().st_size for name in RUN_FILES)
    return Work(
        steps=steps,
        robot_steps=steps * n,
        pair_steps=steps * n * (n - 1) // 2,
        cells=1,
        pair_rows=rows * len(trig_cols),
        trig_pair_rows=trig,
        csv_bytes_written=sum((rundir / f).stat().st_size for f in ("trajectory.csv", "pairs.csv")),
        run_bytes=run_bytes,
    )


@dataclass
class Work:
    """Work done by one pass, counted from its outputs."""

    steps: int = 0
    robot_steps: int = 0
    pair_steps: int = 0
    cells: int = 0
    pair_rows: int = 0
    trig_pair_rows: int = 0
    csv_bytes_written: int = 0
    run_bytes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def add(self, other: "Work") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    outdir: Path
    units: list[float] = field(default_factory=list)
    raw_units: list[float] = field(default_factory=list)
    ops: list[str] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)
    digests: dict[str, str] = field(default_factory=dict)
    file_ops: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.units)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_units)

    def timed(self, fn, *args):
        """Run one unit of work, recording its raw and reference-second time."""
        before = kernel_s()
        start = clock()
        result = fn(*args)
        raw = clock() - start
        after = kernel_s()
        self.raw_units.append(raw)
        self.units.append(raw * KERNEL_REF_S / (0.5 * (before + after)))
        return result

    def fail(self, op: str, why: str) -> None:
        print(f"bench: {op}: {why}", file=sys.stderr)
        self.failed.add(op)

    def compare(self, expected: dict[str, str], what: str) -> None:
        """Fail every operation whose output digest differs from ``expected``."""
        for key in sorted(set(expected) | set(self.digests)):
            if expected.get(key) != self.digests.get(key):
                for op in self.file_ops.get(key, self.ops):
                    self.fail(op, f"{key}: digest differs from the {what}")


# ---------------------------------------------------------------------------
# Workloads.  Constructing one generates its inputs from the seed (set-up);
# run_pass() is the timed part; work() counts a finished pass's work.


class PresetPipeline:
    """All bundled presets, each through `run`, `analyze --regime`, `plotdata`.

    The reference experiments as a user reproduces them: N <= 3, text I/O
    and analysis are about half the wall.  The seed only permutes the order.
    One unit is one preset's three-command chain.
    """

    name = "preset_pipeline"

    def __init__(self, workdir: Path, seed: int, fast: bool) -> None:
        self.order = sorted(FAST_PRESETS if fast else PRESETS)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, outdir: Path) -> Pass:
        p = Pass(outdir)
        codes = {preset: p.timed(self._chain, preset, str(outdir / preset))
                 for preset in self.order}

        for preset in self.order:
            expected = (PRESETS[preset][1], 0, 0)
            for command, code, want in zip(("run", "analyze", "plotdata"), codes[preset], expected):
                op = f"{preset}:{command}"
                p.ops.append(op)
                if code != want:
                    p.fail(op, f"exit code {code}, expected {want}")
            for path in sorted((outdir / preset).iterdir()):
                key = f"{preset}/{path.name}"
                p.digests[key] = sha256(path)
                command = ("run" if path.name in RUN_FILES
                           else "analyze" if path.name in ("lyapunov.csv", "verification.txt")
                           else "plotdata")
                p.file_ops[key] = [f"{preset}:{command}"]
        return p

    @staticmethod
    def _chain(preset: str, rundir: str) -> tuple[int | None, ...]:
        return (
            call_cli(["run", preset, "-o", rundir]),
            call_cli(["analyze", rundir, "--regime", PRESETS[preset][0]]),
            call_cli(["plotdata", rundir]),
        )

    def work(self, p: Pass) -> tuple[Work, int, list[str]]:
        total = Work()
        for preset in self.order:
            rundir = p.outdir / preset
            w = run_outputs_work(rundir)
            w.bytes_written = sum(f.stat().st_size for f in rundir.iterdir())
            w.bytes_read = 2 * w.run_bytes  # analyze and plotdata each read the run back
            total.add(w)
        return total, 0, []


class RingSwarm:
    """A 32-robot antipodal circle swap, written as a scenario JSON for `run`.

    O(N^2) engagement and force work dominates; `record_stride` keeps CSV I/O
    to a few percent of the wall.  The seed jitters start positions by a few
    millimetres and headings by a few hundredths of a radian.  `t_max` ends
    the run before any robot reaches its goal, so every seed does the same
    number of steps.  One unit is one `run` call.
    """

    name = "ring_swarm"

    def __init__(self, workdir: Path, seed: int, fast: bool) -> None:
        n, t_max = (6, 0.2) if fast else (32, 0.5)
        radius = 3.0  # neighbours start 0.59 m apart, clear of the 0.35 m body diameter
        rng = random.Random(seed)
        robots = []
        for k in range(n):
            angle = 2.0 * math.pi * k / n
            cx, cy = radius * math.cos(angle), radius * math.sin(angle)
            robots.append({
                "id": k + 1,
                "x": cx + rng.uniform(-0.003, 0.003),
                "y": cy + rng.uniform(-0.003, 0.003),
                "heading": angle + math.pi + rng.uniform(-0.03, 0.03),
                "goal": [-cx, -cy],
            })
        scenario = {"name": "ring_swarm", "dt": 0.01, "t_max": t_max,
                    "record_stride": 10, "robots": robots}
        self.scenario_path = workdir / "ring_swarm.json"
        self.scenario_path.write_text(json.dumps(scenario, indent=1))

    def run_pass(self, outdir: Path) -> Pass:
        p = Pass(outdir, ops=["run"])
        code = p.timed(call_cli, ["run", str(self.scenario_path), "-o", str(outdir)])
        if code not in (0, 2):
            p.fail("run", f"exit code {code}, expected 0 or 2")
        for name in RUN_FILES:
            if (outdir / name).exists():
                p.digests[name] = sha256(outdir / name)
        return p

    def work(self, p: Pass) -> tuple[Work, int, list[str]]:
        w = run_outputs_work(p.outdir)
        w.bytes_written = w.run_bytes
        return w, 0, []


class ParamSweep:
    """One `sweep` over a lambda x kp grid around the tuned `coop_triangle`
    values (lambda 40, kp 5), with all four metrics.

    Many short 3-robot runs and no run CSVs: per-run overhead, scenario
    parsing, `multi_lyapunov` and the GIL-bound sweep thread pool show here.
    The seed draws the axis values; `VORTEX_CA_THREADS` is left unset so the
    default pool runs.  One unit is one `sweep` call.
    """

    name = "param_sweep"

    def __init__(self, workdir: Path, seed: int, fast: bool) -> None:
        n_lambda, n_kp = (2, 2) if fast else (2, 3)
        rng = random.Random(seed)
        self.lambdas = sorted(round(rng.uniform(32.0, 48.0), 3) for _ in range(n_lambda))
        self.kps = sorted(round(rng.uniform(3.5, 6.5), 3) for _ in range(n_kp))
        self.cells = list(itertools.product(self.lambdas, self.kps))
        self.workdir = workdir
        self.spec_path = workdir / "sweep.json"
        self.spec_path.write_text(json.dumps({
            "base_scenario": "coop_triangle",
            "axes": [{"path": "params.lambda", "values": self.lambdas},
                     {"path": "params.kp", "values": self.kps}],
            "metrics": SWEEP_METRICS,
        }, indent=1))

    def run_pass(self, outdir: Path) -> Pass:
        p = Pass(outdir, ops=[f"cell{i}" for i in range(len(self.cells))])
        code = p.timed(call_cli, ["sweep", str(self.spec_path), "-o", str(outdir)])
        if code != 0:
            for op in p.ops:
                p.fail(op, f"sweep exit code {code}, expected 0")
            return p
        rows = self._rows(outdir)
        if len(rows) != len(self.cells):
            for op in p.ops:
                p.fail(op, f"results.csv has {len(rows)} rows for {len(self.cells)} cells")
        for op, cell, row in zip(p.ops, self.cells, rows):
            if row["error"]:
                p.fail(op, f"cell error {row['error']!r}")
            elif (float(row["params.lambda"]), float(row["params.kp"])) != cell:
                p.fail(op, f"row {row} is not cell {cell}")
        p.digests["results.csv"] = sha256(outdir / "results.csv")
        return p

    @staticmethod
    def _rows(outdir: Path) -> list[dict[str, str]]:
        lines = (outdir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def work(self, p: Pass) -> tuple[Work, int, list[str]]:
        """Re-run every cell through `run` (untimed) to count its steps, and
        check that `run` agrees with the sweep row on every metric it shares."""
        base = self.workdir / "base"
        failed = []
        if call_cli(["run", "coop_triangle", "-o", str(base)]) not in (0, 2):
            return Work(), 1, ["base:run"]
        base_scenario = json.loads((base / "summary.json").read_text())["scenario"]
        total = Work(bytes_written=(p.outdir / "results.csv").stat().st_size)
        for i, ((lam, kp), row) in enumerate(zip(self.cells, self._rows(p.outdir))):
            scenario = json.loads(json.dumps(base_scenario))
            scenario["params"]["lambda"] = lam
            scenario["params"]["kp"] = kp
            cell_path = self.workdir / f"cell{i}.json"
            cell_path.write_text(json.dumps(scenario))
            rundir = self.workdir / f"cell{i}"
            code = call_cli(["run", str(cell_path), "-o", str(rundir)])
            if code not in (0, 2):
                failed.append(f"cell{i}:run")
                continue
            summary = json.loads((rundir / "summary.json").read_text())
            goal_times = [t for t in summary["goal_times"].values() if t is not None]
            agree = (
                f"{summary['min_separation_overall']:.17g}" == row["min_separation"]
                and (f"{max(goal_times):.17g}" if goal_times else "nan") == row["time_to_goal"]
                and str(int(summary["body_overlap"])) == row["body_overlap"]
            )
            if not agree:
                print(f"bench: cell{i}: `run` summary disagrees with sweep row {row}",
                      file=sys.stderr)
                failed.append(f"cell{i}:run")
            w = run_outputs_work(rundir)
            total.add(Work(steps=w.steps, robot_steps=w.robot_steps, pair_steps=w.pair_steps,
                           cells=1))
            shutil.rmtree(rundir)
        return total, 1 + len(self.cells), failed


WORKLOADS = {w.name: w for w in (PresetPipeline, RingSwarm, ParamSweep)}

# Spans each workload must exercise; a zero count there is flagged.
ENGINE_SPANS = (
    "cli.main", "engine.run", "kinematics.engagement", "kinematics.propagate",
    "fields.total_force_from_engagements", "control.desired_heading",
    "control.heading_controller", "control.wheel_speeds", "scenarios.load_scenario",
)
EXPECTED_SPANS = {
    "preset_pipeline": ENGINE_SPANS + (
        "cli.cmd_run", "cli.cmd_analyze", "cli.cmd_plotdata", "cli.read_run",
        "cli.write_trajectory_csv", "cli.write_pairs_csv", "scenarios.scenario_from_dict",
        "analysis.analyze_log", "analysis.pair_lyapunov_series", "analysis.multi_lyapunov",
    ),
    "ring_swarm": ENGINE_SPANS + ("cli.cmd_run", "cli.write_trajectory_csv", "cli.write_pairs_csv"),
    "param_sweep": ENGINE_SPANS + (
        "cli.cmd_sweep", "scenarios.load_sweep", "scenarios.scenario_from_dict",
        "analysis.multi_lyapunov",
    ),
}

# ---------------------------------------------------------------------------
# Metric names and units; BENCHMARK.json lists exactly these.

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "robot_steps_per_s": "1/s",
    "pair_steps_per_s": "1/s",
    "cells_per_s": "1/s",
    "unit_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.s"] = "s"
    PER_LAYER[f"{_span}.self_s"] = "s"
PER_LAYER.update({
    "kinematics.engagement.ns_per_call": "ns",
    "engine.us_per_step": "us",
    "engine.us_per_pair_step": "us",
    "fields.triggered_frac": "ratio",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "cli.read_mb_per_s": "MB/s",
    "cli.cmd_sweep.cell_overlap": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.missing_spans": "count",
})


def end_to_end_metrics(setup: Pass, passes: list[Pass], work: Work,
                       rss_mb: float) -> dict[str, tuple[float, int]]:
    """``{name: (value, sample count)}``; throughputs divide one pass's work by
    the median pass wall."""
    wall = statistics.median(p.wall for p in passes)
    units = [u for p in passes for u in p.units]
    n = len(passes)
    return {
        "setup_s": (statistics.median(setup.units), len(setup.units)),
        "wall_s": (wall, n),
        "robot_steps_per_s": (work.robot_steps / wall, n),
        "pair_steps_per_s": (work.pair_steps / wall, n),
        "cells_per_s": (work.cells / wall, n),
        "unit_ms_p50": (1e3 * statistics.median(units), len(units)),
        "peak_rss_mb": (rss_mb, 1),
    }


def per_layer_metrics(workload: str, spans: dict[str, list[float]], n_traced: int,
                      plain: list[Pass], traced: list[Pass], work: Work,
                      absent: list[str]) -> dict[str, tuple[float, int]]:
    """Per-layer values per traced pass.  ``spans`` sums (calls, s, self_s)
    over the ``n_traced`` traced passes."""
    per = {name: [v / n_traced for v in spans.get(name, (0, 0.0, 0.0))] for name in SPAN_NAMES}
    out: dict[str, tuple[float, int]] = {}
    for name, (calls, total, own) in per.items():
        out[f"{name}.calls"] = (calls, n_traced)
        out[f"{name}.s"] = (total, n_traced)
        out[f"{name}.self_s"] = (own, n_traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    eng_calls, _, eng_self = per["kinematics.engagement"]
    run_s = per["engine.run"][1]
    write_s = per["cli.write_trajectory_csv"][1] + per["cli.write_pairs_csv"][1]
    out.update({
        "kinematics.engagement.ns_per_call": (1e9 * ratio(eng_self, eng_calls), n_traced),
        "engine.us_per_step": (1e6 * ratio(run_s, work.steps), n_traced),
        "engine.us_per_pair_step": (1e6 * ratio(run_s, work.pair_steps), n_traced),
        "fields.triggered_frac": (ratio(work.trig_pair_rows, work.pair_rows), 1),
        "cli.bytes_written": (work.bytes_written, 1),
        "cli.write_mb_per_s": (1e-6 * ratio(work.csv_bytes_written, write_s), n_traced),
        "cli.read_mb_per_s": (1e-6 * ratio(work.bytes_read, per["cli.read_run"][1]), n_traced),
        "cli.cmd_sweep.cell_overlap": (ratio(run_s, per["cli.cmd_sweep"][1]), n_traced),
        "trace.overhead_frac": (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
            - 1.0,
            min(len(plain), len(traced)),
        ),
    })
    missing = [s for s in EXPECTED_SPANS[workload] if per[s][0] == 0]
    for span in absent:
        print(f"bench: trace: binding for span {span} is absent", file=sys.stderr)
    for span in missing:
        print(f"bench: trace: span {span} recorded no calls on {workload}", file=sys.stderr)
    out["trace.missing_spans"] = (len(missing), 1)
    return out


# ---------------------------------------------------------------------------
# Entry points


def import_cli():
    """Import ``vortex_ca.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "vortex_ca" / "__init__.py").is_file():
        raise SystemExit(f"bench: no vortex_ca package under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("vortex_ca.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"bench: imported vortex_ca from {cli.__file__}, not from {SRC}")
    return cli


def probe_setup(workload: str, seed: int, fast: bool, workdir: Path) -> None:
    """Child-process body of one set-up sample: prints its raw duration and
    the calibration kernel's time before and after it."""
    before = kernel_s()
    start = clock()
    import_cli()
    WORKLOADS[workload](workdir, seed, fast)
    raw = clock() - start
    print(json.dumps([raw, before, kernel_s()]))


def measure_setup(workload: str, seed: int, fast: bool, tmp: Path) -> Pass:
    """Set-up samples, one unit each, in a Pass for its timing bookkeeping."""
    samples = Pass(tmp)
    env = {k: v for k, v in os.environ.items() if k != "VORTEX_CA_THREADS"}
    for i in range(SETUP_PROBES):
        workdir = tmp / f"probe{i}"
        workdir.mkdir()
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        if fast:
            argv.append("--fast")
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
        raw, before, after = json.loads(done.stdout.strip().splitlines()[-1])
        samples.raw_units.append(raw)
        samples.units.append(raw * KERNEL_REF_S / (0.5 * (before + after)))
        shutil.rmtree(workdir)
    return samples


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pinned(fast: bool, workload: str) -> dict[str, str]:
    pinned = json.loads(DIGESTS_PATH.read_text())
    return pinned["fast" if fast else "full"].get(workload, {})


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, fast: bool,
                  tmp: Path, pin: dict | None = None) -> dict:
    os.environ.pop("VORTEX_CA_THREADS", None)
    setup = measure_setup(workload, seed, fast, tmp)
    cls = WORKLOADS[workload]
    attempted = failed = 0

    def settle(p: Pass, baseline: dict[str, str] | None, what: str) -> None:
        nonlocal attempted, failed
        if baseline is not None:
            p.compare(baseline, what)
        attempted += len(p.ops)
        failed += len(p.failed)

    def fresh(label: str) -> Path:
        path = tmp / label
        path.mkdir()
        return path

    # Reference pass: default-seed inputs, digests against the pinned ones.
    ref = cls(fresh("ref_inputs"), DEFAULT_SEED, fast).run_pass(fresh("ref"))
    if pin is not None:
        pin[workload] = ref.digests
    settle(ref, None if pin is not None else load_pinned(fast, workload), "pinned digest")
    shutil.rmtree(ref.outdir)

    # Timed phase.
    wl = cls(fresh("inputs"), seed, fast)
    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    spans: dict[str, list[float]] = {}
    first: Pass | None = None
    deadline = clock() + seconds
    k = 0
    while clock() < deadline or not plain or (trace and not traced):
        use_trace = trace and k % 2 == 1
        if use_trace:
            tracer.install()
        try:
            p = wl.run_pass(fresh(f"pass{k}"))
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            scale = p.wall / p.raw_wall  # span times in reference seconds too
            for name, (calls, total, own) in tracer.take().items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total * scale
                acc[2] += own * scale
        (traced if use_trace else plain).append(p)
        settle(p, first.digests if first else None, "first pass")
        if first is None:
            first = p
        else:
            shutil.rmtree(p.outdir)
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        work, work_attempted, work_failed = wl.work(first)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        print(f"bench: cannot count the work of a pass: {exc!r}", file=sys.stderr)
        work, work_attempted, work_failed = Work(), 1, ["work"]
    attempted += work_attempted
    failed += len(work_failed)

    if trace:
        metrics = per_layer_metrics(workload, spans, len(traced), plain, traced, work,
                                    tracer.absent)
        names = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup, plain, work, rss_mb)
        names = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": names[m]} for m in names},
    }
    import numpy

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fast": fast, "passes": len(plain) + len(traced), "traced_passes": len(traced),
        "failed_frac": failed / attempted if attempted else 0.0,
        "samples": {m: metrics[m][1] for m in names},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(), "git_rev": git_rev(),
        "raw_s": {
            "setup_p50": statistics.median(setup.raw_units),
            "pass_p50": statistics.median(p.raw_wall for p in plain),
            "unit_p50": statistics.median(u for p in plain for u in p.raw_units),
        },
        "pass_walls": [p.wall for p in plain],
        "kernel_ref_s": KERNEL_REF_S,
        "digests": first.digests,
    }
    return {"result": result, "record": record}


def report(out: dict) -> None:
    result, record = out["result"], out["record"]
    for name, metric in result["metrics"].items():
        print(f"# {record['workload']} {name} = {metric['value']:.6g} {metric['unit']}"
              f" (n={record['samples'][name]})")
    print(f"# {record['workload']} failed_frac = {record['failed_frac']:.6g} ratio"
          f" ({result['failed']}/{result['attempted']} operations)")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def check_schema(out: dict, trace: bool) -> list[str]:
    """Problems with one result against BENCHMARK.json; timings are not judged."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = out["result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"not correct: {result['failed']}/{result['attempted']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    if not trace:
        zero = [name for name, m in result["metrics"].items() if m["value"] <= 0]
        if zero:
            problems.append(f"end-to-end metrics not positive: {zero}")
    elif result["metrics"]["trace.missing_spans"]["value"]:
        problems.append("expected spans recorded no calls")
    return problems


def fast_check(workloads: list[str], tmp: Path) -> int:
    problems = []
    for workload in workloads:
        for trace in (False, True):
            sub = tmp / f"{workload}_{int(trace)}"
            sub.mkdir()
            out = run_benchmark(workload, 1, 0.5, trace, True, sub)
            report(out)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in check_schema(out, trace)]
    for problem in problems:
        print(f"bench: fast check: {problem}", file=sys.stderr)
    print("# fast check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="tiny sizes, both trace modes; check the result schema")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the default-seed outputs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.fast, Path(args.workdir))
        return 0
    import_cli()
    BUILD_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="vortex_ca_bench_", dir=BUILD_DIR))
    try:
        if args.pin:
            pinned = {}
            for fast in (False, True):
                pin: dict = {}
                for workload in WORKLOADS:
                    sub = tmp / f"pin_{workload}_{int(fast)}"
                    sub.mkdir()
                    run_benchmark(workload, DEFAULT_SEED, 0.0, False, fast, sub, pin=pin)
                pinned["fast" if fast else "full"] = pin
            DIGESTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            return 0
        if args.fast:
            return fast_check([args.workload] if args.workload else list(WORKLOADS), tmp)
        if args.workload:
            report(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                 False, tmp))
            return 0
        for workload in WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            if subprocess.run(argv, cwd=ROOT, check=False).returncode != 0:
                return 1
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

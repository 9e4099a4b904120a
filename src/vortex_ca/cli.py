"""Command-line interface: run scenarios, sweep parameters, analyze runs, and
export plot-ready data.  All numeric CSV output uses 17 significant digits so
determinism checks stay bit-exact through the text layer.

Exit codes: 0 clean, 1 error, 2 body overlap occurred.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import analysis
from .analysis import RegimeKind, analyze_log, multi_lyapunov, pair_lyapunov_series
from .engine import (
    EVENT_GOAL,
    EVENT_OVERLAP,
    Event,
    PairTrace,
    RobotTrace,
    ScenarioError,
    TrajectoryLog,
    min_separation,
    run,
)
from .kinematics import CollisionSingularity, SimulationFault
from .scenarios import (
    load_scenario,
    load_sweep,
    scenario_from_dict,
    scenario_to_dict,
    set_by_path,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OVERLAP = 2

REGIME_NAMES = {kind.value: kind for kind in RegimeKind}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _pair_tag(key: tuple[int, int]) -> str:
    return f"p{key[0]}_{key[1]}"


# ---------------------------------------------------------------------------
# Run output writers / readers


def write_trajectory_csv(log: TrajectoryLog, path: str) -> None:
    ids = log.robot_ids()
    header = ["t"]
    for rid in ids:
        header += [
            f"r{rid}_{col}"
            for col in ("x", "y", "phi", "omega", "fx", "fy", "repfx", "repfy", "active")
        ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            for rid in ids:
                trace = log.robots[rid]
                row += [
                    _fmt(trace.x[k]),
                    _fmt(trace.y[k]),
                    _fmt(trace.phi[k]),
                    _fmt(trace.omega[k]),
                    _fmt(trace.fx[k]),
                    _fmt(trace.fy[k]),
                    _fmt(trace.rep_fx[k]),
                    _fmt(trace.rep_fy[k]),
                    "1" if trace.active[k] else "0",
                ]
            handle.write(",".join(row) + "\n")


def write_pairs_csv(log: TrajectoryLog, path: str) -> None:
    keys = log.pair_ids()
    header = ["t"]
    for key in keys:
        tag = _pair_tag(key)
        header += [f"{tag}_{col}" for col in ("r", "theta", "vr", "vth", "vrel", "trig")]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            for key in keys:
                trace = log.pairs[key]
                row += [
                    _fmt(trace.r[k]),
                    _fmt(trace.theta[k]),
                    _fmt(trace.vr[k]),
                    _fmt(trace.vth[k]),
                    _fmt(trace.vrel[k]),
                    "1" if trace.triggered[k] else "0",
                ]
            handle.write(",".join(row) + "\n")


def write_events_csv(log: TrajectoryLog, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,kind,ids\n")
        for event in log.events:
            ids = ":".join(str(i) for i in event.ids)
            handle.write(f"{_fmt(event.t)},{event.kind},{ids}\n")


def _goal_times(log: TrajectoryLog) -> dict[str, float | None]:
    times: dict[str, float | None] = {str(rid): None for rid in log.robot_ids()}
    for event in log.events:
        if event.kind == EVENT_GOAL:
            times[str(event.ids[0])] = event.t
    return times


def run_summary(log: TrajectoryLog) -> dict[str, Any]:
    overlap = log.has_event(EVENT_OVERLAP)
    separations = {f"{i}-{j}": min_separation(log, i, j) for (i, j) in log.pair_ids()}
    return {
        "scenario": scenario_to_dict(log.scenario),
        "exit_code": EXIT_OVERLAP if overlap else EXIT_OK,
        "body_overlap": overlap,
        "t_final": log.t[-1] if log.t else 0.0,
        "min_separation": separations,
        "min_separation_overall": min(separations.values()) if separations else None,
        "goal_times": _goal_times(log),
        "n_events": len(log.events),
    }


def write_run_outputs(log: TrajectoryLog, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    write_trajectory_csv(log, os.path.join(outdir, "trajectory.csv"))
    write_pairs_csv(log, os.path.join(outdir, "pairs.csv"))
    write_events_csv(log, os.path.join(outdir, "events.csv"))
    summary = run_summary(log)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return int(summary["exit_code"])


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def read_run(outdir: str) -> TrajectoryLog:
    """Reconstruct a TrajectoryLog from a run output directory."""
    with open(os.path.join(outdir, "summary.json"), "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    scenario = scenario_from_dict(summary["scenario"])
    log = TrajectoryLog(scenario=scenario)

    header, rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    column = {name: idx for idx, name in enumerate(header)}
    ids = sorted(r.id for r in scenario.robots)
    for rid in ids:
        log.robots[rid] = RobotTrace()
    for row in rows:
        log.t.append(float(row[0]))
        for rid in ids:
            trace = log.robots[rid]
            trace.x.append(float(row[column[f"r{rid}_x"]]))
            trace.y.append(float(row[column[f"r{rid}_y"]]))
            trace.phi.append(float(row[column[f"r{rid}_phi"]]))
            trace.omega.append(float(row[column[f"r{rid}_omega"]]))
            trace.fx.append(float(row[column[f"r{rid}_fx"]]))
            trace.fy.append(float(row[column[f"r{rid}_fy"]]))
            trace.rep_fx.append(float(row[column[f"r{rid}_repfx"]]))
            trace.rep_fy.append(float(row[column[f"r{rid}_repfy"]]))
            trace.active.append(row[column[f"r{rid}_active"]] == "1")

    header, rows = _read_csv(os.path.join(outdir, "pairs.csv"))
    column = {name: idx for idx, name in enumerate(header)}
    keys = [(ids[a], ids[b]) for a in range(len(ids)) for b in range(a + 1, len(ids))]
    for key in keys:
        log.pairs[key] = PairTrace()
    for row in rows:
        for key in keys:
            tag = _pair_tag(key)
            trace = log.pairs[key]
            trace.r.append(float(row[column[f"{tag}_r"]]))
            trace.theta.append(float(row[column[f"{tag}_theta"]]))
            trace.vr.append(float(row[column[f"{tag}_vr"]]))
            trace.vth.append(float(row[column[f"{tag}_vth"]]))
            trace.vrel.append(float(row[column[f"{tag}_vrel"]]))
            trace.triggered.append(row[column[f"{tag}_trig"]] == "1")

    events_path = os.path.join(outdir, "events.csv")
    if os.path.exists(events_path):
        _, rows = _read_csv(events_path)
        for row in rows:
            ids_tuple = tuple(int(token) for token in row[2].split(":")) if row[2] else ()
            log.events.append(Event(float(row[0]), row[1], ids_tuple))
    return log


# ---------------------------------------------------------------------------
# Commands


def cmd_run(scenario_path: str, outdir: str) -> int:
    try:
        scenario = load_scenario(scenario_path)
        log = run(scenario)
        return write_run_outputs(log, outdir)
    except ScenarioError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except (CollisionSingularity, SimulationFault) as exc:
        print(f"error: simulation aborted: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc.filename or outdir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_ERROR


def _cell_metrics(log: TrajectoryLog, metrics: Sequence[str]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for metric in metrics:
        if metric == "min_separation":
            seps = [min_separation(log, i, j) for (i, j) in log.pair_ids()]
            values[metric] = min(seps) if seps else math.nan
        elif metric == "time_to_goal":
            times = [t for t in _goal_times(log).values() if t is not None]
            values[metric] = max(times) if times else math.nan
        elif metric == "body_overlap":
            values[metric] = int(log.has_event(EVENT_OVERLAP))
        elif metric == "max_lyap_derivative":
            series = multi_lyapunov(log, log.scenario.params)
            values[metric] = max((s.derivative_analytic for s in series), default=math.nan)
    return values


def cmd_sweep(spec_path: str, outdir: str) -> int:
    try:
        spec = load_sweep(spec_path)
        base_dict = scenario_to_dict(load_scenario(spec.base_scenario))
    except ScenarioError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR

    axis_paths = [path for path, _ in spec.axes]
    cells = list(itertools.product(*(values for _, values in spec.axes)))

    def run_cell(cell_values: tuple[Any, ...]) -> dict[str, Any]:
        row: dict[str, Any] = dict(zip(axis_paths, cell_values))
        try:
            cell_dict = json.loads(json.dumps(base_dict))
            for path, value in zip(axis_paths, cell_values):
                set_by_path(cell_dict, path, value)
            log = run(scenario_from_dict(cell_dict))
            row.update(_cell_metrics(log, spec.metrics))
            row["error"] = ""
        except Exception as exc:  # cell errors recorded, sweep continues
            for metric in spec.metrics:
                row.setdefault(metric, math.nan)
            row["error"] = str(exc)
        return row

    rows = [run_cell(cell) for cell in cells]

    os.makedirs(outdir, exist_ok=True)
    header = axis_paths + list(spec.metrics) + ["error"]
    with open(os.path.join(outdir, "results.csv"), "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            cells_out = []
            for name in header:
                value = row.get(name, "")
                if isinstance(value, float):
                    cells_out.append(_fmt(value))
                else:
                    cells_out.append(str(value))
            handle.write(",".join(cells_out) + "\n")
    return EXIT_OK


def _write_lyapunov_csv(reports, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,value,d_analytic,d_numeric,regime\n")
        for report in reports:
            handle.write(
                f"{_fmt(report.t)},{_fmt(report.value)},{_fmt(report.derivative_analytic)},"
                f"{_fmt(report.derivative_numeric)},{report.regime.value}\n"
            )


def _attractive_only_lyapunov(log: TrajectoryLog):
    rid = log.robot_ids()[0]
    robot = next(r for r in log.scenario.robots if r.id == rid)
    r, _, vr, vth = analysis.goal_engagement_series(log, rid)
    speeds = [robot.speed if a else 0.0 for a in log.robots[rid].active]
    values = []
    derivs = []
    for k in range(len(log.t)):
        value, deriv = analysis.lyapunov(
            RegimeKind.ATTRACTIVE_ONLY, float(r[k]), float(vr[k]), float(vth[k]),
            speeds[k], log.scenario.params,
        )
        values.append(value)
        derivs.append(deriv)
    numeric = np.gradient(np.asarray(values), np.asarray(log.t)) if len(log.t) > 1 else [0.0]
    return [
        analysis.LyapunovReport(
            t=log.t[k],
            value=values[k],
            derivative_analytic=derivs[k],
            derivative_numeric=float(numeric[k]),
            regime=RegimeKind.ATTRACTIVE_ONLY,
        )
        for k in range(len(log.t))
    ]


def cmd_analyze(rundir: str, regime_name: str) -> int:
    if regime_name not in REGIME_NAMES:
        print(
            f"error: unknown regime {regime_name!r} (known: {', '.join(sorted(REGIME_NAMES))})",
            file=sys.stderr,
        )
        return EXIT_ERROR
    regime = REGIME_NAMES[regime_name]
    try:
        log = read_run(rundir)
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        print(f"error: cannot read run directory {rundir}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    params = log.scenario.params
    try:
        checks = analyze_log(log, regime, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if regime is RegimeKind.ATTRACTIVE_ONLY:
        reports = _attractive_only_lyapunov(log)
    elif regime is RegimeKind.MULTI_ROBOT:
        reports = multi_lyapunov(log, params)
    else:
        reports = pair_lyapunov_series(log, log.pair_ids()[0], regime, params)
    _write_lyapunov_csv(reports, os.path.join(rundir, "lyapunov.csv"))

    lines = [f"{check.status} {check.name}: {check.detail}" for check in checks]
    with open(os.path.join(rundir, "verification.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_ERROR if any(check.failed for check in checks) else EXIT_OK


def cmd_plotdata(rundir: str) -> int:
    try:
        log = read_run(rundir)
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        print(f"error: cannot read run directory {rundir}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    ids = log.robot_ids()
    speeds = {r.id: r.speed for r in log.scenario.robots}

    path = os.path.join(rundir, "xy_paths.csv")
    with open(path, "w", encoding="utf-8") as handle:
        header = ["t"] + [f"r{rid}_{c}" for rid in ids for c in ("x", "y")]
        handle.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            for rid in ids:
                row += [_fmt(log.robots[rid].x[k]), _fmt(log.robots[rid].y[k])]
            handle.write(",".join(row) + "\n")

    keys = log.pair_ids()
    path = os.path.join(rundir, "vrvth.csv")
    with open(path, "w", encoding="utf-8") as handle:
        header = ["t"]
        for key in keys:
            tag = _pair_tag(key)
            header += [f"{tag}_vr_norm", f"{tag}_vth_norm", f"{tag}_trig"]
        handle.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            for key in keys:
                scale = max(speeds[key[0]], speeds[key[1]], 1e-30)
                trace = log.pairs[key]
                row += [
                    _fmt(trace.vr[k] / scale),
                    _fmt(trace.vth[k] / scale),
                    "1" if trace.triggered[k] else "0",
                ]
            handle.write(",".join(row) + "\n")

    path = os.path.join(rundir, "separation.csv")
    with open(path, "w", encoding="utf-8") as handle:
        header = ["t"] + [f"{_pair_tag(key)}_r" for key in keys]
        handle.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])] + [_fmt(log.pairs[key].r[k]) for key in keys]
            handle.write(",".join(row) + "\n")
    return EXIT_OK


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortex-ca",
        description="Deterministic vortex potential field collision-avoidance simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file or preset")
    p_run.add_argument("scenario", help="scenario JSON path or preset name")
    p_run.add_argument("-o", "--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("spec", help="sweep spec JSON path")
    p_sweep.add_argument("-o", "--out", required=True, help="output directory")

    p_analyze = sub.add_parser("analyze", help="verify invariants over a finished run")
    p_analyze.add_argument("rundir", help="run output directory")
    p_analyze.add_argument(
        "--regime",
        required=True,
        help="engagement regime: " + ", ".join(sorted(REGIME_NAMES)),
    )

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV panels for a run")
    p_plot.add_argument("rundir", help="run output directory")

    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "run":
        return cmd_run(args.scenario, args.out)
    if args.command == "sweep":
        return cmd_sweep(args.spec, args.out)
    if args.command == "analyze":
        return cmd_analyze(args.rundir, args.regime)
    if args.command == "plotdata":
        return cmd_plotdata(args.rundir)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

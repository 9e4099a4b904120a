"""Command-line interface: run scenarios, sweep parameters, analyze runs, and
export plot-ready data.  All numeric CSV output uses 17 significant digits so
determinism checks stay bit-exact through the text layer.

``sweep`` deals its cells round-robin to k processes: the parent runs cells
0, k, 2k, ... and each forked child w runs cells w, w + k, ..., sending each
row's text back down its own pipe.  The parent writes the rows in cell
order, so results.csv does not depend on k.  k is 1 unless forking is safe
(the process has one thread) and the sweep's estimated work reaches
``_FORK_MIN_WORK``; then it is one per usable CPU, never more than cells.
A cell builds no trajectory log: ``fold_metrics`` folds its metrics over
the recorded steps as the run records them.

Exit codes: 0 clean, 1 error, 2 body overlap occurred.  ``main`` owns the
mapping from failure to exit code: the commands raise, and ``main`` turns a
ScenarioError, an aborted simulation, an OSError or a ``CommandError`` (an
unknown regime, an unreadable run directory, a run ``analyze`` cannot
measure) into ``error:`` lines on stderr and exit 1.  A usage error exits 1
too, after argparse's usage text.  Only a sweep cell's error stays in its row.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, NoReturn, Sequence,
)

from .engine import (
    EVENT_GOAL,
    EVENT_OVERLAP,
    PAIR_COLUMNS,
    ROBOT_COLUMNS,
    Column,
    Event,
    PairTrace,
    RobotTrace,
    ScenarioError,
    TrajectoryLog,
    min_separation,
    run,
)
from .kinematics import CollisionSingularity, RegimeKind, SimulationFault
from .scenarios import (
    load_scenario,
    load_sweep,
    read_json,
    scenario_from_dict,
    scenario_to_dict,
    set_by_path,
)

if TYPE_CHECKING:
    from .analysis import CheckResult, LyapunovSeries
    from .engine import Scenario
    from .fields import PFParams
    from .scenarios import SweepSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OVERLAP = 2

REGIME_NAMES = {kind.value: kind for kind in RegimeKind}


def _pair_tag(key: tuple[int, int]) -> str:
    return f"p{key[0]}_{key[1]}"


# ---------------------------------------------------------------------------
# Run output writers / readers


FLOAT = "%.17g"  # prints exactly what f"{value:.17g}" prints
FLAG = "%d"


class RunFormatError(ValueError):
    """A run directory file does not follow the documented format."""


class CommandError(Exception):
    """A failure with a text of its own; ``main`` prints it as one ``error:`` line."""


def _write_table(path: str, columns: Sequence[tuple[str, str, Sequence[Any]]]) -> None:
    """Write a CSV from (header name, %-format code, values) columns, one %-operation per row."""
    row = ",".join(code for _, code, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(name for name, _, _ in columns) + "\n")
        handle.writelines(row % cells for cells in zip(*(values for _, _, values in columns)))


def _traced_columns(
    tag: str, trace: Any, columns: Sequence[Column], code: str = ""
) -> list[tuple[str, str, Any]]:
    """Writer columns of one robot or pair, in %-format ``code`` or else the column's own."""
    return [(f"{tag}_{col.suffix}", code or (FLAG if col.flag else FLOAT), getattr(trace, col.attr))
            for col in columns]


def write_trajectory_csv(log: TrajectoryLog, path: str) -> None:
    columns = [("t", FLOAT, log.t)]
    for rid in log.robot_ids():
        columns += _traced_columns(f"r{rid}", log.robots[rid], ROBOT_COLUMNS)
    _write_table(path, columns)


def write_pairs_csv(log: TrajectoryLog, path: str) -> None:
    columns = [("t", FLOAT, log.t)]
    for key in log.pair_ids():
        columns += _traced_columns(_pair_tag(key), log.pairs[key], PAIR_COLUMNS)
    _write_table(path, columns)


def write_events_csv(log: TrajectoryLog, path: str) -> None:
    _write_table(path, [
        ("t", FLOAT, [event.t for event in log.events]),
        ("kind", "%s", [event.kind for event in log.events]),
        ("ids", "%s", [":".join(str(i) for i in event.ids) for event in log.events]),
    ])


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


def _read_table(path: str) -> dict[str, list[str]]:
    """Cell strings of a CSV file by header name, one list per column.

    Blank lines are skipped; every other line must have the header's cell count.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise RunFormatError(f"{path}: no header line")
    header = rows.pop(0).split(",")
    width = len(header)
    if len(set(header)) != width:
        raise RunFormatError(f"{path}: duplicate column names in the header")
    commas = list(map(str.count, rows, itertools.repeat(",")))
    if commas.count(width - 1) != len(rows):
        # the first ragged row: an equal earlier line would be ragged too, so index() is exact
        bad = next(row for row, n in zip(rows, commas) if n != width - 1)
        raise RunFormatError(
            f"{path}: line {lines.index(bad) + 1} has {bad.count(',') + 1} cells, "
            f"the header has {width}"
        )
    body = ",".join(rows)
    del lines, rows  # keep one copy of the text while it is split
    cells = body.split(",") if body else []
    return {name: cells[j::width] for j, name in enumerate(header)}


_parse_flag = {"0": False, "1": True}.__getitem__  # KeyError on anything but 0 or 1


def _parse_ids(cell: str) -> tuple[int, ...]:
    return tuple(map(int, cell.split(":"))) if cell else ()


def _cells(path: str, table: dict, name: str) -> list[str]:
    """The cell strings of one column of ``table``."""
    if name not in table:
        raise RunFormatError(f"{path}: missing column {name!r}")
    return table[name]


def _column(path: str, table: dict, name: str, parse: Callable[[str], Any] = float) -> list:
    """Parse every cell of one column of ``table``."""
    try:
        return list(map(parse, _cells(path, table, name)))
    except (KeyError, ValueError) as exc:
        raise RunFormatError(f"{path}: column {name!r}: bad cell ({exc})") from None


def _trace_fields(
    path: str, table: dict, tag: str, columns: Sequence[Column],
    parse: Collection[str] | None, text: Collection[str],
) -> dict:
    """Trace attributes from ``table`` as ``read_run`` documents them."""
    fields = dict.fromkeys(col.attr for col in columns)  # None where not read
    for col in columns:
        name = f"{tag}_{col.suffix}"
        cells = _cells(path, table, name)  # present even when it is not read
        if col.attr in text or parse is None or col.attr in parse:
            values = _column(path, table, name, _parse_flag if col.flag else float)
            fields[col.attr] = cells if col.attr in text else values
    return fields


def read_run(
    outdir: str, parse: Collection[str] | None = None, text: Collection[str] = ()
) -> TrajectoryLog:
    """Reconstruct a TrajectoryLog from a run output directory; a file that does not
    follow docs/formats.md raises RunFormatError naming the file and the line or column.

    ``parse`` names the trace attributes (RobotTrace and PairTrace fields) to
    parse, all of them when None.  An attribute or ``t`` named in ``text``
    holds its cell strings instead, after they are checked to parse.  Every
    other trace attribute is None, and its cells are not checked.  ``t`` is
    always read and the events always parsed.
    """
    path = os.path.join(outdir, "summary.json")
    try:
        summary = read_json(path)
    except ScenarioError as exc:  # not JSON, not UTF-8, or nested too deep
        raise RunFormatError(str(exc)) from None
    if not isinstance(summary, dict) or not isinstance(summary.get("scenario"), dict):
        raise RunFormatError(f"{path}: expected an object with a 'scenario' object")
    try:
        scenario = scenario_from_dict(summary["scenario"])
    except ScenarioError as exc:
        raise RunFormatError(f"{path}: scenario: {exc}") from None
    log = TrajectoryLog(scenario=scenario)
    ids = sorted(r.id for r in scenario.robots)

    path = os.path.join(outdir, "trajectory.csv")
    table = _read_table(path)
    log.t = _column(path, table, "t")
    if "t" in text:
        log.t = table["t"]
    if not log.t:  # the initial state is always recorded
        raise RunFormatError(f"{path}: no data rows")
    for rid in ids:
        log.robots[rid] = RobotTrace(
            **_trace_fields(path, table, f"r{rid}", ROBOT_COLUMNS, parse, text)
        )
    t_cells = table["t"]
    del table  # release this file's cells before the next one is read

    path = os.path.join(outdir, "pairs.csv")
    table = _read_table(path)
    if table.get("t") != t_cells:
        raise RunFormatError(f"{path}: column 't' differs from trajectory.csv")
    for key in itertools.combinations(ids, 2):
        log.pairs[key] = PairTrace(
            **_trace_fields(path, table, _pair_tag(key), PAIR_COLUMNS, parse, text)
        )

    path = os.path.join(outdir, "events.csv")
    if os.path.exists(path):
        table = _read_table(path)
        log.events = list(map(
            Event,
            _column(path, table, "t"),
            _column(path, table, "kind", str),
            _column(path, table, "ids", _parse_ids),
        ))
    return log


# ---------------------------------------------------------------------------
# Module-level bindings of three analysis functions, which the commands call
# and benchmarks/tracer.py wraps for its spans.  Each imports analysis when
# called: this module does not, so ``run`` and ``plotdata`` never load it.


def analyze_log(
    log: TrajectoryLog, regime: RegimeKind, params: PFParams, series: LyapunovSeries
) -> list[CheckResult]:
    from . import analysis

    return analysis.analyze_log(log, regime, params, series)


def pair_lyapunov_series(
    log: TrajectoryLog, pair: tuple[int, int], regime: RegimeKind, params: PFParams
) -> LyapunovSeries:
    from . import analysis

    return analysis.pair_lyapunov_series(log, pair, regime, params)


def multi_lyapunov(log: TrajectoryLog, params: PFParams) -> LyapunovSeries:
    from . import analysis

    return analysis.multi_lyapunov(log, params)


# ---------------------------------------------------------------------------
# Commands


def cmd_run(scenario_path: str, outdir: str) -> int:
    return write_run_outputs(run(load_scenario(scenario_path)), outdir)


def fold_metrics(scenario: Scenario, metrics: Sequence[str]) -> dict[str, Any]:
    """A sweep cell's metrics: ``scenario`` run with a ``MetricsFold``
    recorder, whose module only sweeps import."""
    from .sweep_metrics import MetricsFold

    return run(scenario, MetricsFold(scenario, metrics))


def _sweep_cell(value: Any) -> str:
    """One results.csv cell, quoted as RFC 4180 says only where its text needs it."""
    text = FLOAT % value if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: Estimated work (cells x the base scenario's steps x its robot pairs, at
#: least 1) from which a sweep deals its cells to forked workers; below it
#: the parent runs every cell.  Measured crossover of 1 and 2 workers on
#: 2-robot cells (2 CPUs, CPython 3.11), where a child costs the sweep
#: about 4-5 ms: about 1,000 pair-steps with the child on a CPU of its own,
#: 2,000 to 3,200 when the scheduler places it.
_FORK_MIN_WORK = 4_000


def _sweep_workers(spec: SweepSpec, n_cells: int) -> int:
    """How many processes run the sweep's cells: one per usable CPU, never
    more than cells, where forking is safe (``os.fork`` and
    ``os.sched_getaffinity`` exist and this process has one thread) and the
    work reaches ``_FORK_MIN_WORK``; otherwise 1."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:  # threading.active_count() misses native threads, such as BLAS's
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    base = scenario_from_dict(spec.base)
    n = len(base.robots)
    if n_cells * base.n_steps() * max(n * (n - 1) // 2, 1) < _FORK_MIN_WORK:
        return 1
    return min(len(os.sched_getaffinity(0)), n_cells)


def _write_rows(
    handle: IO[str], cells: Iterator[tuple[Any, ...]],
    row_text: Callable[[tuple[Any, ...]], str], k: int,
) -> None:
    """Write every cell's row text to ``handle`` in cell order, once it and
    every earlier row are done.  Cell i runs in worker i % k: the parent is
    worker 0, and each forked child sends its rows as JSON strings, one a
    line, down its own pipe.  The parent runs the remaining cells of a child
    whose pipe ends early, and of one it could not fork."""
    pids: list[int] = []
    pipes: list[IO[str] | None] = [None]  # per worker; None: the parent runs its cells
    try:
        if k > 1:  # a child inherits these buffers and must find them empty
            for stream in (sys.stdout, sys.stderr, handle):
                stream.flush()
        for worker in range(1, k):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read_fd)
                os.close(write_fd)
                pipes.append(None)
                continue
            if pid == 0:
                _sweep_child(cells, row_text, worker, k, write_fd,
                             [read_fd] + [pipe.fileno() for pipe in pipes if pipe])
            pids.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd, encoding="ascii"))
        for i, cell in enumerate(cells):
            pipe = pipes[i % k]
            line = pipe.readline() if pipe else ""  # a dead child's pipe ends early
            handle.write(json.loads(line) if line.endswith("\n") else row_text(cell))
    except BaseException:
        import signal  # only this path uses it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            if pipe:
                pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _sweep_child(
    cells: Iterator[tuple[Any, ...]], row_text: Callable[[tuple[Any, ...]], str],
    worker: int, k: int, write_fd: int, read_fds: list[int],
) -> NoReturn:
    """A forked sweep worker: send the rows of cells worker, worker + k, ...
    and end the process.  It never returns into the caller's frames, and
    never flushes the buffers it inherited."""
    status = 1
    try:
        for fd in read_fds:  # a pipe's write end must see a dead parent
            os.close(fd)
        with open(write_fd, "w", encoding="ascii") as pipe:
            for cell in itertools.islice(cells, worker, None, k):
                pipe.write(json.dumps(row_text(cell)) + "\n")
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def cmd_sweep(spec_path: str, outdir: str) -> int:
    spec = load_sweep(spec_path)
    axis_paths = [path for path, _ in spec.axes]
    header = axis_paths + list(spec.metrics) + ["error"]

    def row_text(cell_values: tuple[Any, ...]) -> str:
        row: dict[str, Any] = dict(zip(axis_paths, cell_values))
        try:
            cell_dict = json.loads(json.dumps(spec.base))
            for path, value in zip(axis_paths, cell_values):
                set_by_path(cell_dict, path, value)
            row.update(fold_metrics(scenario_from_dict(cell_dict), spec.metrics))
            row["error"] = ""
        except Exception as exc:  # cell errors recorded, sweep continues
            for metric in spec.metrics:
                row.setdefault(metric, math.nan)
            row["error"] = str(exc)
        return ",".join(_sweep_cell(row.get(name, "")) for name in header) + "\n"

    # The output is opened before the first cell runs.
    n_cells = math.prod(len(values) for _, values in spec.axes)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(_sweep_cell, header)) + "\n")
        _write_rows(handle, itertools.product(*(values for _, values in spec.axes)),
                    row_text, _sweep_workers(spec, n_cells))
    return EXIT_OK


def _write_lyapunov_csv(series: LyapunovSeries, path: str) -> None:
    _write_table(path, [
        ("t", FLOAT, series.t),
        ("value", FLOAT, series.value),
        ("d_analytic", FLOAT, series.derivative_analytic),
        ("d_numeric", FLOAT, series.derivative_numeric),
        ("regime", "%s", [series.regime.value] * len(series.t)),
    ])


def _read_run_or_fail(
    rundir: str, parse: Collection[str], text: Collection[str] = ()
) -> TrajectoryLog:
    try:
        return read_run(rundir, parse, text)
    except (OSError, ValueError) as exc:  # RunFormatError, ScenarioError, bad JSON or UTF-8
        raise CommandError(f"cannot read run directory {rundir}: {exc}") from None


def regime_lyapunov(log: TrajectoryLog, regime: RegimeKind) -> LyapunovSeries:
    """The Lyapunov series ``analyze`` writes to lyapunov.csv for the regime."""
    from . import analysis

    params = log.scenario.params
    if regime is RegimeKind.ATTRACTIVE_ONLY:
        return analysis.attractive_only_lyapunov(log)
    if regime is RegimeKind.MULTI_ROBOT:
        return multi_lyapunov(log, params)
    return pair_lyapunov_series(log, log.pair_ids()[0], regime, params)


def cmd_analyze(rundir: str, regime_name: str) -> int:
    if regime_name not in REGIME_NAMES:
        raise CommandError(
            f"unknown regime {regime_name!r} (known: {', '.join(sorted(REGIME_NAMES))})"
        )
    from . import analysis

    regime = REGIME_NAMES[regime_name]
    log = _read_run_or_fail(rundir, analysis.REGIME_COLUMNS[regime])
    try:
        analysis.require_regime(log, regime)
        series = regime_lyapunov(log, regime)
        checks = analyze_log(log, regime, log.scenario.params, series)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    except ArithmeticError as exc:  # a cell beyond the range of a check's formula
        raise CommandError(f"cannot analyze {rundir}: {exc!r}") from None
    _write_lyapunov_csv(series, os.path.join(rundir, "lyapunov.csv"))

    lines = [f"{check.status} {check.name}: {check.detail}" for check in checks]
    with open(os.path.join(rundir, "verification.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_ERROR if any(check.failed for check in checks) else EXIT_OK


# plotdata re-formats only the normalized speeds.  It copies the cells of the
# other panel columns as read_run checked them, since '%.17g' % float(cell)
# gives back every cell the writers produce.
PLOT_PARSED = ("vr", "vth")
PLOT_COPIED = ("t", "x", "y", "r", "triggered")
TEXT = "%s"


def cmd_plotdata(rundir: str) -> int:
    log = _read_run_or_fail(rundir, PLOT_PARSED, PLOT_COPIED)
    xy = ROBOT_COLUMNS[:2]
    r, _, vr, vth, _, trig = PAIR_COLUMNS
    speeds = {robot.id: robot.speed for robot in log.scenario.robots}
    t_column = ("t", TEXT, log.t)
    paths, vrvth, separation = [t_column], [t_column], [t_column]
    for rid in log.robot_ids():
        paths += _traced_columns(f"r{rid}", log.robots[rid], xy, TEXT)
    for key in log.pair_ids():
        tag, trace = _pair_tag(key), log.pairs[key]
        scale = max(speeds[key[0]], speeds[key[1]], 1e-30)
        for col in (vr, vth):
            normed = [v / scale for v in getattr(trace, col.attr)]
            vrvth.append((f"{tag}_{col.suffix}_norm", FLOAT, normed))
        vrvth += _traced_columns(tag, trace, [trig], TEXT)
        separation += _traced_columns(tag, trace, [r], TEXT)
    _write_table(os.path.join(rundir, "xy_paths.csv"), paths)
    _write_table(os.path.join(rundir, "vrvth.csv"), vrvth)
    _write_table(os.path.join(rundir, "separation.csv"), separation)
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

    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means an overlap here
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.spec, args.out)
        if args.command == "analyze":
            return cmd_analyze(args.rundir, args.regime)
        return cmd_plotdata(args.rundir)
    except ScenarioError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (CollisionSingularity, SimulationFault) as exc:
        print(f"error: simulation aborted: {exc}", file=sys.stderr)
    except OSError as exc:  # an input or output the command cannot open or write
        directory = args.out if args.command in ("run", "sweep") else args.rundir
        print(f"error: {exc.filename or directory}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

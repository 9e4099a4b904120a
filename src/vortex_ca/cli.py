"""Command-line interface: run scenarios, sweep parameters, analyze runs, and
export plot-ready data.  All numeric CSV output uses 17 significant digits so
determinism checks stay bit-exact through the text layer.

``forks`` holds every fork and pipe of both commands, ``cli`` the run
files' writers, stated once for the serial writers and ``run``'s forked
writer (``RUN_CSVS``, ``run_texts``, ``summary_columns``), and ``rundir``
their reader; each places a robot's or pair's column by the engine's run
layout (``robot_columns``, ``pair_columns``).  ``_processes`` decides how
many processes a job uses; ``forks`` is imported only for more than one.
A ``sweep`` cell builds no trajectory log: ``fold_metrics`` folds its
metrics over the recorded steps as the run records them.

``run`` forks one writer before the first step where ``_processes`` lets it
(``Scenario.fewest_steps`` bounds the values the run records) and
trajectory.csv and pairs.csv can be staged.  The child formats them while
the parent simulates (``forks.RunWriter``).  The files are byte-identical
either way: where a writer cannot start, the serial writers write the
files after the run, and where it dies or meets an OSError, the scenario
runs again and the serial writers write them.  A run that aborts leaves no
file and no directory it made.

``Staged`` is the one rule for an output written beside its target and put
in place once the work is done: ``run``'s forked CSVs and ``plotdata``'s
panels.  It decides before the work whether the outputs can be staged;
where they cannot, ``run`` writes its CSVs after the run and ``plotdata``
its panels after the read.

Exit codes: 0 clean, 1 error, 2 body overlap occurred.  ``main`` owns the
mapping from failure to exit code: the commands raise, and ``main`` turns a
ScenarioError, an aborted simulation, an OSError or a ``CommandError`` (an
unknown regime, an unreadable run directory, a run ``analyze`` cannot
measure) into ``error:`` lines on stderr and exit 1.  A usage error exits 1
too, after argparse's usage text.  Only a sweep cell's error stays in its row.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
from typing import IO, TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Sequence

from . import engine
from .engine import (
    EVENT_GOAL,
    EVENT_OVERLAP,
    ScenarioError,
    TrajectoryLog,
    min_separation,
    pair_columns,
    robot_columns,
    run,
)
from .kinematics import RegimeKind, SimulationFault
from .scenarios import load_scenario, read_json, scenario_from_dict, scenario_to_dict

if TYPE_CHECKING:
    from .analysis import CheckResult, LyapunovSeries
    from .engine import Column, Scenario
    from .sweep_metrics import SweepSpec

    # A CSV's (header name, %-format code, values) columns.
    _Columns = Sequence[tuple[str, str, Sequence[Any]]]
    _Layout = Iterable[tuple[str, Column, Any]]  # engine.robot_columns, pair_columns

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OVERLAP = 2

REGIME_NAMES = {kind.value: kind for kind in RegimeKind}


# ---------------------------------------------------------------------------
# Run output writers


FLOAT = "%.17g"  # prints exactly what f"{value:.17g}" prints
FLAG = "%d"


class RunFormatError(ValueError):
    """A run directory file does not follow the documented format."""


class CommandError(Exception):
    """A failure with a text of its own; ``main`` prints it as one ``error:`` line."""


def table_rows(columns: _Columns) -> Iterator[str]:
    """The text lines of the columns' rows, one %-operation per row."""
    row = ",".join(code for _, code, _ in columns) + "\n"
    return (row % cells for cells in zip(*(values for _, _, values in columns)))


def table_text(columns: _Columns) -> Iterator[Iterable[str]]:
    """A CSV's header line, and then at each resumption the lines of the
    rows the columns' lists hold by then, refilled in place or not."""
    yield [",".join(name for name, _, _ in columns) + "\n"]
    while True:
        yield table_rows(columns)


def _write_table(path: str, columns: _Columns) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for lines in itertools.islice(table_text(columns), 2):  # the header, then every row
            handle.writelines(lines)


def _traced_table(t: list[float], layout: _Layout, traces: dict) -> list[tuple[str, str, Any]]:
    """Writer columns: ``t``, then ``layout``'s from ``traces``, each in its %-format."""
    return [("t", FLOAT, t)] + [
        (name, FLAG if col.flag else FLOAT, getattr(traces[key], col.attr))
        for name, col, key in layout]


def trajectory_table(log: TrajectoryLog) -> list[tuple[str, str, Any]]:
    """The columns of trajectory.csv, over the rows ``log`` holds."""
    return _traced_table(log.t, robot_columns(log.robot_ids()), log.robots)


def pairs_table(log: TrajectoryLog) -> list[tuple[str, str, Any]]:
    """The columns of pairs.csv, over the rows ``log`` holds."""
    return _traced_table(log.t, pair_columns(log.pair_ids()), log.pairs)


#: The run CSVs, in the order ``run`` writes them and ``read_run`` reads them.
RUN_CSVS = ("trajectory.csv", "pairs.csv")


def run_texts(log: TrajectoryLog) -> list[Iterator[Iterable[str]]]:
    """The ``table_text`` of each of ``RUN_CSVS``, over ``log``'s own lists."""
    return [table_text(trajectory_table(log)), table_text(pairs_table(log))]


def write_trajectory_csv(log: TrajectoryLog, path: str) -> None:
    _write_table(path, trajectory_table(log))


def write_pairs_csv(log: TrajectoryLog, path: str) -> None:
    _write_table(path, pairs_table(log))


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


def summary_columns(log: TrajectoryLog) -> list[list]:
    """The columns of ``log`` that ``run_summary`` reads: ``t`` and each pair's ``r``."""
    return [log.t, *(trace.r for trace in log.pairs.values())]


def write_run_outputs(log: TrajectoryLog, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    for write, name in zip((write_trajectory_csv, write_pairs_csv), RUN_CSVS):
        write(log, os.path.join(outdir, name))
    return _write_run_summary(log, outdir)


class Staged:
    """Outputs a command writes beside their targets while it works, and
    puts in place once the work is done.

    ``Staged(directory, names)`` creates ``.<name>.<pid>.part`` beside each
    target ``<name>`` with ``O_EXCL``, and decides once, before any work,
    whether renaming each over its target leaves what writing the target in
    place would: the target is absent, or a regular file of one link with
    the mode and owner a new file gets.  If a file cannot be created or a
    target is in the way (a link, a mode of its own, a directory), no staged
    file stays, ``staged`` is False, and ``outs`` hold the text in memory
    for ``commit`` to write in place.  A failed ``write`` is kept for
    ``commit`` to raise, so that an error of the work comes first.
    """

    def __init__(self, directory: str, names: Sequence[str]) -> None:
        self.targets = [os.path.join(directory, name) for name in names]
        self.temps: list[str] = []  # the staged files this made and has not renamed
        self.outs: list[IO[str]] = []
        self.errors: list[OSError | None] = [None] * len(names)
        try:
            for name, target in zip(names, self.targets):
                temp = os.path.join(directory, f".{name}.{os.getpid()}.part")
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                self.temps.append(temp)
                self.outs.append(open(fd, "w", encoding="utf-8"))
            self.staged = all(map(self._replaceable, self.temps, self.targets))
        except OSError:
            self.staged = False
        if not self.staged:
            self.discard()
            self.outs = [io.StringIO() for _ in names]

    @staticmethod
    def _replaceable(temp: str, target: str) -> bool:
        try:
            old = os.lstat(target)
        except FileNotFoundError:
            return True
        new = os.lstat(temp)
        return (old.st_mode, old.st_uid, old.st_gid, old.st_nlink) == (
            new.st_mode, new.st_uid, new.st_gid, 1)

    def write(self, k: int, lines: Iterable[str]) -> None:
        """Append ``lines`` to output ``k``, unless a write to it failed before."""
        if self.errors[k] is None:
            try:
                self.outs[k].writelines(lines)
            except OSError as exc:
                self.errors[k] = exc

    def commit(self) -> None:
        """Put the outputs in place, in order.  The first that cannot be
        written raises its OSError; the outputs before it stay."""
        for k, (out, target) in enumerate(zip(self.outs, self.targets)):
            if self.errors[k] is not None:
                raise self.errors[k]
            if self.staged:
                out.close()
                os.replace(self.temps[0], target)
                del self.temps[0]
            else:
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(out.getvalue())

    def discard(self) -> None:
        """Close every output, and remove the staged files not put in place."""
        for out in self.outs:
            try:
                out.close()
            except OSError:  # a write that failed on close; the output is dropped
                pass
        for temp in self.temps:
            try:
                os.unlink(temp)
            except OSError:  # it cannot be removed
                pass
        self.temps.clear()


def _write_run_summary(log: TrajectoryLog, outdir: str) -> int:
    """events.csv and summary.json, once trajectory.csv and pairs.csv are
    written; the run's exit code."""
    write_events_csv(log, os.path.join(outdir, "events.csv"))
    summary = run_summary(log)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return int(summary["exit_code"])


def _read_scenario(outdir: str) -> Scenario:
    """The scenario of the run in ``outdir``, from its summary.json."""
    path = os.path.join(outdir, "summary.json")
    try:
        summary = read_json(path)
    except ScenarioError as exc:  # not JSON, not UTF-8, or nested too deep
        raise RunFormatError(str(exc)) from None
    if not isinstance(summary, dict) or not isinstance(summary.get("scenario"), dict):
        raise RunFormatError(f"{path}: expected an object with a 'scenario' object")
    try:
        return scenario_from_dict(summary["scenario"])
    except ScenarioError as exc:
        raise RunFormatError(f"{path}: scenario: {exc}") from None


# ---------------------------------------------------------------------------
# Bindings that benchmarks/tracer.py wraps for its spans.  Each imports its
# module when called, so a command compiles only what it runs: ``rundir``
# (``analyze``, ``plotdata``), ``analysis`` and ``sweep_metrics``.


def read_run(outdir: str, parse: Collection[str] | None = None) -> TrajectoryLog:
    from . import rundir
    return rundir.read_run(outdir, parse)


def load_sweep(path: str) -> SweepSpec:
    from . import sweep_metrics
    return sweep_metrics.load_sweep(path)


def analyze_log(
    log: TrajectoryLog, regime: RegimeKind
) -> tuple[LyapunovSeries, list[CheckResult]]:
    from . import analysis
    return analysis.analyze_log(log, regime)


# ---------------------------------------------------------------------------
# Commands


#: Recorded values from which ``run`` forks a writer for trajectory.csv and
#: pairs.csv; below it the parent writes them after the run.  A run counts
#: the values it records at least, over the fewest steps it can take
#: (``Scenario.fewest_steps``), not the values ``t_max`` allows.  Measured
#: crossover of the serial and the forked ``run`` (2 CPUs, CPython 3.11):
#: about 15,000 values on two-robot runs and 20,000 to 30,000 on one- and
#: three-robot runs; from 30,000 on, the forked run was faster on each, and
#: in fresh processes on 4- and 8-robot rings over 10 and 4 s: 46-50 and
#: 62-65 ms, against 58-59 and 73-75 ms in one process.
_FORK_MIN_VALUES = 30_000


def cmd_run(scenario_path: str, outdir: str) -> int:
    """Run a scenario into ``outdir``.  A forked writer formats its CSVs as
    the run goes (``forks.RunWriter``); a run kept in one process, or whose
    writer cannot start or fails, ends in the one serial path, which runs
    the scenario, again after a failed writer, and writes every file."""
    scenario = load_scenario(scenario_path)
    values = scenario.recorded_values(scenario.fewest_steps())
    if _processes(len(scenario.robots), values, _FORK_MIN_VALUES, 2) > 1:
        from .forks import RunWriter

        writer = RunWriter.fork(scenario, outdir)
        if writer is not None:
            with writer:
                log = run(scenario, writer)
                streamed = writer.finish()
            if streamed:
                return _write_run_summary(log, outdir)
            # the writer failed and the log kept too little for the serial
            # writers: the run again gives the same rows
    return write_run_outputs(run(scenario), outdir)


def fold_metrics(scenario: Scenario, metrics: Sequence[str]) -> dict[str, Any]:
    """A sweep cell's metrics: ``scenario`` run with a ``MetricsFold``
    recorder, whose module only sweeps import."""
    from .sweep_metrics import MetricsFold

    return run(scenario, MetricsFold(metrics))


def _sweep_cell(value: Any) -> str:
    """One results.csv cell, quoted as RFC 4180 says only where its text needs it."""
    text = FLOAT % value if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: Estimated work (the cells' steps together, ``SweepSpec.steps``, x the
#: base scenario's robot pairs, at least 1) from which a sweep deals its
#: cells to forked workers; below it the parent runs every cell.  Measured
#: crossover of 1 and 2 workers on 2-robot cells (2 CPUs, CPython 3.11),
#: where a child costs the sweep about 4-5 ms: about 1,000 pair-steps with
#: the child on a CPU of its own, 2,000 to 3,200 when the scheduler places
#: it.  In a fresh process, 4 cells of an 8-robot ring over 2 s took 31-34
#: ms forked, 48-49 ms in one.
_FORK_MIN_WORK = 4_000


def usable_cpus() -> int:
    """The CPUs this process may use where forking is safe, else 1: where
    ``os.fork`` and ``os.sched_getaffinity`` exist and this process has one
    thread, since a child forked beside another may inherit a lock it holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:  # threading.active_count() misses native threads, such as BLAS's
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return len(os.sched_getaffinity(0))


def _processes(robots: int, work: int, min_work: int, most: int) -> int:
    """How many processes a job on ``robots`` robots may use: 1 on the array
    pair stage (``engine._ARRAY_MIN_ROBOTS``; numpy's OpenBLAS thread made
    nearly every forked swarm job slower), below ``min_work``, or where
    forking is unsafe (``usable_cpus``); else usable CPUs, at most ``most``."""
    if robots >= engine._ARRAY_MIN_ROBOTS or work < min_work:
        return 1
    return min(usable_cpus(), most)


def cmd_sweep(spec_path: str, outdir: str) -> int:
    from .sweep_metrics import set_by_path

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

    robots, n_cells = len(spec.base["robots"]), math.prod(len(v) for _, v in spec.axes)
    work = spec.steps() * max(math.comb(robots, 2), 1)
    k = _processes(robots, work, _FORK_MIN_WORK, n_cells)
    cells = itertools.product(*(values for _, values in spec.axes))
    # The output is opened before the first cell runs.
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(_sweep_cell, header)) + "\n")
        if k == 1:
            handle.writelines(map(row_text, cells))
        else:
            from .forks import write_rows

            write_rows(handle, cells, row_text, k)
    return EXIT_OK


def _read_or_fail(rundir: str, read: Callable[..., Any], *args: Any) -> Any:
    """``read(*args)``, which reads the run directory ``rundir``; its error
    is raised as a CommandError that names ``rundir``."""
    try:
        return read(*args)
    except (OSError, ValueError) as exc:  # RunFormatError, ScenarioError, bad JSON or UTF-8
        raise CommandError(f"cannot read run directory {rundir}: {exc}") from None


def cmd_analyze(rundir: str, regime_name: str) -> int:
    from .rundir import analyze
    return analyze(rundir, regime_name)


#: plotdata's panels, in the order they are put in place.
PANELS = ("xy_paths.csv", "vrvth.csv", "separation.csv")


def cmd_plotdata(rundir: str) -> int:
    from .rundir import plotdata
    return plotdata(rundir)


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    try:
        args = _parser().parse_args(list(argv) if argv is not None else None)
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
    except SimulationFault as exc:  # CollisionSingularity too
        print(f"error: simulation aborted: {exc}", file=sys.stderr)
    except OSError as exc:  # an input or output the command cannot open or write
        directory = args.out if args.command in ("run", "sweep") else args.rundir
        # a failed rename (``Staged.commit``) names its target second
        path = exc.filename2 or exc.filename or directory
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":  # the package's module runs it: rundir raises its CommandError
    from vortex_ca.cli import main as package_main

    sys.exit(package_main())

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

``run`` forks one writer before the first step where forking is safe, more
than one CPU is usable, the run records at least ``_FORK_MIN_VALUES``
values over the fewest steps it can take (``Scenario.fewest_steps``) and
trajectory.csv and pairs.csv can be staged.  The child formats them from
the rows the run ships it, with the serial writers' formatter, while the
parent simulates and keeps only what summary.json reads; the parent then
writes events.csv and summary.json as before (``forks.RunWriter``).  The
files are byte-identical either way: where a writer cannot start, the
serial writers write the files after the run, and where it dies or meets
an OSError, the scenario runs again and the serial writers write them.  A
run that aborts leaves no file and no directory it made.  ``forks`` holds
every fork of both commands.

``analyze`` and ``plotdata`` read a run back a chunk of rows at a time
(``_read_traces``).  ``analyze`` keeps the columns it parses in a log
(``read_run``); ``plotdata`` formats each chunk's panel rows as they
arrive, so it holds one chunk and the ``t`` column.

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
import collections
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence,
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
from .kinematics import RegimeKind, SimulationFault
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
    from .scenarios import SweepSpec

    # A CSV's (header name, %-format code, values) columns.
    _Columns = Sequence[tuple[str, str, Sequence[Any]]]
    # A column parser maps one chunk's cells of a column to its values,
    # parsing every cell before it returns; a chunk consumer gets each
    # chunk's parsed columns by name.
    _Parser = Callable[[list[str]], list]
    _Consumer = Callable[[dict[str, list]], None]
    # A schema: each robot or pair column's parser, or None for a column
    # that is only checked to be present.
    _Schema = dict[Column, _Parser | None]
    # A plotdata panel's (header name, %-format code, the column's values in
    # a chunk of the run CSVs) columns.
    _PanelColumns = list[tuple[str, str, Callable[[dict[str, list]], list]]]

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


def table_header(columns: _Columns) -> str:
    return ",".join(name for name, _, _ in columns) + "\n"


def table_rows(columns: _Columns) -> Iterator[str]:
    """The text lines of the columns' rows, one %-operation per row."""
    row = ",".join(code for _, code, _ in columns) + "\n"
    return (row % cells for cells in zip(*(values for _, _, values in columns)))


def _write_table(path: str, columns: _Columns) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table_header(columns))
        handle.writelines(table_rows(columns))


def _column_name(tag: str, col: Column) -> str:
    """The CSV header of schema column ``col`` of the robot or pair ``tag``."""
    return f"{tag}_{col.suffix}"


def _traced_columns(tag: str, trace: Any, columns: Sequence[Column]) -> list[tuple[str, str, Any]]:
    """Writer columns of one robot or pair, each in its column's %-format."""
    return [(_column_name(tag, col), FLAG if col.flag else FLOAT, getattr(trace, col.attr))
            for col in columns]


def trajectory_table(log: TrajectoryLog) -> list[tuple[str, str, Any]]:
    """The columns of trajectory.csv, over the rows ``log`` holds."""
    columns = [("t", FLOAT, log.t)]
    for rid in log.robot_ids():
        columns += _traced_columns(f"r{rid}", log.robots[rid], ROBOT_COLUMNS)
    return columns


def pairs_table(log: TrajectoryLog) -> list[tuple[str, str, Any]]:
    """The columns of pairs.csv, over the rows ``log`` holds."""
    columns = [("t", FLOAT, log.t)]
    for key in log.pair_ids():
        columns += _traced_columns(_pair_tag(key), log.pairs[key], PAIR_COLUMNS)
    return columns


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


def write_run_outputs(log: TrajectoryLog, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    write_trajectory_csv(log, os.path.join(outdir, "trajectory.csv"))
    write_pairs_csv(log, os.path.join(outdir, "pairs.csv"))
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


#: A run CSV is read about this many cells at a time, in whole rows (one at
#: least), so one chunk's text and cells are all of a file that a read holds
#: at once.  Sized in cells, a chunk costs the same on a narrow
#: trajectory.csv and a wide pairs.csv.  A floor of 1 to 16 rows read a
#: 32-robot pairs.csv (2977 columns) in the same time, and one of 64 rows
#: held 190k of its cells, about as much as the log it was read into.  On
#: saturated_headon's run (2 CPUs, CPython 3.11), a fresh process's RSS
#: high-water mark rose by 4.5, 3.5, 3.2 and 3.3 MB over ``analyze`` and by
#: 2.1, 1.3, 0.8 and 0.5 MB over ``plotdata`` at 16,384, 8,192, 4,096 and
#: 2,048 cells; the seven presets read back in the same time at each.
_CHUNK_CELLS = 4_096

_parse_flag = {"0": False, "1": True}.__getitem__  # KeyError on anything but 0 or 1


def _parse_ids(cell: str) -> tuple[int, ...]:
    return tuple(map(int, cell.split(":"))) if cell else ()


def _each(parse_cell: Callable[[str], Any]) -> _Parser:
    """A column parser that parses each of a chunk's cells with ``parse_cell``."""
    def parse(cells: list[str]) -> list:
        return list(map(parse_cell, cells))
    return parse


def _kept_text(check: Callable[[str], Any]) -> _Parser:
    """A column parser that keeps a chunk's cell strings once ``check`` parses each one."""
    def parse(cells: list[str]) -> list[str]:
        collections.deque(map(check, cells), maxlen=0)  # no Python frame per cell
        return cells
    return parse


def _text(cells: list[str]) -> list[str]:
    """A column parser that keeps a chunk's cell strings unchecked."""
    return cells


_FLOATS = _each(float)
_FLAGS = _each(_parse_flag)
_FLOAT_TEXT = _kept_text(float)
_FLAG_TEXT = _kept_text(_parse_flag)


def _bad_cell(path: str, name: str, exc: Exception) -> str:
    return f"{path}: column {name!r}: bad cell ({exc})"


class _Table(NamedTuple):
    """What ``_read_columns`` found in one CSV file, besides the cells it handed on."""

    path: str
    header: frozenset[str]
    errors: dict[str, str]  # a parsed column's first bad cell, by column name

    def check(self, name: str) -> None:
        """RunFormatError when column ``name`` is missing, or was parsed and has a bad cell."""
        if name not in self.header:
            raise RunFormatError(f"{self.path}: missing column {name!r}")
        if name in self.errors:
            raise RunFormatError(self.errors[name])


def _read_columns(path: str, parsers: dict[str, _Parser], consume: _Consumer) -> _Table:
    """Parse the named columns of a CSV file a chunk of rows at a time, and
    hand each chunk's parsed columns to ``consume``.

    Lines break where ``str.splitlines`` breaks them.  Blank lines are
    skipped; every other line must have the header's cell count.  For each
    chunk of data rows, ``consume`` gets a dict: the values that the parser of
    each column named in ``parsers`` and present in the header gave, by
    name.  A column's first bad cell leaves it out of that chunk and every
    later one, and is kept in ``errors``, for ``_Table.check`` to raise in
    its caller's order.  The cells of other columns are not kept.  A header
    problem or a ragged line (the first, in file order) raises
    RunFormatError once the whole file has decoded, so that an undecodable
    byte anywhere is reported first; no chunk from the ragged line on is
    consumed.
    """
    step = 1  # a line at a time until the header
    header: list[str] | None = None
    errors: dict[str, str] = {}
    targets: list[tuple[int, str, _Parser]] = []
    error: RunFormatError | None = None
    lineno = 0  # lines before the chunk, blank ones included
    try:
        with open(path, "r", encoding="utf-8") as handle:
            while text := "".join(itertools.islice(handle, step)):
                lines = text.splitlines()
                del text
                rows = [] if error else list(filter(str.strip, lines))
                if header is None and rows:
                    header = rows.pop(0).split(",")
                    width = len(header)
                    if len(set(header)) != width:
                        error = RunFormatError(f"{path}: duplicate column names in the header")
                        rows = []
                    step = max(1, _CHUNK_CELLS // width)
                    index = {name: j for j, name in enumerate(header)}
                    targets = [(index[name], name, parse)
                               for name, parse in parsers.items() if name in index]
                if rows:
                    commas = list(map(str.count, rows, itertools.repeat(",")))
                    if commas.count(width - 1) != len(rows):
                        # the first ragged row: an equal earlier line of the chunk
                        # would be ragged too, so index() is exact
                        bad = next(row for row, n in zip(rows, commas) if n != width - 1)
                        error = RunFormatError(
                            f"{path}: line {lineno + lines.index(bad) + 1} has "
                            f"{bad.count(',') + 1} cells, the header has {width}"
                        )
                    else:
                        cells = ",".join(rows).split(",")
                        chunk = {}
                        for target in list(targets):
                            j, name, parse = target
                            try:
                                chunk[name] = parse(cells[j::width])
                            except (KeyError, ValueError) as exc:
                                errors[name] = _bad_cell(path, name, exc)
                                targets.remove(target)
                        del cells
                        consume(chunk)
                        del chunk
                lineno += len(lines)
    except UnicodeDecodeError:
        # the chunk's decoder counts bytes from its own start; the whole
        # file's read gives the offset in the file, and on this error path
        # alone a read holds the whole file
        with open(path, "r", encoding="utf-8") as handle:
            handle.read()
        raise
    if header is None:
        raise RunFormatError(f"{path}: no header line")
    if error is not None:
        raise error
    return _Table(path, frozenset(header), errors)


def _run_tags(scenario: Scenario) -> tuple[dict[int, str], dict[tuple[int, int], str]]:
    """The CSV column tag of each robot and of each pair of ``scenario``, in id order."""
    ids = sorted(robot.id for robot in scenario.robots)
    return {rid: f"r{rid}" for rid in ids}, {
        key: _pair_tag(key) for key in itertools.combinations(ids, 2)}


def _trace_parsers(tags: dict[Any, str], schema: _Schema) -> dict[str, _Parser]:
    """The parser of each parsed column of the robots or pairs ``tags``, by CSV name."""
    return {_column_name(tag, col): parser
            for tag in tags.values() for col, parser in schema.items() if parser}


def _check_traces(table: _Table, tags: dict[Any, str], schema: _Schema) -> None:
    for tag in tags.values():
        for col in schema:
            table.check(_column_name(tag, col))


def _appender(columns: dict[str, list]) -> _Consumer:
    """A chunk consumer that appends each chunk's values of ``columns``' names to their lists."""
    def append(chunk: dict[str, list]) -> None:
        for name, values in columns.items():
            values += chunk.get(name, ())
    return append


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


def _read_traces(
    log: TrajectoryLog, outdir: str, robots: _Schema, pairs: _Schema,
    robot_chunk: _Consumer, pair_chunk: _Consumer,
) -> None:
    """Read the run CSVs in ``outdir`` of ``log``'s scenario, a chunk of
    rows at a time (``_read_columns``).

    Each chunk of trajectory.csv goes to ``robot_chunk`` and each chunk of
    pairs.csv to ``pair_chunk``: the columns that the schemas ``robots`` and
    ``pairs`` parse, by CSV name, and ``t`` as the file's cell text.
    ``log.t`` gets trajectory.csv's times, each cell parsed once, and
    ``log.events`` the events.  A file that does not follow docs/formats.md
    raises RunFormatError once it is read, the first problem in the
    documented order; a chunk that lacks a column the schema parses means
    that the read will raise.
    """
    robot_tags, pair_tags = _run_tags(log.scenario)
    t_cells: list[str] = []  # trajectory.csv's, to compare with pairs.csv's

    def trajectory_chunk(chunk: dict[str, list]) -> None:
        t_cells.extend(chunk.get("t", ()))
        robot_chunk(chunk)

    path = os.path.join(outdir, "trajectory.csv")
    table = _read_columns(path, {"t": _text} | _trace_parsers(robot_tags, robots),
                          trajectory_chunk)
    table.check("t")
    try:
        log.t = list(map(float, t_cells))
    except ValueError as exc:
        raise RunFormatError(_bad_cell(path, "t", exc)) from None
    if not log.t:  # the initial state is always recorded
        raise RunFormatError(f"{path}: no data rows")
    _check_traces(table, robot_tags, robots)

    same = 0  # leading rows whose t cells equal trajectory.csv's; -1 once one differs

    def pairs_chunk(chunk: dict[str, list]) -> None:
        nonlocal same
        t = chunk.get("t")
        if same >= 0:
            same = same + len(t) if t is not None and t == t_cells[same:same + len(t)] else -1
        pair_chunk(chunk)

    path = os.path.join(outdir, "pairs.csv")
    table = _read_columns(path, {"t": _text} | _trace_parsers(pair_tags, pairs), pairs_chunk)
    if same != len(t_cells):
        raise RunFormatError(f"{path}: column 't' differs from trajectory.csv")
    del t_cells
    _check_traces(table, pair_tags, pairs)

    path = os.path.join(outdir, "events.csv")
    if os.path.exists(path):
        columns: dict[str, list] = {"t": [], "kind": [], "ids": []}
        table = _read_columns(path, {"t": _FLOATS, "kind": _text, "ids": _each(_parse_ids)},
                              _appender(columns))
        for name in columns:
            table.check(name)
        log.events = list(map(Event, columns["t"], columns["kind"], columns["ids"]))


def _schema_parsers(columns: Sequence[Column], parse: Collection[str] | None) -> _Schema:
    """``read_run``'s schema: each column's own parser for the trace
    attributes in ``parse`` (all when None), else None."""
    return {col: (_FLAGS if col.flag else _FLOATS) if parse is None or col.attr in parse else None
            for col in columns}


def _trace_fields(values: dict[str, list], tag: str, schema: _Schema) -> dict[str, list | None]:
    """Trace attributes of the robot or pair ``tag`` from its parsed columns'
    ``values``, None where the schema does not parse the column."""
    return {col.attr: values[_column_name(tag, col)] if parser else None
            for col, parser in schema.items()}


def read_run(outdir: str, parse: Collection[str] | None = None) -> TrajectoryLog:
    """Reconstruct a TrajectoryLog from a run output directory; a file that does not
    follow docs/formats.md raises RunFormatError naming the file and the line or column.

    ``parse`` names the trace attributes (RobotTrace and PairTrace fields) to
    parse, all of them when None.  Every other trace attribute is None, and
    its cells are not checked.  ``t`` is always read and the events always
    parsed.  Each CSV file is read a chunk at a time (``_read_traces``), so
    the log's columns, trajectory.csv's ``t`` text and one chunk are what a
    read holds.
    """
    log = TrajectoryLog(scenario=_read_scenario(outdir))
    robot_tags, pair_tags = _run_tags(log.scenario)
    robots, pairs = _schema_parsers(ROBOT_COLUMNS, parse), _schema_parsers(PAIR_COLUMNS, parse)
    robot_values = {name: [] for name in _trace_parsers(robot_tags, robots)}
    pair_values = {name: [] for name in _trace_parsers(pair_tags, pairs)}
    _read_traces(log, outdir, robots, pairs, _appender(robot_values), _appender(pair_values))
    for rid, tag in robot_tags.items():
        log.robots[rid] = RobotTrace(**_trace_fields(robot_values, tag, robots))
    for key, tag in pair_tags.items():
        log.pairs[key] = PairTrace(**_trace_fields(pair_values, tag, pairs))
    return log


# ---------------------------------------------------------------------------
# ``analyze`` calls analysis through this binding, which benchmarks/tracer.py
# wraps for its span.  It imports analysis when called, so ``run`` and
# ``plotdata`` never load it.


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
#: three-robot runs; from 30,000 on, the forked run was faster on each.
_FORK_MIN_VALUES = 30_000


def cmd_run(scenario_path: str, outdir: str) -> int:
    """Run a scenario into ``outdir``.  A forked writer formats its CSVs as
    the run goes (``forks.RunWriter``); a run too small for one, or whose
    writer cannot start or fails, ends in the one serial path, which runs
    the scenario, again after a failed writer, and writes every file."""
    scenario = load_scenario(scenario_path)
    if scenario.recorded_values(scenario.fewest_steps()) >= _FORK_MIN_VALUES:
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


#: Estimated work (cells x the base scenario's steps x its robot pairs, at
#: least 1) from which a sweep deals its cells to forked workers; below it
#: the parent runs every cell.  Measured crossover of 1 and 2 workers on
#: 2-robot cells (2 CPUs, CPython 3.11), where a child costs the sweep
#: about 4-5 ms: about 1,000 pair-steps with the child on a CPU of its own,
#: 2,000 to 3,200 when the scheduler places it.
_FORK_MIN_WORK = 4_000


def _sweep_workers(spec: SweepSpec, n_cells: int) -> int:
    """How many processes run the sweep's cells: one per usable CPU where
    forking is safe (``forks.usable_cpus``), never more than cells, once the
    work reaches ``_FORK_MIN_WORK``; otherwise 1."""
    if n_cells * spec.base_steps * max(spec.base_pairs, 1) < _FORK_MIN_WORK:
        return 1
    from .forks import usable_cpus

    return min(usable_cpus(), n_cells)


def _write_rows(
    handle: IO[str], cells: Iterator[tuple[Any, ...]],
    row_text: Callable[[tuple[Any, ...]], str], k: int,
) -> None:
    """Write every cell's row text to ``handle`` in cell order, once it and
    every earlier row are done.  Cell i runs in worker i % k: the parent is
    worker 0, and each child forked through ``forks.Children`` sends its
    rows as JSON strings, one a line, down its own pipe.  The parent runs
    the remaining cells of a child whose pipe ends early, and of one it
    could not fork."""
    from .forks import Children

    pipes: list[IO[str] | None] = [None]  # per worker; None: the parent runs its cells
    try:
        with Children(handle) as children:
            for worker in range(1, k):
                read_fd, write_fd = os.pipe()
                job = functools.partial(_sweep_child, cells, row_text, worker, k, write_fd)
                # a pipe's write end must see a dead parent
                inherited = [read_fd] + [pipe.fileno() for pipe in pipes if pipe]
                if children.fork(job, close=inherited) is None:
                    os.close(read_fd)
                    os.close(write_fd)
                    pipes.append(None)
                    continue
                os.close(write_fd)
                pipes.append(open(read_fd, encoding="ascii"))
            for i, cell in enumerate(cells):
                pipe = pipes[i % k]
                line = pipe.readline() if pipe else ""  # a dead child's pipe ends early
                handle.write(json.loads(line) if line.endswith("\n") else row_text(cell))
    finally:
        for pipe in pipes:
            if pipe:
                pipe.close()


def _sweep_child(
    cells: Iterator[tuple[Any, ...]], row_text: Callable[[tuple[Any, ...]], str],
    worker: int, k: int, write_fd: int,
) -> None:
    """A forked sweep worker's job: send the rows of cells worker,
    worker + k, ... down ``write_fd``."""
    with open(write_fd, "w", encoding="ascii") as pipe:
        for cell in itertools.islice(cells, worker, None, k):
            pipe.write(json.dumps(row_text(cell)) + "\n")
            pipe.flush()


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


def _read_or_fail(rundir: str, read: Callable[..., Any], *args: Any) -> Any:
    """``read(*args)``, which reads the run directory ``rundir``; its error
    is raised as a CommandError that names ``rundir``."""
    try:
        return read(*args)
    except (OSError, ValueError) as exc:  # RunFormatError, ScenarioError, bad JSON or UTF-8
        raise CommandError(f"cannot read run directory {rundir}: {exc}") from None


def cmd_analyze(rundir: str, regime_name: str) -> int:
    if regime_name not in REGIME_NAMES:
        raise CommandError(
            f"unknown regime {regime_name!r} (known: {', '.join(sorted(REGIME_NAMES))})"
        )
    from . import analysis

    regime = REGIME_NAMES[regime_name]
    log = _read_or_fail(rundir, read_run, rundir, analysis.REGIME_COLUMNS[regime])
    try:
        series, checks = analyze_log(log, regime)
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
# other panel columns as read, once each parses, since '%.17g' % float(cell)
# gives back every cell the writers produce.
_PLOT_PARSERS = {"x": _FLOAT_TEXT, "y": _FLOAT_TEXT, "r": _FLOAT_TEXT, "vr": _FLOATS,
                 "vth": _FLOATS, "triggered": _FLAG_TEXT}
TEXT = "%s"

#: plotdata's panels, in the order they are put in place.
PANELS = ("xy_paths.csv", "vrvth.csv", "separation.csv")


def _normed(name: str, scale: float, chunk: dict[str, list]) -> list[float]:
    return [v / scale for v in chunk[name]]


def _plot_tables(scenario: Scenario) -> list[_PanelColumns]:
    """The columns of each of ``PANELS``: header, %-format code, and the
    values of a chunk of the run CSVs that the column shows."""
    robot_tags, pair_tags = _run_tags(scenario)
    speeds = {robot.id: robot.speed for robot in scenario.robots}
    x, y = ROBOT_COLUMNS[:2]
    r, _, vr, vth, _, trig = PAIR_COLUMNS

    def copied(name: str) -> tuple[str, str, Callable[[dict[str, list]], list]]:
        return name, TEXT, operator.itemgetter(name)

    paths, vrvth, separation = [copied("t")], [copied("t")], [copied("t")]
    for tag in robot_tags.values():
        paths += [copied(_column_name(tag, x)), copied(_column_name(tag, y))]
    for key, tag in pair_tags.items():
        scale = max(speeds[key[0]], speeds[key[1]], 1e-30)
        for col in (vr, vth):
            name = _column_name(tag, col)
            vrvth.append((f"{name}_norm", FLOAT, functools.partial(_normed, name, scale)))
        vrvth.append(copied(_column_name(tag, trig)))
        separation.append(copied(_column_name(tag, r)))
    return [paths, vrvth, separation]


def _panel_rows(panels: Staged, tables: list[_PanelColumns], *numbers: int) -> _Consumer:
    """A chunk consumer that appends each chunk's rows to the panels
    ``numbers`` of ``panels``.  A chunk that lacks a column of a panel (the
    read then raises) adds no rows to it."""
    def add(chunk: dict[str, list]) -> None:
        for k in numbers:
            try:
                columns = [(name, code, values(chunk)) for name, code, values in tables[k]]
            except KeyError:
                continue
            panels.write(k, table_rows(columns))
    return add


def cmd_plotdata(rundir: str) -> int:
    log = TrajectoryLog(scenario=_read_or_fail(rundir, _read_scenario, rundir))
    robots = {col: _PLOT_PARSERS.get(col.attr) for col in ROBOT_COLUMNS}
    pairs = {col: _PLOT_PARSERS.get(col.attr) for col in PAIR_COLUMNS}
    tables = _plot_tables(log.scenario)
    panels = Staged(rundir, PANELS)
    try:
        for k, columns in enumerate(tables):
            panels.write(k, [table_header(columns)])
        _read_or_fail(rundir, _read_traces, log, rundir, robots, pairs,
                      _panel_rows(panels, tables, 0), _panel_rows(panels, tables, 1, 2))
        panels.commit()
    finally:
        panels.discard()
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
    except SimulationFault as exc:  # CollisionSingularity too
        print(f"error: simulation aborted: {exc}", file=sys.stderr)
    except OSError as exc:  # an input or output the command cannot open or write
        directory = args.out if args.command in ("run", "sweep") else args.rundir
        # a failed rename (``Staged.commit``) names its target second
        path = exc.filename2 or exc.filename or directory
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

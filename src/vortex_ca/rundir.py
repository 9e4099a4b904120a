"""The run directory's reader, and the ``analyze`` and ``plotdata`` commands,
which alone import it.  Both read a run back chunk by chunk (``_read_traces``):
``analyze`` into a ``TrajectoryLog`` of the columns it parses (``read_run``),
``plotdata`` into its panels as each chunk arrives, holding one chunk and
``t``.  They call ``read_run``, ``analyze_log`` and (in ``_read_scenario``)
``scenario_from_dict`` through the ``cli`` bindings benchmarks/tracer.py wraps.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import os
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, NamedTuple

from . import cli
from .cli import (
    EXIT_ERROR, EXIT_OK, FLOAT, PANELS, REGIME_NAMES, RUN_CSVS, CommandError, RunFormatError,
    Staged, _read_or_fail, _read_scenario, _write_table, table_rows, table_text,
)
from .engine import Event, TrajectoryLog, pair_columns, robot_columns

if TYPE_CHECKING:
    from .analysis import LyapunovSeries
    from .engine import Column, Scenario

    # A column parser maps one chunk's cells of a column to its values,
    # parsing every cell before it returns; a chunk consumer gets each
    # chunk's parsed columns by name.
    _Parser = Callable[[list[str]], list]
    _Consumer = Callable[[dict[str, list]], None]
    # A schema: the parser of a robot or pair column, or None for a column
    # that is only checked to be present.
    _Schema = Callable[[Column], _Parser | None]
    _Layout = Iterable[tuple[str, Column, Any]]  # engine.robot_columns, pair_columns
    # A plotdata panel's (header name, %-format code, the column's values in
    # a chunk of the run CSVs) columns.
    _PanelColumns = list[tuple[str, str, Callable[[dict[str, list]], list]]]


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
    index: dict[str, int]  # the header's columns by name
    errors: dict[str, str]  # a parsed column's first bad cell, by column name

    def check(self, names: Iterable[str]) -> None:
        """RunFormatError for the first column of ``names`` that is missing,
        or was parsed and has a bad cell."""
        for name in names:
            if name not in self.index:
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
    index: dict[str, int] | None = None  # the header's columns by name
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
                if index is None and rows:
                    header = rows.pop(0).split(",")
                    width = len(header)
                    index = {name: j for j, name in enumerate(header)}
                    if len(index) != width:
                        error = RunFormatError(f"{path}: duplicate column names in the header")
                        rows = []
                    step = max(1, _CHUNK_CELLS // width)
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
    if index is None:
        raise RunFormatError(f"{path}: no header line")
    if error is not None:
        raise error
    return _Table(path, index, errors)


def _parsers(layout: _Layout, schema: _Schema) -> dict[str, _Parser]:
    """A run CSV's column parsers by name: ``t``'s text, and ``layout``'s that ``schema`` parses."""
    return {"t": _text} | {name: parse for name, col, _ in layout if (parse := schema(col))}


def _appender(columns: dict[str, list]) -> _Consumer:
    """A chunk consumer that appends each chunk's values of ``columns``' names to their lists."""
    def append(chunk: dict[str, list]) -> None:
        for name, values in columns.items():
            values += chunk.get(name, ())
    return append


def _read_traces(
    scenario: Scenario, outdir: str, schema: _Schema,
    robot_chunk: _Consumer, pair_chunk: _Consumer,
) -> tuple[list[float], list[Event]]:
    """Read the run CSVs in ``outdir`` of ``scenario``'s run, laid out as
    ``robot_columns`` and ``pair_columns`` say, a chunk of rows at a time;
    return trajectory.csv's times, each cell parsed once, and the events.

    Each chunk of trajectory.csv goes to ``robot_chunk`` and each chunk of
    pairs.csv to ``pair_chunk``: the columns that ``schema`` parses, by CSV
    name, and ``t`` as the file's cell text.  A file that does not follow
    docs/formats.md raises RunFormatError once it is read, the first problem
    in the documented order; a chunk that lacks a column the schema parses
    means that the read will raise.
    """
    ids, keys = scenario.robot_ids(), scenario.pair_ids()
    trajectory, pairs = RUN_CSVS
    t_cells: list[str] = []  # trajectory.csv's, to compare with pairs.csv's

    def trajectory_chunk(chunk: dict[str, list]) -> None:
        t_cells.extend(chunk.get("t", ()))
        robot_chunk(chunk)

    path = os.path.join(outdir, trajectory)
    table = _read_columns(path, _parsers(robot_columns(ids), schema), trajectory_chunk)
    table.check(["t"])
    try:
        times = list(map(float, t_cells))
    except ValueError as exc:
        raise RunFormatError(_bad_cell(path, "t", exc)) from None
    if not times:  # the initial state is always recorded
        raise RunFormatError(f"{path}: no data rows")
    table.check(name for name, _, _ in robot_columns(ids))

    same = 0  # leading rows whose t cells equal trajectory.csv's; -1 once one differs

    def pairs_chunk(chunk: dict[str, list]) -> None:
        nonlocal same
        t = chunk.get("t")
        if same >= 0:
            same = same + len(t) if t is not None and t == t_cells[same:same + len(t)] else -1
        pair_chunk(chunk)

    path = os.path.join(outdir, pairs)
    table = _read_columns(path, _parsers(pair_columns(keys), schema), pairs_chunk)
    if same != len(t_cells):
        raise RunFormatError(f"{path}: column 't' differs from {trajectory}")
    del t_cells
    table.check(name for name, _, _ in pair_columns(keys))

    path = os.path.join(outdir, "events.csv")
    if not os.path.exists(path):
        return times, []
    columns: dict[str, list] = {"t": [], "kind": [], "ids": []}
    table = _read_columns(path, {"t": _FLOATS, "kind": _text, "ids": _each(_parse_ids)},
                          _appender(columns))
    table.check(columns)
    return times, list(map(Event, columns["t"], columns["kind"], columns["ids"]))


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
    log = TrajectoryLog.empty(_read_scenario(outdir))

    def schema(col: Column) -> _Parser | None:
        if parse is None or col.attr in parse:
            return _FLAGS if col.flag else _FLOATS
        return None

    def filled(layout: _Layout, traces: dict) -> _Consumer:
        lists = {}  # each parsed column's trace list; an unparsed one becomes None
        for name, col, key in layout:
            if schema(col):
                lists[name] = getattr(traces[key], col.attr)
            else:
                setattr(traces[key], col.attr, None)
        return _appender(lists)

    log.t, log.events = _read_traces(
        log.scenario, outdir, schema, filled(robot_columns(log.robot_ids()), log.robots),
        filled(pair_columns(log.pair_ids()), log.pairs))
    return log


def _write_lyapunov_csv(series: LyapunovSeries, path: str) -> None:
    _write_table(path, [
        ("t", FLOAT, series.t),
        ("value", FLOAT, series.value),
        ("d_analytic", FLOAT, series.derivative_analytic),
        ("d_numeric", FLOAT, series.derivative_numeric),
        ("regime", "%s", [series.regime.value] * len(series.t)),
    ])


def analyze(rundir: str, regime_name: str) -> int:
    if regime_name not in REGIME_NAMES:
        raise CommandError(
            f"unknown regime {regime_name!r} (known: {', '.join(sorted(REGIME_NAMES))})"
        )
    from . import analysis

    regime = REGIME_NAMES[regime_name]
    log = _read_or_fail(rundir, cli.read_run, rundir, analysis.REGIME_COLUMNS[regime])
    try:
        series, checks = cli.analyze_log(log, regime)
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


# plotdata's schema, by trace attribute.  It re-formats only the normalized
# speeds, and copies the cells of the other panel columns as read, once each
# parses, since '%.17g' % float(cell) gives back every cell the writers produce.
_PLOT_PARSERS = {"x": _FLOAT_TEXT, "y": _FLOAT_TEXT, "r": _FLOAT_TEXT, "vr": _FLOATS,
                 "vth": _FLOATS, "triggered": _FLAG_TEXT}
TEXT = "%s"


def _normed(name: str, scale: float, chunk: dict[str, list]) -> list[float]:
    return [v / scale for v in chunk[name]]


def _plot_tables(scenario: Scenario) -> list[_PanelColumns]:
    """The columns of each of ``PANELS``, in layout order: header, %-format
    code, and the values of a chunk of the run CSVs that the column shows."""
    speeds = {robot.id: robot.speed for robot in scenario.robots}

    def copied(name: str) -> tuple[str, str, Callable[[dict[str, list]], list]]:
        return name, TEXT, operator.itemgetter(name)

    paths, vrvth, separation = [copied("t")], [copied("t")], [copied("t")]
    for name, col, _ in robot_columns(scenario.robot_ids()):
        if col.attr in ("x", "y"):
            paths.append(copied(name))
    for name, col, (i, j) in pair_columns(scenario.pair_ids()):
        if col.attr in ("vr", "vth"):
            scale = max(speeds[i], speeds[j], 1e-30)
            vrvth.append((f"{name}_norm", FLOAT, functools.partial(_normed, name, scale)))
        elif col.attr == "triggered":
            vrvth.append(copied(name))
        elif col.attr == "r":
            separation.append(copied(name))
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


def plotdata(rundir: str) -> int:
    # no trace: the panels take each chunk as it comes
    scenario = _read_or_fail(rundir, _read_scenario, rundir)
    tables = _plot_tables(scenario)
    panels = Staged(rundir, PANELS)
    try:
        for k, columns in enumerate(tables):
            panels.write(k, next(table_text(columns)))
        _read_or_fail(rundir, _read_traces, scenario, rundir,
                      lambda col: _PLOT_PARSERS.get(col.attr),
                      _panel_rows(panels, tables, 0), _panel_rows(panels, tables, 1, 2))
        panels.commit()
    finally:
        panels.discard()
    return EXIT_OK

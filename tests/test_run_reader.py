"""The chunked run-CSV reader (``rundir._read_columns``) against the whole-file
reader it replaced, and the memory ``read_run`` and ``plotdata`` hold.

``whole_file_columns`` is the earlier reader, kept here as the oracle: it
split a whole file into one string per cell, then parsed the columns it was
asked for, in order.  The chunked reader must give the same columns, or
raise the same RunFormatError text, at any chunk size.
"""

import itertools
import shutil
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from common_runs import ring
from vortex_ca import cli
from vortex_ca import rundir as reader
from vortex_ca.analysis import REGIME_COLUMNS, RegimeKind
from vortex_ca.cli import RunFormatError, read_run, write_run_outputs
from vortex_ca.engine import pair_columns, run
from vortex_ca.scenarios import scenario_from_dict


def whole_file_table(path):
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


# Column kinds: the oracle's (cell parser, whether the text is kept) and the
# chunked reader's column parser.
KINDS = {
    "float": ((float, False), reader._FLOATS),
    "flag": ((reader._parse_flag, False), reader._FLAGS),
    "float_text": ((float, True), reader._FLOAT_TEXT),
    "flag_text": ((reader._parse_flag, True), reader._FLAG_TEXT),
    "ids": ((reader._parse_ids, False), reader._each(reader._parse_ids)),
}


def whole_file_columns(path, wanted):
    table = whole_file_table(path)
    columns = {}
    for name, kind in wanted.items():
        (parse, keep), _ = KINDS[kind]
        if name not in table:
            raise RunFormatError(f"{path}: missing column {name!r}")
        try:
            values = list(map(parse, table[name]))
        except (KeyError, ValueError) as exc:
            raise RunFormatError(f"{path}: column {name!r}: bad cell ({exc})") from None
        columns[name] = table[name] if keep else values
    return columns


def chunked_columns(path, wanted, chunk_cells):
    """``_read_columns`` with chunks of ``chunk_cells`` cells, or of its own
    size when None, each chunk's columns appended to one list per column."""
    columns = {name: [] for name in wanted}
    with mock.patch.object(reader, "_CHUNK_CELLS", chunk_cells or reader._CHUNK_CELLS):
        table = reader._read_columns(path, {name: KINDS[kind][1] for name, kind in wanted.items()},
                                     reader._appender(columns))
    for name in wanted:
        table.check(name)
    return columns


def outcome(read, *args):
    """What a read gives: its columns (NaN-safe, through repr) or its error."""
    try:
        return repr(read(*args))
    except (RunFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


NAMES = ("t", "a", "b", "c")
# Cells each kind parses, and cells one kind or another does not.
GOOD = {"float": ("0", "1.5", "-0.0", "nan", "-inf", "1e308", " 2 "), "flag": ("0", "1"),
        "ids": ("", "2", "2:3")}
BAD = ("x", "", "1.5", "2:3", "0x1")
BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")
BLANKS = ("", " ", "\t", "\x1f")


def one_in(n):
    """True one time in ``n``."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def csv_texts(draw):
    """A CSV file's text and the columns to read: a header (a repeated name
    now and then), rows with a bad cell, a ragged line or a blank one here
    and there, any of str.splitlines' line breaks, and a column that is
    missing among those read at times."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width,
                           unique=not draw(one_in(10))))
    names = header + ["z"] * draw(one_in(5))
    wanted = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(sorted(KINDS)),
                                  min_size=1))
    good = [GOOD[wanted.get(name, "flag").removesuffix("_text")] for name in header]
    bad_rate = [draw(st.sampled_from((0, 0, 0, 0.1))) for _ in header]
    ragged_rate = draw(st.sampled_from((0, 0, 0, 0.05)))
    lines = [draw(st.sampled_from(BLANKS)) for _ in range(draw(st.integers(0, 2)))]
    if draw(one_in(20)):  # no header line
        return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines), wanted
    lines.append(",".join(header))
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.floats(0, 1)) < 0.1:
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        cells = [draw(st.sampled_from(BAD if draw(st.floats(0, 1)) < rate else pool))
                 for pool, rate in zip(good, bad_rate)]
        if draw(st.floats(0, 1)) < ragged_rate:
            cells = cells[1:] if len(cells) > 1 and draw(st.booleans()) else cells + ["0"]
        lines.append(",".join(cells))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no break after the last line
    return text, wanted


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts())
def test_chunked_reader_matches_whole_file_reader(csv_dir, case):
    text, wanted = case
    path = csv_dir / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(whole_file_columns, str(path), wanted)
    for chunk_cells in (1, 7, None):
        assert outcome(chunked_columns, str(path), wanted, chunk_cells) == expected, chunk_cells


def test_chunked_reader_reports_an_undecodable_byte_first(tmp_path):
    # A ragged line in the first chunk, and a byte that is not UTF-8 far
    # beyond it: the whole-file reader's decode error, with its offset in
    # the file, comes first.
    path = tmp_path / "table.csv"
    path.write_bytes(b"t,a\n1\n" + b"1,0\n" * 50_000 + b"\xff,0\n")
    wanted = {"t": "float", "a": "flag"}
    expected = outcome(whole_file_columns, str(path), wanted)
    assert expected[0] is UnicodeDecodeError and "position 200006" in expected[1]
    for chunk_cells in (1, 7, None):
        assert outcome(chunked_columns, str(path), wanted, chunk_cells) == expected


def test_chunked_reader_reports_the_first_bad_column_in_read_order(tmp_path):
    # b's bad cell is in the first chunk and a's in the last: a is read
    # first, so its cell is the one reported, as the whole-file reader did.
    path = tmp_path / "table.csv"
    path.write_text("t,a,b\n" + "0,1,x\n" + "0,1,0\n" * 20 + "0,y,0\n")
    wanted = {"t": "float", "a": "float", "b": "float_text"}
    expected = outcome(whole_file_columns, str(path), wanted)
    assert expected == (RunFormatError,
                        f"{path}: column 'a': bad cell (could not convert string to float: 'y')")
    for chunk_cells in (1, 7, None):
        assert outcome(chunked_columns, str(path), wanted, chunk_cells) == expected


@pytest.fixture(scope="module")
def ring_rundir(tmp_path_factory):
    """201 rows of a 32-robot ring: an 11 MB run directory, whose pairs.csv
    has 2977 columns, built once for the module."""
    rundir = tmp_path_factory.mktemp("ring") / "run"
    scenario = scenario_from_dict(ring(32, t_max=2.0, body_radius=0.1, name="scenario"))
    write_run_outputs(run(scenario), str(rundir))
    return rundir


def traced_peak(call, *args):
    """What ``call(*args)`` returns, and the peak and the kept rise of the
    traced memory during the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args)
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, peak, kept


def test_read_run_holds_little_more_than_the_log(ring_rundir):
    # The whole-file reader peaked at 3.7 times the memory of the log it
    # returned; a chunk of rows adds little to the log.
    log, peak, kept = traced_peak(read_run, str(ring_rundir), REGIME_COLUMNS[RegimeKind.MULTI_ROBOT])
    assert len(log.t) == 201 and len(log.pairs) == 496
    assert peak <= 1.5 * kept, (peak, kept)


def _first_rows(source, target, n):
    """A copy of the run directory ``source`` whose run CSVs keep their first ``n`` data rows."""
    shutil.copytree(source, target)
    for name in ("trajectory.csv", "pairs.csv"):
        with open(source / name, encoding="utf-8") as handle:
            lines = list(itertools.islice(handle, n + 1))
        (target / name).write_text("".join(lines), encoding="utf-8")


def test_plotdata_holds_about_one_chunk(ring_rundir, tmp_path):
    # plotdata writes each chunk's rows as it reads them.  Besides the t
    # column it holds about what a chunked read of the widest file holds
    # when it keeps nothing: one chunk (one row of this 2977-column
    # pairs.csv) and the header's names, measured on a two-row copy.  The
    # panels' column table and one chunk's rows come on top.  Holding every
    # copied cell until the end, as plotdata once did, took 23.7 MB here.
    tiny = tmp_path / "tiny"
    _first_rows(ring_rundir, tiny, 2)
    keys = cli._read_scenario(str(tiny)).pair_ids()
    parsers = reader._parsers(pair_columns(keys), lambda col: reader._PLOT_PARSERS.get(col.attr))
    _, chunk, _ = traced_peak(reader._read_columns, str(tiny / "pairs.csv"), parsers,
                              lambda _: None)
    with open(ring_rundir / "trajectory.csv", encoding="utf-8") as handle:
        t_text = [line.split(",", 1)[0] for line in itertools.islice(handle, 1, None)]
    t_column = sum(sys.getsizeof(cell) + sys.getsizeof(float(cell)) + 16 for cell in t_text)

    rundir = tmp_path / "run"
    shutil.copytree(ring_rundir, rundir)
    code, peak, _ = traced_peak(cli.cmd_plotdata, str(rundir))
    assert code == 0 and len(t_text) == 201
    assert (rundir / "separation.csv").read_text().count("\n") == 202
    assert peak <= 3 * chunk + t_column, (peak, chunk, t_column)


def test_plotdata_peak_does_not_grow_with_the_rows(ring_rundir, tmp_path):
    # 25 and 50 rows of the ring, each many chunks: twice the rows, at most
    # a quarter more memory.  A plotdata that held its copied cells needed
    # 1.5 times as much (4.2 and 6.3 MB).
    peaks = []
    for rows in (25, 50):
        rundir = tmp_path / str(rows)
        _first_rows(ring_rundir, rundir, rows)
        code, peak, _ = traced_peak(cli.cmd_plotdata, str(rundir))
        assert code == 0 and (rundir / "vrvth.csv").read_text().count("\n") == rows + 1
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks

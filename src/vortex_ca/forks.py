"""Every fork and pipe of the CLI: ``sweep``'s workers and ``run``'s CSV
writer.  ``cli`` decides whether a job forks (``cli._processes``), imports
this module only for a job that forks, and states every file format a
child writes; this module names no file and no column.

``Children`` is the one way a command forks: it flushes the output buffers
a child would inherit, forks, moves the child off the parent's CPU
(``_move_off_parent_cpu``), runs the child's job and ends it in
``os._exit``, and kills and reaps.  ``write_rows`` deals a sweep's cells
round-robin to the parent and its children, each child sending its rows
back down a pipe.

``RunWriter`` is ``run``'s recorder when ``run`` forks its writer.  It
stages the run CSVs (``cli.RUN_CSVS``, ``cli.Staged``), and forks the child
only where both are staged.  It ships the log's new rows, a chunk at a
time, as C doubles down a pipe to the child, list by list as the engine
states what a run records (``engine.recorded_lists``).  The child refills
the same lists of one ``TrajectoryLog.empty`` with each chunk, forms the
pairs' theta from them, and formats them into the staged files with the
tables it built once (``cli.run_texts``) while the parent simulates.  The
parent keeps of the shipped rows only ``cli.summary_columns``, so it holds
one chunk besides those columns however long the run.  It puts the files
in place once the run and the child have both succeeded; where they have
not, ``cli.cmd_run`` runs the scenario again, which gives the same rows,
and writes the files serially.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from array import array
from typing import IO, Any, Callable, Iterable, Iterator

from . import cli
from .engine import LogRecorder, Scenario, TrajectoryLog, form_theta, recorded_lists


def _move_off_parent_cpu() -> None:
    """Pin this new child to a usable CPU other than its parent's, and then
    give it back every usable CPU.  The kernel often keeps a fresh child on
    its parent's CPU, where the two take turns for hundreds of ms; moved, it
    runs beside the parent, and its full mask still lets the scheduler take
    it off a busy CPU.  A failure leaves the child where it is."""
    try:
        with open(f"/proc/{os.getppid()}/stat", "rb") as stat:
            # field 39, the CPU last run on; the name in field 2 may hold spaces
            parents = int(stat.read().rsplit(b")", 1)[1].split()[36])
        cpus = os.sched_getaffinity(0)
        others = sorted(cpus - {parents})
        if others:
            os.sched_setaffinity(0, {others[0]})
            os.sched_setaffinity(0, cpus)
    except (OSError, ValueError, IndexError):
        pass


class Children:
    """The children one command forks.  As a context manager, leaving the
    block reaps every child not yet reaped, and kills each first when the
    block raised."""

    def __init__(self, *streams: IO[str]) -> None:
        self.streams = (sys.stdout, sys.stderr, *streams)
        self.pids: list[int] = []

    def __enter__(self) -> Children:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close(kill=exc_type is not None)

    def fork(self, job: Callable[[], Any], close: Iterable[int] = ()) -> int | None:
        """Run ``job()`` in a new child; its pid, or None when ``os.fork``
        raised OSError.

        The child closes the descriptors ``close``, moves off this process's
        CPU, runs ``job`` and ends in ``os._exit``: 0 once ``job`` returned,
        1 if it raised.  It never returns into the caller's frames and never
        flushes the buffers it inherited: this process flushes
        ``sys.stdout``, ``sys.stderr`` and the streams given to ``Children``
        before it forks."""
        for stream in self.streams:
            stream.flush()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            return None
        if pid == 0:
            status = 1
            try:
                for fd in close:
                    os.close(fd)
                _move_off_parent_cpu()
                job()
                status = 0
            finally:
                os._exit(status)
        self.pids.append(pid)
        return pid

    def wait(self, pid: int) -> int:
        """Reap child ``pid``: its exit code, or minus the signal that ended it."""
        _, status = os.waitpid(pid, 0)
        self.pids.remove(pid)
        return os.waitstatus_to_exitcode(status)

    def close(self, kill: bool) -> None:
        """Reap every child not yet reaped, killing each first if ``kill``."""
        if kill and self.pids:
            import signal  # only this path uses it

            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            os.waitpid(pid, 0)
        self.pids.clear()


def write_rows(
    handle: IO[str], cells: Iterator[tuple[Any, ...]],
    row_text: Callable[[tuple[Any, ...]], str], k: int,
) -> None:
    """Write every cell's row text to ``handle`` in cell order, once it and
    every earlier row are done.  Cell i runs in worker i % k: the parent is
    worker 0, and each child sends its rows as JSON strings, one a line,
    down its own pipe.  The parent runs the remaining cells of a child whose
    pipe ends early, and of one it could not fork."""
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


# ---------------------------------------------------------------------------
# run's forked writer

#: A chunk is the fewest whole rows (one at least) that hold this many
#: values, 16 KB of doubles.  Of 512 to 8,192 values on two-robot runs
#: (2 CPUs, CPython 3.11), this one gave the forked ``run`` its best times:
#: a smaller chunk reaches the writer sooner, and costs more per value.
_CHUNK_VALUES = 2_048


def _write_shipped(scenario: Scenario, read_fd: int, outs: list[IO[str]]) -> None:
    """The forked writer's job: read chunks from ``read_fd`` until the pipe
    ends, and append their rows to the staged run CSVs, ``outs``.  A chunk
    is its row count, then the values of each list the run records
    (``recorded_lists``) in those rows; they refill one log's lists in
    place, over which each file's table is built once.  Whether the parent
    shipped every row is the parent's to know (``RunWriter.finish``)."""
    log = TrajectoryLog.empty(scenario)
    columns = recorded_lists(log)
    texts = cli.run_texts(log)
    with open(read_fd, "rb") as pipe, outs[0], outs[1]:
        for out, text in zip(outs, texts):
            out.writelines(next(text))  # the header
        while head := pipe.read(8):
            rows = int(array("d", head)[0])
            size = 8 * rows * len(columns)
            if len(data := pipe.read(size)) != size:
                raise EOFError("the pipe ends inside a chunk")
            values = array("d", data).tolist()
            for k, column in enumerate(columns):
                column[:] = values[k * rows:(k + 1) * rows]
            form_theta(log)
            for out, text in zip(outs, texts):
                out.writelines(next(text))


def _new_dirs(path: str) -> list[str]:
    """The directories ``os.makedirs(path)`` would make, deepest first."""
    made = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):  # the root always exists
        made.append(path)
        path = os.path.dirname(path)
    return made


class RunWriter(LogRecorder):
    """``run``'s recorder when a forked child formats the run CSVs (see the
    module docstring).

    ``fork`` makes the output directory, stages the two files in it
    (``cli.Staged``) and forks the child.  Around the run, the writer is a
    context manager: a run that raises kills and reaps the child and removes
    the staged files and every directory ``fork`` made.  ``finish`` ends the
    stream after the run.  A pipe that fails stops the shipping, never the
    run; ``finish`` then says the files were not written.
    """

    def __init__(self, outdir: str) -> None:
        self.made = _new_dirs(outdir)
        self.staged: cli.Staged | None = None
        self.children = Children()
        self.pid: int | None = None
        self.fd: int | None = None  # the pipe's write end; None once closed or failed
        self.shipped = 0  # rows shipped, or shed once the pipe failed

    @classmethod
    def fork(cls, scenario: Scenario, outdir: str) -> RunWriter | None:
        """A writer with its child forked for ``scenario``'s run; None where
        the files cannot be staged or the setup failed, after undoing it."""
        writer = cls(outdir)
        try:
            os.makedirs(outdir, exist_ok=True)
            writer.staged = cli.Staged(outdir, cli.RUN_CSVS)
            if writer.staged.staged and writer._start(scenario):
                return writer
        except OSError:
            pass
        writer._abandon()
        return None

    def _start(self, scenario: Scenario) -> bool:
        read_fd, self.fd = os.pipe()
        try:
            job = functools.partial(_write_shipped, scenario, read_fd, self.staged.outs)
            self.pid = self.children.fork(job, close=[self.fd])
        finally:
            os.close(read_fd)
        return self.pid is not None

    def __enter__(self) -> RunWriter:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self._abandon()

    def start(self, scenario: Scenario, swarm: Any) -> Callable[[float], None]:
        record_row = super().start(scenario, swarm)
        t = self.log.t
        self.columns = recorded_lists(self.log)
        kept = set(map(id, cli.summary_columns(self.log)))
        # what run_summary does not read, emptied once shipped
        self.emptied = [column for column in self.columns if id(column) not in kept]
        chunk = max(1, _CHUNK_VALUES // len(self.columns))

        def record(time: float) -> None:
            record_row(time)
            if len(t) - self.shipped >= chunk:
                self._ship()

        return record

    def result(self) -> TrajectoryLog:
        """The log as ``cli.run_summary`` reads it: the events and
        ``cli.summary_columns``.  Every other column ends empty, and the pairs'
        ``theta`` is never formed: the child formed it for its files."""
        return self.log

    def _ship(self) -> None:
        """Ship the rows recorded since the last chunk, at least one, as one
        chunk, and then empty the columns ``run_summary`` does not read."""
        rows = len(self.log.t) - self.shipped
        if self.fd is not None:
            data = array("d", [rows])
            for column in self.columns:  # the rows not yet shipped end each column
                data.extend(column[-rows:])
            try:
                view = memoryview(data).cast("B")
                while view:  # a write may take part of it
                    view = view[os.write(self.fd, view):]
            except OSError:  # the child has died
                self._close_pipe()
        for column in self.emptied:
            column.clear()
        self.shipped += rows

    def _close_pipe(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def finish(self) -> bool:
        """After the run: ship the last rows, end the pipe, reap the child,
        and put its files in place if the pipe took every row and the child
        exited 0; whether it did.  No staged file is left afterwards."""
        if len(self.log.t) > self.shipped:
            self._ship()
        shipped = self.fd is not None
        self._close_pipe()
        if self.children.wait(self.pid) == 0 and shipped:
            self.staged.commit()
            return True
        self.staged.discard()
        return False

    def _abandon(self) -> None:
        """Kill and reap the child, then remove the staged files and the
        directories ``fork`` made."""
        self.children.close(kill=True)
        self._close_pipe()
        if self.staged is not None:
            self.staged.discard()
        for path in self.made:  # deepest first; one holding files stays
            try:
                os.rmdir(path)
            except FileNotFoundError:
                continue
            except OSError:
                break

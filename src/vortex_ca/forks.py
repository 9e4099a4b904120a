"""Forked jobs of the CLI: ``sweep``'s workers and ``run``'s CSV writer.

``cli._processes`` decides whether a job forks, and ``cli`` imports this
module only for a job that may fork.
``Children`` is the one way a command forks: it flushes the output buffers
a child would inherit, forks, moves the child off the parent's CPU
(``_move_off_parent_cpu``), runs the child's job and ends it in
``os._exit``, and kills and reaps.

``RunWriter`` is ``run``'s recorder when ``run`` forks its writer.  It
stages trajectory.csv and pairs.csv (``cli.Staged``), and forks the child
only where both are staged.  It ships the log's new rows, a chunk at a
time, as C doubles down a pipe to the child, column by column in the
engine's run layout (``_shipped``).  The child fills the same columns of a
``TrajectoryLog.empty`` and formats them into the staged files with the
serial writers' header and row formatter (``cli.trajectory_table``,
``cli.pairs_table``, ``cli.table_rows``) while the parent simulates.  The
parent then keeps of the shipped rows only what ``cli.run_summary`` reads,
``t`` and each pair's ``r``, so it holds one chunk besides those columns
however long the run.  It puts the files in
place once the run and the child have both succeeded; where they have not,
``cli.cmd_run`` runs the scenario again, which gives the same rows, and
writes the files serially.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from typing import IO, Any, Callable, Iterable

from . import cli
from .engine import (
    LogRecorder,
    Scenario,
    TrajectoryLog,
    form_theta,
    pair_columns,
    robot_columns,
)


def usable_cpus() -> int:
    """The CPUs this process may use where forking is safe, else 1.  It is
    safe where ``os.fork`` and ``os.sched_getaffinity`` exist and this
    process has one thread: a child forked beside another thread may inherit
    a lock that thread holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:  # threading.active_count() misses native threads, such as BLAS's
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return len(os.sched_getaffinity(0))


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


# ---------------------------------------------------------------------------
# run's forked writer

#: The run CSVs the forked writer formats, in the order of its files.
_RUN_CSVS = ("trajectory.csv", "pairs.csv")

#: A chunk is the fewest whole rows (one at least) that hold this many
#: values, 16 KB of doubles.  Of 512 to 8,192 values on two-robot runs
#: (2 CPUs, CPython 3.11), this one gave the forked ``run`` its best times:
#: a smaller chunk reaches the writer sooner, and costs more per value.
_CHUNK_VALUES = 2_048


def _shipped(log: TrajectoryLog) -> list[tuple[Any, str]]:
    """Where each shipped column lives in ``log``, as (owner, attribute), in
    the order a chunk holds them: ``t``, then the run layout's columns
    (``robot_columns``, ``pair_columns``) but the pairs' ``theta``, which
    the writer forms from the positions (``form_theta``)."""
    return (
        [(log, "t")]
        + [(log.robots[rid], col.attr) for _, col, rid in robot_columns(log.robot_ids())]
        + [(log.pairs[key], col.attr) for _, col, key in pair_columns(log.pair_ids())
           if col.attr != "theta"]
    )


def _send(fd: int, data: array) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_doubles(pipe: IO[bytes], count: int) -> array:
    data = pipe.read(8 * count)
    if len(data) != 8 * count:
        raise EOFError("the pipe ends inside a chunk")
    return array("d", data)


def _write_shipped(scenario: Scenario, read_fd: int, outs: list[IO[str]]) -> None:
    """The forked writer's job: read chunks from ``read_fd`` until the pipe
    ends, and append their rows to the staged trajectory.csv and pairs.csv,
    ``outs``.  A chunk is its row count, then each shipped column's values
    in those rows.  Whether the parent shipped every row is the parent's to
    know (``RunWriter.finish``)."""
    log = TrajectoryLog.empty(scenario)
    slots = _shipped(log)
    with open(read_fd, "rb") as pipe, outs[0] as trajectory, outs[1] as pairs:
        outputs = [(trajectory, cli.trajectory_table), (pairs, cli.pairs_table)]
        for out, table in outputs:
            out.write(cli.table_header(table(log)))
        while head := pipe.read(8):
            rows = int(array("d", head)[0])
            values = _read_doubles(pipe, rows * len(slots)).tolist()
            for k, (owner, attr) in enumerate(slots):
                setattr(owner, attr, values[k * rows:(k + 1) * rows])
            form_theta(log)
            for out, table in outputs:
                out.writelines(cli.table_rows(table(log)))


def _new_dirs(path: str) -> list[str]:
    """The directories ``os.makedirs(path)`` would make, deepest first."""
    made = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):  # the root always exists
        made.append(path)
        path = os.path.dirname(path)
    return made


class RunWriter(LogRecorder):
    """``run``'s recorder when a forked child formats trajectory.csv and
    pairs.csv (see the module docstring).

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
            writer.staged = cli.Staged(outdir, _RUN_CSVS)
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
        self.columns = [getattr(owner, attr) for owner, attr in _shipped(self.log)]
        kept = {id(t), *(id(trace.r) for trace in self.log.pairs.values())}
        # what run_summary does not read, emptied once shipped
        self.emptied = [column for column in self.columns if id(column) not in kept]
        chunk = max(1, _CHUNK_VALUES // len(self.columns))

        def record(time: float) -> None:
            record_row(time)
            if len(t) - self.shipped >= chunk:
                self._ship()

        return record

    def result(self) -> TrajectoryLog:
        """The log as ``cli.run_summary`` reads it: ``t``, the events and
        each pair's ``r``.  Every other column ends empty, and the pairs'
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
                _send(self.fd, data)
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

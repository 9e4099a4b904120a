"""Run ``vortex-ca`` command lines in this new interpreter, and print what
they did as one JSON object, the last line of stdout.

Whether a command forks, loads numpy or leaves a child behind shows only in
a fresh interpreter: a test process has loaded numpy, whose thread keeps
every job in one process.  The argument is a JSON object: ``argvs``, the
command lines ``cli.main`` runs in turn, and ``hooks``, any of ``HOOKS``.
Tests run the probe through ``common_runs.fresh``; by hand, from the
repository root:

    PYTHONPATH=src python -W default::ResourceWarning tests/probe.py \\
        '{"argvs": [["run", "coop_headon", "-o", "out/headon"]], "hooks": {}}'

Each run sees two usable CPUs unless ``cpus`` says otherwise.  The probe
imports ``vortex_ca`` and ``vortex_ca.cli`` only; a hook imports what it
needs only when it is set, so that what each command loads shows.  The
result holds each command's exit code (``codes``), children forked
(``forked``), whether numpy was loaded before it (``numpy``), the parent's
``form_theta`` calls (``thetas``) and, with ``trace`` and ``builds``, the
parent's traced peak in bytes (``peaks``) and the writer child's table
builds (``builds``); which ``WATCHED`` modules are loaded after the imports
and after each command (``loaded``); how each child ended, sorted
(``ends``), whether every child was reaped (``reaped``), and the names in
``vortex_ca.__all__`` that do not resolve (``unresolved``).
"""

import functools
import json
import os
import sys

import vortex_ca
from vortex_ca import cli, engine

WATCHED = ("numpy", "vortex_ca.analysis", "vortex_ca.sweep_metrics", "vortex_ca.forks",
           "vortex_ca.rundir", "multiprocessing", "concurrent.futures", "subprocess")

HOOKS = {
    "cpus": 2,  # the usable CPUs (os.sched_getaffinity)
    "forks_before_failure": None,  # os.fork raises OSError once this many children forked
    "thread": False,  # a second thread runs until every command is done
    "min_work": None,  # the sweep's fork threshold (cli._FORK_MIN_WORK)
    "force_fork": False,  # every job may use two processes (cli._processes)
    "die_at_lambda": None,  # a sweep child exits 3 at the cell of this lambda
    "hold_at": None,  # a sweep child sleeps 30 s at the cell of this scenario name
    "fail_at": None,  # the parent's results.csv cell of this value raises OSError
    "writer_exits": None,  # the writer child pauses this long in its row formatter, exits 3
    "writer_closes": None,  # ... closes its pipe's read end there, pauses this long, exits 0
    "writer_status": None,  # the writer child exits with this status once it wrote every row
    "block_staged": False,  # a directory where each command's staged trajectory.csv goes
    "trace": False,  # trace the parent's memory over each command, forks loaded first
    "builds": False,  # count the writer child's table builds
}


def loaded():
    return [name for name in WATCHED if name in sys.modules]


def patch(owner, name):
    """Replace ``owner.name`` by the decorated hook, called with the replaced one first."""
    def install(hook):
        setattr(owner, name, functools.partial(hook, getattr(owner, name)))
        return hook
    return install


def probe(argvs, hooks):
    hooks = dict(HOOKS, **hooks)
    if hooks.keys() != HOOKS.keys():
        raise SystemExit(f"unknown hooks: {sorted(hooks.keys() - HOOKS.keys())}")
    result = {"unresolved": [name for name in vortex_ca.__all__ if not hasattr(vortex_ca, name)],
              "loaded": [loaded()], "codes": [], "forked": [], "numpy": [], "thetas": []}
    parent, children, ends, real_waitpid = os.getpid(), [], [], os.waitpid
    os.sched_getaffinity = lambda pid: set(range(hooks["cpus"]))

    @patch(os, "fork")
    def fork(real):
        if len(children) == hooks["forks_before_failure"]:
            raise OSError(11, "Resource temporarily unavailable")
        pid = real()
        if pid:
            children.append(pid)
        return pid

    @patch(os, "waitpid")
    def waitpid(real, pid, options):
        done, status = real(pid, options)
        if os.WIFSIGNALED(status):
            ends.append(["signal", os.WTERMSIG(status)])
        else:
            ends.append(["exit", os.WEXITSTATUS(status)])
        return done, status

    @patch(engine, "form_theta")
    def form_theta(real, log):
        if os.getpid() == parent:
            result["thetas"][-1] += 1
        return real(log)

    if hooks["min_work"] is not None:
        cli._FORK_MIN_WORK = hooks["min_work"]
    if hooks["force_fork"]:
        cli._processes = lambda *job: 2
    if hooks["die_at_lambda"] is not None or hooks["hold_at"] is not None:
        import time

        @patch(cli, "run")
        def run(real, scenario, *recorder):
            if os.getpid() != parent and scenario.params.lam == hooks["die_at_lambda"]:
                os._exit(3)
            if os.getpid() != parent and scenario.name == hooks["hold_at"]:
                time.sleep(30)
            return real(scenario, *recorder)

    if hooks["fail_at"] is not None:
        @patch(cli, "_sweep_cell")
        def sweep_cell(real, value):
            if os.getpid() == parent and value == hooks["fail_at"]:
                raise OSError(5, "Input/output error")
            return real(value)

    if hooks["writer_exits"] is not None or hooks["writer_closes"] is not None:
        import stat
        import time

        @patch(cli, "table_rows")
        def table_rows(real, columns):
            if os.getpid() != parent and hooks["writer_exits"] is not None:
                time.sleep(hooks["writer_exits"])
                os._exit(3)
            if os.getpid() != parent:
                for fd in map(int, os.listdir("/proc/self/fd")):
                    try:  # the pipe's read end is the one FIFO above stderr
                        if fd > 2 and stat.S_ISFIFO(os.fstat(fd).st_mode):
                            os.close(fd)
                    except OSError:  # the listing's own descriptor, closed already
                        pass
                time.sleep(hooks["writer_closes"])
                os._exit(0)
            return real(columns)

    if hooks["writer_status"] is not None:
        from vortex_ca import forks  # after form_theta's patch, which counts the parent's calls

        @patch(forks, "_write_shipped")
        def write_shipped(real, *job):
            real(*job)
            os._exit(hooks["writer_status"])

    if hooks["builds"]:
        import mmap

        builds = memoryview(mmap.mmap(-1, 16)).cast("Q")  # shared with the forked children
        result["builds"] = []

        def counted(k, real, log):
            if os.getpid() != parent:
                builds[k] += 1
            return real(log)

        for k, name in enumerate(("trajectory_table", "pairs_table")):
            patch(cli, name)(functools.partial(counted, k))
    if hooks["thread"]:
        import threading

        release = threading.Event()
        threading.Thread(target=release.wait).start()
    if hooks["trace"]:
        import tracemalloc

        from vortex_ca import forks  # loaded first: a peak is the run's, not the import's
        result["peaks"] = []

    for argv in argvs:
        if hooks["block_staged"]:
            os.makedirs(os.path.join(argv[-1], f".trajectory.csv.{parent}.part"))
        before = len(children)
        result["numpy"].append("numpy" in sys.modules)
        result["thetas"].append(0)
        if hooks["trace"]:
            tracemalloc.start()
        result["codes"].append(cli.main(argv))
        if hooks["trace"]:
            result["peaks"].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        result["forked"].append(len(children) - before)
        result["loaded"].append(loaded())
        if hooks["builds"]:
            result["builds"].append(builds.tolist())
            builds[0] = builds[1] = 0
    if hooks["thread"]:
        release.set()
    try:
        real_waitpid(-1, os.WNOHANG)
        result["reaped"] = False
    except ChildProcessError:
        result["reaped"] = True
    result["ends"] = sorted(ends)
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    print(json.dumps(probe(request["argvs"], request["hooks"])))

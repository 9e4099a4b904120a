"""In-memory span tracer for the benchmark's traced runs.

A span wraps one module-level binding through which a vortex_ca module calls
another, and is named after the module that defines the function
(``kinematics.engagement``).  The tracer patches the *caller's* binding:
``engine`` imports ``engagement`` by name, so replacing
``vortex_ca.kinematics.engagement`` would record nothing.  A binding that no
longer exists (the caller was refactored) is reported as absent instead of
raising, and its span then reads zero calls.

Self time is a span's duration minus the union of its child spans.  Children
normally run on the span's own thread; a span that starts on a thread with no
open span (a sweep cell in the CLI's thread pool) is parented to the innermost
open span of the thread that installed the tracer, so overlapping cells are
merged, not summed, when that parent's self time is computed.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# (module whose binding is patched, attribute, span name)
TARGETS = (
    ("vortex_ca.cli", "main", "cli.main"),
    ("vortex_ca.cli", "cmd_run", "cli.cmd_run"),
    ("vortex_ca.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("vortex_ca.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("vortex_ca.cli", "cmd_plotdata", "cli.cmd_plotdata"),
    ("vortex_ca.cli", "read_run", "cli.read_run"),
    ("vortex_ca.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("vortex_ca.cli", "write_pairs_csv", "cli.write_pairs_csv"),
    ("vortex_ca.cli", "load_scenario", "scenarios.load_scenario"),
    ("vortex_ca.cli", "load_sweep", "scenarios.load_sweep"),
    ("vortex_ca.cli", "scenario_from_dict", "scenarios.scenario_from_dict"),
    ("vortex_ca.cli", "run", "engine.run"),
    ("vortex_ca.cli", "analyze_log", "analysis.analyze_log"),
    ("vortex_ca.cli", "pair_lyapunov_series", "analysis.pair_lyapunov_series"),
    ("vortex_ca.cli", "multi_lyapunov", "analysis.multi_lyapunov"),
    ("vortex_ca.engine", "engagement", "kinematics.engagement"),
    ("vortex_ca.engine", "propagate", "kinematics.propagate"),
    ("vortex_ca.engine", "total_force_from_engagements", "fields.total_force_from_engagements"),
    ("vortex_ca.engine", "desired_heading", "control.desired_heading"),
    ("vortex_ca.engine", "heading_controller", "control.heading_controller"),
    ("vortex_ca.engine", "wheel_speeds", "control.wheel_speeds"),
)

SPAN_NAMES = tuple(span for _, _, span in TARGETS)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Patch ``TARGETS`` while installed; aggregate calls, total and self time per span."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, dict]] = []
        self._anchor_stack = self._thread_state()[0]
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _thread_state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats = self._thread_state()
            parent = stack[-1] if stack else (self._anchor_stack[-1:] or [None])[0]
            children: list[tuple[float, float]] = []
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - _covered(children, start, end) if children else duration
                if parent is not None:
                    parent.append((start, end))
                rec = stats.get(name)
                if rec is None:
                    stats[name] = [1, duration, own]
                else:
                    rec[0] += 1
                    rec[1] += duration
                    rec[2] += own

        return wrapper

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> dict[str, tuple[int, float, float]]:
        """Return ``{span: (calls, total_s, self_s)}`` since the last take, and reset."""
        merged: dict[str, list] = {}
        with self._lock:
            for _, stats in self._threads:
                for name, (calls, total, own) in stats.items():
                    rec = merged.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += own
                stats.clear()
        return {name: tuple(rec) for name, rec in merged.items()}

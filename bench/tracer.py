"""Outside-in tracer for atispec.

Wraps, from outside the package, the functions one atispec module calls in
another.  Each target is replaced in every atispec module namespace that
binds it (a `from .x import f` copy included), so calls through any of those
names are recorded; `numpy.polynomial.legendre.leggauss` is replaced in
numpy's own module, which is where `rates` looks it up.  A target that no
longer exists is reported as absent, so refactors do not stop the trace.

Every call becomes a span (id, parent id, op index, name, start, end) kept
in memory; self time is a span's duration minus the time of its child
spans.  Counters record the work each call did (Bessel elements, Airy
points, angular nodes), attributed where it happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_jn(tr, state, args, kwargs, result):
    n = np.broadcast(args[0], args[1]).size
    state.counts["specfun.jn.elements"] += n
    if state.active["specfun.gen_bessel_orders"]:
        state.counts["specfun.gen_bessel_orders.jn_elements"] += n


def _count_orders(tr, state, args, kwargs, result):
    state.counts["specfun.gen_bessel_orders.orders"] += int(np.size(result))


def _count_airy(tr, state, args, kwargs, result):
    state.counts["specfun.airy_ai.points"] += int(np.size(_arg(args, kwargs, 0, "x")))


def _count_circular(tr, state, args, kwargs, result):
    n = int(np.size(_arg(args, kwargs, 3, "cos_theta")))
    state.counts["spectra.circular_channel_dwdo.points"] += n
    if tr.open_anywhere("rates.rate_direct"):
        state.counts["rates.rate_direct.points"] += n


def _count_point(tr, state, args, kwargs, result):
    # rate_direct may hand these to its worker threads
    if tr.open_anywhere("rates.rate_direct"):
        state.counts["rates.rate_direct.points"] += 1


def _count_direct(tr, state, args, kwargs, result):
    g = result.grid_report
    state.counts["rates.rate_direct.reported_points"] += (
        g["channels_summed"] * g["theta_points"] * g["phi_points"])


# (span name, module that defines the function, attribute, counter hook)
TARGETS = (
    ("cli.main", "atispec.cli", "main", None),
    ("cli.load_config", "atispec.cli", "load_config", None),
    ("cli.run_spectrum", "atispec.cli", "run_spectrum", None),
    ("cli.run_rate", "atispec.cli", "run_rate", None),
    ("rates.saddle_point", "atispec.rates", "saddle_point", None),
    ("rates.rate_direct", "atispec.rates", "rate_direct", _count_direct),
    ("rates.rate_airy", "atispec.rates", "rate_airy", None),
    ("rates.leggauss", "numpy.polynomial.legendre", "leggauss", None),
    ("spectra.dwdo_linear", "atispec.spectra", "dwdo_linear", _count_point),
    ("spectra.dwdo_general", "atispec.spectra", "dwdo_general", _count_point),
    ("spectra.dwdo_circular", "atispec.spectra", "dwdo_circular", None),
    ("spectra.dwdo_nonrel", "atispec.spectra", "dwdo_nonrel", None),
    ("spectra.circular_channel_dwdo", "atispec.spectra", "circular_channel_dwdo", _count_circular),
    ("kinematics.channel_kinematics", "atispec.kinematics", "channel_kinematics", None),
    ("specfun.gen_bessel", "atispec.specfun", "gen_bessel", None),
    ("specfun.gen_bessel_orders", "atispec.specfun", "gen_bessel_orders", _count_orders),
    ("specfun.airy_ai", "atispec.specfun", "airy_ai", _count_airy),
    # private, but spectra calls it directly
    ("specfun.jn", "atispec.specfun", "_jn", _count_jn),
)


class _ThreadState:
    """Open spans and tallies of one thread; merged by Tracer.summary()."""

    def __init__(self, root_parent: int):
        self.stack = [[root_parent, 0.0]]     # [span id, child time] per open span
        self.active: dict[str, int] = defaultdict(int)
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Install with `install()`, set `op` before each op, `uninstall()` after.

    Each thread keeps its own span stack and tallies, so worker threads
    (rate_direct's thread pool) lose no updates.  A worker thread's first
    span takes as parent the span open in the installing thread at that
    moment; the waiting thread's own span counts the wait as self time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._patches: list[tuple] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            parent = self._main.stack[-1][0] if self._states else 0
            state = self._local.state = _ThreadState(parent)
            self._states.append(state)
        return state

    def open_anywhere(self, name: str) -> bool:
        return any(state.active.get(name, 0) for state in self._states)

    def install(self) -> None:
        packages = [m for n, m in sys.modules.items() if n == "atispec" or n.startswith("atispec.")]
        for name, module_name, attr, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for m in [module, *packages]:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        spans, clock, ids = self.spans, time.perf_counter, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            span_id = next(ids)
            parent = state.stack[-1]
            frame = [span_id, 0.0]
            state.stack.append(frame)
            state.active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.stack.pop()
                state.active[name] -= 1
                duration = end - start
                parent[1] += duration
                stats = state.stats[name]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                spans.append((span_id, parent[0], self.op, name, start, end))
            if hook is not None:
                try:
                    hook(self, state, args, kwargs, result)
                except (LookupError, TypeError, AttributeError, ValueError):
                    # a changed signature or result loses the count, not the op
                    state.counts[name + ".hook_errors"] += 1
            return result

        return traced

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, counters, absent names."""
        stats: dict[str, list] = {name: [0, 0.0, 0.0] for name, *_ in TARGETS
                                  if name not in self.absent}
        counts: dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, (calls, total, self_s) in state.stats.items():
                agg = stats.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for key, value in state.counts.items():
                counts[key] += value
        return {"stats": stats, "counts": dict(counts), "absent": self.absent,
                "spans": len(self.spans), "threads": len(self._states)}

    def write_spans(self, path: Path, header: dict) -> None:
        """Spans as gzip'd JSON lines: one header object, then one list per span."""
        fields = ["id", "parent", "op", "name", "start_s", "end_s"]
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, name,
                                     round(start - origin, 9), round(end - origin, 9)]) + "\n")

"""Spans and counters for the traced run, installed from outside the package.

``Tracer.install`` replaces entry points of entroflow's flow, diagnostics,
support and cli modules with wrappers that record a span, and wraps
numpy.fft's rfft/irfft and the flow operator ``D2I`` with counters.  The
wrappers call the original functions with the original arguments, so a traced
solve computes the same numbers as an untraced one; the benchmark checks this
by comparing final states.  Nothing changes unless ``install`` is called.

A span is (solve, id, parent, name, start, end); every span of one solve
shares the solve id, and spans opened during set-up carry solve -1.  A span's
layer is its name up to the first dot.  Its self time is its duration minus
the durations of its children.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  Several are private seams that planned
# refactors will rename; a missing one is recorded in `absent`, and the
# metrics that need it are reported as absent, not as zero.
SEAMS = (
    ("entroflow.flow", "evolve", "flow.evolve"),
    ("entroflow.flow", "step", "flow.step"),
    ("entroflow.flow", "workspace", "flow.workspace"),
    ("entroflow.flow", "_semi_implicit_attempt", "flow.si_attempt"),
    ("entroflow.flow", "compute_record", "diagnostics.record"),
    ("entroflow.diagnostics", "run_monitors", "diagnostics.monitors"),
    ("entroflow.support", "reconstruct", "support.reconstruct"),
    ("entroflow.cli", "main", "cli.main"),
    ("entroflow.cli", "_emit_artifacts", "cli.artifacts"),
    ("entroflow.diagnostics", "read_csv", "cli.readback"),
    ("entroflow.flow", "read_snapshot", "cli.readback"),
)


class CountingOperator(np.ndarray):
    """A view of a dense operator that counts its ``@`` applications.

    The product is computed by np.matmul on the plain array, exactly as the
    untraced ``D2I @ x`` would be.
    """

    def __matmul__(self, other):
        self.counts["operator_applies"] += 1
        self.counts["operator_bytes"] += self.plain.nbytes
        return np.matmul(self.plain, other)


def _rebind(old, new):
    """Point every entroflow module attribute bound to `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "entroflow" or name.startswith("entroflow.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.solve = -1
        self.counts = Counter()
        self.fft_s = 0.0
        self._stack = []
        self._last_si_input = None
        self._proxies = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        sid = len(self.spans)
        self.spans.append([self.solve, sid, self._stack[-1] if self._stack else None,
                           name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def begin_solve(self):
        self.solve += 1
        self.counts.clear()
        self.fft_s = 0.0
        self._last_si_input = None
        return self.open("solve")

    def end_solve(self, sid):
        self.close(sid)
        counts = dict(self.counts)
        counts["fft_s"] = self.fft_s
        return counts

    def _spanned(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            return result if after is None else after(result)
        return wrapper

    # -- seams ---------------------------------------------------------------
    def install(self):
        """Wrap every seam that exists, and numpy.fft's rfft and irfft."""
        import entroflow.cli  # noqa: F401  (loads every module, cli's names too)
        for modname, attr, span in SEAMS:
            mod = sys.modules.get(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            before = after = None
            if attr == "workspace":
                after = self._counting_workspace
            elif attr == "_semi_implicit_attempt":
                before = self._si_attempt
            elif attr == "compute_record":
                fn = self._record_ffts(fn)
            _rebind(getattr(mod, attr), self._spanned(fn, span, before, after))
        for attr in ("rfft", "irfft"):
            setattr(np.fft, attr, self._timed_fft(getattr(np.fft, attr)))

    def _counting_workspace(self, ws):
        if not isinstance(getattr(ws, "D2I", None), np.ndarray):
            if "entroflow.flow.workspace.D2I" not in self.absent:
                self.absent.append("entroflow.flow.workspace.D2I")
            return ws
        key = id(ws)
        if key not in self._proxies:
            proxy = copy.copy(ws)
            op = ws.D2I.view(CountingOperator)
            op.plain, op.counts = ws.D2I, self.counts
            proxy.D2I = op
            self._proxies[key] = (ws, proxy)
        return self._proxies[key][1]

    def _si_attempt(self, h, *rest):
        # a rejected attempt is retried from the same state array
        self.counts["si_attempts"] += 1
        if h is self._last_si_input:
            self.counts["si_rejected"] += 1
        self._last_si_input = h

    def _record_ffts(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = tracer.counts["fft_calls"]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts["record_ffts"] += tracer.counts["fft_calls"] - before
        return counted

    def _timed_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.fft_s += time.perf_counter() - t0
                tracer.counts["fft_calls"] += 1
        return timed

    # -- results -------------------------------------------------------------
    def solve_times(self):
        """Per solve: seconds and calls by span name, self seconds by layer."""
        total = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(Counter)
        child = defaultdict(float)
        evolve_records = defaultdict(float)   # record time inside flow.evolve
        for solve, sid, parent, name, t0, t1 in self.spans:
            d = t1 - t0
            total[solve][name] += d
            calls[solve][name] += 1
            if parent is not None:
                child[parent] += d
                if name == "diagnostics.record" and self.spans[parent][3] == "flow.evolve":
                    evolve_records[solve] += d
        layer_self = defaultdict(lambda: defaultdict(float))
        for solve, sid, parent, name, t0, t1 in self.spans:
            layer_self[solve][name.split(".")[0]] += (t1 - t0) - child[sid]
        return {s: {"span_s": dict(total[s]), "calls": dict(calls[s]),
                    "self_s": dict(layer_self[s]),
                    "evolve_record_s": evolve_records[s]}
                for s in total if s >= 0}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("solve", "id", "parent", "name", "start", "end"), span))) + "\n")

"""Spans and call counts recorded around ds4's public functions.

The tracer wraps functions from outside the package: each wrapped
function records a span (batch, name, start, end, parent) while a batch is
being traced, and the hottest methods (quaternion and QMat2 products, the
4x4 embedding) only count their calls, since a span per call would cost
more than the call.  Spans stay in memory and are written out at the end
of the run.  A layer's self time is its span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

#: Span name -> (module, function).  Every ds4 module that imported the
#: function by name gets the wrapper too, so internal calls are seen.
SPANNED = {
    "gamma.unslash": ("ds4.gamma", "unslash"),
    "group.is_member": ("ds4.group", "is_member"),
    "group.decompose": ("ds4.group", "decompose"),
    "group.act_vector": ("ds4.group", "act_vector"),
    "group.reconstruct": ("ds4.group", "reconstruct"),
    "group.random_member": ("ds4.group", "random_member"),
    "algebra.exp": ("ds4.algebra", "exp"),
    "orbits.adjoint": ("ds4.orbits", "adjoint"),
    "orbits.to_coadjoint_coords": ("ds4.orbits", "to_coadjoint_coords"),
    "orbits.conservation_residuals": ("ds4.orbits", "conservation_residuals"),
    "orbits.orbit_matrix": ("ds4.orbits", "orbit_matrix"),
    "orbits.sample_orbit": ("ds4.orbits", "sample_orbit"),
    "suites.run_suite": ("ds4.suites", "run_suite"),
    "cli.main": ("ds4.cli", "main"),
}

#: Counter name -> (module, class, method).
COUNTED = {
    "quaternion.mul": ("ds4.quaternion", "Quaternion", "__mul__"),
    "gamma.qmat_matmul": ("ds4.gamma", "QMat2", "__matmul__"),
    "gamma.embed": ("ds4.gamma", "QMat2", "embed"),
}

BATCH = "batch"


class Tracer:
    """Collects spans and counts while `active`; passes calls through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.batch = -1
        self.spans: list = []
        self.counts = {name: [0] for name in COUNTED}
        self._stack: list[int] = []

    def _open(self) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, self.clock()

    def _close(self, idx: int, name: str, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (self.batch, name, start, end, parent)

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        cell = self.counts[name]

        def counted(*args):
            if self.active:
                cell[0] += 1
            return fn(*args)
        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def batch_span(self, index: int):
        """Trace one batch; its root span is named `batch`."""
        self.batch = index
        self.active = True
        idx, start = self._open()
        try:
            yield
        finally:
            self._close(idx, BATCH, start)
            self.active = False

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in seconds) over every traced batch."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: (0, 0.0) for name in SPANNED}
        for (_, name, start, end, _), inner in zip(self.spans, child):
            if name in totals:
                calls, busy = totals[name]
                totals[name] = (calls + 1, busy + (end - start - inner))
        return totals

    def call_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counts.items()}

    def dump(self, path) -> None:
        """Write spans (times in microseconds from the first span) and counts."""
        names = [BATCH, *SPANNED]
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[b, code[n], round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for b, n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["batch", "name", "start_us", "end_us", "parent"],
                       "names": names, "spans": rows, "counts": self.call_counts()}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Wrap ds4's functions for `tracer`; restore the originals on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ds4" or n.startswith("ds4.")]
    undo = []
    try:
        for name, (modname, attr) in SPANNED.items():
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = tracer.span(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        for name, (modname, clsname, attr) in COUNTED.items():
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__[attr]
            setattr(cls, attr, tracer.counter(name, orig))
            undo.append((cls, attr, orig))
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

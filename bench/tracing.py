"""Spans and counters around calls into robogather's layers.

Tracing works from outside the package: ``Tracer.install`` rebinds module
attributes (``geometry.sec``, ``model.round``, ...) and one class attribute
(``verify.Strategy.__call__``) to timing wrappers, and ``uninstall`` puts the
originals back. Python resolves module globals at call time, so calls made by
bare name inside a module are caught as well. The only function the package
imports by name (``from ... import``) is ``scalars.get_backend``, which is
not wrapped, so no measured call escapes.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent, run id) in memory;
* a *leaf* (the hottest functions, which call no other wrapped function)
  only adds to a call count and a time total. Its time is still charged to
  the enclosing span as child time, so self times stay exact.

The self time of a span is its duration minus the time covered by its
children (spans and leaves).
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module attribute path, metric name) of every wrapped function.
SPANS = (
    ("model.execute", "model.execute"),
    ("model.round", "model.round"),
    ("gather2d.pgm", "gather2d.pgm"),
    ("gather2d.round_global", "gather2d.round_global"),
    ("gather2d.summarize", "gather2d.summarize"),
    ("geometry.sec", "geometry.sec"),
    ("verify.run_one", "verify.run_one"),
    ("verify.check_trace", "verify.check_trace"),
    ("verify.gen_initial", "verify.gen_initial"),
    ("verify.Strategy.__call__", "verify.strategy"),
    ("traceio.write_trace", "traceio.write_trace"),
    ("traceio.read_trace", "traceio.read_trace"),
    ("cli.main", "cli.main"),
    ("cli.cmd_run", "cli.cmd_run"),
    ("cli.cmd_check", "cli.cmd_check"),
)
LEAVES = (
    ("frames.apply", "frames.apply"),
    ("frames.make_frame", "frames.make_frame"),
    ("frames.inverse", "frames.inverse"),
    ("model.spectrum_of", "model.spectrum_of"),
    ("geometry.circumcircle", "geometry.circumcircle"),
)

ROOT_SPAN = "bench.run"


def _resolve(mods, path):
    """(owner object, attribute name) for a dotted path like 'verify.Strategy.__call__'."""
    parts = path.split(".")
    owner = mods[parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Collects spans, leaf counters and a few argument statistics."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, run id]
        self.child_s: list[float] = []  # time covered by children, per span
        self.stack: list[int] = [-1]
        self.calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.sec_points = 0
        self.checked: list = []  # (trace, backend) handed to verify.check_trace
        self.run_id = -1
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        spans, child_s, stack, calls = self.spans, self.child_s, self.stack, self.calls

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            child_s.append(0.0)
            stack.append(idx)
            calls[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
                if parent >= 0:
                    child_s[parent] += t1 - t0

        return wrapper

    def _leaf(self, name, fn):
        child_s, stack, calls, leaf_s = self.child_s, self.stack, self.calls, self.leaf_s

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                leaf_s[name] += dt
                parent = stack[-1]
                if parent >= 0:
                    child_s[parent] += dt

        return wrapper

    def _count_sec_points(self, args):
        self.sec_points += len(args[0])

    def _keep_checked(self, args):
        self.checked.append((args[0], args[1]))

    def install(self, mods) -> None:
        hooks = {
            "geometry.sec": self._count_sec_points,
            "verify.check_trace": self._keep_checked,
        }
        for path, name in SPANS:
            owner, attr = _resolve(mods, path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, hooks.get(path)))
        for path, name in LEAVES:
            owner, attr = _resolve(mods, path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._leaf(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def root(self, run_id: int, fn, *args):
        """Call ``fn(*args)`` inside a root span tagged with ``run_id``."""
        self.run_id = run_id
        return self._span(ROOT_SPAN, fn)(*args)

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self seconds per span name, plus the full time of every leaf."""
        out: Counter = Counter(self.leaf_s)
        for (name, t0, t1, _parent, _run), child in zip(self.spans, self.child_s):
            out[name] += (t1 - t0) - child
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        """One JSON list per span: pass, name, start, end, parent index, run id."""
        for name, t0, t1, parent, run in self.spans:
            fh.write(json.dumps([pass_index, name, t0, t1, parent, run]) + "\n")

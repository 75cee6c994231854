"""Span tracing of the package's layers, done from outside the package.

``Tracer.install`` rebinds each traced function at the module attribute
its caller looks up (``cli.load_scenario``, ``sampling.simulate_batch``,
``keyrate.key_rate_point`` ...), so calls made through those names record
a span: name, start, end, parent span, thread and run id. ``uninstall``
puts every original object back and reports any name it could not
restore. Spans stay in memory until ``write_jsonl``.

Parent links follow the calling thread's open spans. A thread with no
open span (a worker of the CLI's sweep pool) is parented to the span the
driver thread has open, so pool work is attributed to the command that
started the pool.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from itertools import count
from threading import get_ident
from time import perf_counter_ns
from typing import NamedTuple

# (module name inside the package, attribute, span name). A function
# imported by name into several modules is rebound in each of them.
TRACED_NAMES = (
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("sampling", "simulate_batch", "sampling.simulate_batch"),
    ("sampling", "write_sample_csv", "sampling.write_sample_csv"),
    ("sampling", "read_sample_csv", "sampling.read_sample_csv"),
    ("estimation", "blocked_correlation", "estimation.blocked_correlation"),
    ("estimation", "read_points_csv", "estimation.read_points_csv"),
    ("estimation", "fit_mode_overlap", "estimation.fit_mode_overlap"),
    ("estimation", "write_fit_report", "estimation.write_fit_report"),
    ("model", "correlation_coefficient", "model.correlation_coefficient"),
    ("estimation", "correlation_coefficient", "model.correlation_coefficient"),
    ("keyrate", "correlation_coefficient", "model.correlation_coefficient"),
    ("keyrate", "key_rate_point", "keyrate.key_rate_point"),
    ("keyrate", "optimize_attenuation", "keyrate.optimize_attenuation"),
    ("keyrate", "distance_cutoff", "keyrate.distance_cutoff"),
    ("keyrate", "key_rate_from_measurement", "keyrate.key_rate_from_measurement"),
)

# Spans whose first argument is a file path record that file's size.
_SIZED = {"sampling.write_sample_csv", "sampling.read_sample_csv"}


class Span(NamedTuple):
    run: int
    id: int
    parent: int | None
    name: str
    thread: int
    start: int
    end: int
    nbytes: int | None

    @property
    def duration_ns(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._ids = count(1)
        self._local = threading.local()
        self._driver_stack = []
        self._saved = []

    def _open(self):
        """Push a new span id on this thread's stack; return (stack, id, parent)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif self._driver_stack and stack is not self._driver_stack:
            parent = self._driver_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name):
        open_span = self._open
        append = self.spans.append
        sized = name in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = open_span()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                nbytes = None
                if sized and args and isinstance(args[0], (str, os.PathLike)):
                    nbytes = os.path.getsize(args[0])
                append(Span(self.run_id, sid, parent, name, get_ident(), start, end,
                            nbytes))

        return traced

    def install(self, package):
        """Rebind every name in ``TRACED_NAMES`` that ``package`` has.

        Must be called from the driver thread.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._driver_stack
        for module_name, attr, span_name in TRACED_NAMES:
            module = getattr(package, module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def uninstall(self):
        """Restore every rebound name; return those left unrestored."""
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        left = [f"{module.__name__}.{attr}" for module, attr, original in self._saved
                if getattr(module, attr) is not original]
        self._saved = []
        return left

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"run": s.run, "id": s.id, "parent": s.parent,
                                    "name": s.name, "thread": s.thread,
                                    "start_ns": s.start, "end_ns": s.end}) + "\n")


def _covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class RunSummary:
    """Per-name aggregates of the spans of one run id.

    ``self_ns`` of a span is its duration minus the part of it that its
    child spans cover.
    """

    def __init__(self, spans):
        by_id = {s.id: s for s in spans}
        children = {}
        for s in spans:
            if s.parent in by_id:
                children.setdefault(s.parent, []).append(s)
        self.calls, self.total_ns, self.self_ns, self.nbytes = {}, {}, {}, {}
        self._child_calls = {}
        self._child_ns = {}
        for s in spans:
            kids = children.get(s.id, ())
            covered = _covered_ns(s.start, s.end, [(k.start, k.end) for k in kids])
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total_ns[s.name] = self.total_ns.get(s.name, 0) + s.duration_ns
            self.self_ns[s.name] = self.self_ns.get(s.name, 0) + s.duration_ns - covered
            if s.nbytes is not None:
                self.nbytes[s.name] = self.nbytes.get(s.name, 0) + s.nbytes
            for k in kids:
                key = (s.name, k.name)
                self._child_calls[key] = self._child_calls.get(key, 0) + 1
                self._child_ns[s.name] = self._child_ns.get(s.name, 0) + k.duration_ns

    def child_calls(self, parent_name, child_name):
        """Number of ``child_name`` spans directly under ``parent_name`` spans."""
        return self._child_calls.get((parent_name, child_name), 0)

    def child_ns(self, parent_name):
        """Summed duration of all spans directly under ``parent_name`` spans."""
        return self._child_ns.get(parent_name, 0)

"""Spans recorded from outside the program, for the traced run.

The tracer replaces public names in the modules that look them up with
wrappers that record a span per call: name, start, end and the span that
was open when the call began. Spans are kept in memory, in flat arrays,
and written out when the run ends. Nothing under src/ changes; the
originals are put back when tracing stops.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from contextlib import contextmanager
from functools import wraps

# (module, names) pairs: each name is wrapped where that module looks it up.
WRAPPED = (
    ("gammabw.lambertw", ("w0", "wm1", "branch_difference_from_log_ratio")),
    ("gammabw.bandwidth", ("w0", "wm1", "branch_difference_from_log_ratio", "fwhm")),
    ("gammabw.cli", ("fwhm", "fwym", "gamma_pdf", "approx_proportional_error", "oracle_crossings")),
)
LAMBERT = frozenset({"w0", "wm1", "branch_difference_from_log_ratio"})
CUTS = frozenset({"fwym", "fwhm", "octave_bandwidth", "inverse_pdf"})


class Tracer:
    """Spans in memory: name id, parent index (-1 at the top), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        """Open a span whose times are filled in by finish()."""
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def finish(self, i: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish, ns = self.begin, self.finish, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i, t0, ns())

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        try:
            for module_name, names in WRAPPED:
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, self.wrap(name, fn))
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")

    def summary(self, overhead_ns: float) -> dict:
        """Per-name span durations and self times; per top-level span, in
        order, (duration, time in direct children, direct children, all
        descendants); and the time spent in all top-level spans and in
        top-level lambertw and oracle spans. A self time is the span's
        duration minus its children's and minus the wrapper overhead each
        child adds outside its own span."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        kids = [0] * n
        desc = [0] * n
        for i in range(n - 1, -1, -1):  # a child is always recorded after its parent
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                kids[p] += 1
                desc[p] += desc[i] + 1
        names = [self.names[k] for k in self.name]
        by_name: dict[str, dict[str, list[float]]] = {}
        units = []
        unit_ns = lambert_ns = oracle_ns = 0
        for i in range(n):
            entry = by_name.setdefault(names[i], {"dur": [], "self": []})
            entry["dur"].append(dur[i])
            entry["self"].append(dur[i] - child[i] - kids[i] * overhead_ns)
            p = self.parent[i]
            if p < 0:
                unit_ns += dur[i]
                units.append((dur[i], child[i], kids[i], desc[i]))
            if names[i] in LAMBERT and (p < 0 or names[p] not in LAMBERT):
                lambert_ns += dur[i]
            if names[i] == "oracle_crossings":
                oracle_ns += dur[i]
        return {
            "by_name": by_name,
            "units": units,
            "unit_ns": unit_ns,
            "lambert_ns": lambert_ns,
            "oracle_ns": oracle_ns,
        }


def wrapper_overhead_ns(batches: int = 5, calls: int = 20000) -> float:
    """Time a wrapper adds to its caller outside the span it records, from
    a wrapped no-op: the median per batch, least over the batches, since
    interference only adds time."""
    estimates = []
    for _ in range(batches):
        scratch = Tracer()

        def noop():
            return None

        traced = scratch.wrap("noop", noop)
        ns = time.perf_counter_ns
        bare, wrapped = [], []
        for _ in range(calls):
            t0 = ns()
            noop()
            bare.append(ns() - t0)
            t0 = ns()
            traced()
            wrapped.append(ns() - t0)
        inner = [e - s for s, e in zip(scratch.start, scratch.end)]
        outside = statistics.median(w - i for w, i in zip(wrapped, inner))
        estimates.append(max(0.0, outside - statistics.median(bare)))
    return min(estimates)


def median_us(values: list[int]) -> float:
    """Median in microseconds of nanosecond values; 0 when there are none."""
    return statistics.median(values) / 1e3 if values else 0.0

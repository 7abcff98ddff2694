"""Spans around the package's public layer functions, recorded from outside.

``Tracer.install`` replaces each layer function object with a wrapper
wherever a ``wavetriads.*`` module binds it, so calls between modules go
through the wrapper too; ``uninstall`` puts the originals back.  A frame
stack attributes time: a frame's self time is its duration minus the time
of the frames it encloses, so the self times of one query add up to the
query's duration.

Three kinds of wrapper:

* span   - recorded as (id, name, start, end, parent, query) in memory;
* leaf   - hot, childless functions (``eval_frequency``): only a call count
           and the time, no span record;
* count  - a call count, no timing (``minimal_near_resonant``).

Bookkeeping the benchmark does while a query runs (counting candidates)
is timed as a ``bench.bookkeeping`` frame so that it is not charged to the
layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import candidates

# (module, function, layer name, wrapper kind)
LAYERS = [
    ("wavetriads.cli", "main", "cli", "span"),
    ("wavetriads.report", "to_json", "report.json", "span"),
    ("wavetriads.report", "triads_to_csv", "report.csv", "span"),
    ("wavetriads.report", "triads_to_table", "report.table", "span"),
    ("wavetriads.report", "plan_to_table", "report.table", "span"),
    ("wavetriads.report", "triads_to_records", "report.records", "span"),
    ("wavetriads.report", "plan_to_record", "report.records", "span"),
    ("wavetriads.search", "find_near_triads", "search.near", "span"),
    ("wavetriads.search", "find_max_discrepancy_triads", "search.maxd", "span"),
    ("wavetriads.search", "find_exact_triads", "search.exact", "span"),
    ("wavetriads.search", "discrepancy_lower_bound", "search.bound", "span"),
    ("wavetriads.search", "iter_ari_triads", "search.ari", "span"),
    ("wavetriads.classify", "resonant_seed_triads", "classify.seeds", "span"),
    ("wavetriads.classify", "select_bridges", "classify.bridges", "span"),
    ("wavetriads.classify", "classify_modes", "classify.partition", "span"),
    ("wavetriads.classify", "cascade_path", "classify.cascade", "span"),
    ("wavetriads.classify", "minimal_near_resonant", "classify.bridge_searches", "count"),
    ("wavetriads.experiment", "plan_experiment", "experiment.plan", "span"),
    ("wavetriads.dispersion", "eval_frequency", "dispersion.eval_frequency", "leaf"),
    ("wavetriads.dispersion", "omega_grid", "dispersion.omega_grid", "leaf"),
]

# Searches whose candidates and outputs are counted, by layer name.
COUNTED_SEARCHES = {"search.near": "near", "search.maxd": "maxd",
                    "search.exact": "exact", "search.ari": "ari"}
COUNTED_RESULTS = {"classify.seeds", "classify.bridges", "classify.partition",
                   *COUNTED_SEARCHES}


class Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    def __init__(self):
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.query = None
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    # -- frames -------------------------------------------------------------

    def push(self, name: str, record: bool = True) -> Frame:
        span_id = len(self.spans) if record else None
        if record:
            self.spans.append(None)
        frame = Frame(name, perf_counter(), span_id)
        self.stack.append(frame)
        return frame

    def pop(self, frame: Frame) -> float:
        end = perf_counter()
        self.stack.pop()
        dur = end - frame.start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        self.calls[frame.name] += 1
        if not any(f.name == frame.name for f in self.stack):
            self.total_s[frame.name] += dur    # inclusive, outermost only
        self.self_s[frame.name] += dur - frame.child
        if frame.span_id is not None:
            self.spans[frame.span_id] = (
                frame.span_id, frame.name, frame.start, end,
                parent.span_id if parent is not None else None, self.query)
        return dur

    def reset_totals(self):
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name):
        tracer = self
        is_gen = inspect.isgeneratorfunction(fn)
        counted = COUNTED_SEARCHES.get(name)
        sig = inspect.signature(fn) if counted else None
        bookkeeping = name in COUNTED_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
                if is_gen:
                    # Materialise inside the span so that the consumer's
                    # loop body is not charged to the generator.
                    result = list(result)
            finally:
                tracer.pop(frame)
            if bookkeeping and tracer.stack:
                book = tracer.push("bench.bookkeeping", record=False)
                tracer._count_result(name, counted, sig, args, kwargs, result)
                tracer.pop(book)
            return iter(result) if is_gen else result

        return wrapper

    def _leaf(self, fn, name):
        stack = self.stack
        calls, total, own = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - t0
            if stack:
                stack[-1].child += dur
            calls[name] += 1
            total[name] += dur
            own[name] += dur
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_result(self, name, op, sig, args, kwargs, result):
        counts = self.counts
        if op is not None:
            self._count_search(op, sig, args, kwargs, result)
        elif name == "classify.seeds":
            counts["classify.seeds.count"] += len(result)
        elif name == "classify.bridges":
            counts["classify.bridges.count"] += len(result)
        elif name == "classify.partition":
            a, p, n = result.counts()
            counts["classify.active"] += a
            counts["classify.passive"] += p
            counts["classify.neutral"] += n

    def _count_search(self, op, sig, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        spec, domain = a["spec"], a["domain"]
        exact_kind = spec.kind == "rossby_sphere"
        closure = a.get("closure", "auto")
        if closure == "auto":
            closure = "zonal" if exact_kind else "both"
        skip = a.get("skip_equal_n_pairs", True)
        self.counts["search.candidates"] += candidates.search_candidates(
            op, exact_kind, domain.truncation, domain.shape, closure, skip)
        self.counts["search.triads_out"] += len(result)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer function wherever a wavetriads module binds it."""
        makers = {"span": self._span, "leaf": self._leaf, "count": self._count}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wavetriads"
                                         or n.startswith("wavetriads."))]
        self.missing = []
        for mod_name, fn_name, layer, kind in LAYERS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = makers[kind](original, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    def spans_as_records(self):
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "query": s[5]} for s in self.spans if s]

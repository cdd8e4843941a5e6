"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install()` wraps each function in TRACED with a span that records
its name, its parent span, its wall time and its thread CPU time
(`time.thread_time()`), and rebinds the wrapper under every name that held
the original in any `latpoly` module, so calls made through
`from .polytope import vertex_data` are traced too.  Each thread keeps its
own parent stack; the first span of a worker thread takes the outermost
span of the main thread as its parent.

Inner-loop helpers (`contains`, `dot`, `vsub`, ...) are not wrapped: a span
costs a few microseconds, more than those helpers themselves.

A span's self time is its wall time minus the time covered by its child
spans.  Children in the same thread nest, so their durations add up;
children in other threads (batch workers) overlap, so the union of their
intervals is taken.
"""

from __future__ import annotations

import math
import sys
import threading
import time

# (module, function) pairs wrapped with spans.
TRACED = [
    ("cli", "main"),
    ("cli", "_batch_entry"),
    ("fileio", "load_polytope"),
    ("polytope", "canonicalize"),
    ("polytope", "is_bounded"),
    ("polytope", "reduce_vertices"),
    ("polytope", "vertex_data"),
    ("polytope", "facets"),
    ("polytope", "lattice_points"),
    ("invariants", "codegree"),
    ("invariants", "qcodegree"),
    ("invariants", "nef_value"),
    ("invariants", "classify"),
    ("cayley", "width_candidates"),
    ("cayley", "detect"),
    ("cayley", "same_normal_fan"),
    ("cayley", "check_localsplit"),
    ("lpx", "solve"),
    ("ratlin", "solve_exact"),
    ("ratlin", "det"),
    ("ratlin", "rank"),
    ("ratlin", "smith_normal_form"),
]

# Functions under an unbounded lru_cache: a first sight of an argument is
# a miss, so the work of the miss is counted there.
_CACHED = {"polytope.vertex_data", "polytope.facets"}

# Leaf helpers called up to 10^5 times per run: their spans are counted and
# timed but not kept, which keeps the span file and the tracer's memory small.
_LEAVES = {"ratlin.det", "ratlin.solve_exact", "ratlin.rank"}


class _Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu", "inner", "cross")

    def __init__(self, name, parent, thread, start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = 0.0
        self.cpu = 0.0
        self.inner = 0.0   # summed duration of same-thread children
        self.cross = []    # (start, end) of children in other threads


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stats = {}     # name -> [calls, self seconds]
        self._wait = 0.0
        self._local = threading.local()
        self._root = None
        self._patched = []   # (module, attribute, original)
        self._originals = {}
        self._seen = {name: set() for name in _CACHED}
        self._lock = threading.Lock()

    # -- installation -----------------------------------------------------

    def install(self):
        import latpoly  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "latpoly" or n.startswith("latpoly.")]
        for modname, funcname in TRACED:
            module = sys.modules[f"latpoly.{modname}"]
            original = getattr(module, funcname)
            name = f"{modname}.{funcname}"
            self._originals[name] = original
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        self._cache_start = {n: self._originals[n].cache_info() for n in _CACHED}

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, original):
        local = self._local
        perf = time.perf_counter
        cpu = time.thread_time
        after = self._after

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            span = _Span(name, parent, threading.get_ident(), perf())
            if parent is None and threading.current_thread() is threading.main_thread():
                self._root = span
            stack.append(span)
            c0 = cpu()
            try:
                result = original(*args, **kwargs)
            finally:
                span.cpu = cpu() - c0
                span.end = perf()
                stack.pop()
                if parent is not None:
                    if parent.thread == span.thread:
                        parent.inner += span.end - span.start
                    else:
                        parent.cross.append((span.start, span.end))
                self._close(span)
                if self._root is span:
                    self._root = None
            after(name, args, result, parent)
            return result

        traced.__wrapped__ = original
        return traced

    def _close(self, span):
        duration = span.end - span.start
        covered = span.inner + _union(span.cross)
        with self._lock:
            entry = self._stats.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += max(0.0, duration - covered)
            if span.name == "cli._batch_entry" and span.thread != threading.main_thread().ident:
                self._wait += duration - span.cpu
            if span.name not in _LEAVES:
                self.spans.append(span)

    def _after(self, name, args, result, parent):
        count = self._count
        if name == "lpx.solve":
            count("lpx.solve.rows", len(args[0].lhs))
        elif name == "polytope.reduce_vertices":
            count("polytope.reduce_vertices.points", len(args[0]))
        elif name == "polytope.lattice_points":
            count("polytope.lattice_points.points", len(result))
            if parent is not None and parent.name == "invariants.codegree":
                count("invariants.codegree.shrink_queries")
        elif name == "cayley.width_candidates":
            count("cayley.width_candidates.candidates", len(result))
        elif name == "cayley.detect":
            count("cayley.detect.found", int(result is not None))
        elif name in _CACHED:
            arg = args[0]
            with self._lock:
                first = arg not in self._seen[name]
                self._seen[name].add(arg)
            if first:
                size = len(arg.facets) if name == "polytope.vertex_data" else len(arg.vertices)
                count(f"{name}.subsets", math.comb(size, arg.dim))

    # -- results ----------------------------------------------------------

    def layer_stats(self):
        """Per-name calls and self seconds, the counts, the cache figures and
        the batch workers' wait."""
        out = {}
        for name, (calls, self_s) in self._stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        for name in _CACHED:
            info = self._originals[name].cache_info()
            start = self._cache_start[name]
            out[f"{name}.hits"] = info.hits - start.hits
            out[f"{name}.misses"] = info.misses - start.misses
            out[f"{name}.entries"] = info.currsize
        out["cli.batch.wait_s"] = self._wait
        return out

    def span_records(self):
        """Every kept span as [name, parent name, thread, start, end, cpu]."""
        return [
            [s.name, s.parent.name if s.parent else None, s.thread, s.start, s.end, s.cpu]
            for s in self.spans
        ]


def _union(intervals):
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total

"""In-memory span tracing of baresim's public entry points.

The tracer wraps functions and methods from the outside: it replaces the
attribute in every baresim module that holds the original object, so calls
made through ``from .engine import is_estimate`` style imports are seen too.
Each wrapped call records one span (name, layer, start, end, parent span,
solve id, thread).  ``uninstall`` puts the originals back.

Per-layer numbers are derived from the spans afterwards.  A span's self time
is its duration minus the durations of its children on the same thread; busy
time of a layer is summed over threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

LAW_METHODS = ("sample_block_sum", "sample_tilted_block")
ENGINE_FUNCTIONS = ("proxy_q_star", "compute_taus", "is_estimate", "finalize",
                    "ingest_sample")
PROBLEM_FUNCTIONS = ("solve", "reduce_quadratic", "reduce_linear",
                     "reduce_assignment", "reduce_transport")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "solve", "thread", "start",
                 "end", "size", "result")

    def __init__(self, id_, parent, name, layer, solve, thread):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.solve = solve
        self.thread = thread
        self.start = self.end = 0.0
        self.size = 0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "solve": self.solve, "thread": self.thread,
                "start": self.start, "end": self.end, "size": self.size}


class Tracer:
    """Records spans around baresim entry points while installed.

    ``solve_id`` is set by the caller before each solve; solves run one at a
    time, so worker threads read it without a lock.  ``list.append`` and
    ``next`` on ``itertools.count`` are atomic under the interpreter lock,
    which is all the sharing between threads that the wrappers do.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.solve_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer, outermost=False, size=None, keep_result=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if outermost and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = Span(next(tracer._ids), stack[-1].id if stack else None, name,
                        layer, tracer.solve_id, threading.get_ident())
            if size is not None:
                span.size = size(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if keep_result:
                span.result = out
            return out

        return traced

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, owner, attr, wrap):
        """Swap ``owner.attr`` in every baresim module that refers to it."""
        original = getattr(owner, attr)
        new = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "baresim" and mod.__dict__.get(attr) is original:
                self._replace(mod, attr, new)

    # -- install / uninstall ----------------------------------------------

    def install(self, modules) -> None:
        """Wrap the entry points of the modules named in ``modules``
        (a mapping from "laws", "constraints", "engine", "problems" and
        "cli" to the imported baresim modules)."""
        laws, constraints = modules["laws"], modules["constraints"]
        engine, problems, cli = modules["engine"], modules["problems"], modules["cli"]

        def block_size(args, kwargs):
            return int(kwargs["size"] if "size" in kwargs else args[-1])

        def row_count(args, kwargs):
            points = args[1] if len(args) > 1 else kwargs["points"]
            shape = getattr(points, "shape", None)
            return int(shape[0]) if shape is not None and len(shape) == 2 else 1

        for cls in vars(laws).values():
            if isinstance(cls, type) and issubclass(cls, laws.WeightLaw):
                for meth in LAW_METHODS:
                    if meth in cls.__dict__:
                        self._replace(cls, meth, self._wrap(
                            cls.__dict__[meth], f"laws.{meth}", "laws",
                            outermost=True, size=block_size))
        self._replace(constraints.ConstraintSet, "contains", self._wrap(
            constraints.ConstraintSet.contains, "constraints.contains",
            "constraints", outermost=True, size=row_count))
        for fn in ENGINE_FUNCTIONS:
            self._replace_everywhere(engine, fn, lambda f, fn=fn: self._wrap(
                f, f"engine.{fn}", "engine", keep_result=True))
        # only the name engine imports: proxy ranking and polish
        self._replace(engine, "divergence", self._wrap(
            engine.divergence, "divergence.divergence", "divergence"))
        for fn in PROBLEM_FUNCTIONS:
            self._replace_everywhere(problems, fn, lambda f, fn=fn: self._wrap(
                f, f"problems.{fn}", "problems"))
        self._replace(cli, "main", self._wrap(cli.main, "cli.main", "cli"))
        self._replace(engine, "ThreadPoolExecutor",
                      _traced_pool(self, engine.ThreadPoolExecutor))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _traced_pool(tracer: Tracer, base):
    """Thread pool whose tasks run as ``engine.batch`` spans under the
    submitting span, and whose ``map`` waits for all tasks inside an
    ``engine.pool_wait`` span, so that the waiting thread's wall time is not
    counted as busy time."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            task = tracer._wrap(fn, "engine.batch", "engine")

            def submit_and_wait():
                parent = tracer._stack()[-1]  # this engine.pool_wait span

                def run(*args):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return task(*args)
                    finally:
                        stack.pop()

                return list(base.map(self, run, *iterables, **kwargs))

            return tracer._wrap(submit_and_wait, "engine.pool_wait", "wait")()

    return TracedPool


PROXY_SPANS = ("engine.proxy_q_star", "engine.compute_taus")


def exact_counts(spans) -> dict:
    """Layer work counts over a set of traced solves; they repeat exactly for
    a fixed workload seed and solve count."""
    laws = [s for s in spans if s.layer == "laws"]
    estimates = [s.result for s in spans if s.name == "engine.is_estimate"]
    proxies = [s.result for s in spans if s.name == "engine.proxy_q_star"]
    return {
        "laws.calls": len(laws),
        "laws.block_sums": sum(s.size for s in laws),
        "constraints.points": sum(s.size for s in spans if s.layer == "constraints"),
        "engine.proxy_draws": sum(int(p.draws_used) for p in proxies),
        "divergence.calls": sum(1 for s in spans if s.layer == "divergence"),
        "engine.hits": sum(int(e.hits) for e in estimates),
    }


def layer_metrics(spans, solves: int) -> dict:
    """Per-solve layer times and counts from the spans of ``solves`` solves.

    Returns plain numbers keyed by metric name; times are busy seconds per
    solve, counts are per solve.
    """
    by_id = {s.id: s for s in spans}
    same_thread_children = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            same_thread_children[parent.id] = same_thread_children.get(parent.id, 0.0) + s.duration

    def self_time(s) -> float:
        return s.duration - same_thread_children.get(s.id, 0.0)

    def ancestor_names(s):
        parent = by_id.get(s.parent)
        while parent is not None:
            yield parent.name
            parent = by_id.get(parent.parent)

    def in_batches(s) -> bool:
        names = set(ancestor_names(s))
        return "engine.is_estimate" in names and not names.intersection(PROXY_SPANS)

    def total(spans_, measure=lambda s: s.duration) -> float:
        return sum(measure(s) for s in spans_)

    laws = [s for s in spans if s.layer == "laws"]
    tilted = [s for s in laws if s.name == "laws.sample_tilted_block"]
    untilted = [s for s in laws if s.name == "laws.sample_block_sum"]
    contains = [s for s in spans if s.layer == "constraints"]
    estimates = [s.result for s in spans if s.name == "engine.is_estimate"]
    counts = exact_counts(spans)

    isf_self = total((s for s in spans if s.name in ("engine.is_estimate", "engine.batch")),
                     self_time)
    batches = isf_self + total(s for s in laws + contains if in_batches(s))
    replications = sum(int(e.L) for e in estimates)
    block_sums = counts["laws.block_sums"]
    points = counts["constraints.points"]
    per = 1.0 / solves
    return {
        "laws.tilted_draw_s": total(tilted) * per,
        "laws.untilted_draw_s": total(untilted) * per,
        "laws.calls": counts["laws.calls"] * per,
        "laws.block_sums": block_sums * per,
        "laws.ns_per_block_sum": total(laws) * 1e9 / block_sums if block_sums else 0.0,
        "constraints.contains_s": total(contains) * per,
        "constraints.calls": len(contains) * per,
        "constraints.points": points * per,
        "constraints.ns_per_point": total(contains) * 1e9 / points if points else 0.0,
        "engine.proxy_s": total(s for s in spans if s.name in PROXY_SPANS) * per,
        "engine.proxy_draws": counts["engine.proxy_draws"] * per,
        "divergence.calls": counts["divergence.calls"] * per,
        "divergence.s": total(s for s in spans if s.layer == "divergence") * per,
        "engine.batches_s": batches * per,
        "engine.isf_self_s": isf_self * per,
        "engine.ns_per_replication": batches * 1e9 / replications if replications else 0.0,
        "engine.hits": counts["engine.hits"] * per,
        "engine.hit_rate": counts["engine.hits"] / replications if replications else 0.0,
        "engine.invert_s": total(s for s in spans if s.name == "engine.finalize") * per,
        "engine.ingest_s": total(s for s in spans if s.name == "engine.ingest_sample") * per,
        "problems.reduce_s": total((s for s in spans if s.layer == "problems"), self_time) * per,
        "cli.overhead_s": total((s for s in spans if s.layer == "cli"), self_time) * per,
    }

"""Span tracing for the benchmark's traced pass.

The tracer wraps public freshblend functions from outside the package:
each call becomes a span, and spans nest by call order.  Only aggregates
are kept in memory (calls, self time, items per span name), because a
single pass makes hundreds of thousands of kernel calls.

Self time is a span's duration minus the time its direct child spans
cover.  All times are integer nanoseconds from ``perf_counter_ns``, so
self times are never negative and the self times of every span under a
root add up to the root's duration exactly.  The wrappers' own counting
runs in a span of its own (``trace.bookkeeping``), so the functions'
self times hold only program work.
"""

import sys
import time
from contextlib import contextmanager


def _rows(args, result):
    return len(args[0])


def _ranking_rows(args, result):
    return sum(len(ranking) for ranking in result.values())


def _table_rows(args, result):
    return len(result)


def _feature_rows(args, result):
    return len(result.rows)


def _text_bytes(args, result):
    return len(args[1].encode("utf-8"))


# (module, attribute path, items counter or None).  Items are the rows or
# pool entries a call processed, so batching shows as fewer calls for the
# same items.  The loaders' items add up to corpus.rows_parsed and the
# writer's to fileio.bytes_written.
TARGETS = (
    ("corpus", "load_rankings", _ranking_rows),
    ("corpus", "load_features", _feature_rows),
    ("corpus", "load_queries", _table_rows),
    ("corpus", "load_judgments", _table_rows),
    ("corpus", "generate_corpus", None),
    ("corpus", "write_corpus", None),
    ("recency_classifier", "train_gbrt", None),
    ("recency_classifier", "predict", None),
    ("recency_classifier", "predict_batch", None),
    ("freshness", "derive_fresh_ranking", None),
    ("calibration", "build_candidates", None),
    ("diversifier", "candidate_arrays", None),
    ("diversifier", "blend", None),
    ("experiments", "prepare_queries", None),
    ("experiments", "PreparedQuery.blend_order", None),
    ("experiments", "sweep_estimate", None),
    ("experiments", "bucket_comparison", None),
    ("experiments", "ab_test", None),
    ("experiments", "mann_whitney_u", None),
    ("kernels", "greedy_blend", _rows),
    ("kernels", "err_iaa_batch", _rows),
    ("kernels", "simulate_clicks_batch", _rows),
    ("kernels", "best_split", _rows),
    ("kernels", "tree_apply", _rows),
    ("fileio", "atomic_write_text", _text_bytes),
)

LOADERS = ("corpus.load_rankings", "corpus.load_features", "corpus.load_queries",
           "corpus.load_judgments")


def target_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Aggregates nested spans: ``stats[name] = [calls, self_ns, items]``.

    ``blends`` counts blends attempted and blends whose page differs from
    the ordinary top page (diversifier.pages_changed_ratio).
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats = {}
        self.blends = [0, 0]
        self._stack = []

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    def _close(self, name, start, child):
        duration = self.clock() - start
        self._stack.pop()
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += duration - child[0]
        if self._stack:
            self._stack[-1][0] += duration
        return duration

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` as a span named ``name``."""
        child = [0]
        self._stack.append(child)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start, child)

    @contextmanager
    def span(self, name):
        """A span around a block; yields a one-element list that receives
        the span's duration in nanoseconds when the block ends."""
        holder = [0]
        child = [0]
        self._stack.append(child)
        start = self.clock()
        try:
            yield holder
        finally:
            holder[0] = self._close(name, start, child)

    def add_items(self, name, count):
        self._stat(name)[2] += count

    def self_ns_total(self) -> int:
        return sum(stat[1] for stat in self.stats.values())


def _page_changed(name, args, result):
    """Whether a blend's page differs from the ordinary top page."""
    if name == "diversifier.blend":
        candidates = args[0]
        ordinary = sorted((c for c in candidates if c.ordinary_rank is not None),
                          key=lambda c: c.ordinary_rank)
        top = tuple(c.doc_id for c in ordinary[:len(result.doc_ids)])
        return tuple(result.doc_ids) != top
    prepared, config = args[0], args[2]
    initial = prepared.initial_order[:config.depth]
    return len(result) != len(initial) or bool((result != initial).any())


_BLENDS = ("diversifier.blend", "experiments.PreparedQuery.blend_order")

# The span that holds the wrappers' own counting (items, page changes), so
# that its cost is not charged to the caller's self time.
BOOKKEEPING = "trace.bookkeeping"


def _wrap(tracer, name, fn, items):
    observe_blend = name in _BLENDS

    def book(args, result):
        if items is not None:
            tracer.add_items(name, items(args, result))
        if observe_blend:
            tracer.blends[0] += 1
            tracer.blends[1] += _page_changed(name, args, result)

    if items is None and not observe_blend:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            tracer.call(BOOKKEEPING, book, (args, result), {})
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def instrument(tracer, targets=TARGETS):
    """Wrap every target where its callers look it up.

    A function is rebound in every loaded freshblend module whose
    globals hold it, because ``cli`` and ``experiments`` import functions
    by name; a method is rebound on its class.  Returns
    ``(absent, restore)``: the names of targets that no longer exist and
    a callable that undoes the wrapping.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "freshblend" or n.startswith("freshblend."))]
    undo = []
    absent = []
    for module_name, attr, items in targets:
        name = target_name(module_name, attr)
        owner = sys.modules.get(f"freshblend.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent.append(name)
            continue
        wrapper = _wrap(tracer, name, original, items)
        if path:
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return absent, restore

"""Span tracing around blockspot's module-level bindings, from outside the program.

``Tracer.install`` swaps timing wrappers into the names the program's own
callers look up (``blockspot.pipeline.geometric_order``, ...) and
``uninstall`` puts the originals back.  Each wrapped call opens a span with
a name, start, end and parent.  The parent stack is per thread; a pool
worker's first span is adopted by the open ``pipeline.run`` span, which is
exact here because the benchmark orders one document at a time.

Self time is a span's duration minus the time its children cover.  Spans
that ran on pool workers are scaled by the share of the ``run`` interval
their union covers (the inverse of the run's parallelism), so the self
times of all spans add up to the wall time of the root spans.  Hot leaves
(``Document.line_by_id``) are timed and counted but not kept as span
records; ``quad_iou`` is only counted.  Span records stay in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from blockspot import evaluation, fuzzy, model, pipeline


class _Frame:
    __slots__ = ("name", "id", "parent_id", "start", "child", "record", "adopter", "children")

    def __init__(self, name, span_id, parent_id, start, record):
        self.name = name
        self.id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0  # time covered by same-thread children
        self.record = record
        self.adopter = None  # the cross-thread parent of a pool worker's first span
        self.children = None  # (start, end, self times) of adopted children


class _ThreadStats:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.sink = self.self_s  # where self time goes; a worker's own dict while adopted
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)


def _union_length(intervals) -> float:
    covered, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        covered += e - max(s, end)
        end = e
    return covered


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._adopter: _Frame | None = None
        self._patches: list[tuple[object, str, object, bool]] = []
        self.spans: list[tuple[int, int, str, int, float, float]] = []

    # ---------------------------------------------------------------- spans

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def _enter(self, name: str, record: bool = True) -> _Frame:
        stats = self._stats()
        if stats.stack:
            parent = stats.stack[-1]
            frame = _Frame(name, next(self._ids), parent.id, time.perf_counter(), record)
        elif self._adopter is not None:
            frame = _Frame(name, next(self._ids), self._adopter.id, time.perf_counter(), record)
            frame.adopter = self._adopter
            stats.sink = defaultdict(float)
        else:
            frame = _Frame(name, next(self._ids), 0, time.perf_counter(), record)
        stats.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stats = self._stats()
        duration = end - frame.start
        own = duration - frame.child
        if frame.children:
            covered = _union_length((s, e) for s, e, _ in frame.children)
            busy = sum(e - s for s, e, _ in frame.children)
            own -= covered
            for _, _, times in frame.children:
                for name, value in times.items():
                    stats.sink[name] += value * covered / busy if busy else 0.0
        stats.sink[frame.name] += own
        stats.total_s[frame.name] += duration
        stats.calls[frame.name] += 1
        stats.stack.pop()
        if stats.stack:
            stats.stack[-1].child += duration
        elif frame.adopter is not None:
            frame.adopter.children.append((frame.start, end, stats.sink))
            stats.sink = stats.self_s
        if frame.record:
            self.spans.append((frame.id, frame.parent_id, frame.name, threading.get_ident(), frame.start, end))

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used for the per-document root)."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def add(self, name: str, value: float) -> None:
        self._stats().counts[name] += value

    def peak(self, name: str, value: float) -> None:
        stats = self._stats()
        stats.peaks[name] = max(stats.peaks[name], value)

    # ------------------------------------------------------------- wrappers

    def wrap(self, fn, name: str, *, record: bool = True, adopt: bool = False, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, record)
            if adopt:
                outer, tracer._adopter = tracer._adopter, frame
                frame.children = []
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopt:
                    tracer._adopter = outer
                tracer._exit(frame)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer._stats().counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper(original))

    def install(self, backend=None) -> None:
        w = self.wrap
        self.patch(model, "parse_document", lambda f: w(f, "model.parse"))
        self.patch(model, "serialize_document", lambda f: w(f, "model.serialize"))
        self.patch(model.Document, "line_by_id", lambda f: w(f, "model.line_by_id", record=False))
        self.patch(pipeline, "recognize_document", lambda f: w(f, "pipeline.recognize"))
        self.patch(pipeline, "plan_recognition", lambda f: w(f, "geometry.plan", count=_count_plan))
        self.patch(pipeline, "run", lambda f: w(f, "pipeline.run", adopt=True))
        self.patch(pipeline, "order_block", lambda f: w(f, "pipeline.order_block"))
        self.patch(pipeline, "geometric_order", lambda f: w(f, "geo_order", count=_count_order))
        self.patch(pipeline, "build_prompt", lambda f: w(f, "prompting.build", count=_count_prompt))
        self.patch(pipeline, "complete", lambda f: w(f, "llm.complete"))
        self.patch(evaluation, "evaluate", lambda f: w(f, "evaluation.evaluate", count=_count_pairs))
        self.patch(evaluation, "match_blocks", lambda f: w(f, "evaluation.match"))
        self.patch(evaluation, "block_hull", lambda f: w(f, "evaluation.hull"))
        self.patch(evaluation, "quad_iou", lambda f: self.counted(f, "geometry.iou_calls"))
        self.patch(evaluation, "best_fuzzy_substring", lambda f: w(self._with_search_stats(f), "fuzzy"))
        self.patch(evaluation, "compute_metrics", lambda f: w(f, "metrics"))
        self.patch(evaluation, "report_to_json", lambda f: w(f, "evaluation.report"))
        if backend is not None:
            self.patch(backend, "send", lambda f: w(f, "llm.send"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:  # the wrapper shadowed a method of the owner's class
                delattr(owner, attr)

    def _with_search_stats(self, fn):
        """Count cells and, while ``SearchStats`` exists, the comparisons made."""
        stats_type = getattr(fuzzy, "SearchStats", None)
        tracer = self

        @functools.wraps(fn)
        def search(query, corpus, *args, **kwargs):
            tracer.add("fuzzy.oracle_cells", len(query) * len(corpus))
            if stats_type is None:
                return fn(query, corpus, *args, **kwargs)
            stats = stats_type()
            result = fn(query, corpus, *args, stats=stats, **kwargs)
            tracer.add("fuzzy.comparisons", stats.comparisons)
            return result

        return search

    # -------------------------------------------------------------- results

    def totals(self):
        """Merged (self seconds, inclusive seconds, calls, counts, peaks)."""
        self_s, total_s = defaultdict(float), defaultdict(float)
        calls, counts, peaks = defaultdict(int), defaultdict(int), defaultdict(int)
        for stats in self._threads:
            for merged, part in (
                (self_s, stats.self_s),
                (total_s, stats.total_s),
                (calls, stats.calls),
                (counts, stats.counts),
            ):
                for k, v in part.items():
                    merged[k] += v
            for k, v in stats.peaks.items():
                peaks[k] = max(peaks[k], v)
        return self_s, total_s, calls, counts, peaks

    def write_spans(self, path: Path, origin: float) -> None:
        with path.open("w", encoding="utf-8") as sink:
            for span_id, parent, name, thread, start, end in self.spans:
                row = {"id": span_id, "parent": parent, "name": name, "thread": thread,
                       "start": round(start - origin, 7), "end": round(end - origin, 7)}
                sink.write(json.dumps(row) + "\n")


def _count_plan(tracer, args, result):
    tracer.add("geometry.plan_lines", len(result))


def _count_order(tracer, args, result):
    tracer.add("geo_order.lines", len(args[0]))
    tracer.peak("geo_order.max_lines", len(args[0]))


def _count_prompt(tracer, args, result):
    tracer.add("prompting.chars", result.total_chars)


def _count_pairs(tracer, args, result):
    tracer.add("evaluation.pairs", len(result.pairs))

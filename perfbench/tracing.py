"""Spans around the program's layers, recorded from outside the program.

A :class:`Tracer` times named spans and keeps them in memory. With
``spark`` given it also tags each span's Spark work with
``sc.setJobGroup`` and, once the run is over, counts the span's jobs and
tasks through ``sc.statusTracker()``; without it a span is only a
timer, which is what the untraced runs use for their phase times.

:meth:`Tracer.wrap` replaces a function in a module namespace with one
that runs it inside a span, which is how spans reach layer calls made
inside the experiment harnesses without editing the program.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from stats import group_work


class Tracer:
    def __init__(self, spark=None):
        self.sc = spark.sparkContext if spark is not None else None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: seconds spent in the tracer's own bookkeeping inside spans.
        self.overhead_s = 0.0

    def _group(self, span_id: int | None) -> str:
        if span_id is None:
            return "perfbench.unattributed"
        return f"{self.spans[span_id]['name']}#{span_id}"

    @contextmanager
    def span(self, name: str, **attrs):
        t_enter = time.perf_counter()
        span_id = len(self.spans)
        rec = {"id": span_id, "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(span_id)
        if self.sc is not None:
            self.sc.setJobGroup(self._group(span_id), name)
        t0 = time.perf_counter()
        self.overhead_s += t0 - t_enter
        try:
            yield rec
        finally:
            t1 = time.perf_counter()
            rec["dur_s"] = t1 - t0
            self._stack.pop()
            if self.sc is not None:
                parent = self._stack[-1] if self._stack else None
                self.sc.setJobGroup(self._group(parent), "")
            self.overhead_s += time.perf_counter() - t1

    @staticmethod
    def patch(module, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)`` for the rest of
        the process (a traced benchmark process ends with its run)."""
        setattr(module, attr, make(getattr(module, attr)))

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Run ``module.attr`` inside a span. ``name`` is the span name or
        a function of the call's arguments giving it; ``after(rec,
        result, *args, **kwargs)`` may add attributes from the result."""

        def make(fn):
            def traced(*args, **kwargs):
                span_name = name(*args, **kwargs) if callable(name) else name
                with self.span(span_name) as rec:
                    result = fn(*args, **kwargs)
                if after is not None:
                    t0 = time.perf_counter()
                    after(rec, result, *args, **kwargs)
                    self.overhead_s += time.perf_counter() - t0
                return result

            return traced

        self.patch(module, attr, make)

    def count_spark_work(self) -> None:
        """Attach ``spark_jobs``/``spark_tasks`` to every span (its own
        jobs, not its children's). Call after the traced work is over."""
        if self.sc is None:
            return
        time.sleep(0.5)  # let the listener bus post the last job-end events
        tracker = self.sc.statusTracker()
        seen: set[int] = set()
        for rec in self.spans:
            rec["spark_jobs"], rec["spark_tasks"] = group_work(
                tracker, self._group(rec["id"]), seen
            )

    def in_layer(self, rec: dict, prefix: str) -> bool:
        """True when ``rec`` or one of its ancestors is a ``prefix`` span."""
        while rec is not None:
            if rec["name"].startswith(prefix):
                return True
            rec = self.spans[rec["parent"]] if rec["parent"] is not None else None
        return False

    def total(self, prefix: str) -> float:
        """Σ ``dur_s`` over spans named with ``prefix`` (outermost only, so
        nested spans of one layer are not counted twice)."""
        out = 0.0
        for rec in self.spans:
            if not rec["name"].startswith(prefix):
                continue
            parent = self.spans[rec["parent"]] if rec["parent"] is not None else None
            if parent is not None and self.in_layer(parent, prefix):
                continue
            out += rec["dur_s"]
        return out

    def layer_work(self, prefix: str) -> tuple[int, int]:
        """Spark jobs and tasks run inside ``prefix`` spans, children
        included."""
        jobs = tasks = 0
        for rec in self.spans:
            if self.in_layer(rec, prefix):
                jobs += rec.get("spark_jobs", 0)
                tasks += rec.get("spark_tasks", 0)
        return jobs, tasks

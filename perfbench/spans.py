"""In-memory spans for the benchmark's traced run.

The benchmark calls every library function through ``tracer.call``. The
untraced run uses ``NullTracer``, which calls straight through; the traced run
uses ``Tracer``, which records one span per call and writes them out only
when the run ends.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Records nothing: the timed, untraced run."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    """Records spans ``[op_id, span_id, parent_id, name, start, end]``.

    ``op_id`` is set by the caller before each operation, so all spans of
    one operation share it. Counters add up per name over the whole run.
    """

    def __init__(self):
        self.op_id = None
        self.spans = []
        self.counts = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name):
        span = [self.op_id, len(self.spans), self._open[-1] if self._open else None,
                name, time.perf_counter(), None]
        self.spans.append(span)
        self._open.append(span[1])
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        self.counts[name] += value

    def self_seconds(self, op_ids):
        """Seconds per span name over ``op_ids``, minus time spent in child spans."""
        child = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            if parent is not None and op in op_ids:
                child[parent] += end - start
        totals = defaultdict(float)
        for op, span_id, _, name, start, end in self.spans:
            if op in op_ids:
                totals[name] += end - start - child[span_id]
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

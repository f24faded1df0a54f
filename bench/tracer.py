"""In-memory span tracer for the benchmark's traced run.

A `Tracer` wraps callables so that every call becomes a span: name,
start, end, parent span and the job that was running.  Self time (a
span's duration minus the time its child spans cover) and call counts
are accumulated per span name as the calls happen, so no span has to be
kept for them.  Spans of at least KEEP_S seconds are also kept and
written out by `write_spans` at the end of the run; every shorter span
is still counted and timed.  A parent span always lasts at least as long
as its children, so the kept spans form a closed tree.

Generators are traced per `next()`: each resumption is a span named
`<name>.next`, and the items produced are counted as `<name>.yielded`.
"""

import functools
import itertools
import json
import time
from collections import Counter, defaultdict

KEEP_S = 1e-3


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.calls = Counter()          # span name -> number of spans
        self.counts = Counter()         # extra counters (yielded, hits, ...)
        self.self_s = defaultdict(float)  # layer -> seconds outside child spans
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.spans = []                 # kept spans as tuples, see write_spans
        self._stack = []                # open spans: [span id, child seconds]
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------
    def _open(self):
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, layer, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[1]
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if duration >= KEEP_S:
            self.spans.append((frame[0], name, start, end,
                               parent[0] if parent is not None else None, self.job))

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside one span."""
        clock = self.clock
        frame = self._open()
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, name, layer, start, clock())

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name, layer, fn, observe=None):
        """A traced stand-in for fn.  observe(args, kwargs), if given, runs
        inside the span before fn and returns a callable that receives
        fn's result, to update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            clock = tracer.clock
            frame = tracer._open()
            start = clock()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                done = observe(args, kwargs)
                result = fn(*args, **kwargs)
                done(result)
                return result
            finally:
                tracer._close(frame, name, layer, start, clock())

        return traced

    def wrap_generator(self, name, layer, fn):
        """A traced stand-in for a function that returns an iterator.  The
        call is one span named `name`; each resumption is a span named
        `name.next`."""
        tracer = self
        resumed = name + ".next"
        yielded = name + ".yielded"

        def resume(iterator):
            clock = tracer.clock
            while True:
                frame = tracer._open()
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, resumed, layer, start, clock())
                tracer.counts[yielded] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resume(iter(tracer.span(name, layer, fn, *args, **kwargs)))

        return traced

    # -- output ------------------------------------------------------------
    def write_spans(self, path):
        """Write kept spans as JSON lines, ordered by start time."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, job in sorted(self.spans, key=lambda s: s[2]):
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "job": job}) + "\n")

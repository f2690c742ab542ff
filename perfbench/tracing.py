"""Spans around snndfe's public functions, recorded from outside the package.

A Tracer replaces a function on the module or class where its caller looks it
up (for example `snndfe.train.simulate_link`, which `train.train` calls) with
a wrapper that records a span: name, start, end and the index of the span open
when it started. Spans stay in memory until `write`. `restore` puts every
original back; an untraced run never creates a Tracer, so it patches nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call; `count` is (counter, f(result) -> int)."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def patch_decider(self, cls, name: str, macs_counter: str):
        """Wrap the closure `cls.make_decider` returns, counting dense MACs per call."""
        original = cls.make_decider
        tracer = self

        def make_decider(model):
            macs = model.config.macs_per_symbol()
            return tracer.wrap(name, original(model), (macs_counter, lambda _: macs))

        self._patched.append((cls, "make_decider", original))
        cls.make_decider = make_decider

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[idx]
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON: a name table and [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - origin, 7), round(b - origin, 7), p]
                for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "counts": dict(self.counts), "spans": rows}, fh,
                      separators=(",", ":"))

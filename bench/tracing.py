"""In-memory spans recorded around the benchmark's calls into floatcyl.

A span is (name, start_ns, end_ns, parent index, op id).  Spans stay in a
list while the benchmark runs and are written out once at the end.  A
span's self time is its duration minus the time covered by its direct
children; children never overlap because there is one thread.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent, op]
        self._stack = []
        self.op = -1
        self.counts = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def summary(self) -> dict:
        """Per span name: call count, durations and self times in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, _), kids in zip(self.spans, child_ns):
            rec = out.setdefault(name, {"dur": [], "self": []})
            rec["dur"].append((end - start) * 1e-9)
            rec["self"].append((end - start - kids) * 1e-9)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")

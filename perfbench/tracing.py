"""In-memory spans around the benchmark's calls into each library layer.

A span records name, start, end, parent span, op id, round, probe flag and
the name of the exception it raised.  Spans stay in memory and are written
once, when the traced run ends.  A layer's self time is its span's duration
minus the part of that interval covered by its child spans.

``NullTracer`` has the same ``call`` interface and adds nothing but one
Python call, so the op code is shared by timed and traced rounds.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

FIELDS = ("name", "start", "end", "parent", "op", "round", "probe", "error")
NAME, START, END, PARENT, OP, ROUND, PROBE, ERROR = range(len(FIELDS))


class NullTracer:
    traced = False
    op = -1
    _root = nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def root(self, name, probe=False):
        return self._root


class Tracer:
    traced = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.round = -1
        self._probe = False

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def root(self, name, probe=False):
        """Top-level span of one op (or of the probes that follow it)."""
        self._probe = probe
        try:
            with self._span(name):
                yield
        finally:
            self._probe = False

    @contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, self.round, self._probe, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({**meta, "fields": FIELDS, "spans": self.spans}, fh)


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for idx, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(idx)
    out = []
    for idx, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        cursor = lo
        for a, b in sorted((spans[c][START], spans[c][END]) for c in children[idx]):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out

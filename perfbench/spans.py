"""Span recorder that times szego_lab's layers from outside the package.

A layer's public function is replaced, for the length of a traced op, at the
module attribute its callers look up (``toeplitz.assemble``,
``verify.moments``, ``cli.json_text``, ...).  Each call then leaves a span
(name, start, end, parent, op id) in memory, plus counts taken from its
arguments and result at the same boundary.  Nothing inside ``src/`` changes.
Spans are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """In-memory spans and per-op counts of one traced run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(float)  # (name, op id) -> total
        self._open: list[int] = []
        self.op = None

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so each call records a span and, via ``counter``, counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                for key, amount in counter(result, *args, **kwargs).items():
                    self.counts[(key, self.op)] += amount
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each (module, attribute, span name, counter) target while active."""
        saved = []
        try:
            for module, attr, name, counter in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def totals_by_op(spans, values=None) -> dict:
    """(span name, op id) -> summed self time, or summed ``values`` if given."""
    if values is None:
        values = self_times(spans)
    out: dict = defaultdict(float)
    for (name, _, _, _, op), value in zip(spans, values):
        out[(name, op)] += value
    return out

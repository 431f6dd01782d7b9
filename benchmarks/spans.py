"""In-memory span recording around calls into the program's layers.

A span is one call of a wrapped function: its name, start and end
(`perf_counter_ns`) and the span that was open when it began. Spans live in
flat arrays until `take()` turns them into per-name totals; a layer's self
time is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# observe(counts, args, result, duration_ns) records counts taken from a
# call's arguments, return value or the public attributes of its receiver.
Observer = Callable[[Counter, tuple, Any, int], None]


@dataclass
class SpanTotals:
    """Calls, total and self time (ns) of one span name, or of one edge."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def add(self, other: "SpanTotals") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns


@dataclass
class Taken:
    """What `Tracer.take` returns: totals by name and by (parent, child) edge."""

    by_name: dict[str, SpanTotals] = field(default_factory=dict)
    by_edge: dict[tuple[str, str], SpanTotals] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children.astype(np.int64)


class Tracer:
    """Records spans for every function it wraps, and counts from observers."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        """Return `fn` wrapped so that each call records a span called `name`."""
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        start, end, parent, names = self._start, self._end, self._parent, self._name
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result, end[index] - start[index])
            return result

        return traced

    def take(self) -> Taken:
        """Aggregate and forget the spans and counts recorded so far."""
        taken = Taken(counts=Counter(self.counts))
        if len(self._start):
            start, end, parent, name = (np.array(b, dtype=np.int64) for b in
                                        (self._start, self._end, self._parent, self._name))
            duration = end - start
            own = self_times(start, end, parent)
            for gid, sums in _sum_by(name, duration, own).items():
                taken.by_name[self._names[gid]] = sums
            # Edge key parent_id * n + child_id; root spans get parent_id -1.
            n = len(self._names)
            parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
            for gid, sums in _sum_by(parent_name * n + name, duration, own).items():
                pid, cid = divmod(gid, n)
                taken.by_edge[("-" if pid < 0 else self._names[pid], self._names[cid])] = sums
        for buffer in (self._start, self._end, self._parent, self._name):
            del buffer[:]
        self.counts.clear()
        return taken


def _sum_by(keys: np.ndarray, duration: np.ndarray, own: np.ndarray) -> dict[int, SpanTotals]:
    ids, inverse = np.unique(keys, return_inverse=True)
    calls = np.bincount(inverse)
    totals = np.bincount(inverse, weights=duration)
    selfs = np.bincount(inverse, weights=own)
    return {key: SpanTotals(int(c), int(t), int(s))
            for key, c, t, s in zip(ids.tolist(), calls, totals, selfs)}


class Patch:
    """Replaces attributes with wrapped versions and restores the originals."""

    def __init__(self, tracer: Tracer,
                 targets: list[tuple[str, object, str, Observer | None]]) -> None:
        self._tracer = tracer
        self._targets = targets
        self._saved: list[tuple[object, str, Any]] = []

    def __enter__(self) -> "Patch":
        for name, owner, attr, observe in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._tracer.wrap(original, name, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

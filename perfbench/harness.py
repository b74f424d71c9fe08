"""Span log, self time, percentiles and failure counting for the benchmark.

Nothing here imports superrad or numpy, so the self-tests run on synthetic
spans alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# A percentile is reported only as well supported as this many samples
# beyond it; callers pool operations across passes to reach it.
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log; spans opened inside another span become its children.

    Only the benchmark's own spans ("op", "step") may open at the top level.
    Layer calls made outside them, such as by the correctness checks, are
    not recorded.
    """

    TOP_LEVEL = ("op", "step")

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        if not self._stack and name not in self.TOP_LEVEL:
            return -1
        self.spans.append(Span(name, time.perf_counter(), math.nan,
                               self._stack[-1] if self._stack else None, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span | None:
        if idx < 0:
            return None
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - union_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def op_index(spans: list[Span]) -> list[int]:
    """Index of the top-level operation span that each span belongs to."""
    owner = []
    for i, s in enumerate(spans):
        owner.append(i if s.parent is None else owner[s.parent])
    return owner


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples ranked beyond it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def failure_count(spans: list[Span]) -> tuple[int, int]:
    """(failed, attempted) over the operation spans; an op fails if it raised or
    any of its checks failed, and counts once either way."""
    ops = [s for s in spans if s.name == "op"]
    return sum(1 for s in ops if s.attrs.get("failed")), len(ops)


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values")
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


class Patcher:
    """Swaps a function object for another in every given module that holds it.

    A name imported with `from m import f` is a separate reference in each
    importing module, so each of them must be patched.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def swap(self, old, new) -> int:
        hits = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))
                    hits += 1
        return hits

    def restore(self):
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)

"""Arithmetic behind the benchmark's numbers: percentiles, self time, ratios.

Kept free of any import from the package under test so that it can be
tested on its own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Percentile:
    """A percentile of a sample, with the sample count and the number of
    samples strictly above the reported value."""

    q: float
    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """q-th percentile (0 <= q <= 100), linear between order statistics.

    This is the rule numpy uses by default (``method="linear"``): the value
    at fractional rank ``(n - 1) * q / 100`` of the sorted sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    xs = sorted(values)
    rank = (len(xs) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    value = xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)
    beyond = sum(1 for x in xs if x > value)
    return Percentile(q=q, value=value, samples=len(xs), beyond=beyond)


def tail_percentile(values: Sequence[float], min_beyond: int = 10) -> Percentile | None:
    """Highest of p99/p95/p90/p75 that leaves at least `min_beyond` samples
    above it, or None when even p75 has too few."""
    for q in (99.0, 95.0, 90.0, 75.0):
        p = percentile(values, q)
        if p.beyond >= min_beyond:
            return p
    return None


@dataclass(frozen=True)
class Ratio:
    """numerator / base, kept together so that a ratio is always reported
    with what it was taken over.  A zero base gives the value 0."""

    numerator: float
    base: float

    @property
    def value(self) -> float:
        return self.numerator / self.base if self.base else 0.0


@dataclass(frozen=True)
class Span:
    """One timed call: `parent` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
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


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Grandchildren are not subtracted again: they lie inside their parent,
    which is already subtracted whole.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class SpanTotals:
    """Per span name: number of calls, inclusive and self seconds."""

    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> dict[str, SpanTotals]:
    out: dict[str, SpanTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, SpanTotals())
        t.calls += 1
        t.inclusive += s.duration
        t.self_time += own
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median with Python's default quartile rule
    (``statistics.quantiles(values, n=4)``, exclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf

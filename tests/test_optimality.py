"""Sampling-free optimality checks on seeded `plan_batch` winners.

The problem has exact structure that every shortest path respects, so these
checks need no sampling and hold to rounding, here within 1e-12 (the golden
corpus tolerance) on the unit sphere:
- reversal: d(M) = d(D M^T D), D = diag(1, -1, -1), the path run backwards;
- mirror, which swaps L and R: d(M) = d(S M S), S = diag(1, 1, -1);
- subpaths (Bellman's principle): split a winner at an interior arc length,
  and the prefix and the suffix are each a shortest path;
- monotonicity in r: a path that turns no tighter than r2 is feasible for
  every r1 < r2, so d(M; r) never decreases as r grows, also across the
  regime boundaries 1/2 and 1/sqrt(2), where the catalog changes.
A failure names the target, the split or radius pair, and both families.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import random_rotation, request_from_rotation
from sphere_dubins import geometry as geo
from sphere_dubins import planner as pl

SQRT2_INV = 1.0 / math.sqrt(2.0)
RADII = (0.3, 0.5, 0.6, SQRT2_INV, 0.8, math.sqrt(3.0) / 2.0)
COUNT = 200
BOUND = 1e-12
D = np.diag([1.0, -1.0, -1.0])
S = np.diag([1.0, 1.0, -1.0])


@lru_cache(maxsize=None)
def _targets() -> np.ndarray:
    rng = np.random.default_rng(2611)
    return np.stack([random_rotation(rng) for _ in range(COUNT)])


def _best(targets: np.ndarray, r: float) -> list[pl.PathCandidate]:
    results = pl.plan_batch([request_from_rotation(m, r) for m in targets])
    return [res.best_candidate for res in results]


@lru_cache(maxsize=None)
def _winners(r: float) -> tuple[pl.PathCandidate, ...]:
    return tuple(_best(_targets(), r))


def _assert_same_lengths(expected, found, label) -> None:
    for i, (a, b) in enumerate(zip(expected, found)):
        assert abs(a.unit_length - b.unit_length) <= BOUND, (label, i, a, b)


@pytest.mark.parametrize("r", RADII)
def test_reversal_keeps_the_shortest_length(r):
    reversed_targets = D @ _targets().transpose(0, 2, 1) @ D
    _assert_same_lengths(_winners(r), _best(reversed_targets, r), f"reversal at r={r}")


@pytest.mark.parametrize("r", RADII)
def test_mirror_keeps_the_shortest_length(r):
    mirrored = S @ _targets() @ S
    _assert_same_lengths(_winners(r), _best(mirrored, r), f"mirror at r={r}")


def _split(segments, s: float, geom) -> tuple[list[geo.Segment], list[geo.Segment]]:
    """The path cut at arc length s, inside the segment that holds s."""
    for j, seg in enumerate(segments):
        arc = seg.arc_length(geom)
        if s < arc:
            cut = seg.angle * s / arc
            head, tail = geo.Segment(seg.kind, cut), geo.Segment(seg.kind, seg.angle - cut)
            return list(segments[:j]) + [head], [tail] + list(segments[j + 1:])
        s -= arc
    raise AssertionError("split point past the end of the path")


@pytest.mark.parametrize("r", RADII)
def test_subpaths_of_a_winner_are_shortest(r):
    geom = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(int(r * 1e6))
    pieces = []
    for winner in _winners(r):
        s = rng.uniform(0.0, winner.unit_length)
        pieces.append((winner.family, s, *_split(winner.segments, s, geom)))
    for side in (2, 3):  # prefixes, then suffixes
        paths = [piece[side] for piece in pieces]
        found = _best(np.stack([geo.compose_path(p, geom) for p in paths]), r)
        for i, (piece, path, best) in enumerate(zip(pieces, paths, found)):
            gap = abs(best.unit_length - geo.path_length(path, geom))
            assert gap <= BOUND, (r, i, piece[:2], "prefix" if side == 2 else "suffix", best, gap)


def test_shortest_length_never_falls_as_r_grows():
    """On one set of targets, at the radii of the other checks and on pairs
    1e-9 either side of 1/2 and 1/sqrt(2), each step up in r keeps or
    raises every target's shortest length."""
    straddles = [b + d for b in (0.5, SQRT2_INV) for d in (-1e-9, 1e-9)]
    ladder = sorted(set(RADII) | set(straddles))
    lengths = {r: _winners(r) for r in ladder}
    for lo, hi in zip(ladder, ladder[1:]):
        for i, (a, b) in enumerate(zip(lengths[lo], lengths[hi])):
            assert b.unit_length - a.unit_length >= -BOUND, (i, lo, hi, a, b)

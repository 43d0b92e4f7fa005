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
The published RLpiR and RLRL instances take the reversal, mirror and
subpath checks too.  A failure names the target, the split or radius pair,
and both families.
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
PUBLISHED = {  # family: its published path and unit turning radius
    "RLpiR": ((geo.R(0.7), geo.L(math.pi), geo.R(0.7)), 0.71),
    "RLRL": ((geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)), 0.55),
}


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


def _published(family: str) -> tuple[np.ndarray, float, pl.PathCandidate]:
    """The published instance's target, radius and plan, which must be its family."""
    segments, r = PUBLISHED[family]
    m = geo.compose_path(segments, geo.TurnGeometry.from_radius(r))
    (winner,) = _best(m[None], r)
    assert winner.family == family, winner
    return m, r, winner


@pytest.mark.parametrize("family", PUBLISHED)
def test_reversal_keeps_the_published_lengths(family):
    m, r, winner = _published(family)
    _assert_same_lengths([winner], _best((D @ m.T @ D)[None], r), f"reversal of {family}")


@pytest.mark.parametrize("family", PUBLISHED)
def test_mirror_keeps_the_published_lengths(family):
    m, r, winner = _published(family)
    _assert_same_lengths([winner], _best((S @ m @ S)[None], r), f"mirror of {family}")


def _assert_subpaths_are_shortest(winners, r: float, seed: int) -> None:
    """Split each winner at a seeded uniform arc length; `plan` of the
    prefix and of the suffix must each equal its length."""
    geom = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(seed)
    pieces = []
    for winner in winners:
        s = rng.uniform(0.0, winner.unit_length)
        pieces.append((winner.family, s, *_split(winner.segments, s, geom)))
    for side in (2, 3):  # prefixes, then suffixes
        paths = [piece[side] for piece in pieces]
        found = _best(np.stack([geo.compose_path(p, geom) for p in paths]), r)
        for i, (piece, path, best) in enumerate(zip(pieces, paths, found)):
            gap = abs(best.unit_length - geo.path_length(path, geom))
            assert gap <= BOUND, (r, i, piece[:2], "prefix" if side == 2 else "suffix", best, gap)


@pytest.mark.parametrize("r", RADII)
def test_subpaths_of_a_winner_are_shortest(r):
    _assert_subpaths_are_shortest(_winners(r), r, int(r * 1e6))


# A split in an outer arc of RLpiR leaves R(a) L(pi) R(0.7) or R(0.7) L(pi)
# R(b).  On some of them (20 of 3998 pieces of a 2001-point grid of splits)
# the quotient `_circle_roots` takes acos of is one ulp inside -1, so the
# free RLR's tangent root at middle pi comes out as pi +- 1.5e-8; pi + 1.5e-8
# escapes `_ceded`, passes the gate with a residual of ~1e-14 and plans
# 1.28e-6 shorter than the exact RLpiR.  Tangent roots are ROADMAP item 8.
@pytest.mark.parametrize("family", [
    pytest.param("RLpiR", marks=pytest.mark.xfail(
        strict=True, reason="free RLR double root split by acos rounding")),
    "RLRL",
])
def test_subpaths_of_the_published_paths_are_shortest(family):
    _, r, winner = _published(family)
    _assert_subpaths_are_shortest([winner] * 50, r, len(family))


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

"""End-to-end planning: normalize, enumerate families, solve, rank.

The planner scales the problem to the unit sphere, enumerates the candidate
family catalog for the turning-radius regime, solves every family inside its
box through the linkage solver, lets the pinned-middle families own the
free turn-triple roots at middle pi, and ranks the candidates by physical
length.  Output is deterministic for fixed inputs and options.

`plan_batch` plans many requests on arrays, and `plan` is its one-request
case.  `normalize_requests` normalizes every request at once on stacks of
poses, then checks the requests in input order and raises the first failing
request's first failing check; `normalize_problem` is its one-request case.
Each unit turning radius's catalog is solved in one `linkage.solve_shapes`
call on the stacked targets, which returns one flat list of solution rows
(target, family, arcs, residual), `family` the row's catalog position;
`_assemble` pads each row's arcs to five slots in one array and orders the
rows by one `np.lexsort`.
A candidate duplicates an earlier kept one when its nonzero kinds are the
same and every angle is within DEDUP_ANGLE_TOL, so duplicates differ in unit
length by at most five times that plus rounding: only rows that close in
length to another are compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import MalformedConfiguration, NoCandidateFound, RadiusOutOfRange
from .geometry import (
    ANGLE_EPS,
    Configuration,
    Segment,
    SegmentKind,
    TurnGeometry,
    compose_path,  # noqa: F401  perfbench/tracing.py wraps planner.compose_path
    row_dots,
)
from .linkage import (
    ChainShape,
    FamilyTemplate,
    Row,
    chain_shapes,
    solve_chain,
    solve_shapes,
)
# perfbench/tracing.py wraps planner.solve_one, solve_two, solve_three and solve_equal_middle
from .linkage import solve_equal_middle, solve_one, solve_three, solve_two  # noqa: F401

HALF_RADIUS = 0.5
BOUNDARY_SQRT2 = 1.0 / math.sqrt(2.0)
MAX_RADIUS = math.sqrt(3.0) / 2.0
REGIME_BAND = 1e-12          # quotients this close to a boundary get the larger catalog
DEDUP_ANGLE_TOL = 1e-7
INPUT_FRAME_TOL = 1e-6       # worst pose inconsistency accepted (re-orthonormalized)
CACHE_SIZE = 256             # (r, mode) catalogs `_catalog` keeps


@dataclass(frozen=True)
class Pose:
    """Raw position/tangent pair in physical units (validated when planning)."""

    position: np.ndarray
    tangent: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "tangent", np.asarray(self.tangent, dtype=float))


@dataclass(frozen=True)
class PlanRequest:
    sphere_radius: float
    turning_radius: float
    initial: Pose
    final: Pose


_COMMON = (FamilyTemplate("EMPTY", ()),) + tuple(
    FamilyTemplate.of(p)
    for p in ("G", "L", "R", "LG", "RG", "GL", "GR", "LR", "RL",
              "LGL", "LGR", "RGL", "RGR", "LRL", "RLR")
)
_FIXED_PI = tuple(FamilyTemplate.of(p, pinned=True) for p in ("LRL", "RLR"))
_FOUR = tuple(FamilyTemplate.of(p) for p in ("LRLR", "RLRL"))
_FIVE = tuple(FamilyTemplate.of(p) for p in ("LRLRL", "RLRLR"))

# Families each regime adds to the common set.
_REGIME_FAMILIES = {"low": (), "sqrt2": (), "four": _FOUR, "high": _FIXED_PI + _FOUR + _FIVE}

# Families mode="all" appends (when not already present), regardless of regime.
_AUDIT = tuple(
    FamilyTemplate.of(p) for p in ("GLG", "GRG", "GLR", "GRL", "LRG", "RLG")
) + _FOUR + _FIVE


def catalog_regime(r: float) -> str:
    """Regime key for the candidate catalog.

    Classification is by exact comparison on the computed quotient; values
    within REGIME_BAND of an interval boundary (but not exactly on it) get
    the larger neighboring catalog so boundary roundoff never drops families.
    """
    if r == BOUNDARY_SQRT2:
        return "sqrt2"
    if r > BOUNDARY_SQRT2 or abs(r - BOUNDARY_SQRT2) <= REGIME_BAND:
        return "high"
    if r == HALF_RADIUS:
        return "low"
    if r > HALF_RADIUS or abs(r - HALF_RADIUS) <= REGIME_BAND:
        return "four"
    return "low"


def beyond_proven(r: float) -> bool:
    """Whether unit turning radius r is past sqrt(3)/2 by more than REGIME_BAND: a
    quotient rounded just above the proven maximum keeps the proven catalog."""
    return r - MAX_RADIUS > REGIME_BAND


def _check_mode(mode: str) -> None:
    if mode not in ("table", "all"):
        raise ValueError(f"mode must be 'table' or 'all', got {mode!r}")


def family_catalog(r: float, mode: str = "table") -> list[FamilyTemplate]:
    """Ordered candidate families for unit-sphere turning radius r.

    mode="table" returns the proven catalog for the regime of r and raises
    RadiusOutOfRange beyond sqrt(3)/2 (`beyond_proven`).  mode="all"
    additionally appends audit families (great-circle sandwiches and
    4/5-chains regardless of regime).
    """
    _check_mode(mode)
    if not r > 0.0:
        raise RadiusOutOfRange(f"turning radius must be positive, got {r}")
    if mode == "table" and beyond_proven(r):
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} exceeds sqrt(3)/2; "
            "use best-effort mode for a heuristic answer"
        )
    # above sqrt(3)/2 (best effort) this is the largest proven catalog, "high"
    families = list(_COMMON + _REGIME_FAMILIES[catalog_regime(r)])
    if mode == "all":
        families.extend(f for f in _AUDIT if f not in families)
    return families


@dataclass(frozen=True)
class PathCandidate:
    family: str
    segments: tuple[Segment, ...]
    unit_length: float
    physical_length: float
    residual: float


@dataclass(frozen=True)
class PlanResult:
    unit_r: float
    sphere_radius: float
    turning_radius: float
    candidates: tuple[PathCandidate, ...]
    best: int
    heuristic: bool = False
    input_adjustment: float = 0.0

    @property
    def best_candidate(self) -> PathCandidate:
        return self.candidates[self.best]


_NAN3 = np.full(3, math.nan)


def normalize_requests(
    requests: Sequence[PlanRequest], best_effort: bool = False
) -> tuple[np.ndarray, list[float], np.ndarray, list[float]]:
    """Validate and normalize requests as stacks: the targets (N, 3, 3), the
    unit turning radii, the unit-sphere endpoint frames (N, 2, 3, 3) (initial,
    final; columns position, tangent, normal) and each request's largest
    pose adjustment, radii and adjustments as Python floats.

    Every quantity a check reads is computed on the (N, 2, 2, 3) stack of
    each request's initial and final position and tangent, as are the
    modified Gram-Schmidt repair of a near-valid pose, the normals and the
    targets.  Each product is a 1x3 @ 3x1 or 3x3 @ 3x3 matmul per row
    (`row_dots`), with the bits of the one-vector form.  `_checked_radius`
    then reads those values back as Python floats and walks the requests in
    input order, so a stack with a failing request raises the first one's
    first failing check, the exception that request raises alone.  (The
    walk costs about 1 us per request; the same comparisons vectorized cost
    about 25 us per call, which a single `plan` would pay in full.)

    No check of `Configuration` can fail on an accepted end: its position's
    norm is within INPUT_FRAME_TOL of the sphere radius (so its square did
    not overflow or underflow), its tangent's within INPUT_FRAME_TOL of 1,
    and |cos| <= INPUT_FRAME_TOL, so Gram-Schmidt leaves a tangent of length
    >= 1 - 1e-12, and the repaired frame is unit and orthogonal to a few
    ulps, far inside CONFIG_UNIT_TOL and CONFIG_ORTHO_TOL."""
    n = len(requests)
    vectors = [
        v for q in requests
        for v in (q.initial.position, q.initial.tangent, q.final.position, q.final.tangent)
    ]
    shaped = [v.shape == (3,) for v in vectors]
    if not all(shaped):
        vectors = [v if ok else _NAN3 for v, ok in zip(vectors, shaped)]
    poses = np.array(vectors, dtype=float).reshape(n, 2, 2, 3)  # request, end, (position, tangent)
    scale = np.ones((n, 1, 2, 1))  # positions are divided by the sphere radius, tangents by 1
    scale[:, 0, 0, 0] = [q.sphere_radius for q in requests]
    with np.errstate(all="ignore"):  # a request past its first failing check holds anything
        norms = np.sqrt(row_dots(poses, poses))  # |position|, |tangent|
        scaled = poses / scale
        lengths = np.sqrt(row_dots(scaled, scaled))  # |unit position|, |tangent|
        inner = row_dots(scaled[:, :, 0], scaled[:, :, 1])
        ortho = np.abs(inner) / (lengths[..., 0] * norms[..., 1])
        frame = scaled / lengths[..., None]
        x, t = frame[:, :, 0], frame[:, :, 1]
        along = row_dots(x, t)
        t -= along[..., None] * x
        t /= np.sqrt(row_dots(t, t))[..., None]
        finite = np.isfinite(poses).all(axis=(2, 3))[..., None]
        values = np.concatenate([finite, norms, ortho[..., None]], axis=2)
    radii = [
        _checked_radius(q, best_effort, ends, fits)
        for q, ends, fits in zip(requests, values.tolist(), zip(*[iter(shaped)] * 4))
    ]
    # the normal x cross t, each component a product difference as in `geometry.cross`
    ahead, behind = frame[..., [1, 2, 0]], frame[..., [2, 0, 1]]
    frames = np.empty((n, 2, 3, 3))  # columns position, tangent, normal
    frames[..., 0], frames[..., 1] = x, t
    frames[..., 2] = ahead[:, :, 0] * behind[:, :, 1] - behind[:, :, 0] * ahead[:, :, 1]
    targets = frames[:, 0].transpose(0, 2, 1) @ frames[:, 1]
    deviation = np.abs(np.concatenate([lengths - 1.0, along[..., None]], axis=2)).max(axis=(1, 2))
    return targets, radii, frames, deviation.tolist()


def _checked_radius(
    req: PlanRequest, best_effort: bool, ends: list[list[float]], fits: tuple[bool, ...]
) -> float:
    """The unit turning radius of `req`, once it passes every input check, in
    order: the radii, then each end's pose, initial first.  `ends` holds
    each end's finite flag, |position|, |tangent| and the |cos| between
    them; `fits` whether each vector has shape (3,)."""
    if not (req.sphere_radius > 0.0) or not math.isfinite(req.sphere_radius):
        raise MalformedConfiguration(f"sphere_radius must be positive, got {req.sphere_radius}")
    if not (req.turning_radius > 0.0) or not math.isfinite(req.turning_radius):
        raise MalformedConfiguration(f"turning_radius must be positive, got {req.turning_radius}")
    r = req.turning_radius / req.sphere_radius
    if not r > 0.0:
        raise RadiusOutOfRange(
            f"unit turning radius {req.turning_radius:.6g} / {req.sphere_radius:.6g} "
            "underflows to 0"
        )
    if r >= 1.0:
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} is not below 1; no tight turn exists"
        )
    if beyond_proven(r) and not best_effort:
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} exceeds sqrt(3)/2 "
            "(pass best_effort for a heuristic answer)"
        )
    for label, fit, end in zip(("initial", "final"), (fits[:2], fits[2:]), ends):
        finite, norm, t_norm, ortho = end
        if not all(fit):
            raise MalformedConfiguration(f"{label}: position and tangent must be 3-vectors")
        if not finite:
            raise MalformedConfiguration(f"{label}: position and tangent must be finite")
        if norm == 0.0 or abs(norm - req.sphere_radius) / req.sphere_radius > INPUT_FRAME_TOL:
            raise MalformedConfiguration(
                f"{label}.position: norm {norm:.9g} not within {INPUT_FRAME_TOL:g} "
                f"relative of sphere_radius {req.sphere_radius:.9g}"
            )
        if t_norm == 0.0 or abs(t_norm - 1.0) > INPUT_FRAME_TOL:
            raise MalformedConfiguration(f"{label}.tangent: norm {t_norm:.9g} is not unit")
        if ortho > INPUT_FRAME_TOL:
            raise MalformedConfiguration(
                f"{label}: tangent not orthogonal to position (|cos| = {ortho:.3e})"
            )
    return r


def normalize_problem(
    req: PlanRequest, best_effort: bool = False
) -> tuple[np.ndarray, TurnGeometry, Configuration, Configuration, float]:
    """Full normalization of one request (`normalize_requests` on [req]):
    target rotation, geometry, unit-sphere endpoint configurations, and the
    largest pose adjustment applied on input."""
    targets, radii, frames, adjustments = normalize_requests([req], best_effort)
    initial, final = (Configuration(position=f[:, 0], tangent=f[:, 1]) for f in frames[0])
    return targets[0], TurnGeometry.from_radius(radii[0]), initial, final, adjustments[0]


def solve_family(template: FamilyTemplate, m: np.ndarray, geom: TurnGeometry) -> list:
    """Solutions of one family reaching the target m (3, 3) inside its box,
    each with the endpoint residual its solver computed
    (`linkage.solve_chain`), less the roots it cedes at the turning radius
    (`_cedes_pi`, `_ceded`).  `plan_batch` solves whole shapes on stacks of
    targets, and this is its one-family, one-target case."""
    cedes = _cedes_pi(template, geom.r)
    return [sol for sol in solve_chain(template, m, geom) if not (cedes and _ceded(sol.angles))]


def _cedes_pi(template: FamilyTemplate, r: float) -> bool:
    """Whether the family cedes its middle-pi roots at unit turning radius r:
    a free turn triple does where the catalog has the pinned-middle families,
    which is the "high" regime in either mode."""
    return template.is_free_middle_turn_triple and catalog_regime(r) == "high"


def _ceded(arcs: tuple[float, ...]) -> bool:
    """Whether a free turn triple's arcs have their middle at pi: a root
    the pinned-middle families own where the catalog has them."""
    return abs(arcs[1] - math.pi) <= ANGLE_EPS


SLOTS = 5  # arcs of the longest family; shorter rows are padded with angle 0
# Duplicates have the same nonzero kinds with every angle within
# DEDUP_ANGLE_TOL, so their unit lengths differ by at most SLOTS arcs times a
# factor of at most 1 times the tolerance, plus rounding (under 1e-13).
_DEDUP_LENGTH_BOUND = (SLOTS + 1) * DEDUP_ANGLE_TOL


class _Catalog(NamedTuple):
    """The families of a radius group and what assembling their solution
    rows reads, each indexed by catalog position: the chain shapes they are
    solved in, each family's arc-length factors (r for a turn, 1 for G, 0
    for a pad slot) and turn mask as one read-only (F, 2, SLOTS) table, which
    the forward oracle's lengths read too, and whether it cedes its
    middle-pi roots (`_cedes_pi`)."""

    families: tuple[FamilyTemplate, ...]
    shapes: tuple[ChainShape, ...]
    weights: np.ndarray
    cedes_pi: tuple[bool, ...]


@lru_cache(maxsize=CACHE_SIZE)
def _catalog(r: float, mode: str) -> _Catalog:
    """The group tables of `family_catalog(r, mode)`: the one cache of chain constants."""
    families = tuple(family_catalog(r, mode))
    weights = np.zeros((len(families), 2, SLOTS))
    for f, template in enumerate(families):
        for slot, kind in enumerate(template.kinds):
            weights[f, :, slot] = (r, 1.0) if kind.is_turn else (1.0, 0.0)
    weights.setflags(write=False)
    cedes_pi = tuple(_cedes_pi(t, r) for t in families)
    return _Catalog(families, chain_shapes(r, families), weights, cedes_pi)


def _path_key(kinds: tuple[SegmentKind, ...], angles: Sequence[float]) -> tuple:
    """Kinds and angles of a path's nonzero segments: what deduplication compares."""
    present = [(k, a) for k, a in zip(kinds, angles) if a > 0.0]
    return tuple(k for k, _ in present), tuple(a for _, a in present)


def _is_duplicate(a: tuple, b: tuple) -> bool:
    """Same nonzero kinds with every angle within DEDUP_ANGLE_TOL (`_path_key`s)."""
    return a[0] == b[0] and all(abs(x - y) <= DEDUP_ANGLE_TOL for x, y in zip(a[1], b[1]))


def _assemble(
    catalog: _Catalog, solved: list[Row], spheres: Sequence[float]
) -> list[list[PathCandidate]]:
    """Each target's candidates from a group's `solve_shapes` rows, in
    catalog order, each family's ordered by unit length, then total turning,
    then angles, without duplicates of an earlier candidate.

    The rows a family keeps (not `_ceded` where it cedes its middle-pi
    roots) make one array: target, catalog position, arcs padded to SLOTS
    with angle 0.  Lengths and turn sums are column adds in segment order,
    left to right as `path_length` adds; one stable `np.lexsort` orders the
    rows.  Only rows whose length is within _DEDUP_LENGTH_BOUND of another
    row of their target can be or have a duplicate; those are checked with
    `_is_duplicate` against the kept ones.
    Segments and candidates are built for the kept rows only.  (Solver
    angles are canonical, so they are the segments' angles.)"""
    found: list[list[PathCandidate]] = [[] for _ in spheres]
    rows = [row for row in solved if not (catalog.cedes_pi[row[1]] and _ceded(row[2]))]
    if not rows:
        return found
    table = np.array([(i, f) + arcs + (0.0,) * (SLOTS - len(arcs)) for i, f, arcs, _ in rows])
    weighted = table[:, None, 2:] * catalog.weights[table[:, 1].astype(np.intp)]
    sums = np.add.accumulate(weighted, axis=2)[..., -1]  # slot by slot, left to right
    lengths = sums[:, 0]
    # keys, least significant first: angles from the last slot, turn sum, length, family, target
    order = np.lexsort(np.hstack([table[:, :1:-1], sums[:, ::-1], table[:, 1::-1]]).T)
    by_length = np.lexsort((lengths, table[:, 0]))
    ls, targets = lengths[by_length], table[by_length, 0]
    near = np.flatnonzero((ls[1:] - ls[:-1] <= _DEDUP_LENGTH_BOUND) & (targets[1:] == targets[:-1]))
    suspects = set(by_length[near].tolist()) | set(by_length[near + 1].tolist())
    kept: list[list[tuple]] = [[] for _ in spheres]
    for k, length in zip(order.tolist(), lengths[order].tolist()):
        i, f, angles, residual = rows[k]
        template = catalog.families[f]
        kinds = template.kinds
        if k in suspects:
            key = _path_key(kinds, angles)
            if any(_is_duplicate(key, other) for other in kept[i]):
                continue
            kept[i].append(key)
        segments = tuple(map(Segment, kinds, angles))
        physical = spheres[i] * length
        found[i].append(PathCandidate(template.tag, segments, length, physical, residual))
    return found


def plan_batch(
    requests: Sequence[PlanRequest],
    mode: str = "table",
    best_effort: bool = False,
) -> list[PlanResult]:
    """Plan every request; result i is exactly what `plan(requests[i])` returns.

    All requests are validated and normalized at once (`normalize_requests`),
    so a batch holding a bad request raises the input error of the first
    one, as `plan` on it alone would, before anything is solved; only then
    does an invalid `mode` raise ValueError, on an empty batch too.  Requests
    are grouped by unit turning radius, and each group's catalog, split into
    chain shapes (`linkage.chain_shapes`), is solved in one
    `linkage.solve_shapes` call on the stacked targets; one `_assemble` pass
    orders, deduplicates and builds every target's candidates, and each
    request's best is its shortest.
    Neither the batch size nor the order or split of the requests changes
    any result.
    Only when every request is valid is NoCandidateFound raised, for the
    first request left without a candidate (only some targets at heuristic
    radii above sqrt(3)/2 have none), so an input error in a later request
    wins over an earlier request's NoCandidateFound.
    """
    targets, radii, _, adjustments = normalize_requests(requests, best_effort)
    _check_mode(mode)
    groups: dict[tuple[float, str], list[int]] = {}
    for i, r in enumerate(radii):
        groups.setdefault((r, "all" if beyond_proven(r) else mode), []).append(i)
    candidates: list[list[PathCandidate]] = [[] for _ in requests]
    for key, members in groups.items():
        catalog = _catalog(*key)
        solved = solve_shapes(catalog.shapes, targets[members])
        spheres = [requests[i].sphere_radius for i in members]
        for i, found in zip(members, _assemble(catalog, solved, spheres)):
            candidates[i] = found

    results = []
    for req, r, adjustment, found in zip(requests, radii, adjustments, candidates):
        if not found:
            raise NoCandidateFound(
                "no candidate family produced a residual-passing path; " + (
                    f"the catalog is heuristic at unit turning radius {r:.6g} > sqrt(3)/2"
                    if beyond_proven(r) else "this indicates pathological tolerances"
                )
            )
        results.append(
            PlanResult(
                unit_r=r,
                sphere_radius=req.sphere_radius,
                turning_radius=req.turning_radius,
                candidates=tuple(found),
                best=min(range(len(found)), key=lambda i: (found[i].physical_length, i)),
                heuristic=beyond_proven(r),
                input_adjustment=adjustment,
            )
        )
    return results


def plan(
    req: PlanRequest,
    mode: str = "table",
    best_effort: bool = False,
) -> PlanResult:
    """Solve every catalog family against the request and rank by length.

    Candidates appear in catalog order (solutions within a family ordered by
    length, then total turning, then angles); `best` indexes the minimum
    physical length with ties already resolved by that ordering.  Raises
    NoCandidateFound when filtering leaves nothing, which only some targets
    at heuristic radii above sqrt(3)/2 reach.  This is the one-request case
    of `plan_batch`.
    """
    return plan_batch([req], mode=mode, best_effort=best_effort)[0]

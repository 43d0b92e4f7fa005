"""End-to-end planning: normalize, enumerate families, solve, rank.

The planner scales the problem to the unit sphere, enumerates the candidate
family catalog for the turning-radius regime, solves every family inside its
box through the linkage solver, lets the pinned-middle families own the
free turn-triple roots at middle pi, and ranks the candidates by physical
length.  Output is deterministic for fixed inputs and options.  `plan_batch`
plans many requests at once, solving every family in one call per turning
radius on the stacked targets; `plan` is its one-request case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MalformedConfiguration, NoCandidateFound, RadiusOutOfRange
from .geometry import (
    ANGLE_EPS,
    Configuration,
    Segment,
    SegmentKind,
    TurnGeometry,
    compose_path,  # noqa: F401  perfbench/tracing.py wraps planner.compose_path
    orthonormalize_pose,
    path_length,
    relative_rotation,
)
from .linkage import CandidateSolution, FamilyTemplate, chain_shapes, solve_chain, solve_shapes
# perfbench/tracing.py wraps planner.solve_one, solve_two, solve_three and solve_equal_middle
from .linkage import solve_equal_middle, solve_one, solve_three, solve_two  # noqa: F401

HALF_RADIUS = 0.5
BOUNDARY_SQRT2 = 1.0 / math.sqrt(2.0)
MAX_RADIUS = math.sqrt(3.0) / 2.0
REGIME_BAND = 1e-12          # quotients this close to a boundary get the larger catalog
DEDUP_ANGLE_TOL = 1e-7
INPUT_FRAME_TOL = 1e-6       # worst pose inconsistency accepted (re-orthonormalized)


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
_FIXED_PI = tuple(FamilyTemplate.of(p, fixed_middle=math.pi) for p in ("LRL", "RLR"))
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


def family_catalog(r: float, mode: str = "table") -> list[FamilyTemplate]:
    """Ordered candidate families for unit-sphere turning radius r.

    mode="table" returns the proven catalog for the regime of r and raises
    RadiusOutOfRange beyond sqrt(3)/2 (`beyond_proven`).  mode="all"
    additionally appends audit families (great-circle sandwiches and
    4/5-chains regardless of regime).
    """
    if mode not in ("table", "all"):
        raise ValueError(f"mode must be 'table' or 'all', got {mode!r}")
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


def _validated_configuration(pose: Pose, sphere_radius: float, label: str) -> tuple[Configuration, float]:
    position = pose.position
    tangent = pose.tangent
    if position.shape != (3,) or tangent.shape != (3,):
        raise MalformedConfiguration(f"{label}: position and tangent must be 3-vectors")
    if not (np.all(np.isfinite(position)) and np.all(np.isfinite(tangent))):
        raise MalformedConfiguration(f"{label}: position and tangent must be finite")
    norm = float(np.linalg.norm(position))
    if norm == 0.0 or abs(norm - sphere_radius) / sphere_radius > INPUT_FRAME_TOL:
        raise MalformedConfiguration(
            f"{label}.position: norm {norm:.9g} not within {INPUT_FRAME_TOL:g} "
            f"relative of sphere_radius {sphere_radius:.9g}"
        )
    t_norm = float(np.linalg.norm(tangent))
    if t_norm == 0.0 or abs(t_norm - 1.0) > INPUT_FRAME_TOL:
        raise MalformedConfiguration(f"{label}.tangent: norm {t_norm:.9g} is not unit")
    unit_pos = position / sphere_radius
    ortho = abs(float(unit_pos @ tangent)) / (np.linalg.norm(unit_pos) * t_norm)
    if ortho > INPUT_FRAME_TOL:
        raise MalformedConfiguration(
            f"{label}: tangent not orthogonal to position (|cos| = {ortho:.3e})"
        )
    x, t, deviation = orthonormalize_pose(unit_pos, tangent)
    return Configuration(position=x, tangent=t), deviation


def normalize_problem(
    req: PlanRequest, best_effort: bool = False
) -> tuple[np.ndarray, TurnGeometry, Configuration, Configuration, float]:
    """Full normalization: target rotation, geometry, unit-sphere endpoint
    configurations, and the largest pose adjustment applied on input."""
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
    initial, dev_i = _validated_configuration(req.initial, req.sphere_radius, "initial")
    final, dev_f = _validated_configuration(req.final, req.sphere_radius, "final")
    m = relative_rotation(initial, final)
    return m, TurnGeometry.from_radius(r), initial, final, max(dev_i, dev_f)


def solve_family(
    template: FamilyTemplate, m: np.ndarray, geom: TurnGeometry, regime_has_fixed_pi: bool
) -> list:
    """Solutions of one family reaching the target inside its box, each with
    the endpoint residual its solver computed (`linkage.solve_chain`).  `m` is
    one target (3, 3) or a stack (N, 3, 3); a stack gets one list of
    solutions per target.  `plan_batch` solves whole shapes at once, and
    this is its one-family case."""
    single = np.ndim(m) == 2
    solved = solve_chain(template, m, geom)
    kept = _owned(template, [solved] if single else solved, regime_has_fixed_pi)
    return kept[0] if single else kept


def _owned(
    template: FamilyTemplate, solved: list[list[CandidateSolution]], regime_has_fixed_pi: bool
) -> list[list[CandidateSolution]]:
    """Each target's solutions without the free turn-triple roots at middle
    pi, which the fixed-pi families own where the regime has them."""
    if not (regime_has_fixed_pi and template.is_free_middle_turn_triple):
        return solved
    return [[sol for sol in sols if abs(sol.angles[1] - math.pi) > ANGLE_EPS] for sols in solved]


def _candidate_sort_key(segments: tuple[Segment, ...], geom: TurnGeometry) -> tuple:
    turn_sum = sum(s.angle for s in segments if s.kind.is_turn)
    return (path_length(segments, geom), turn_sum, tuple(s.angle for s in segments))


def _path_key(segments: tuple[Segment, ...]) -> tuple[tuple[SegmentKind, ...], tuple[float, ...]]:
    """Kinds and angles of a path's nonzero segments: what deduplication compares."""
    present = [s for s in segments if s.angle > 0.0]
    return tuple(s.kind for s in present), tuple(s.angle for s in present)


def _is_duplicate(a: tuple, b: tuple) -> bool:
    """Same nonzero kinds with every angle within DEDUP_ANGLE_TOL (`_path_key`s)."""
    return a[0] == b[0] and all(abs(x - y) <= DEDUP_ANGLE_TOL for x, y in zip(a[1], b[1]))


def _add_family(
    candidates: list[PathCandidate],
    seen: list[tuple],
    template: FamilyTemplate,
    solutions: list[CandidateSolution],
    geom: TurnGeometry,
    sphere_radius: float,
) -> None:
    """Append one family's solutions to a target's candidates, and their
    `_path_key`s to `seen`: ordered by length, then total turning, then
    angles, skipping duplicates of any earlier candidate."""
    solved = []
    for sol in solutions:
        segments = sol.segments(template.kinds)
        solved.append((_candidate_sort_key(segments, geom), segments, sol.residual))
    solved.sort(key=lambda item: item[0])
    for order, segments, residual in solved:
        key = _path_key(segments)
        if any(_is_duplicate(key, other) for other in seen):
            continue
        unit_len = order[0]
        seen.append(key)
        candidates.append(
            PathCandidate(
                family=template.tag,
                segments=segments,
                unit_length=unit_len,
                physical_length=sphere_radius * unit_len,
                residual=residual,
            )
        )


def plan_batch(
    requests: Sequence[PlanRequest],
    mode: str = "table",
    best_effort: bool = False,
) -> list[PlanResult]:
    """Plan every request; result i is exactly what `plan(requests[i])` returns.

    Requests are validated and normalized in input order, so a batch holding
    a bad request raises the input error of the first one, as `plan` on it
    alone would.  They are then grouped by unit turning radius, and each
    group's catalog, split into chain shapes (`linkage.chain_shapes`), is
    solved in one `linkage.solve_shapes` call on the stacked targets;
    candidates are ordered, deduplicated and ranked per request as in
    `plan`, family by family in catalog order.
    Neither the batch size nor the order or split of the requests changes
    any result.
    Only when every request is valid is NoCandidateFound raised, for the
    first request left without a candidate (only some targets at heuristic
    radii above sqrt(3)/2 have none), so an input error in a later request
    wins over an earlier request's NoCandidateFound.
    """
    prepared: list[tuple[np.ndarray, TurnGeometry, float]] = []
    groups: dict[tuple[float, str], tuple[list[FamilyTemplate], list[int]]] = {}
    for i, req in enumerate(requests):
        m, geom, _, _, adjustment = normalize_problem(req, best_effort)
        key = (geom.r, "all" if beyond_proven(geom.r) else mode)
        if key not in groups:
            groups[key] = (family_catalog(*key), [])
        groups[key][1].append(i)
        prepared.append((m, geom, adjustment))

    candidates: list[list[PathCandidate]] = [[] for _ in requests]
    seen: list[list[tuple]] = [[] for _ in requests]
    for families, members in groups.values():
        geom = prepared[members[0]][1]
        regime_has_fixed_pi = any(f.fixed_middle is not None for f in families)
        targets = np.stack([prepared[i][0] for i in members])
        shapes = chain_shapes(geom.r, tuple(families))
        templates = [t for shape in shapes for t in shape.templates]
        solved = dict(zip(templates, solve_shapes(shapes, targets)))
        # catalog order decides candidate order and deduplication
        for template in families:
            owned = _owned(template, solved[template], regime_has_fixed_pi)
            for i, solutions in zip(members, owned):
                _add_family(
                    candidates[i], seen[i], template, solutions, geom, requests[i].sphere_radius
                )

    results = []
    for req, (_, geom, adjustment), found in zip(requests, prepared, candidates):
        if not found:
            raise NoCandidateFound(
                "no candidate family produced a residual-passing path; " + (
                    f"the catalog is heuristic at unit turning radius {geom.r:.6g} > sqrt(3)/2"
                    if beyond_proven(geom.r) else "this indicates pathological tolerances"
                )
            )
        results.append(
            PlanResult(
                unit_r=geom.r,
                sphere_radius=req.sphere_radius,
                turning_radius=req.turning_radius,
                candidates=tuple(found),
                best=min(range(len(found)), key=lambda i: (found[i].physical_length, i)),
                heuristic=beyond_proven(geom.r),
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

"""End-to-end planning: normalize, enumerate families, solve, filter, rank.

The planner scales the problem to the unit sphere, enumerates the candidate
family catalog for the turning-radius regime, solves every family through the
linkage solver, applies per-family feasibility filters, and ranks the
surviving candidates by physical length.  Output is deterministic for fixed
inputs and options.  `plan_batch` plans many requests at once, solving each
family once per turning radius on the stacked targets; `plan` is its
one-request case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import MalformedConfiguration, NoCandidateFound, RadiusOutOfRange
from .geometry import (
    Configuration,
    Segment,
    SegmentKind,
    TurnGeometry,
    compose_path,  # noqa: F401  perfbench/tracing.py wraps planner.compose_path
    orthonormalize_pose,
    path_length,
    relative_rotation,
    row_norms,
)
from .linkage import (
    TOL_RESIDUAL,
    CandidateSolution,
    _stacked,
    solve_equal_middle,
    solve_one,
    solve_three,
    solve_two,
)

HALF_RADIUS = 0.5
BOUNDARY_SQRT2 = 1.0 / math.sqrt(2.0)
MAX_RADIUS = math.sqrt(3.0) / 2.0
REGIME_BAND = 1e-12          # quotients this close to a boundary get the larger catalog
ARC_BOUND_SLACK = 1e-9       # an arc may pass a bound of its family's box by this much
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


@dataclass(frozen=True)
class FamilyTemplate:
    """One candidate family: an axis pattern, how its parameters become arc
    angles, and the box they must stay in (said here and nowhere else)."""

    tag: str
    kinds: tuple[SegmentKind, ...]
    fixed_middle: float | None = None   # three-segment chains with a pinned middle arc

    @property
    def equal_middles(self) -> bool:  # 4/5-chains share one interior angle
        return len(self.kinds) >= 4

    @property
    def is_free_middle_turn_triple(self) -> bool:
        return (
            len(self.kinds) == 3
            and self.fixed_middle is None
            and all(k.is_turn for k in self.kinds)
        )

    def angles(self, params: np.ndarray) -> np.ndarray:
        """Arc angles (k, slots) of parameter rows (k, p): the arcs, (alpha, gamma)
        around a pinned middle, or (alpha, beta, gamma) with interior arcs pi + beta."""
        if self.equal_middles:
            mids = np.repeat(math.pi + params[:, 1:2], len(self.kinds) - 2, axis=1)
            return np.hstack([params[:, 0:1], mids, params[:, 2:3]])
        if self.fixed_middle is not None:
            mid = np.full((params.shape[0], 1), self.fixed_middle)
            return np.hstack([params[:, 0:1], mid, params[:, 1:2]])
        return params

    @cached_property
    def slot_map(self) -> np.ndarray:
        """Slots-by-parameters matrix d(angles)/d(params), all 0 or 1: `angles`
        adds a parameter's own value to each of its arcs."""
        p = len(self.box[0])
        return (self.angles(np.eye(p)) - self.angles(np.zeros((1, p)))).T

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed parameter bounds (lows, highs): arcs in [0, 2pi], a free turn-triple
        middle in [pi, 2pi], outer arcs around a pinned middle in [0, pi], beta in
        [0, pi] with outer arcs up to `outer_cap`.  Beta's ends (interior arcs of full
        loops) are kept out by the solver's open root interval and BETA_LO, not here."""
        if self.equal_middles:
            return np.zeros(3), np.array([2.0 * math.pi, math.pi, 2.0 * math.pi])
        if self.fixed_middle is not None:
            return np.zeros(2), np.full(2, math.pi)
        lows = np.zeros(len(self.kinds))
        if self.is_free_middle_turn_triple:
            lows[1] = math.pi
        return lows, np.full(len(self.kinds), 2.0 * math.pi)

    @cached_property
    def _arc_bounds(self) -> list[tuple[float, float]]:
        lows, highs = self.angles(np.stack(self.box)).tolist()
        return [(lo - ARC_BOUND_SLACK, hi + ARC_BOUND_SLACK) for lo, hi in zip(lows, highs)]

    def outer_cap(self, arcs):
        """Bound on the outer arcs, from arcs indexed slot first (a path's, or a
        batch's (slots, k) columns): on equal-middle chains the interior arc
        pi + beta, else inf."""
        return arcs[1] if self.equal_middles else math.inf

    def feasible(self, angles: Sequence[float]) -> bool:
        """Whether the arcs lie in the box up to ARC_BOUND_SLACK, the outer
        arcs also at most `outer_cap`."""
        if not all(lo <= a <= hi for (lo, hi), a in zip(self._arc_bounds, angles)):
            return False
        outer = max(angles[0], angles[-1]) if len(angles) else -math.inf
        return outer <= self.outer_cap(angles) + ARC_BOUND_SLACK


def _template(pattern: str, fixed_middle: float | None = None) -> FamilyTemplate:
    """Template for an axis pattern; a pinned middle (always pi) shows in the tag: LRpiL."""
    kinds = tuple(SegmentKind(c) for c in pattern)
    tag = pattern if fixed_middle is None else pattern[:2] + "pi" + pattern[2:]
    return FamilyTemplate(tag, kinds, fixed_middle)


_COMMON = (FamilyTemplate("EMPTY", ()),) + tuple(
    _template(p)
    for p in ("G", "L", "R", "LG", "RG", "GL", "GR", "LR", "RL",
              "LGL", "LGR", "RGL", "RGR", "LRL", "RLR")
)
_FIXED_PI = (_template("LRL", fixed_middle=math.pi), _template("RLR", fixed_middle=math.pi))
_FOUR = (_template("LRLR"), _template("RLRL"))
_FIVE = (_template("LRLRL"), _template("RLRLR"))

# Families each regime adds to the common set.
_REGIME_FAMILIES = {"low": (), "sqrt2": (), "four": _FOUR, "high": _FIXED_PI + _FOUR + _FIVE}

# Families mode="all" appends (when not already present), regardless of regime.
_AUDIT = tuple(_template(p) for p in ("GLG", "GRG", "GLR", "GRL", "LRG", "RLG")) + _FOUR + _FIVE


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


def family_catalog(r: float, mode: str = "table") -> list[FamilyTemplate]:
    """Ordered candidate families for unit-sphere turning radius r.

    mode="table" returns the proven catalog for the regime of r and raises
    RadiusOutOfRange beyond sqrt(3)/2.  mode="all" additionally appends audit
    families (great-circle sandwiches and 4/5-chains regardless of regime).
    """
    if mode not in ("table", "all"):
        raise ValueError(f"mode must be 'table' or 'all', got {mode!r}")
    if r <= 0.0:
        raise RadiusOutOfRange(f"turning radius must be positive, got {r}")
    if mode == "table" and r > MAX_RADIUS:
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} exceeds sqrt(3)/2; "
            "use best-effort mode for a heuristic answer"
        )

    if r > MAX_RADIUS:
        regime = "high"  # best-effort: largest proven catalog plus audit families
    else:
        regime = catalog_regime(r)
    families = list(_COMMON + _REGIME_FAMILIES[regime])
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
    if r >= 1.0:
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} is not below 1; no tight turn exists"
        )
    if r > MAX_RADIUS and not best_effort:
        raise RadiusOutOfRange(
            f"unit turning radius {r:.6g} exceeds sqrt(3)/2 "
            "(pass best_effort for a heuristic answer)"
        )
    initial, dev_i = _validated_configuration(req.initial, req.sphere_radius, "initial")
    final, dev_f = _validated_configuration(req.final, req.sphere_radius, "final")
    m = relative_rotation(initial, final)
    return m, TurnGeometry.from_radius(r), initial, final, max(dev_i, dev_f)


def solve_family(
    template: FamilyTemplate,
    m: np.ndarray,
    geom: TurnGeometry,
    regime_has_fixed_pi: bool,
) -> list[CandidateSolution] | list[list[CandidateSolution]]:
    """Feasible solutions of one family reaching the target, each with the
    endpoint residual its solver computed.  `m` is one target (3, 3) or a
    stack (N, 3, 3); a stack gets one list of solutions per target."""
    single = np.ndim(m) == 2
    kinds = template.kinds
    n = len(kinds)
    if n == 0:
        stack, _ = _stacked(m)
        residuals = row_norms(stack - np.eye(3)).tolist()
        per_target = [
            [CandidateSolution((), res)] if res <= TOL_RESIDUAL else [] for res in residuals
        ]
    elif n == 1:
        found = solve_one(m, kinds[0], geom)
        per_target = [[sol] if sol is not None else [] for sol in ([found] if single else found)]
    else:
        if n == 2:
            solved = solve_two(m, kinds, geom)
        elif n == 3:
            solved = solve_three(m, kinds, geom, fixed_middle=template.fixed_middle)
        else:
            solved = solve_equal_middle(m, kinds, geom)
        per_target = [solved] if single else solved

    # where the regime has the fixed-pi families, they own free turn-triple roots at middle pi
    owned = regime_has_fixed_pi and template.is_free_middle_turn_triple
    feasible = [
        [
            sol for sol in sols
            if template.feasible(sol.angles)
            and not (owned and abs(sol.angles[1] - math.pi) <= ARC_BOUND_SLACK)
        ]
        for sols in per_target
    ]
    return feasible[0] if single else feasible


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
    family is solved once per group on the stacked targets; candidates are
    ordered, deduplicated and ranked per request as in `plan`.  Neither the
    batch size nor the order or split of the requests changes any result.
    Only when every request is valid is NoCandidateFound raised, for the
    first request left without a candidate (only some targets at heuristic
    radii above sqrt(3)/2 have none), so an input error in a later request
    wins over an earlier request's NoCandidateFound.
    """
    prepared: list[tuple[np.ndarray, TurnGeometry, float]] = []
    groups: dict[tuple[float, str], tuple[list[FamilyTemplate], list[int]]] = {}
    for i, req in enumerate(requests):
        m, geom, _, _, adjustment = normalize_problem(req, best_effort)
        key = (geom.r, "all" if geom.r > MAX_RADIUS else mode)
        if key not in groups:
            groups[key] = (family_catalog(*key), [])
        groups[key][1].append(i)
        prepared.append((m, geom, adjustment))

    candidates: list[list[PathCandidate]] = [[] for _ in requests]
    seen: list[list[tuple]] = [[] for _ in requests]
    for families, members in groups.values():
        geom = prepared[members[0]][1]
        regime_has_fixed_pi = any(f.fixed_middle is not None for f in families)
        # a lone target goes in as (3, 3) only so that tracers observing the
        # solvers' results keep counting solutions, not targets, on one-request
        # plans (a stack of one gives the same results)
        lone = len(members) == 1
        targets = prepared[members[0]][0] if lone else np.stack([prepared[i][0] for i in members])
        for template in families:
            solved = solve_family(template, targets, geom, regime_has_fixed_pi)
            for i, solutions in zip(members, [solved] if lone else solved):
                _add_family(
                    candidates[i], seen[i], template, solutions, geom, requests[i].sphere_radius
                )

    results = []
    for req, (_, geom, adjustment), found in zip(requests, prepared, candidates):
        if not found:
            raise NoCandidateFound(
                "no candidate family produced a residual-passing path; " + (
                    f"the catalog is heuristic at unit turning radius {geom.r:.6g} > sqrt(3)/2"
                    if geom.r > MAX_RADIUS else "this indicates pathological tolerances"
                )
            )
        results.append(
            PlanResult(
                unit_r=geom.r,
                sphere_radius=req.sphere_radius,
                turning_radius=req.turning_radius,
                candidates=tuple(found),
                best=min(range(len(found)), key=lambda i: (found[i].physical_length, i)),
                heuristic=geom.r > MAX_RADIUS,
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

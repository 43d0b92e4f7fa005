"""Inverse kinematics for products of fixed-axis rotations.

Every candidate family is a chain R(a_1, phi_1) B R(a_n, phi_n) = M, with B
the product of the interior rotations.  `solve_chain(template, m, geom)` is
the one per-family solver: it reads the family's parametrization and arc box
from its `FamilyTemplate`, and solves every chain in the same two steps:

1. Eliminate the interior.  The outer rotations fix their own axes, so
   a_1 . B a_n = a_1 . M a_n: one scalar equation in the interior angles, a
   trigonometric polynomial of degree 0 (a consistency check: no interior,
   or a middle pinned at pi), 1 (a free middle) or 2/3 (equal middles).
2. Recover the outer angles by aligning vectors about the outer axes (no
   matrix logarithm, so no branch ambiguity near half-turns): B a_n onto
   M a_n about a_1, and M^T a_1 onto B^T a_1 about a_n.  Where either vector
   lies within PERP_EPS of its axis, the outer rotations merge into one
   about a_1: the single arc M B^T, with phi_n = 0.  The family box is
   applied to the recovered angles before anything is composed; an
   assignment inside it is kept if its full matrix residual passes.

Every axis lies in the x-z plane (G's is (0, 0, 1), L/R's (+/-sqrt(1 - r^2),
0, r)), so a single arc (`_one_arc`, merged outer rotations included) aligns
e_y onto M e_y.  The empty chain is an identity check.  `solve_one`,
`solve_two`, `solve_three` and `solve_equal_middle` are `solve_chain` on the
template of their arguments.

Every decision reads two tolerances: the gate TOL_RESIDUAL on the residual
||M - P|| (Frobenius) of the composed path P, and the angle resolution
ANGLE_EPS (box slack, merged roots).  The pre-filters read TOL_RESIDUAL too:
|a.(M - P)b| and ||(M - P)a|| (unit a, b) are at most ||M - P||, so none drops
a row the gate accepts; they only skip composing rows that cannot pass.  Step
2 compares no axial components: missing a_1 . M a_n by d costs a residual >= d.

`solve_shapes` is the one stacked solve.  It solves the families of several
`chain_shapes` entries (families of one shape with their axes and step-1
coefficients, cached in `planner._catalog`) on (N, 3, 3) targets: step 1
per shape, the 4- and 5-chains sharing one root filter and polish, then one
step 2 over every shape's (row, interior) pairs, so `plan_batch` makes one
step-2 pass per radius group.  It returns one flat row (target, family,
arcs, residual) per solution, `family` the template's position in the
tuple `chain_shapes` grouped (in `planner._catalog`, the catalog
position); `solve_chain` is its case of one family and one target m (3, 3).
Each stacked operation keeps the bits of its one-target, one-family form: a
row takes its own operands in the same shapes, e.g. (K, 3, 3) @ (K, 3, 1)
for matrix-vector products, never a gemm across families such as ms @ A.T,
which rounds differently; dot products are 1x3 @ 3x1 matmuls and angles are
taken per root with `math`.  Shared passes pad rows instead, with exact
no-ops: interiors to three slots turned by 0, which `rotations_about_axis`
makes exactly I, and 4-chain coefficients to the 5-chain width with zeros,
which add exact zeros to each value and slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .geometry import (
    ANGLE_EPS,
    TWO_PI,
    Segment,
    SegmentKind,
    TurnGeometry,
    align_angles,
    canonical_angle,
    cross,
    rotation_about_axis,  # noqa: F401  perfbench/tracing.py counts linkage.rotation_about_axis
    rotations_about_axis,
    row_dots,
    row_norms,
    skew,
    turn_axis,
)

TOL_RESIDUAL = 1e-9  # max Frobenius residual of a reported solution, and every pre-filter's bound

_EY = np.array([0.0, 1.0, 0.0])  # orthogonal to every axis: a single arc's probe

# Equal-middle root selection.  The eliminated scalar equation is a
# trigonometric polynomial in beta; its real roots are the eigenvalues z of
# the companion matrix that lie on the unit circle (z = e^{i beta}).
# - ROOT_UNIT_BAND: eigenvalues with ||z| - 1| up to this count as real.  A
#   double root comes out as a pair up to ~1e-7 from the circle (about the
#   square root of machine epsilon), and a near-tangential dip that misses
#   zero by d sits about sqrt(2 d / |gap''|) off it; whatever the band admits
#   still has to pass the residual gate.
# - ROOT_END_BAND: beta must lie in the open interval (band, pi - band), both
#   as the eigenvalue angle and after polishing.  The endpoints are not
#   solutions: beta = 0 is a middle arc of exactly pi (the fixed-pi family's),
#   beta = pi middle arcs of 2pi (full loops).  The identity target has a
#   double root at beta = pi whose numerical split lands up to ~1e-7 inside
#   the interval; the band must stay well above that and well below the
#   distance of real roots from the ends (roots at 3e-4 are tested).
# - NEWTON_STEPS / NEWTON_STOP: polishing takes Newton steps on the real gap
#   with the analytic derivative, at most NEWTON_STEPS of them, stopping once
#   a step is below NEWTON_STOP or fails to shrink |gap| (that step is not
#   taken).  Eigenvalues of simple roots are already within a few ulps, so
#   one or two steps are taken; near a tangential minimum Newton cannot
#   reach zero and stops at the first step that does not shrink |gap|.
ROOT_UNIT_BAND = 1e-6
ROOT_END_BAND = 1e-6
NEWTON_STEPS = 8
NEWTON_STOP = 1e-15


Kinds = Sequence[SegmentKind | str]


@dataclass(frozen=True)
class CandidateSolution:
    """Angle assignment solving one linkage problem, with its residual."""

    angles: tuple[float, ...]
    residual: float

    def segments(self, kinds: Kinds) -> tuple[Segment, ...]:
        return tuple(Segment(k, a) for k, a in zip(kinds, self.angles))


@dataclass(frozen=True)
class FamilyTemplate:
    """One candidate family: an axis pattern, how its parameters become arc
    angles, and the box they must stay in (said here and nowhere else)."""

    tag: str
    kinds: tuple[SegmentKind, ...]
    pinned: bool = False   # a three-segment chain with its middle arc pinned at pi

    def __post_init__(self) -> None:
        if len(self.kinds) > 5 or (self.equal_middles and not all(k.is_turn for k in self.kinds)):
            raise InvalidInput("equal-middle chains have 4 or 5 segments, turns only")
        if self.pinned and len(self.kinds) != 3:
            raise InvalidInput(
                f"a pinned middle is pi on a three-segment chain, got {len(self.kinds)} segments"
            )

    def __hash__(self) -> int:  # equal templates have equal tags; kinds hash slowly
        return hash(self.tag)

    @classmethod
    def of(cls, pattern: Kinds, pinned: bool = False) -> FamilyTemplate:
        """Template for an axis pattern; a pinned middle shows in the tag: LRpiL."""
        kinds = tuple(SegmentKind(k) for k in pattern)
        tag = "".join(k.value for k in kinds)
        return cls(tag[:2] + "pi" * pinned + tag[2:], kinds, pinned)

    @property
    def shape(self) -> tuple[int, bool]:
        """Chain length and whether the middle is pinned: families of one
        shape share `angles`, `slot_map` and `outer_cap`, and one solve."""
        return len(self.kinds), self.pinned

    @property
    def equal_middles(self) -> bool:  # 4/5-chains share one interior angle
        return len(self.kinds) >= 4

    @property
    def is_free_middle_turn_triple(self) -> bool:
        turns = all(k.is_turn for k in self.kinds)
        return len(self.kinds) == 3 and not self.pinned and turns

    def angles(self, params: np.ndarray) -> np.ndarray:
        """Arc angles (k, slots) of parameter rows (k, p): the arcs, (alpha, gamma)
        around a pinned middle, or (alpha, beta, gamma) with interior arcs pi + beta."""
        if self.equal_middles:
            mids = np.repeat(math.pi + params[:, 1:2], len(self.kinds) - 2, axis=1)
            return np.hstack([params[:, 0:1], mids, params[:, 2:3]])
        if self.pinned:
            mid = np.full((params.shape[0], 1), math.pi)
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
        [0, pi] with outer arcs up to `outer_cap`.  Beta's ends (full loops) are kept
        out by the solver's open root interval and the oracle's ANGLE_EPS margin."""
        if self.equal_middles:
            return np.zeros(3), np.array([2.0 * math.pi, math.pi, 2.0 * math.pi])
        if self.pinned:
            return np.zeros(2), np.full(2, math.pi)
        lows = np.zeros(len(self.kinds))
        if self.is_free_middle_turn_triple:
            lows[1] = math.pi
        return lows, np.full(len(self.kinds), 2.0 * math.pi)

    @cached_property
    def _arc_bounds(self) -> list[tuple[float, float]]:
        lows, highs = self.angles(np.stack(self.box)).tolist()
        return [(lo - ANGLE_EPS, hi + ANGLE_EPS) for lo, hi in zip(lows, highs)]

    def outer_cap(self, arcs):
        """Bound on the outer arcs, from arcs indexed slot first (a path's, or a
        batch's (slots, k) columns): on equal-middle chains the interior arc
        pi + beta, else inf."""
        return arcs[1] if self.equal_middles else math.inf

    def feasible(self, angles: Sequence[float]) -> bool:
        """Whether the arcs lie in the box up to ANGLE_EPS, the outer
        arcs also at most `outer_cap`."""
        if not all(lo <= a <= hi for (lo, hi), a in zip(self._arc_bounds, angles)):
            return False
        outer = max(angles[0], angles[-1]) if len(angles) else -math.inf
        return outer <= self.outer_cap(angles) + ANGLE_EPS


def checked_target(m) -> np.ndarray:
    """The target m as a float (3, 3) array; another shape, or a NaN or
    infinite entry, raises InvalidInput before anything is solved."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InvalidInput(f"target must have shape (3, 3), got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("target must be finite")
    return m


def _row_apply(ms: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """ms[k] @ vs[k] for (K, 3, 3) and (K, 3) stacks, each with the bits of
    one matrix-vector product."""
    return (ms @ vs[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class ChainShape:
    """Families of one `FamilyTemplate.shape` (chain length and step-1 kind)
    at one turning radius, each with its position in the templates
    `chain_shapes` grouped, and one read-only row per family of every
    constant their solve reads: the axes, the interior and outer axes
    `_close_chain` turns about, and for step 1 (a single arc needs only its
    axis) a free middle's `scalar_reduction` triple, a fixed interior with
    its predicted a_1 . B a_n, or the equal-middle Laurent coefficients."""

    templates: tuple[FamilyTemplate, ...]
    positions: tuple[int, ...]
    axes: np.ndarray                    # (F, n, 3)
    inner: np.ndarray | None = None     # (F, 3, 3): interior axes, padded to three slots
    ends: np.ndarray | None = None      # (F, 2, 3)
    reductions: tuple[tuple[float, float, float], ...] = ()
    interiors: tuple[tuple[float, ...], ...] = ()
    predicted: np.ndarray | None = None
    laurent: np.ndarray | None = None


def chain_shapes(r: float, templates: tuple[FamilyTemplate, ...]) -> tuple[ChainShape, ...]:
    """The families grouped by shape, in order of first appearance, with the
    constants of each group at unit turning radius r, built on every call:
    `planner._catalog` keeps those of each (r, mode) catalog."""
    groups: dict[tuple[int, bool], list[tuple[int, FamilyTemplate]]] = {}
    for position, t in enumerate(templates):
        groups.setdefault(t.shape, []).append((position, t))
    return tuple(_chain_shape(r, *zip(*group)) for group in groups.values())


def _chain_shape(
    r: float, positions: tuple[int, ...], templates: tuple[FamilyTemplate, ...]
) -> ChainShape:
    """The `ChainShape` of families of one shape at unit turning radius r."""
    geom, first, n = TurnGeometry(r), templates[0], len(templates[0].kinds)
    axes = np.array([[turn_axis(k, geom) for k in t.kinds] for t in templates])
    axes = axes.reshape(len(templates), n, 3)
    fields: dict = {}
    if first.equal_middles:
        fields["laurent"] = np.array([_laurent_coefficients(a[0], a[1:-1], a[-1]) for a in axes])
    elif n == 3 and not first.pinned:
        fields["reductions"] = tuple(scalar_reduction(*a) for a in axes)
    elif n >= 2:
        interiors, predicted = zip(*(_fixed_interior(t, a) for t, a in zip(templates, axes)))
        fields.update(interiors=interiors, predicted=np.array(predicted))
    if n >= 2:
        inner = np.zeros((len(templates), 3, 3))
        inner[:, :, 2] = 1.0  # a pad slot turns by 0 about e_z: the identity
        inner[:, :n - 2] = axes[:, 1:-1]
        fields.update(inner=inner, ends=axes[:, [0, -1]])
    for value in (axes, *fields.values()):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ChainShape(templates, positions, axes, **fields)


def _fixed_interior(template: FamilyTemplate, a: np.ndarray) -> tuple[tuple[float, ...], float]:
    """A fixed interior (none, or a middle pinned at pi) and its a_1 . B a_n."""
    if not template.pinned:
        return (), float(a[0] @ a[1])
    k1c, k2c, k3c = scalar_reduction(*a)
    return (math.pi,), k1c + k2c * math.cos(math.pi) + k3c * math.sin(math.pi)


# a solution of `solve_shapes`: target index, family position
# (`ChainShape.positions`), arcs, residual; a shape with its stack of rows;
# step 1's interior solutions of a shape: their rows and interior angles
Row = tuple[int, int, tuple[float, ...], float]
Chain = tuple[ChainShape, np.ndarray]
Interiors = tuple[list[int], list[tuple[float, ...]]]


def solve_one(m: np.ndarray, kind: SegmentKind | str, geom: TurnGeometry) -> list:
    """The angle phi with rotation(kind, phi) == m, none when m moves the axis."""
    return solve_chain(FamilyTemplate.of((kind,)), m, geom)


def solve_chain(template: FamilyTemplate, m: np.ndarray, geom: TurnGeometry) -> list:
    """Every solution of the family's chain inside its box that reaches the
    target m (3, 3), with its endpoint residual: `solve_shapes` on one
    family and one target.  The empty chain and a single arc (canonical
    angles) always lie in their box."""
    rows = solve_shapes(chain_shapes(geom.r, (template,)), checked_target(m)[None])
    return [CandidateSolution(arcs, residual) for _, _, arcs, residual in rows]


def solve_shapes(shapes: Sequence[ChainShape], ms: np.ndarray) -> list[Row]:
    """Every solution of every family of `shapes` on the (N, 3, 3) stack
    `ms`: one flat list of rows (target, family, arcs, residual), `family`
    the template's position (`ChainShape.positions`).  A family's rows on one
    target keep their step-1 order.  Step 1 runs per shape over its
    (family, target) rows, step 2 once over the interior solutions of every
    shape (`_close_chain`)."""
    n = len(ms)
    solved: list[Row] = []
    chains: list[Chain] = []
    for shape in shapes:
        count, family = len(shape.templates), shape.positions
        rows = np.concatenate([ms] * count)  # row f * n + i is family f on target i
        if not shape.axes.shape[1]:
            residuals = enumerate(row_norms(rows - np.eye(3)).tolist())
            solved += [(k % n, family[k // n], (), r) for k, r in residuals if r <= TOL_RESIDUAL]
        elif shape.axes.shape[1] == 1:
            aligned = _one_arc(rows, shape.axes[np.repeat(np.arange(count), n), 0])
            solved += [(k % n, family[k // n], (phi,), r) for k, phi, r in aligned]
        else:
            chains.append((shape, rows))
    if chains:
        solved += _close_chain(ms, chains, _eliminate(chains, n))
    return solved


def _one_arc(ms: np.ndarray, axes: np.ndarray) -> list[tuple[int, float, float]]:
    """(row, phi, residual) for the canonical angle phi with R(axes[k], phi)
    == ms[k] of every row k whose target fixes its axis, found by aligning
    e_y onto its image ms[k] e_y, the column ms[k][:, 1]."""
    fixed = np.nonzero(~(row_norms(_row_apply(ms, axes) - axes) > TOL_RESIDUAL))[0]
    if not fixed.size:  # the common case: a target that moves every axis
        return []
    sub, axes = ms[fixed], axes[fixed]
    phis = align_angles(axes, _EY, sub[:, :, 1])
    found = [k for k, phi in enumerate(phis) if phi is not None]
    angles = [phis[k] for k in found]
    residuals = row_norms(rotations_about_axis(axes[found], angles) - sub[found]).tolist()
    solved = zip(fixed[found].tolist(), angles, residuals)
    return [(k, phi, res) for k, phi, res in solved if res <= TOL_RESIDUAL]


def _eliminate(chains: Sequence[Chain], n: int) -> list[Interiors]:
    """Step 1 for shapes of two or more arcs, each with its stack of rows
    (row f * n + i is family f on target i): per shape, every interior
    solution, as the index of its row and its interior angles.

    a_1 . B a_n = a_1 . M a_n is a consistency check for a fixed interior (no
    interior, or a middle pinned at pi), a sinusoid in a free
    middle, or, on equal middles pi + beta, a trigonometric polynomial in beta
    of degree 2 (4-chains) or 3 (5-chains) whose constant term alone depends
    on the target.  Its roots are the unit-circle eigenvalues of the
    companion matrix in z = e^{i beta} (Boyd, "Computing zeros of Fourier
    series by polynomial rootfinding", 2006), polished by Newton steps (bands
    and stop rule beside ROOT_UNIT_BAND); the equal-middle shapes share one
    polish (`_interior_roots`).
    """
    found: list[Interiors] = []
    polynomials: list[np.ndarray] = []
    for shape, ms in chains:
        fam = np.repeat(np.arange(len(shape.templates)), n)
        ends = shape.ends[fam]
        rhs = row_dots(ends[:, 0], _row_apply(ms, ends[:, 1]))
        owners: list[int] = []
        interiors: list[tuple[float, ...]] = []
        if shape.laurent is not None:
            coeffs = shape.laurent[fam]
            coeffs[:, shape.axes.shape[1] - 2] -= rhs
            polynomials.append(coeffs)
        elif shape.reductions:
            for i, (f, value) in enumerate(zip(fam.tolist(), rhs.tolist())):
                k1c, k2c, k3c = shape.reductions[f]
                for phi2 in _circle_roots(k2c, k3c, value - k1c):
                    owners.append(i)
                    interiors.append((phi2,))
        else:
            owners = np.nonzero(~(np.abs(rhs - shape.predicted[fam]) > TOL_RESIDUAL))[0].tolist()
            interiors = [shape.interiors[f] for f in fam[owners].tolist()]
        found.append((owners, interiors))
    roots = iter(_interior_roots(polynomials) if polynomials else ())
    for (shape, rows), (owners, interiors) in zip(chains, found):
        if shape.laurent is not None:
            for i, betas in zip(range(len(rows)), roots):
                owners += [i] * len(betas)
                interiors += [(math.pi + beta,) * (shape.axes.shape[1] - 2) for beta in betas]
    return found


def scalar_reduction(
    a1: np.ndarray, a2: np.ndarray, a3: np.ndarray
) -> tuple[float, float, float]:
    """Coefficients (K1, K2, K3) of a1.(R(a2, phi) a3) = K1 + K2 cos + K3 sin."""
    k1 = float(a1 @ a2) * float(a2 @ a3)
    k2 = float(a1 @ a3) - k1
    k3 = float(a1 @ cross(a2, a3))
    return k1, k2, k3


def _circle_roots(k2: float, k3: float, c: float) -> list[float]:
    """Roots phi in [0, 2*pi) of k2*cos(phi) + k3*sin(phi) = c (up to two)."""
    rho = math.hypot(k2, k3)
    if rho < 1e-13 or abs(c) > rho + TOL_RESIDUAL:
        return []
    base = math.atan2(k3, k2)
    half = math.acos(max(-1.0, min(1.0, c / rho)))
    roots = [canonical_angle(base + half)]
    second = canonical_angle(base - half)
    if min(abs(second - roots[0]), TWO_PI - abs(second - roots[0])) > ANGLE_EPS:
        roots.append(second)
    return roots


def _recover_outer(
    m: np.ndarray, ends: np.ndarray, middle_blocks: np.ndarray
) -> list[tuple[float, float] | None]:
    """Outer angles (phi_1, phi_n) bracketing each known middle rotation block.

    `m` and `middle_blocks` are (K, 3, 3) stacks, one row per (target,
    interior) pair, and `ends` the (K, 2, 3) stack of each row's first and
    last axis; a row gets None when no outer angles exist.  A row missing
    either angle merges its outer rotations (module docstring, step 2): it
    is the single arc q = M B^T about a_1, solved in one `_one_arc` call,
    with phi_n = 0.
    """
    a1, a3 = ends[:, 0], ends[:, 1]
    rows = len(m)
    # phi1 aligns about a1 (rows :K), phi3 about a3 (rows K:), in one call
    angles = align_angles(
        np.concatenate([a1, a3]),
        np.concatenate([_row_apply(middle_blocks, a3), _row_apply(m.transpose(0, 2, 1), a1)]),
        np.concatenate([_row_apply(m, a3), _row_apply(middle_blocks.transpose(0, 2, 1), a1)]),
    )
    outer = [None if None in pair else pair for pair in zip(angles[:rows], angles[rows:])]
    merged = [k for k, pair in enumerate(outer) if pair is None]
    if merged:
        q = m[merged] @ middle_blocks[merged].transpose(0, 2, 1)
        for k, phi, _ in _one_arc(q, a1[merged]):
            outer[merged[k]] = (phi, 0.0)
    return outer


def _close_chain(ms: np.ndarray, chains: Sequence[Chain], found: Sequence[Interiors]) -> list[Row]:
    """Step 2 for every interior solution of step 1 (see the module
    docstring), of every shape in one pass.

    `found[c]` holds step 1's solutions of `chains[c]`, a shape with its
    stack of rows (row f * n + i is family f on target `ms[i]`).  For each
    (row, interior) pair: build the interior block, recover the outer angles,
    keep the assignment if the family's `feasible` accepts it, and only then
    compose it; the solution rows are those whose matrix residual is within
    TOL_RESIDUAL, in step 1's order.
    Interiors are padded to three slots with angle 0, whose rotation is I
    exactly, so every pair turns through the same three slots.
    """
    n = len(ms)
    targets: list[int] = []
    families: list[int] = []  # indices into the chains' templates, all in turn
    positions: list[int] = []  # each of those templates' `ChainShape.positions` entry
    interiors: list[tuple[float, ...]] = []
    for (shape, _), (owners, mids) in zip(chains, found):
        targets += [k % n for k in owners]
        families += [len(positions) + k // n for k in owners]
        positions += shape.positions
        interiors += mids
    if not interiors:
        return []
    templates = [t for shape, _ in chains for t in shape.templates]
    inner = np.concatenate([shape.inner for shape, _ in chains])[families]
    end_axes = np.concatenate([shape.ends for shape, _ in chains])[families]
    stack = ms[targets]
    padded = np.array([mid + (0.0,) * (3 - len(mid)) for mid in interiors])
    rotations = rotations_about_axis(inner, padded)  # (K, 3, 3, 3), slot by slot
    blocks = rotations[:, 0] @ rotations[:, 1] @ rotations[:, 2]
    outer = _recover_outer(stack, end_axes, blocks)
    paths = {k: (p[0],) + interiors[k] + (p[1],) for k, p in enumerate(outer) if p is not None}
    rows = [k for k, angles in paths.items() if templates[families[k]].feasible(angles)]
    if not rows:
        return []
    assignments = [paths[k] for k in rows]
    # each row's product has the same bits in any stack
    ends = rotations_about_axis(end_axes[rows], np.array([(a[0], a[-1]) for a in assignments]))
    turns = rotations[rows]
    product = ends[:, 0] @ turns[:, 0] @ turns[:, 1] @ turns[:, 2] @ ends[:, 1]
    residuals = row_norms(product - stack[rows]).tolist()
    return [
        (targets[k], positions[families[k]], angles, res)
        for k, angles, res in zip(rows, assignments, residuals) if res <= TOL_RESIDUAL
    ]


def _laurent_coefficients(
    a_first: np.ndarray, mid_axes: Sequence[np.ndarray], a_last: np.ndarray
) -> np.ndarray:
    """Coefficients c[k + n] of a_first . B(beta) a_last = sum_k c_k e^{i k beta}.

    B is the product of the n interior rotations R(a, pi + beta), each equal
    to (I + K^2) - sin(beta) K + cos(beta) K^2 with K = skew(a), i.e. the
    Laurent polynomial A_{-1}/z + A_0 + A_1 z in z = e^{i beta}.
    """
    row = a_first.astype(complex)[None, :]
    for axis in mid_axes:
        k = skew(axis)
        k2 = k @ k
        terms = (0.5 * k2 - 0.5j * k, np.eye(3) + k2, 0.5 * k2 + 0.5j * k)
        grown = np.zeros((len(row) + 2, 3), dtype=complex)
        for shift, term in enumerate(terms):
            grown[shift:shift + len(row)] += row @ term
        row = grown
    return row @ a_last


def _trig_values(coeffs: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives in beta of the real trig polynomials
    sum_k coeffs[j, k] e^{i k beta[j]}, one per row."""
    n = (coeffs.shape[1] - 1) // 2
    k = np.arange(1, n + 1)
    upper = coeffs[:, n + 1:] * np.exp(1j * (beta[:, None] * k))
    value = coeffs[:, n].real + 2.0 * upper.sum(axis=1).real
    slope = -2.0 * (k * upper.imag).sum(axis=1)
    return value, slope


def _polish(coeffs: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Newton steps on the real gap of each row (stop rule: see NEWTON_STEPS above)."""
    beta = beta.copy()
    value, slope = _trig_values(coeffs, beta)
    live = np.arange(len(beta))
    for _ in range(NEWTON_STEPS):
        live = live[(value[live] != 0.0) & (slope[live] != 0.0)]
        if not live.size:
            break
        step = value[live] / slope[live]
        new_value, new_slope = _trig_values(coeffs[live], beta[live] - step)
        better = np.abs(new_value) < np.abs(value[live])
        live, step = live[better], step[better]
        beta[live] -= step
        value[live], slope[live] = new_value[better], new_slope[better]
        live = live[np.abs(step) > NEWTON_STOP]
    return beta


def _in_open_interval(beta: float) -> bool:
    return ROOT_END_BAND < beta < math.pi - ROOT_END_BAND


def _polynomial_roots(coeffs: np.ndarray) -> list[list[complex]]:
    """`np.roots` of each row of sum_k coeffs[:, k] z^k, as batched companion
    eigenvalues.  The lowest and highest coefficients do not depend on the
    target; a row where either is zero (np.roots trims it) is solved alone."""
    p = coeffs[:, ::-1]
    regular = (p[:, 0] != 0.0) & (p[:, -1] != 0.0)
    roots: list[list[complex]] = [
        [] if ok else np.roots(row).tolist() for ok, row in zip(regular.tolist(), p)
    ]
    rows = np.nonzero(regular)[0]
    if rows.size:
        d = p.shape[1] - 1
        companion = np.zeros((rows.size, d, d), dtype=complex)
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, 0, :] = -p[rows, 1:] / p[rows, :1]
        for i, values in zip(rows.tolist(), np.linalg.eigvals(companion).tolist()):
            roots[i] = values
    return roots


def _interior_roots(blocks: Sequence[np.ndarray]) -> list[list[float]]:
    """Real roots beta in (0, pi) of each row's trig polynomial, the rows of
    all blocks in turn: companion eigenvalues per block (one degree each),
    then one root filter and one polish over the rows zero-padded to the
    widest block (a zero coefficient adds exact zeros to value and slope)."""
    width = max(block.shape[1] for block in blocks)
    coeffs = np.zeros((sum(map(len, blocks)), width), dtype=complex)
    eigenvalues: list[list[complex]] = []
    for block in blocks:
        pad = (width - block.shape[1]) // 2
        coeffs[len(eigenvalues):len(eigenvalues) + len(block), pad:width - pad] = block
        eigenvalues += _polynomial_roots(block)
    owners: list[int] = []
    guesses: list[float] = []
    for i, zs in enumerate(eigenvalues):
        for z in zs:
            beta = math.atan2(z.imag, z.real)
            if abs(abs(z) - 1.0) <= ROOT_UNIT_BAND and _in_open_interval(beta):
                owners.append(i)
                guesses.append(beta)
    roots: list[list[float]] = [[] for _ in range(len(coeffs))]
    if guesses:
        polished = _polish(coeffs[owners], np.array(guesses))
        for i, beta in zip(owners, polished.tolist()):
            if _in_open_interval(beta) and all(abs(beta - b) > ANGLE_EPS for b in roots[i]):
                roots[i].append(beta)
    return [sorted(found) for found in roots]


def solve_two(m: np.ndarray, kinds: Kinds, geom: TurnGeometry) -> list:
    """All (alpha, gamma) with rotation(k1, alpha) @ rotation(k2, gamma) == m."""
    return solve_chain(FamilyTemplate.of(kinds), m, geom)


def solve_three(m: np.ndarray, kinds: Kinds, geom: TurnGeometry, pinned: bool = False) -> list:
    """All (phi1, phi2, phi3) in the family box whose three-rotation product
    equals m: a free turn-triple middle is at least pi, outer arcs around a
    `pinned` middle of pi at most pi."""
    return solve_chain(FamilyTemplate.of(kinds, pinned), m, geom)


def solve_equal_middle(m: np.ndarray, kinds: Kinds, geom: TurnGeometry) -> list:
    """Solve 4- and 5-segment alternating turn chains whose interior arcs share
    one angle pi + beta, beta in (0, pi), inside the family box (outer arcs at
    most pi + beta); step 1 is described in `_eliminate`."""
    if len(kinds) < 4:
        raise InvalidInput("equal-middle chains have 4 or 5 segments, turns only")
    return solve_chain(FamilyTemplate.of(kinds), m, geom)

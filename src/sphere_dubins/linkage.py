"""Inverse kinematics for products of fixed-axis rotations.

Every candidate path family reduces to a "spherical linkage" problem: given a
target rotation M and a pattern of segment kinds, find all angle assignments
whose composed rotation equals M.  Angles are recovered geometrically (probe
vectors aligned about each axis) rather than via matrix logarithms, which
avoids branch ambiguity near half-turns.  Every returned solution is verified
against the full matrix residual before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateAlignment, InconsistentPair, InvalidInput
from .geometry import (
    Segment,
    SegmentKind,
    TurnGeometry,
    align_angle,
    canonical_angle,
    probe_orthogonal,
    rotation_about_axis,
    skew,
    turn_axis,
)

TWO_PI = 2.0 * math.pi

TOL_RESIDUAL = 1e-9     # max Frobenius residual of a reported solution
TOL_SCALAR = 1e-8       # consistency tolerance on eliminated-angle scalars
TOL_SYM = 1e-7          # max outer-angle mismatch under the equal-outer option
ALIGN_FIX_TOL = 1e-7    # axis must be fixed this tightly for a 1-segment solution
PERP_FALLBACK = 1e-7    # below this the secondary probe falls back to a basis probe

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
# - ROOT_MERGE: polished roots closer than this are one root.
ROOT_UNIT_BAND = 1e-6
ROOT_END_BAND = 1e-6
NEWTON_STEPS = 8
NEWTON_STOP = 1e-15
ROOT_MERGE = 1e-9


@dataclass(frozen=True)
class CandidateSolution:
    """Angle assignment solving one linkage problem, with its residual."""

    angles: tuple[float, ...]
    residual: float
    family_tag: str

    def segments(self, kinds: Sequence[SegmentKind | str]) -> tuple[Segment, ...]:
        return tuple(Segment(k, a) for k, a in zip(kinds, self.angles))


@dataclass(frozen=True)
class LinkageProblem:
    """A target rotation plus the axis pattern and constraints to invert.

    middle_constraint is None (free), a fixed middle angle in radians, or the
    string "equal" for chains whose interior angles share one value.
    """

    target: np.ndarray
    kinds: tuple[SegmentKind, ...]
    geom: TurnGeometry
    middle_constraint: float | str | None = None
    equal_outer: bool = False

    def __post_init__(self) -> None:
        kinds = tuple(SegmentKind(k) for k in self.kinds)
        if not 1 <= len(kinds) <= 5:
            raise InvalidInput("axis pattern must have 1 to 5 segments")
        for a, b in zip(kinds, kinds[1:]):
            if a is b:
                raise InvalidInput(f"adjacent segments may not repeat: {a.value}{b.value}")
        object.__setattr__(self, "kinds", kinds)

    def solve(self) -> list[CandidateSolution]:
        n = len(self.kinds)
        if n == 1:
            sol = solve_one(self.target, self.kinds[0], self.geom)
            return [sol] if sol is not None else []
        if n == 2:
            return solve_two(self.target, self.kinds, self.geom)
        if n == 3:
            fixed = self.middle_constraint if isinstance(self.middle_constraint, float) else None
            return solve_three(
                self.target, self.kinds, self.geom,
                fixed_middle=fixed, equal_outer=self.equal_outer,
            )
        return solve_equal_middle(self.target, self.kinds, self.geom)


def _residual(m: np.ndarray, angles: Sequence[float], axes: Sequence[np.ndarray]) -> float:
    prod = np.eye(3)
    for axis, angle in zip(axes, angles):
        prod = prod @ rotation_about_axis(axis, angle)
    return float(np.linalg.norm(prod - m))


def _tag(kinds: Sequence[SegmentKind]) -> str:
    return "".join(k.value for k in kinds)


def solve_one(
    m: np.ndarray,
    kind: SegmentKind | str,
    geom: TurnGeometry,
    tag: str | None = None,
    residual_tol: float = TOL_RESIDUAL,
) -> CandidateSolution | None:
    """Angle phi with rotation(kind, phi) == m, or None when m moves the axis."""
    kind = SegmentKind(kind)
    axis = turn_axis(kind, geom)
    if np.linalg.norm(m @ axis - axis) > ALIGN_FIX_TOL:
        return None
    probe = probe_orthogonal(axis)
    try:
        phi = canonical_angle(align_angle(axis, probe, m @ probe))
    except (DegenerateAlignment, InconsistentPair):
        return None
    res = _residual(m, [phi], [axis])
    if res > residual_tol:
        return None
    return CandidateSolution((phi,), res, tag if tag is not None else kind.value)


def solve_two(
    m: np.ndarray,
    kinds: Sequence[SegmentKind | str],
    geom: TurnGeometry,
    tag: str | None = None,
    residual_tol: float = TOL_RESIDUAL,
) -> list[CandidateSolution]:
    """All (alpha, gamma) with rotation(k1, alpha) @ rotation(k2, gamma) == m."""
    k1, k2 = (SegmentKind(k) for k in kinds)
    a1 = turn_axis(k1, geom)
    a2 = turn_axis(k2, geom)
    # eliminating both angles: a1 . (M a2) is invariant under either rotation
    if abs(float(a1 @ (m @ a2)) - float(a1 @ a2)) > TOL_SCALAR:
        return []
    try:
        alpha = canonical_angle(align_angle(a1, a2, m @ a2))
        gamma = canonical_angle(align_angle(a2, m.T @ a1, a1))
    except (DegenerateAlignment, InconsistentPair):
        return []
    res = _residual(m, [alpha, gamma], [a1, a2])
    if res > residual_tol:
        return []
    return [CandidateSolution((alpha, gamma), res, tag if tag is not None else _tag((k1, k2)))]


def scalar_reduction(
    a1: np.ndarray, a2: np.ndarray, a3: np.ndarray
) -> tuple[float, float, float]:
    """Coefficients (K1, K2, K3) of a1.(R(a2, phi) a3) = K1 + K2 cos + K3 sin."""
    k1 = float(a1 @ a2) * float(a2 @ a3)
    k2 = float(a1 @ a3) - k1
    k3 = float(a1 @ np.cross(a2, a3))
    return k1, k2, k3


def _circle_roots(k2: float, k3: float, c: float) -> list[float]:
    """Roots phi in [0, 2*pi) of k2*cos(phi) + k3*sin(phi) = c (up to two)."""
    rho = math.hypot(k2, k3)
    if rho < 1e-13:
        return []
    if abs(c) > rho + TOL_SCALAR:
        return []
    base = math.atan2(k3, k2)
    half = math.acos(max(-1.0, min(1.0, c / rho)))
    roots = [canonical_angle(base + half)]
    second = canonical_angle(base - half)
    if min(abs(second - roots[0]), TWO_PI - abs(second - roots[0])) > 1e-9:
        roots.append(second)
    return roots


def _recover_outer(
    m: np.ndarray,
    axes: tuple[np.ndarray, np.ndarray, np.ndarray],
    middle_block: np.ndarray,
) -> tuple[float, float] | None:
    """Outer angles (phi1, phi3) bracketing a known middle rotation block.

    When the middle block carries the last axis onto +/- the first axis the
    outer rotations merge into one; the combined angle is then recovered with
    a secondary probe and assigned entirely to the first slot.
    """
    a1, a2, a3 = axes
    v1 = middle_block @ a3
    w1 = m @ a3
    try:
        phi1 = align_angle(a1, v1, w1)
        phi3 = align_angle(a3, m.T @ a1, middle_block.T @ a1)
        return canonical_angle(phi1), canonical_angle(phi3)
    except DegenerateAlignment:
        pass
    except InconsistentPair:
        return None
    # degenerate: M @ middle_block.T must itself be a rotation about a1
    q = m @ middle_block.T
    if np.linalg.norm(q @ a1 - a1) > ALIGN_FIX_TOL:
        return None
    probe = a2 - float(a2 @ a1) * a1
    n = np.linalg.norm(probe)
    probe = probe / n if n >= PERP_FALLBACK else probe_orthogonal(a1)
    try:
        phi1 = align_angle(a1, probe, q @ probe)
    except (DegenerateAlignment, InconsistentPair):
        return None
    return canonical_angle(phi1), 0.0


def solve_three(
    m: np.ndarray,
    kinds: Sequence[SegmentKind | str],
    geom: TurnGeometry,
    fixed_middle: float | None = None,
    equal_outer: bool = False,
    tag: str | None = None,
    residual_tol: float = TOL_RESIDUAL,
) -> list[CandidateSolution]:
    """All (phi1, phi2, phi3) whose three-rotation product equals m.

    The middle angle is eliminated first: projecting the matrix equation onto
    the outer axes leaves a single sinusoid in phi2 with at most two roots
    (or, with `fixed_middle`, a consistency check).  The outer angles follow
    by aligning probe vectors about the outer axes.  With `equal_outer`,
    solutions whose outer angles differ are discarded.
    """
    ks = tuple(SegmentKind(k) for k in kinds)
    axes = tuple(turn_axis(k, geom) for k in ks)
    a1, a2, a3 = axes
    k1c, k2c, k3c = scalar_reduction(a1, a2, a3)
    rhs = float(a1 @ (m @ a3))

    if fixed_middle is not None:
        fm = canonical_angle(fixed_middle)
        predicted = k1c + k2c * math.cos(fm) + k3c * math.sin(fm)
        if abs(predicted - rhs) > TOL_SCALAR:
            return []
        middles = [fm]
    else:
        middles = _circle_roots(k2c, k3c, rhs - k1c)

    family = tag if tag is not None else _tag(ks)
    solutions: list[CandidateSolution] = []
    for phi2 in middles:
        block = rotation_about_axis(a2, phi2)
        outer = _recover_outer(m, axes, block)
        if outer is None:
            continue
        phi1, phi3 = outer
        if equal_outer and abs(phi1 - phi3) > TOL_SYM:
            continue
        angles = (phi1, phi2, phi3)
        res = _residual(m, angles, axes)
        if res <= residual_tol:
            solutions.append(CandidateSolution(angles, res, family))
    return solutions


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


def _trig_value(coeffs: np.ndarray, beta: float) -> tuple[float, float]:
    """Value and derivative in beta of the real trig polynomial sum_k c_k e^{i k beta}."""
    n = (len(coeffs) - 1) // 2
    powers = np.exp(1j * beta * np.arange(1, n + 1))
    upper = coeffs[n + 1:] * powers
    value = coeffs[n].real + 2.0 * float(np.sum(upper).real)
    slope = -2.0 * float(np.sum(np.arange(1, n + 1) * upper.imag))
    return value, slope


def _polish(coeffs: np.ndarray, beta: float) -> float:
    """Newton steps on the real gap (stop rule: see NEWTON_STEPS above)."""
    value, slope = _trig_value(coeffs, beta)
    for _ in range(NEWTON_STEPS):
        if value == 0.0 or slope == 0.0:
            break
        step = value / slope
        new_value, new_slope = _trig_value(coeffs, beta - step)
        if abs(new_value) >= abs(value):
            break
        beta, value, slope = beta - step, new_value, new_slope
        if abs(step) <= NEWTON_STOP:
            break
    return beta


def _in_open_interval(beta: float) -> bool:
    return ROOT_END_BAND < beta < math.pi - ROOT_END_BAND


def _interior_roots(coeffs: np.ndarray) -> list[float]:
    """Real roots beta in (0, pi) of a trig polynomial, via companion eigenvalues."""
    roots: list[float] = []
    for z in np.roots(coeffs[::-1]):
        beta = math.atan2(z.imag, z.real)
        if abs(abs(z) - 1.0) > ROOT_UNIT_BAND or not _in_open_interval(beta):
            continue
        beta = _polish(coeffs, beta)
        if _in_open_interval(beta) and all(abs(beta - b) > ROOT_MERGE for b in roots):
            roots.append(beta)
    return sorted(roots)


def solve_equal_middle(
    m: np.ndarray,
    kinds: Sequence[SegmentKind | str],
    geom: TurnGeometry,
    tag: str | None = None,
    residual_tol: float = TOL_RESIDUAL,
) -> list[CandidateSolution]:
    """Solve 4- and 5-segment alternating turn chains with equal middle arcs.

    Interior arcs share one angle pi + beta with beta in (0, pi).  Projecting
    the matrix equation onto the outer axes gives a trigonometric polynomial
    in beta of degree 2 (4-chains) or 3 (5-chains), built exactly from the
    axes.  Its roots are the unit-circle eigenvalues of the degree-4/6
    companion matrix in z = e^{i beta} (Boyd, "Computing zeros of Fourier
    series by polynomial rootfinding", 2006), polished by Newton steps; the
    bands and stop rule are documented beside ROOT_UNIT_BAND.  Outer arcs are
    then recovered by probe alignment and must land in [0, pi + beta].
    """
    ks = tuple(SegmentKind(k) for k in kinds)
    if len(ks) not in (4, 5):
        raise InvalidInput("equal-middle chains have 4 or 5 segments")
    if any(not k.is_turn for k in ks):
        raise InvalidInput("equal-middle chains contain turn segments only")
    a_first = turn_axis(ks[0], geom)
    a_last = turn_axis(ks[-1], geom)
    mid_axes = [turn_axis(k, geom) for k in ks[1:-1]]
    coeffs = _laurent_coefficients(a_first, mid_axes, a_last)
    coeffs[len(mid_axes)] -= float(a_first @ (m @ a_last))

    family = tag if tag is not None else _tag(ks)
    axes = [a_first] + mid_axes + [a_last]
    solutions: list[CandidateSolution] = []
    for beta in _interior_roots(coeffs):
        middle = math.pi + beta
        block = np.eye(3)
        for axis in mid_axes:
            block = block @ rotation_about_axis(axis, middle)
        outer = _recover_outer(m, (a_first, mid_axes[0], a_last), block)
        if outer is None:
            continue
        alpha, gamma = outer
        if not (alpha <= middle + 1e-9 and gamma <= middle + 1e-9):
            continue
        angles = (alpha,) + (middle,) * len(mid_axes) + (gamma,)
        res = _residual(m, angles, axes)
        if res <= residual_tol:
            solutions.append(CandidateSolution(angles, res, family))
    return solutions

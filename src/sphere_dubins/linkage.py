"""Inverse kinematics for products of fixed-axis rotations.

Every candidate family is a chain R(a_1, phi_1) B R(a_n, phi_n) = M, with B
the product of the interior rotations, and every chain is solved in the same
two steps:

1. Eliminate the interior.  The outer rotations fix their own axes, so
   a_1 . B a_n = a_1 . M a_n: one scalar equation in the interior angles, a
   trigonometric polynomial of degree 0 (a consistency check), 1 (a free
   middle) or 2/3 (equal middles).
2. Recover the outer angles by aligning probe vectors about the outer axes,
   which avoids the branch ambiguity of matrix logarithms near half-turns,
   and keep the assignment only if its full matrix residual passes.

`solve_two`, `solve_three` and `solve_equal_middle` do step 1 for their chain
length and hand every interior solution to `_close_chain` for step 2;
`solve_one` is a single alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateAlignment, InconsistentPair, InvalidInput
from .geometry import (
    PERP_EPS,
    TWO_PI,
    Segment,
    SegmentKind,
    TurnGeometry,
    align_angle,
    canonical_angle,
    cross,
    probe_orthogonal,
    rotation_about_axis,
    skew,
    turn_axis,
)

TOL_RESIDUAL = 1e-9     # max Frobenius residual of a reported solution
TOL_SCALAR = 1e-8       # consistency tolerance on eliminated-angle scalars
ALIGN_FIX_TOL = 1e-7    # axis must be fixed this tightly for a 1-segment solution
ARC_BOUND_SLACK = 1e-9  # an arc may pass its upper bound (pi, or pi + beta) by this much

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

    def segments(self, kinds: Sequence[SegmentKind | str]) -> tuple[Segment, ...]:
        return tuple(Segment(k, a) for k, a in zip(kinds, self.angles))


def _residual(m: np.ndarray, angles: Sequence[float], axes: Sequence[np.ndarray]) -> float:
    prod = np.eye(3)
    for axis, angle in zip(axes, angles):
        prod = prod @ rotation_about_axis(axis, angle)
    return float(np.linalg.norm(prod - m))


def solve_one(
    m: np.ndarray,
    kind: SegmentKind | str,
    geom: TurnGeometry,
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
    if res > TOL_RESIDUAL:
        return None
    return CandidateSolution((phi,), res)


def solve_two(
    m: np.ndarray,
    kinds: Sequence[SegmentKind | str],
    geom: TurnGeometry,
) -> list[CandidateSolution]:
    """All (alpha, gamma) with rotation(k1, alpha) @ rotation(k2, gamma) == m.

    There is no interior: step 1 is the check a1 . M a2 == a1 . a2.
    """
    axes = [turn_axis(k, geom) for k in kinds]
    a1, a2 = axes
    if abs(float(a1 @ (m @ a2)) - float(a1 @ a2)) > TOL_SCALAR:
        return []
    return _close_chain(m, axes, [()])


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

    `axes` are the first, second and last axis of the chain; the second only
    orients the fallback probe.  When the middle block carries the last axis
    onto +/- the first axis the outer rotations merge into one; the combined
    angle is then recovered with a secondary probe and assigned entirely to
    the first slot.
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
    probe = probe / n if n >= PERP_EPS else probe_orthogonal(a1)
    try:
        phi1 = align_angle(a1, probe, q @ probe)
    except (DegenerateAlignment, InconsistentPair):
        return None
    return canonical_angle(phi1), 0.0


def _close_chain(
    m: np.ndarray,
    axes: Sequence[np.ndarray],
    interiors: Sequence[tuple[float, ...]],
    keep: Callable[[tuple[float, float], tuple[float, ...]], bool] | None = None,
) -> list[CandidateSolution]:
    """Step 2 for every interior solution of step 1 (see the module docstring).

    For each interior angle tuple: build the interior block, recover the
    outer angles, drop them unless `keep(outer, interior)` holds, and report
    the full assignment if its matrix residual is within TOL_RESIDUAL.
    """
    a_first, a_last = axes[0], axes[-1]
    solutions: list[CandidateSolution] = []
    for interior in interiors:
        block = np.eye(3)
        for axis, angle in zip(axes[1:-1], interior):
            block = block @ rotation_about_axis(axis, angle)
        outer = _recover_outer(m, (a_first, axes[1], a_last), block)
        if outer is None or (keep is not None and not keep(outer, interior)):
            continue
        angles = (outer[0],) + interior + (outer[1],)
        res = _residual(m, angles, axes)
        if res <= TOL_RESIDUAL:
            solutions.append(CandidateSolution(angles, res))
    return solutions


def solve_three(
    m: np.ndarray,
    kinds: Sequence[SegmentKind | str],
    geom: TurnGeometry,
    fixed_middle: float | None = None,
) -> list[CandidateSolution]:
    """All (phi1, phi2, phi3) whose three-rotation product equals m.

    Step 1 is a single sinusoid in phi2 with at most two roots (or, with
    `fixed_middle`, a consistency check).
    """
    axes = [turn_axis(k, geom) for k in kinds]
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
    return _close_chain(m, axes, [(phi2,) for phi2 in middles])


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
) -> list[CandidateSolution]:
    """Solve 4- and 5-segment alternating turn chains with equal middle arcs.

    Interior arcs share one angle pi + beta with beta in (0, pi).  Step 1 is
    a trigonometric polynomial in beta of degree 2 (4-chains) or 3
    (5-chains), built exactly from the axes.  Its roots are the unit-circle
    eigenvalues of the degree-4/6 companion matrix in z = e^{i beta} (Boyd,
    "Computing zeros of Fourier series by polynomial rootfinding", 2006),
    polished by Newton steps; the bands and stop rule are documented beside
    ROOT_UNIT_BAND.  Outer arcs must land in [0, pi + beta].
    """
    ks = tuple(SegmentKind(k) for k in kinds)
    if len(ks) not in (4, 5):
        raise InvalidInput("equal-middle chains have 4 or 5 segments")
    if any(not k.is_turn for k in ks):
        raise InvalidInput("equal-middle chains contain turn segments only")
    axes = [turn_axis(k, geom) for k in ks]
    mid_axes = axes[1:-1]
    coeffs = _laurent_coefficients(axes[0], mid_axes, axes[-1])
    coeffs[len(mid_axes)] -= float(axes[0] @ (m @ axes[-1]))
    interiors = [(math.pi + beta,) * len(mid_axes) for beta in _interior_roots(coeffs)]
    return _close_chain(
        m, axes, interiors,
        keep=lambda outer, interior: max(outer) <= interior[0] + ARC_BOUND_SLACK,
    )

"""Constructive non-optimality checks and closed-form product oracles.

Four families of turn chains admit strictly shorter replacements inside known
turning-radius regimes:

* ``grg``  -- L_d R_pi L_d          ->  G_p1 R_(pi+p2) G_p1        (r <= 1/sqrt(2))
* ``rgl``  -- L_d R_pi L_pi R_d     ->  R_(pi+p1) G_p2 L_(pi+p1)   (r in (1/sqrt(2), sqrt(3)/2])
* ``lrl5`` -- L_pi R_(pi+b) L_pi    ->  L_p R_(pi-b) L_p           (r <= 1/sqrt(2))
* ``lrlr6``-- L_pi R_(pi+b) L_(pi+b) R_pi -> L_p R_(pi-b) L_(pi-b) R_p
                                                         (r in (1/sqrt(2), sqrt(3)/2])

The first two are solved through the linkage solver and carry first-order
Taylor coefficients of the replacement angles in the perturbation; the last
two use closed-form replacement angles; `construct` picks the builder of a
kind.  Each kind's regime and sweep ranges are one row of `_LEMMAS`, and one
`_report` computes every report's residual and length delta.  This module
also evaluates the entrywise closed forms of the triple and quadruple turn
products so they can be compared against direct rotation products.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRegime
from .geometry import ANGLE_EPS, TWO_PI, Segment, TurnGeometry, compose_path, path_length
from .linkage import FamilyTemplate, solve_chain
from .planner import BOUNDARY_SQRT2, MAX_RADIUS

MAX_SHORTCUT_DELTA = 0.6    # perturbation range over which the constructions are exercised
TAYLOR_DELTA = 1e-4         # probe size for finite-difference slope checks
TOL_SYM = 1e-7              # max outer-angle mismatch of an equal-outer replacement

RESIDUAL_PASS = 1e-8        # endpoint agreement required for a passing report
SLOPE_PASS = 1e-3           # Taylor-slope rows: finite differences against closed forms
IDENTITY_PASS = 1e-9        # constraint-identity rows between closed forms
CLOSED_FORM_PASS = 1e-10    # phi, sin(phi), cos(phi): rationalized forms against atan2's


@dataclass(frozen=True)
class CoefficientCheck:
    name: str
    closed_form: float
    numeric: float
    bound: float  # on `error`; a report passes only if every row meets its bound

    @property
    def error(self) -> float:
        """Error relative to the closed form, or absolute where that is below
        1 in size: a slope that vanishes (a2 at r = 1/sqrt(2)) keeps the
        finite differences' absolute error."""
        return self.abs_error / max(abs(self.closed_form), 1.0)

    @property
    def passed(self) -> bool:
        return self.error <= self.bound

    @property
    def abs_error(self) -> float:
        return abs(self.closed_form - self.numeric)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.closed_form), 1e-12)
        return self.abs_error / scale


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one replacement construction."""

    kind: str
    r: float
    param: float
    original: tuple[Segment, ...]
    replacement: tuple[Segment, ...]
    endpoint_residual: float
    length_delta: float
    coefficient_checks: tuple[CoefficientCheck, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return (
            self.endpoint_residual <= RESIDUAL_PASS
            and self.length_delta > 0.0
            and all(c.passed for c in self.coefficient_checks)
        )

    def format(self) -> str:
        lines = [
            f"lemma {self.kind}: r={self.r:.6g} param={self.param:.6g}",
            "  original:    " + " ".join(f"{s.kind.value}({s.angle:.9g})" for s in self.original),
            "  replacement: "
            + (" ".join(f"{s.kind.value}({s.angle:.9g})" for s in self.replacement) or "(none)"),
            f"  endpoint residual: {self.endpoint_residual:.3e}",
            f"  length delta:      {self.length_delta:.9g}",
        ]
        if self.coefficient_checks:
            lines.append("  coefficients:")
            for c in self.coefficient_checks:
                lines.append(
                    f"    {c.name:<12} closed={c.closed_form:+.9e} "
                    f"numeric={c.numeric:+.9e} abs_err={c.abs_error:.3e} "
                    f"{'ok' if c.passed else 'FAIL'} (bound {c.bound:.0e})"
                )
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


BOUNDARY_BAND = 1e-3  # sweep grids stay this far from regime endpoints


# Lemma kind -> its regime r in (lo, hi], the regime as its errors print it,
# the ranges of r and of its parameter (delta or beta) that sweep_grid spans,
# and the interior arc count of its chains (`_turn_chain`).
_Lemma = namedtuple("_Lemma", "lo hi regime radii params interior")
_LOW = (0.0, BOUNDARY_SQRT2, "(0, 1/sqrt(2)]", (0.02, BOUNDARY_SQRT2 - BOUNDARY_BAND))
_HIGH = (BOUNDARY_SQRT2, MAX_RADIUS, "(1/sqrt(2), sqrt(3)/2]",
         (BOUNDARY_SQRT2 + BOUNDARY_BAND, MAX_RADIUS - BOUNDARY_BAND))
_LEMMAS = {
    "grg": _Lemma(*_LOW, (0.03, MAX_SHORTCUT_DELTA), 1),
    "rgl": _Lemma(*_HIGH, (0.03, MAX_SHORTCUT_DELTA), 2),
    "lrl5": _Lemma(*_LOW, (0.05, math.pi - 0.05), 1),
    "lrlr6": _Lemma(*_HIGH, (0.05, math.pi - 0.05), 2),
}
_VARIANTS = {"triple": "lrl5", "quad": "lrlr6"}  # the product tables name these rows


def _turn_chain(kind: str, outer: float, inner: float) -> tuple[Segment, ...]:
    """L_outer R_inner ... L/R_outer, with the kind's interior arc count."""
    arcs = (outer,) + (inner,) * _LEMMAS[kind].interior + (outer,)
    return tuple(Segment(k, a) for k, a in zip("LRLR", arcs))


def _check_regime(kind: str, r: float, needs: str) -> None:
    """Raise OutOfRegime, opened by `needs`, unless r is in the kind's regime."""
    lemma = _LEMMAS[kind]
    if not lemma.lo < r <= lemma.hi:
        raise OutOfRegime(f"{needs} r in {lemma.regime}, got {r}")


def sweep_grid(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """20 radii by 20 parameters for a lemma sweep (`_LEMMAS`), BOUNDARY_BAND
    away from the regime endpoints, where replacements degenerate."""
    kind = kind.lower()
    if kind not in _LEMMAS:
        raise OutOfRegime(f"unknown lemma kind {kind!r}")
    lemma = _LEMMAS[kind]
    return np.linspace(*lemma.radii, 20), np.linspace(*lemma.params, 20)


def construct(kind: str, r: float, param: float) -> LemmaReport:
    """The `kind` construction's report at (r, param): `shortcut_construction`
    for grg and rgl, `closed_replacement` for lrl5 and lrlr6."""
    build = shortcut_construction if kind.lower() in _SHORTCUTS else closed_replacement
    return build(kind, r, param)


def _report(
    kind: str, r: float, param: float, original: tuple[Segment, ...],
    replacement: tuple[Segment, ...], checks: tuple[CoefficientCheck, ...],
) -> LemmaReport:
    """A construction's report: the replacement's endpoint residual and the
    length it saves, or inf and -inf when there is no replacement."""
    geom = TurnGeometry.from_radius(r)
    residual, delta = math.inf, -math.inf
    if replacement:
        gap = compose_path(original, geom) - compose_path(replacement, geom)
        residual = float(np.linalg.norm(gap))
        delta = path_length(original, geom) - path_length(replacement, geom)
    return LemmaReport(kind, r, param, original, replacement, residual, delta, checks)


# ---------------------------------------------------------------------------
# shortcut constructions solved through the linkage solver
# ---------------------------------------------------------------------------

# Shortcut kind -> replacement family (its box is all of [0, 2pi]^3) and its
# slot whose angle is at most pi and enters the offsets as angle - pi.
_SHORTCUTS = {"grg": (FamilyTemplate.of("GRG"), 1), "rgl": (FamilyTemplate.of("RGL"), 0)}


def _shortcut_offsets(
    kind: str, geom: TurnGeometry, delta: float
) -> tuple[float, float, tuple[Segment, ...]]:
    """Replacement offsets (p1, p2) and segments of the shortest equal-outer
    replacement of the `kind` shortcut at perturbation delta."""
    template, bounded = _SHORTCUTS[kind]
    m = compose_path(_turn_chain(kind, delta, math.pi), geom)  # the original
    feasible = [
        sol for sol in solve_chain(template, m, geom)
        if abs(sol.angles[0] - sol.angles[2]) <= TOL_SYM
        and sol.angles[bounded] <= math.pi + ANGLE_EPS
    ]
    if not feasible:
        return math.nan, math.nan, ()
    best = min(feasible, key=lambda sol: path_length(sol.segments(template.kinds), geom))
    offsets = list(best.angles[:2])
    offsets[bounded] -= math.pi
    return offsets[0], offsets[1], best.segments(template.kinds)


def _taylor_slopes(kind: str, geom: TurnGeometry) -> tuple[float, float, float, float]:
    """First and second derivatives of the replacement offsets at zero perturbation.

    Two-point Richardson extrapolation at TAYLOR_DELTA removes the O(delta)
    bias of the one-sided slope, so the estimate carries only O(delta^2) error.
    """
    d = TAYLOR_DELTA
    p1_d, p2_d, _ = _shortcut_offsets(kind, geom, d)
    p1_h, p2_h, _ = _shortcut_offsets(kind, geom, d / 2.0)
    a1 = (4.0 * p1_h - p1_d) / d
    a2 = (4.0 * p2_h - p2_d) / d

    def second(p_d: float, p_h: float, a: float) -> float:
        b_d = 2.0 * (p_d - a * d) / d**2
        b_h = 2.0 * (p_h - a * d / 2.0) / (d / 2.0) ** 2
        return 2.0 * b_h - b_d

    return a1, a2, second(p1_d, p1_h, a1), second(p2_d, p2_h, a2)


def shortcut_construction(kind: str, r: float, delta: float) -> LemmaReport:
    """Build a turn chain and its strictly shorter replacement.

    ``grg`` replaces L_delta R_pi L_delta with a great-circle sandwich for
    r <= 1/sqrt(2); ``rgl`` replaces L_delta R_pi L_pi R_delta with a
    turn/great-circle/turn path for r in (1/sqrt(2), sqrt(3)/2].  The report
    carries the finite-difference Taylor slopes of the replacement offsets
    against their closed forms.
    """
    kind = kind.lower()
    if kind not in _SHORTCUTS:
        raise OutOfRegime(f"unknown shortcut kind {kind!r}")
    if not (0.0 < delta <= MAX_SHORTCUT_DELTA):
        raise OutOfRegime(f"delta must be in (0, {MAX_SHORTCUT_DELTA}], got {delta}")
    _check_regime(kind, r, f"{kind} construction needs")

    geom = TurnGeometry.from_radius(r)
    original = _turn_chain(kind, delta, math.pi)
    _, _, replacement = _shortcut_offsets(kind, geom, delta)
    if kind == "grg":
        s = math.sqrt(max(0.0, 1.0 - 2.0 * r * r))
        a1_closed = s * (1.0 - s) / r
        a2_closed = -2.0 * s
        identity_closed = 2.0 * (2.0 * r * r - 1.0)
    else:
        s = math.sqrt(max(0.0, 3.0 - 4.0 * r * r))
        a1_closed = 4.0 * r * r - 3.0 - math.sqrt(2.0) * s
        a2_closed = 2.0 * math.sqrt(2.0) * r * s
        identity_closed = 2.0 * r * (4.0 * r * r - 3.0)

    a1_num, a2_num, b1_num, b2_num = _taylor_slopes(kind, geom)
    checks = [
        CoefficientCheck("a1", a1_closed, a1_num, SLOPE_PASS),
        CoefficientCheck("a2", a2_closed, a2_num, SLOPE_PASS),
        CoefficientCheck(
            "2r*a1+a2", identity_closed, 2.0 * r * a1_closed + a2_closed, IDENTITY_PASS
        ),
    ]
    if all(c.passed for c in checks[:2]):  # the second-order slopes only after the first
        checks.append(CoefficientCheck("2r*b1+b2", 0.0, 2.0 * r * b1_num + b2_num, SLOPE_PASS))
    return _report(kind, r, delta, original, replacement, tuple(checks))


# ---------------------------------------------------------------------------
# closed-form replacements for the 5- and 6-chain reductions
# ---------------------------------------------------------------------------

def _phi_terms(variant: str, r, cb, sb, c2b) -> tuple:
    """atan2 arguments (y, x) of the replacement angle and the denominator
    that rationalizes them (d for the triple, where y**2 + x**2 = (2d)**2; g
    for the quad, where y**2 + x**2 = g**2), from r, cos(beta), sin(beta) and
    cos(2 beta).  Plain arithmetic: floats and sympy symbols share it."""
    if variant == "triple":
        x = 4.0 * r * r * (r * r - 1.0) + cb * (1.0 + (1.0 - 2.0 * r * r) ** 2)
        y = 2.0 * sb * (1.0 - 2.0 * r * r)
        return y, x, 1.0 - 2.0 * r * r * (1.0 - r * r) * (1.0 + cb)
    if variant == "quad":
        x = (
            2.0 * (3.0 * r * r - 2.0) * (r * r - 1.0)
            + 4.0 * (2.0 * r * r - 1.0) * (r * r - 1.0) * cb
            + (2.0 * r**4 - 2.0 * r * r + 1.0) * c2b
        )
        y = 2.0 * sb * (2.0 * (r * r - 1.0) + (2.0 * r * r - 1.0) * cb)
        g = (
            5.0 - 10.0 * r * r + 6.0 * r**4
            + 4.0 * (2.0 * r * r - 1.0) * (r * r - 1.0) * cb
            - 2.0 * r * r * (1.0 - r * r) * c2b
        )
        return y, x, g
    raise OutOfRegime(f"unknown variant {variant!r}")


def _phi_terms_at(variant: str, r: float, beta: float) -> tuple[float, float, float]:
    return _phi_terms(variant, r, math.cos(beta), math.sin(beta), math.cos(2.0 * beta))


def closed_form_phi(variant: str, r: float, beta: float) -> float:
    """Replacement outer angle for the triple/quad reductions, in (0, pi]."""
    y, x, _ = _phi_terms_at(variant, r, beta)
    angle = math.atan2(y, x)
    if variant == "triple":
        return math.pi - angle
    if angle < 0.0:
        angle += 2.0 * math.pi
    return angle - math.pi


def _chain_pair(
    variant: str, needs: str, r: float, beta: float, phi: float | None = None
) -> tuple[float, tuple[Segment, ...], tuple[Segment, ...]]:
    """Replacement angle phi (closed form unless given), the original chain
    L_pi R_(pi+beta) ... L/R_pi and its replacement L_phi R_(pi-beta) ...
    L/R_phi, after the regime and beta checks (`needs` opens the regime
    error: "lrl5 construction needs")."""
    kind = _VARIANTS[variant]
    _check_regime(kind, r, needs)
    if not (0.0 < beta < math.pi):
        raise OutOfRegime(f"beta must be in (0, pi), got {beta}")
    if phi is None:
        phi = closed_form_phi(variant, r, beta)
    return phi, _turn_chain(kind, math.pi, math.pi + beta), _turn_chain(kind, phi, math.pi - beta)


def closed_replacement(kind: str, r: float, beta: float) -> LemmaReport:
    """Replace a chain of half-turn-plus arcs with the closed-form shorter chain.

    ``lrl5`` handles L_pi R_(pi+beta) L_pi for r <= 1/sqrt(2); ``lrlr6``
    handles L_pi R_(pi+beta) L_(pi+beta) R_pi for r in (1/sqrt(2), sqrt(3)/2].
    """
    kind = kind.lower()
    if kind not in ("lrl5", "lrlr6"):
        raise OutOfRegime(f"unknown replacement kind {kind!r}")
    variant = "triple" if kind == "lrl5" else "quad"
    phi, original, replacement = _chain_pair(variant, f"{kind} construction needs", r, beta)
    sincos = _triple_phi_sincos if variant == "triple" else _quad_phi_sincos
    sp_closed, cp_closed = sincos(r, beta)
    # the angle of the rationalized (sin, cos), on phi's branch
    phi_closed = phi + math.remainder(math.atan2(sp_closed, cp_closed) - phi, TWO_PI)
    checks = (
        CoefficientCheck("phi", phi_closed, phi, CLOSED_FORM_PASS),
        CoefficientCheck("sin(phi)", sp_closed, math.sin(phi), CLOSED_FORM_PASS),
        CoefficientCheck("cos(phi)", cp_closed, math.cos(phi), CLOSED_FORM_PASS),
    )
    return _report(kind, r, beta, original, replacement, checks)


def _triple_phi_sincos(r: float, beta: float) -> tuple[float, float]:
    """Sine/cosine of the triple replacement angle in rationalized form."""
    y, x, d = _phi_terms_at("triple", r, beta)
    return y / (2.0 * d), -x / (2.0 * d)


def _quad_phi_sincos(r: float, beta: float) -> tuple[float, float]:
    """Sine/cosine of the quad replacement angle in rationalized form."""
    y, x, g = _phi_terms_at("quad", r, beta)
    return -y / g, -x / g


# ---------------------------------------------------------------------------
# entrywise closed forms of the turn-chain products
# ---------------------------------------------------------------------------

def triple_turn_pi_entries(r: float, beta: float) -> np.ndarray:
    """Closed form of the product L_pi R_(pi+beta) L_pi."""
    cb, sb = math.cos(beta), math.sin(beta)
    r2 = r * r
    sq = math.sqrt(1.0 - r2)
    b11 = (1.0 - 4.0 * r2) ** 2 * (1.0 - r2) - r2 * (3.0 - 4.0 * r2) ** 2 * cb
    b12 = r * (4.0 * r2 - 3.0) * sb
    b13 = r * sq * (4.0 * r2 - 1.0) * (4.0 * r2 - 3.0) * (1.0 + cb)
    b22 = -cb
    b23 = sq * (4.0 * r2 - 1.0) * sb
    b33 = r2 * (3.0 - 4.0 * r2) ** 2 - (4.0 * r2 - 1.0) ** 2 * (1.0 - r2) * cb
    return np.array([[b11, b12, b13], [-b12, b22, b23], [b13, -b23, b33]])


def triple_turn_entries(r: float, beta: float, phi: float) -> np.ndarray:
    """Closed form of the product L_phi R_(pi-beta) L_phi."""
    cb, sb = math.cos(beta), math.sin(beta)
    cp, sp = math.cos(phi), math.sin(phi)
    r2 = r * r
    sq = math.sqrt(1.0 - r2)
    one_m2 = 1.0 - 2.0 * r2
    a11 = (
        (2.0 * r2 - 1.0) ** 2 * (1.0 - r2)
        - 4.0 * r2 * (1.0 - r2) ** 2 * cb
        + 4.0 * r2 * (1.0 - r2) * one_m2 * (1.0 + cb) * cp
        + 4.0 * r2 * (r2 - 1.0) * sb * sp
        + r2 * cb * sp * sp
        + (4.0 * r2 * r2 * (1.0 - r2) - r2 * (2.0 * r2 - 1.0) ** 2 * cb) * cp * cp
        + 2.0 * r2 * one_m2 * sb * sp * cp
    )
    a12 = (
        2.0 * r * (1.0 - r2) * (2.0 * r2 - 1.0) * (1.0 + cb) * sp
        + 2.0 * r * (r2 - 1.0) * sb * cp
        + r * (2.0 * r2 - 1.0) * sb * sp * sp
        - r * sb * (2.0 * r2 - 1.0) * cp * cp
        + 2.0 * (-2.0 * r2 * r * (1.0 - r2) + r * cb * (2.0 * r2 * r2 - 2.0 * r2 + 1.0)) * sp * cp
    )
    a13 = (
        (2.0 * r2 - 1.0) ** 2 * r * sq
        - 4.0 * r2 * r * (1.0 - r2) * sq * cb
        - 2.0 * r * sq * (2.0 * r2 - 1.0) ** 2 * (1.0 + cb) * cp
        - 2.0 * r * sq * (2.0 * r2 - 1.0) * sb * sp
        + 2.0 * r * sq * (2.0 * r2 - 1.0) * sb * sp * cp
        - r * sq * cb * sp * sp
        + ((2.0 * r2 - 1.0) ** 2 * r * sq * cb - 4.0 * r2 * r * (1.0 - r2) * sq) * cp * cp
    )
    a22 = (
        4.0 * r2 * sp * sp * (r2 - 1.0)
        + cb * (-cp * cp + one_m2 * one_m2 * sp * sp)
        + 2.0 * sb * sp * cp * one_m2
    )
    a23 = (
        2.0 * r2 * sq * (one_m2 * (1.0 + cb) * sp + sb * cp)
        - one_m2 * sq * sb * (sp * sp - cp * cp)
        + sq * (-4.0 * r2 * (1.0 - r2) + (1.0 + one_m2 * one_m2) * cb) * sp * cp
    )
    a33 = (
        r2 * (2.0 * r2 - 1.0) ** 2
        + 4.0 * r2 * r2 * (r2 - 1.0) * cb
        + 4.0 * r2 * (1.0 - r2) * (2.0 * r2 - 1.0) * (1.0 + cb) * cp
        + 4.0 * r2 * (1.0 - r2) * sb * sp
        + (1.0 - r2) * (4.0 * r2 * (1.0 - r2) - (2.0 * r2 - 1.0) ** 2 * cb) * cp * cp
        + (1.0 - r2) * cb * sp * sp
        + 2.0 * sb * (1.0 - r2) * one_m2 * sp * cp
    )
    return np.array([[a11, a12, a13], [-a12, a22, a23], [a13, -a23, a33]])


def quad_turn_pi_entries(r: float, beta: float) -> np.ndarray:
    """Closed form of the product L_pi R_(pi+beta) L_(pi+beta) R_pi."""
    cb, sb = math.cos(beta), math.sin(beta)
    c2b = math.cos(2.0 * beta)
    r2 = r * r
    r4 = r2 * r2
    r6 = r4 * r2
    r8 = r4 * r4
    sq = math.sqrt(1.0 - r2)
    b11 = (
        1.0 - 20.0 * r2 + 75.0 * r4 - 104.0 * r6 + 48.0 * r8
        + 4.0 * r2 * (16.0 * r6 - 32.0 * r4 + 19.0 * r2 - 3.0) * cb
        + r4 * (3.0 - 4.0 * r2) ** 2 * c2b
    )
    b12 = -2.0 * r * (1.0 - 5.0 * r2 + 4.0 * r4 + r2 * (4.0 * r2 - 3.0) * cb) * sb
    b13 = r * sq * (
        -6.0 + 41.0 * r2 - 80.0 * r4 + 48.0 * r6
        + (-2.0 + 36.0 * r2 - 96.0 * r4 + 64.0 * r6) * cb
        + r2 * (3.0 - 16.0 * r2 + 16.0 * r4) * c2b
    )
    b22 = 1.0 - r2 + r2 * c2b
    b23 = 2.0 * r2 * sq * (4.0 * r2 - 3.0 + (4.0 * r2 - 1.0) * cb) * sb
    b33 = (
        1.0 - 19.0 * r2 + 75.0 * r4 - 104.0 * r6 + 48.0 * r8
        + 4.0 * r2 * (-3.0 + 19.0 * r2 - 32.0 * r4 + 16.0 * r6) * cb
        + r2 * (1.0 - 4.0 * r2) ** 2 * (r2 - 1.0) * c2b
    )
    return np.array([[b11, b12, b13], [-b12, b22, b23], [-b13, b23, b33]])


def quad_turn_entries(r: float, beta: float, phi: float) -> np.ndarray:
    """Closed form of the product L_phi R_(pi-beta) L_(pi-beta) R_phi."""
    cb, sb = math.cos(beta), math.sin(beta)
    c2b = math.cos(2.0 * beta)
    cp, sp = math.cos(phi), math.sin(phi)
    c2p = math.cos(2.0 * phi)
    r2 = r * r
    r4 = r2 * r2
    r6 = r4 * r2
    r8 = r4 * r4
    sq = math.sqrt(1.0 - r2)
    e11 = (
        1.0 - 12.0 * r2 + 35.0 * r4 - 42.0 * r6 + 18.0 * r8
        + 4.0 * r2 * (-2.0 + 9.0 * r2 - 13.0 * r4 + 6.0 * r6) * cb
        + 2.0 * r4 * (3.0 * r2 - 2.0) * (r2 - 1.0) * c2b
        - 4.0 * r2 * (r2 - 1.0) * sb * ((2.0 * r2 - 1.0) + 2.0 * r2 * cb) * sp
        - 4.0 * r2 * (r2 - 1.0) * (
            (2.0 * r2 - 1.0) * ((3.0 * r2 - 2.0) + r2 * c2b)
            + (8.0 * r4 - 8.0 * r2 + 1.0) * cb
        ) * cp
        + r4 * (
            2.0 * (3.0 * r2 - 2.0) * (r2 - 1.0)
            + 4.0 * (2.0 * r2 - 1.0) * (r2 - 1.0) * cb
            + (1.0 - 2.0 * r2 + 2.0 * r4) * c2b
        ) * (cp * cp - sp * sp)
        + 4.0 * r4 * sb * (2.0 * (r2 - 1.0) + (2.0 * r2 - 1.0) * cb) * sp * cp
    )
    e12 = (
        2.0 * r * (
            -2.0 + 9.0 * r2 - 13.0 * r4 + 6.0 * r6
            + (-1.0 + 9.0 * r2 - 16.0 * r4 + 8.0 * r6) * cb
            + r2 * (1.0 - 3.0 * r2 + 2.0 * r4) * c2b
        ) * sp
        + 2.0 * r * (-1.0 + 3.0 * r2 - 2.0 * r4 + 2.0 * r2 * (1.0 - r2) * cb) * sb * cp
        + 2.0 * r2 * r * sb * (2.0 * (r2 - 1.0) + (2.0 * r2 - 1.0) * cb) * (cp * cp - sp * sp)
        + 2.0 * r2 * r * (
            -4.0 + 10.0 * r2 - 6.0 * r4
            + (-4.0 + 12.0 * r2 - 8.0 * r4) * cb
            + (-1.0 + 2.0 * r2 - 2.0 * r4) * c2b
        ) * sp * cp
    )
    e13 = (
        r * sq * (
            -2.0 + 15.0 * r2 - 30.0 * r4 + 18.0 * r6
            + 12.0 * r2 * (1.0 - 3.0 * r2 + 2.0 * r4) * cb
            + 6.0 * r4 * (r2 - 1.0) * c2b
        )
        + 2.0 * r * sq * (-1.0 + 4.0 * r2 - 4.0 * r4 + 2.0 * r2 * (1.0 - 2.0 * r2) * cb) * sb * sp
        + 2.0 * r * sq * (
            2.0 - 11.0 * r2 + 20.0 * r4 - 12.0 * r6
            + (1.0 - 10.0 * r2 + 24.0 * r4 - 16.0 * r6) * cb
            + r2 * (-1.0 + 4.0 * r2 - 4.0 * r4) * c2b
        ) * cp
        + r2 * r * sq * c2p * (
            4.0 - 10.0 * r2 + 6.0 * r4
            + 4.0 * (1.0 - 3.0 * r2 + 2.0 * r4) * cb
            + (1.0 - 2.0 * r2 + 2.0 * r4) * c2b
        )
        + 4.0 * r2 * r * sq * (2.0 * (r2 - 1.0) + (2.0 * r2 - 1.0) * cb) * sb * sp * cp
    )
    e22 = (
        1.0 - 5.0 * r2 + 10.0 * r4 - 6.0 * r6
        - 4.0 * r2 * (2.0 * r2 - 1.0) * (r2 - 1.0) * cb
        + 2.0 * r4 * (1.0 - r2) * c2b
        + 4.0 * r4 * (r2 - 1.0) * math.cos(beta - 2.0 * phi)
        + 2.0 * r2 * (3.0 * r2 - 2.0) * (r2 - 1.0) * c2p
        + r6 * math.cos(2.0 * beta - 2.0 * phi)
        + r2 * (r2 - 1.0) ** 2 * math.cos(2.0 * beta + 2.0 * phi)
        + 4.0 * r2 * (r2 - 1.0) ** 2 * math.cos(beta + 2.0 * phi)
    )
    e23 = (
        2.0 * r2 * sq * (2.0 * r2 - 1.0 + 2.0 * r2 * cb) * sb * cp
        + 2.0 * r2 * sq * sp * (
            -2.0 + 7.0 * r2 - 6.0 * r4
            + (-1.0 + 8.0 * r2 - 8.0 * r4) * cb
            + r2 * (1.0 - 2.0 * r2) * c2b
        )
        + 2.0 * r2 * sq * (cp * cp - sp * sp) * sb * (2.0 * (1.0 - r2) + (1.0 - 2.0 * r2) * cb)
        + 2.0 * r2 * sq * sp * cp * (
            4.0 - 10.0 * r2 + 6.0 * r4
            + (4.0 - 12.0 * r2 + 8.0 * r4) * cb
            + (1.0 - 2.0 * r2 + 2.0 * r4) * c2b
        )
    )
    e33 = (
        1.0 - 7.0 * r2 + 25.0 * r4 - 36.0 * r6 + 18.0 * r8
        + 4.0 * r2 * (-1.0 + 6.0 * r2 - 11.0 * r4 + 6.0 * r6) * cb
        + 2.0 * r4 * (1.0 - 4.0 * r2 + 3.0 * r4) * c2b
        + 4.0 * r2 * (-1.0 + 3.0 * r2 - 2.0 * r4 + 2.0 * r2 * (1.0 - r2) * cb) * sb * sp
        + 4.0 * r2 * (
            2.0 - 9.0 * r2 + 13.0 * r4 - 6.0 * r6
            + (1.0 - 9.0 * r2 + 16.0 * r4 - 8.0 * r6) * cb
            + r2 * (-1.0 + 3.0 * r2 - 2.0 * r4) * c2b
        ) * cp
        + r2 * (
            -4.0 + 14.0 * r2 - 16.0 * r4 + 6.0 * r6
            + 4.0 * (-1.0 + 4.0 * r2 - 5.0 * r4 + 2.0 * r6) * cb
            + (-1.0 + 3.0 * r2 - 4.0 * r4 + 2.0 * r6) * c2b
        ) * c2p
        + 4.0 * r2 * (2.0 - 4.0 * r2 + 2.0 * r4 + (1.0 - 3.0 * r2 + 2.0 * r4) * cb) * sb * sp * cp
    )
    return np.array([[e11, e12, e13], [-e12, e22, e23], [-e13, e23, e33]])


@dataclass(frozen=True)
class AppendixTables:
    """Closed-form entry tables next to their direct rotation products."""

    variant: str
    r: float
    beta: float
    phi: float
    original_formula: np.ndarray
    original_product: np.ndarray
    replacement_formula: np.ndarray
    replacement_product: np.ndarray

    @property
    def formula_vs_product(self) -> float:
        return max(
            float(np.max(np.abs(self.original_formula - self.original_product))),
            float(np.max(np.abs(self.replacement_formula - self.replacement_product))),
        )

    @property
    def replacement_vs_original(self) -> float:
        return float(np.max(np.abs(self.replacement_product - self.original_product)))


def appendix_products(
    variant: str, r: float, beta: float, phi: float | None = None
) -> AppendixTables:
    """Evaluate the published entry formulas and the direct rotation products.

    With `phi` omitted, the closed-form replacement angle is used, in which
    case the replacement product reproduces the original product entrywise.
    """
    if variant not in _VARIANTS:
        raise OutOfRegime(f"unknown variant {variant!r}")
    phi, original, replacement = _chain_pair(variant, f"{variant} tables need", r, beta, phi)
    geom = TurnGeometry.from_radius(r)
    pi_entries, entries = (
        (triple_turn_pi_entries, triple_turn_entries) if variant == "triple"
        else (quad_turn_pi_entries, quad_turn_entries)
    )
    return AppendixTables(
        variant=variant,
        r=r,
        beta=beta,
        phi=phi,
        original_formula=pi_entries(r, beta),
        original_product=compose_path(original, geom),
        replacement_formula=entries(r, beta, phi),
        replacement_product=compose_path(replacement, geom),
    )

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from conftest import random_in_bounds_path, random_unit, request_from_rotation, solve_stack
from sphere_dubins import geometry as geo
from sphere_dubins import linkage as lk
from sphere_dubins.errors import InvalidInput
from sphere_dubins.oracle import random_rotation
from sphere_dubins.planner import _catalog, family_catalog, plan

GEOM5 = geo.TurnGeometry.from_radius(0.5)
GEOM6 = geo.TurnGeometry.from_radius(0.6)


def compose(pattern: str, angles, geom) -> np.ndarray:
    return geo.compose_path(
        [geo.Segment(k, a) for k, a in zip(pattern, angles)], geom
    )


def test_solve_one_identity():
    sols = lk.solve_one(np.eye(3), "G", GEOM5)
    assert len(sols) == 1 and sols[0].angles == (0.0,)


def test_solve_one_forward():
    m = geo.segment_rotation("G", 1.3, GEOM5)
    (sol,) = lk.solve_one(m, "G", GEOM5)
    assert abs(sol.angles[0] - 1.3) <= 1e-10


def test_solve_one_axis_mismatch():
    m = geo.segment_rotation("L", 1.0, GEOM5)
    assert lk.solve_one(m, "G", GEOM5) == []


def test_solve_two_identity():
    sols = lk.solve_two(np.eye(3), ("L", "R"), GEOM5)
    assert len(sols) == 1 and sols[0].angles == (0.0, 0.0)


def test_solve_two_forward():
    m = compose("LR", (0.9, 1.7), GEOM6)
    sols = lk.solve_two(m, ("L", "R"), GEOM6)
    assert len(sols) == 1
    assert np.allclose(sols[0].angles, (0.9, 1.7), atol=1e-10)


def test_solve_two_consistency_rejects():
    m = compose("LG", (1.0, 1.0), GEOM6)
    assert lk.solve_two(m, ("L", "R"), GEOM6) == []


def test_solve_three_forward_lgl():
    m = compose("LGL", (0.8, 1.2, 0.5), GEOM5)
    sols = lk.solve_three(m, ("L", "G", "L"), GEOM5)
    assert any(np.allclose(s.angles, (0.8, 1.2, 0.5), atol=1e-9) for s in sols)


def test_solve_three_fixed_middle_pi():
    g = geo.TurnGeometry.from_radius(0.71)
    m = compose("RLR", (0.7, math.pi, 0.7), g)
    sols = lk.solve_three(m, ("R", "L", "R"), g, pinned=True)
    assert len(sols) == 1
    assert np.allclose(sols[0].angles, (0.7, math.pi, 0.7), atol=1e-10)


def test_solve_three_identity_includes_zero():
    sols = lk.solve_three(np.eye(3), ("L", "G", "L"), GEOM5)
    assert any(np.allclose(s.angles, (0.0, 0.0, 0.0), atol=0.0) for s in sols)


def test_solve_three_fixed_middle_inconsistent_target():
    g = geo.TurnGeometry.from_radius(0.8)
    m = compose("RLR", (0.4, 2.0, 1.1), g)  # middle far from pi
    assert lk.solve_three(m, ("R", "L", "R"), g, pinned=True) == []


def test_solve_three_degenerate_alignment_fallback():
    # at r = 1/sqrt(2) a pi middle turn carries the outer axis onto its
    # negative, collapsing the two outer angles into one recoverable sum
    g = geo.TurnGeometry.from_radius(1.0 / math.sqrt(2.0))
    m = geo.segment_rotation("R", 0.8, g) @ geo.segment_rotation("L", math.pi, g)
    sols = lk.solve_three(m, ("R", "L", "R"), g, pinned=True)
    assert sols, "degenerate fallback should still produce a solution"
    assert all(s.residual <= 1e-9 for s in sols)
    assert any(np.allclose(s.angles, (0.8, math.pi, 0.0), atol=1e-9) for s in sols)


def test_circle_roots_no_spurious_solution():
    assert lk._circle_roots(0.0, 0.0, 0.5) == []
    roots = lk._circle_roots(1.0, 0.0, 0.3)
    assert len(roots) == 2
    for phi in roots:
        assert abs(math.cos(phi) - 0.3) <= 1e-12


def test_scalar_reduction_identity():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a1, a2, a3 = (random_unit(rng) for _ in range(3))
        k1, k2, k3 = lk.scalar_reduction(a1, a2, a3)
        phi = float(rng.uniform(0.0, 2 * math.pi))
        lhs = float(a1 @ (geo.rotation_about_axis(a2, phi) @ a3))
        rhs = k1 + k2 * math.cos(phi) + k3 * math.sin(phi)
        assert abs(lhs - rhs) <= 1e-12


def test_equal_middle_published_example():
    g = geo.TurnGeometry.from_radius(0.55)
    m = compose("RLRL", (0.35, 3.5458, 3.5458, 0.35), g)
    sols = lk.solve_equal_middle(m, ("R", "L", "R", "L"), g)
    match = [s for s in sols if np.allclose(s.angles, (0.35, 3.5458, 3.5458, 0.35), atol=1e-8)]
    assert match
    beta = match[0].angles[1] - math.pi
    assert abs(beta - (3.5458 - math.pi)) <= 1e-8


def test_equal_middle_identity_empty():
    assert lk.solve_equal_middle(np.eye(3), ("R", "L", "R", "L"), GEOM5) == []


@pytest.mark.parametrize("r", [0.55, 0.6, 0.71, 0.8, math.sqrt(3.0) / 2.0])
@pytest.mark.parametrize("pattern", ["RLRL", "LRLRL"])
def test_equal_middle_identity_has_no_full_loops(pattern, r):
    """The identity's double root at beta = pi (middle arcs of 2pi) is not a root."""
    g = geo.TurnGeometry.from_radius(r)
    for sol in lk.solve_equal_middle(np.eye(3), tuple(pattern), g):
        assert sol.angles[1] < 2.0 * math.pi - 1e-6, sol.angles


def test_equal_middle_five_chain_roundtrip():
    g = geo.TurnGeometry.from_radius(0.8)
    angles = (0.9, math.pi + 0.6, math.pi + 0.6, math.pi + 0.6, 1.7)
    m = compose("RLRLR", angles, g)
    sols = lk.solve_equal_middle(m, ("R", "L", "R", "L", "R"), g)
    assert any(np.allclose(s.angles, angles, atol=1e-8) for s in sols)


def _chain_target(pattern: str, r: float, beta: float):
    """Target of an equal-middle chain with outer arcs 0.7 and 1.1."""
    g = geo.TurnGeometry.from_radius(r)
    angles = (0.7,) + (math.pi + beta,) * (len(pattern) - 2) + (1.1,)
    return compose(pattern, angles, g), g, angles


@pytest.mark.parametrize("pattern", ["RLRL", "LRLRL"])
@pytest.mark.parametrize(
    "r,beta", [(0.6, 5e-4), (0.6, math.pi - 5e-4), (0.8, 3e-4)]
)
def test_equal_middle_roots_near_interval_ends(pattern, r, beta):
    """Roots within a grid cell of beta = 0 or pi are found."""
    m, g, angles = _chain_target(pattern, r, beta)
    sols = lk.solve_equal_middle(m, tuple(pattern), g)
    match = [s for s in sols if np.allclose(s.angles, angles, rtol=0.0, atol=1e-8)]
    assert match, f"generating angles not recovered: {[s.angles for s in sols]}"
    assert match[0].residual <= 1e-9


def _interior_gap(pattern: str, g, beta: float) -> float:
    """a_first . B(beta) a_last, composed directly from the rotations."""
    block = np.eye(3)
    for kind in pattern[1:-1]:
        block = block @ geo.segment_rotation(kind, math.pi + beta, g)
    return float(geo.turn_axis(pattern[0], g) @ block @ geo.turn_axis(pattern[-1], g))


@pytest.mark.parametrize("pattern,r,guess", [("RLRL", 0.6, 1.17), ("LRLR", 0.75, 1.68)])
def test_equal_middle_near_double_root(pattern, r, guess):
    """Two roots 2e-4 apart, either side of an extremum, are both returned."""
    g = geo.TurnGeometry.from_radius(r)
    peak = optimize.minimize_scalar(
        lambda b: -_interior_gap(pattern, g, b),
        bracket=(guess - 0.05, guess, guess + 0.05), tol=1e-12,
    ).x
    beta = peak + 1e-4
    m, g, angles = _chain_target(pattern, r, beta)
    sols = lk.solve_equal_middle(m, tuple(pattern), g)
    assert all(s.residual <= 1e-9 for s in sols)
    betas = [s.angles[1] - math.pi for s in sols]
    assert any(abs(b - beta) <= 1e-8 for b in betas), betas
    assert any(abs(b - (2.0 * peak - beta)) <= 1e-6 for b in betas), betas


def test_candidate_residual_recomputes_exactly():
    g = geo.TurnGeometry.from_radius(0.71)
    m = compose("RLR", (0.7, math.pi, 0.7), g)
    for sol in lk.solve_three(m, ("R", "L", "R"), g, pinned=True):
        segs = sol.segments(("R", "L", "R"))
        recomputed = float(np.linalg.norm(geo.compose_path(segs, g) - m))
        assert recomputed == sol.residual


def test_equal_middle_validation():
    """Equal-middle chains are 4 or 5 turns; anything else is rejected."""
    for pattern in ("RLGL", "LRL", "LRLRLR"):
        with pytest.raises(InvalidInput):
            lk.solve_equal_middle(np.eye(3), tuple(pattern), GEOM5)


ROUNDTRIP_PATTERNS = [
    "L", "R", "G", "LG", "RG", "GL", "GR", "LR", "RL",
    "LGL", "LGR", "RGL", "RGR", "LRL", "RLR", "LRLR", "RLRL", "LRLRL", "RLRLR",
]


def _assert_recovers(sols, segs, g, label):
    """Some solution reaches the endpoint of `segs`, none of those longer than it."""
    kinds = tuple(s.kind for s in segs)
    m = geo.compose_path(segs, g)
    matching = [
        s for s in sols
        if float(np.linalg.norm(geo.compose_path(s.segments(kinds), g) - m)) <= 1e-9
    ]
    assert matching, f"no solution at {label}"
    best = min(geo.path_length(s.segments(kinds), g) for s in matching)
    assert best <= geo.path_length(segs, g) + 1e-9


@pytest.mark.parametrize("pattern", ROUNDTRIP_PATTERNS)
def test_roundtrip_500_random_assignments(pattern):
    """Solving a forward-composed in-box target recovers a solution matching it."""
    rng = np.random.default_rng(1000 + ROUNDTRIP_PATTERNS.index(pattern))
    template = next(f for f in family_catalog(0.8, mode="all") if f.tag == pattern)
    for i in range(500):
        r = float(rng.uniform(0.2, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        segs = random_in_bounds_path(template, rng)
        sols = lk.solve_chain(template, geo.compose_path(segs, g), g)
        _assert_recovers(sols, segs, g, f"{pattern} iteration {i} (r={r})")


@pytest.mark.parametrize("pattern", ["LRL", "RLR"])
def test_solve_three_roundtrip_any_middle(pattern):
    """A free turn triple returns only roots in its box (middle at least pi);
    the full-box triple on the same outer axes (a great-circle middle)
    recovers middles anywhere in [0, 2pi], so both `_circle_roots` roots stay
    covered, those below pi too."""
    rng = np.random.default_rng(2000 + len(pattern) + (pattern[0] == "R"))
    template = lk.FamilyTemplate.of(pattern)
    full_box = pattern[0] + "G" + pattern[2]
    below_pi = 0
    for i in range(500):
        r = float(rng.uniform(0.2, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
        below_pi += bool(angles[1] < math.pi)
        segs = [geo.Segment(k, float(a)) for k, a in zip(pattern, angles)]
        sols = lk.solve_three(geo.compose_path(segs, g), tuple(pattern), g)
        assert all(template.feasible(s.angles) for s in sols)
        if angles[1] >= math.pi:
            _assert_recovers(sols, segs, g, f"{pattern} iteration {i} (r={r})")
        segs = [geo.Segment(k, float(a)) for k, a in zip(full_box, angles)]
        sols = lk.solve_three(geo.compose_path(segs, g), tuple(full_box), g)
        _assert_recovers(sols, segs, g, f"{full_box} iteration {i} (r={r})")
    assert below_pi > 200


@pytest.mark.parametrize("r", [0.5, 0.8])
def test_no_prefilter_is_stricter_than_the_gate(r):
    """Targets a rotation of eps about a random axis away from in-box 1-3 arc
    paths lie sqrt(2) eps = 8.5e-10 < TOL_RESIDUAL from them in Frobenius
    norm; every one is still solved, so no scalar or fixed-axis pre-filter
    rejects a target that the residual gate accepts."""
    eps = 6e-10
    assert math.sqrt(2.0) * eps < lk.TOL_RESIDUAL
    g = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(12)
    templates = [f for f in family_catalog(r, mode="all") if 1 <= len(f.kinds) <= 3]
    assert any(f.pinned for f in templates) == (r > 0.71)
    for template in templates:
        targets = np.stack([
            geo.compose_path(random_in_bounds_path(template, rng), g)
            @ geo.rotation_about_axis(random_unit(rng), eps)
            for _ in range(40)
        ])
        unsolved = [k for k, sols in enumerate(solve_stack(template, targets, r)) if not sols]
        assert not unsolved, (template.tag, unsolved)


def test_tangent_and_merged_prefilters_admit_the_gate_bound():
    """The two pre-filters random near-gate targets do not reach: a tangent
    free middle keeps its root while |c| <= rho + TOL_RESIDUAL, and merged
    outer rotations are recovered while the first axis moves by less than
    TOL_RESIDUAL."""
    delta = 0.6 * lk.TOL_RESIDUAL
    assert len(lk._circle_roots(0.6, 0.8, 1.0 + delta)) == 1
    a1 = geo.turn_axis("L", GEOM5)
    off_axis = np.array([0.0, 1.0, 0.0])  # e_y, orthogonal to every axis
    m = geo.segment_rotation("L", 1.1, GEOM5) @ geo.rotation_about_axis(off_axis, delta)
    # an identity block carries a_n = a_1 onto a_1: the outer rotations merge
    (merged,) = lk._recover_outer(m[None], np.stack([a1, a1])[None], np.eye(3)[None])
    assert merged is not None and abs(merged[0] - 1.1) <= 1e-8 and merged[1] == 0.0


def test_an_axial_mismatch_is_left_to_the_residual_gate():
    """Step 2 compares no axial components: a block whose a_1 . B a_n misses
    a_1 . M a_n by delta = 1e-6 still gets outer angles, and the composed
    chain's residual is at least delta, so the gate rejects the row."""
    delta = 1e-6
    a1, a2, a3 = (geo.turn_axis(k, GEOM6) for k in "LRL")
    _, k2, k3 = lk.scalar_reduction(a1, a2, a3)
    middle = 4.0
    slope = k3 * math.cos(middle) - k2 * math.sin(middle)
    m = compose("LRL", (1.3, middle + delta / slope, 0.7), GEOM6)
    block = geo.rotation_about_axis(a2, middle)
    mismatch = abs(float(a1 @ m @ a3) - float(a1 @ block @ a3))
    assert abs(mismatch - delta) <= 1e-3 * delta
    (outer,) = lk._recover_outer(m[None], np.stack([a1, a3])[None], block[None])
    assert outer is not None
    path = geo.rotation_about_axis(a1, outer[0]) @ block @ geo.rotation_about_axis(a3, outer[1])
    assert np.linalg.norm(m - path) >= mismatch > lk.TOL_RESIDUAL


def test_chain_constants_are_cached_read_only_and_per_radius():
    """`chain_shapes` groups are cached and read-only, radii one ulp apart
    get their own groups, and planning r1, r2, r1 again gives r1's bits
    both times."""
    r1 = 0.8
    r2 = math.nextafter(r1, 1.0)
    catalog = tuple(family_catalog(r1, mode="all"))
    shapes = lk.chain_shapes(r1, catalog)
    assert all(a is b for a, b in zip(lk.chain_shapes(r1, catalog), shapes))
    arrays = [
        value for shape in shapes for value in vars(shape).values() if isinstance(value, np.ndarray)
    ]
    assert len(arrays) >= 2 * len(shapes)
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 0.0
    other = lk.chain_shapes(r2, catalog)
    assert all(a is not b for a, b in zip(other, shapes))
    turns = next(shape for shape in other if len(shape.templates[0].kinds) == 1)
    assert [a[0].tolist() for a in turns.axes] == [
        geo.turn_axis(t.kinds[0], geo.TurnGeometry(r2)).tolist() for t in turns.templates
    ]
    before = next(s for s in shapes if s.templates == turns.templates)
    assert not np.array_equal(turns.axes, before.axes)

    m = random_rotation(np.random.default_rng(3))

    def bits(r):
        result = plan(request_from_rotation(m, r), mode="all")
        return [(c.family, [repr(s.angle) for s in c.segments], repr(c.residual))
                for c in result.candidates]

    lk._chain_shape.cache_clear()
    _catalog.cache_clear()
    fresh = bits(r1)
    assert bits(r2) != fresh
    assert bits(r1) == fresh


def test_family_template_hashes_on_its_tag():
    lrl, pinned = lk.FamilyTemplate.of("LRL"), lk.FamilyTemplate.of("LRL", pinned=True)
    assert pinned.tag == "LRpiL" and lrl != pinned
    assert hash(lk.FamilyTemplate.of("LRL")) == hash(lrl) == hash("LRL")
    assert {lrl: 1, pinned: 2}[lk.FamilyTemplate.of("LRL")] == 1


# -- an independent count of the equal-middle roots ---------------------------

Poly = list  # Fraction coefficients, lowest degree first


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _trimmed(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _tangent_half_polynomial(coeffs, shift: Fraction = Fraction(0)) -> Poly:
    """(1 + t^2)^n times the real trig polynomial c_0 + 2 Re sum_k c_k e^{ik beta}
    that `_trig_values` evaluates, in t = tan(beta / 2), exactly: e^{i beta} =
    (1 + it)^2 / (1 + t^2).  `shift` moves the constant term."""
    n = (len(coeffs) - 1) // 2
    one_t2 = [Fraction(1), Fraction(0), Fraction(1)]
    total = [Fraction(coeffs[n].real) + shift]
    for _ in range(n):
        total = _poly_mul(total, one_t2)
    re, im = [Fraction(1)], [Fraction(0)]  # (1 + it)^(2k), real and imaginary parts
    for k in range(1, n + 1):
        for _ in range(2):
            re, im = _poly_add(re, [Fraction(0)] + [-x for x in im]), _poly_add(im, [Fraction(0)] + re)
        a, b = 2 * Fraction(coeffs[n + k].real), -2 * Fraction(coeffs[n + k].imag)
        term = _poly_add([a * x for x in re], [b * x for x in im])
        for _ in range(n - k):
            term = _poly_mul(term, one_t2)
        total = _poly_add(total, term)
    return _trimmed(total)


def _sturm_count(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi], by Sturm's theorem."""
    derivative = _trimmed([i * c for i, c in enumerate(p)][1:] or [Fraction(0)])
    chain = [p, derivative]
    while any(chain[-1]) and len(chain[-1]) > 1:
        rem = list(chain[-2])
        div = chain[-1]
        while len(rem) >= len(div) and any(rem):
            factor = rem[-1] / div[-1]
            offset = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[offset + i] -= factor * c
            rem = _trimmed(rem[:-1]) if len(rem) > 1 else rem
        chain.append([-c for c in rem])

    def changes(x: Fraction) -> int:
        signs = [s for s in (sum(c * x**i for i, c in enumerate(q)) for q in chain) if s != 0]
        return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def _near_double_targets(template, g, rng) -> list[np.ndarray]:
    """One target per interior extremum beta* of a_1 . B(beta) a_n in (0, pi):
    an in-box chain composed at beta* +- delta, delta in [5e-5, 5e-4], so
    a_1 . M a_n sits just past the extremum and the trig polynomial has a
    root pair 1e-4 to 1e-3 apart."""
    pattern = "".join(k.value for k in template.kinds)
    grid = np.linspace(0.0, math.pi, 401)[1:-1]
    gap = np.array([_interior_gap(pattern, g, b) for b in grid])
    targets = []
    for i in np.flatnonzero(np.diff(np.sign(np.diff(gap)))):
        sign = 1.0 if gap[i + 1] > gap[i] else -1.0  # a maximum, else a minimum
        peak = optimize.minimize_scalar(
            lambda b: -sign * _interior_gap(pattern, g, b),
            bracket=(grid[i], grid[i + 1], grid[i + 2]), tol=1e-12,
        ).x
        beta = peak + rng.choice([-1.0, 1.0]) * rng.uniform(5e-5, 5e-4)
        outer = rng.uniform(0.0, math.pi + beta, size=2)
        angles = [outer[0]] + [math.pi + beta] * (len(pattern) - 2) + [outer[1]]
        targets.append(compose(pattern, angles, g))
    return targets


@pytest.mark.parametrize("r", [0.55, 0.71, 0.8, 0.85, math.sqrt(3.0) / 2.0])
def test_sturm_count_matches_the_equal_middle_root_pass(r, monkeypatch):
    """The root pass (`_interior_roots`: companion eigenvalues, the unit band,
    Newton polish) finds as many roots in beta in (ROOT_END_BAND,
    pi - ROOT_END_BAND) as an exact Sturm count of each row's polynomial in
    t = tan(beta / 2), on random targets, in-box 4- and 5-chain paths and
    near-double targets beside every interior extremum of each family
    (`_near_double_targets`), whose eigenvalues sit farthest off the unit
    circle; each near-double row keeps its root pair unless excluded.  Rows
    whose count changes when the constant term moves by +-1e-9 (roots that
    close to a double root or a band end) are excluded; at most 2 of each
    radius's rows may be, and one is: at r = 0.71 a 5-chain pair 1.1e-4
    apart, with a third root 1.1e-5 from pi."""
    g = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(int(r * 1e4))
    templates = [lk.FamilyTemplate.of(p) for p in ("LRLR", "RLRL", "LRLRL", "RLRLR")]
    targets = [random_rotation(rng) for _ in range(10)]
    targets += [geo.compose_path(random_in_bounds_path(t, rng), g) for t in templates for _ in range(3)]
    near_doubles = [m for t in templates for m in _near_double_targets(t, g, rng)]
    targets += near_doubles
    seen = []
    interior_roots = lk._interior_roots

    def spy(blocks):
        found = interior_roots(blocks)
        seen.extend(zip((row for block in blocks for row in block), found))
        return found

    monkeypatch.setattr(lk, "_interior_roots", spy)
    for template in templates:
        solve_stack(template, np.stack(targets), r)
    lo = Fraction(math.tan(0.5 * lk.ROOT_END_BAND))
    hi = Fraction(math.tan(0.5 * (math.pi - lk.ROOT_END_BAND)))
    counted = excluded = pairs = 0
    for coeffs, betas in seen:
        count = _sturm_count(_tangent_half_polynomial(coeffs), lo, hi)
        moved = {_sturm_count(_tangent_half_polynomial(coeffs, d * Fraction(1e-9)), lo, hi)
                 for d in (-1, 1)}
        if moved != {count}:
            excluded += 1
            continue
        counted += count
        assert len(betas) == count, (coeffs.tolist(), betas, count)
        pairs += any(0.0 < b - a <= 1e-3 for a, b in zip(sorted(betas), sorted(betas)[1:]))
    assert len(seen) == 4 * len(targets) and excluded <= 2 and counted >= 12
    assert len(near_doubles) >= 4 and pairs >= len(near_doubles) - excluded


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_chain_rejects_non_finite_targets(bad):
    """Every family raises one InvalidInput naming the target before it
    solves anything, on a non-finite target and on a stack of targets, which
    only `solve_shapes` takes."""
    g = geo.TurnGeometry.from_radius(0.8)
    rng = np.random.default_rng(47)
    target = random_rotation(rng)
    target[1, 2] = bad
    stack = np.stack([random_rotation(rng), target, random_rotation(rng)])
    stacked = r"^target must have shape \(3, 3\), got \(3, 3, 3\)$"
    for template in family_catalog(0.8, mode="all"):
        with pytest.raises(InvalidInput, match=r"^target must be finite$"):
            lk.solve_chain(template, target, g)
        with pytest.raises(InvalidInput, match=stacked):
            lk.solve_chain(template, stack, g)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8, math.sqrt(3.0) / 2.0])
def test_empty_target_stack_has_no_solutions(r):
    """An empty (0, 3, 3) stack gives no solution rows, for every family
    alone and for the catalog's shapes in one call, as `plan_batch` solves
    them."""
    empty = np.zeros((0, 3, 3))
    for template in family_catalog(r, mode="all"):
        assert lk.solve_shapes(lk.chain_shapes(r, (template,)), empty) == [], template.tag
    for mode in ("table", "all"):
        assert lk.solve_shapes(_catalog(r, mode).shapes, empty) == []


@pytest.mark.parametrize("pattern", ["LR", "L", "LRLR"])
def test_a_pinned_middle_needs_a_three_segment_chain(pattern):
    """A pinned middle (always pi) on any chain length but three raises
    before a template exists, also through `solve_three`."""
    message = f"^a pinned middle is pi on a three-segment chain, got {len(pattern)} segments$"
    with pytest.raises(InvalidInput, match=message):
        lk.FamilyTemplate.of(pattern, pinned=True)
    with pytest.raises(InvalidInput, match=message):
        lk.solve_three(np.eye(3), pattern, GEOM6, pinned=True)
    assert lk.FamilyTemplate.of("LRL", pinned=True).tag == "LRpiL"

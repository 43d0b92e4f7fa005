import math

import numpy as np
import pytest

from sphere_dubins import cli
from sphere_dubins import geometry as geo
from sphere_dubins import lemmas as lm
from sphere_dubins.errors import OutOfRegime
from sphere_dubins.linkage import solve_three

SQRT2_INV = 1.0 / math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0


def test_equal_outer_filter(monkeypatch):
    # solve_three returns every root; the shortcut keeps only equal-outer replacements
    g = geo.TurnGeometry.from_radius(0.5)
    original = (geo.G(0.4), geo.R(1.0), geo.G(0.9))
    unfiltered = solve_three(geo.compose_path(original, g), ("G", "R", "G"), g)
    assert any(np.allclose(s.angles, (0.4, 1.0, 0.9), atol=1e-9) for s in unfiltered)
    assert all(abs(s.angles[0] - s.angles[2]) > lm.TOL_SYM for s in unfiltered)
    _, _, symmetric = lm._shortcut_offsets("grg", g, 0.3)
    assert symmetric and abs(symmetric[0].angle - symmetric[2].angle) <= lm.TOL_SYM
    monkeypatch.setattr(lm, "_turn_chain", lambda kind, outer, inner: original)
    p1, p2, segments = lm._shortcut_offsets("grg", g, 0.3)
    assert math.isnan(p1) and math.isnan(p2) and segments == ()


# ---------------------------------------------------------------------------
# figure-reproduction cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind,r,param",
    [
        ("grg", 0.5, math.radians(30)),
        ("rgl", 0.865, math.radians(20)),
    ],
)
def test_shortcut_reproductions(kind, r, param):
    report = lm.shortcut_construction(kind, r, param)
    assert report.endpoint_residual <= 1e-8
    assert report.length_delta > 0.0
    assert report.passed


@pytest.mark.parametrize(
    "kind,r,param",
    [
        ("lrl5", 0.55, math.radians(40)),
        ("lrlr6", 0.72, math.radians(40)),
    ],
)
def test_closed_replacement_reproductions(kind, r, param):
    report = lm.closed_replacement(kind, r, param)
    assert report.endpoint_residual <= 1e-10
    assert report.length_delta > 0.0
    phi = report.replacement[0].angle
    assert 0.0 < phi <= math.pi


def test_closed_replacement_phi_row_compares_the_rationalized_angle(monkeypatch):
    """The phi row compares phi with the angle of the rationalized (sin, cos):
    they agree to rounding, and a perturbed sine/cosine makes the row fail."""
    for kind, r in (("lrl5", 0.3), ("lrl5", SQRT2_INV), ("lrlr6", 0.8), ("lrlr6", SQRT3_2)):
        for beta in (0.05, 1.0, 2.0, math.pi - 0.05):
            assert _check_named(lm.closed_replacement(kind, r, beta), "phi").abs_error <= 1e-15
    exact = lm._triple_phi_sincos

    def perturbed(r, beta):
        sp, cp = exact(r, beta)
        c, s = math.cos(1e-6), math.sin(1e-6)
        return sp * c + cp * s, cp * c - sp * s

    monkeypatch.setattr(lm, "_triple_phi_sincos", perturbed)
    row = _check_named(lm.closed_replacement("lrl5", 0.55, 1.0), "phi")
    assert abs(row.abs_error - 1e-6) <= 1e-12


def test_a_wrong_closed_form_fails_the_report_and_the_grid(monkeypatch, capsys):
    """The coefficient rows count toward the verdict: sin/cos of phi rotated
    by 1e-3 leave the residual and the length delta passing, not the report."""
    assert lm.closed_replacement("lrl5", 0.55, 1.0).passed
    exact = lm._triple_phi_sincos

    def rotated(r, beta):
        sp, cp = exact(r, beta)
        c, s = math.cos(1e-3), math.sin(1e-3)
        return sp * c + cp * s, cp * c - sp * s

    monkeypatch.setattr(lm, "_triple_phi_sincos", rotated)
    report = lm.closed_replacement("lrl5", 0.55, 1.0)
    assert report.endpoint_residual <= lm.RESIDUAL_PASS and report.length_delta > 0.0
    assert not report.passed
    assert "verdict: FAIL" in report.format()
    assert cli.main(["validate", "--lemma", "lrl5", "--grid"]) == cli.EXIT_LEMMA_FAIL
    assert "400 failures" in capsys.readouterr().out


def test_replacement_angle_terms_are_exact_identities():
    """Exact proofs on the very expressions the floats evaluate: `_phi_terms`
    on sympy symbols, with cos(2 beta) = 2 cb**2 - 1.  Modulo
    cb**2 + sb**2 - 1, y**2 + x**2 equals (2d)**2 for the triple and g**2
    for the quad, so the rationalized sine and cosine lie on the unit
    circle; and d = (1 - cb)/2 + (cb + 1)(2r**2 - 1)**2/2 is positive for
    beta in (0, pi), which fixes phi's branch.  The quad's g > 0 is not
    proven: numerically its minimum is about 0, reached only as beta -> 0
    at r = sqrt(3)/2."""
    sympy = pytest.importorskip("sympy")
    r, cb, sb = sympy.symbols("r cb sb")

    def terms(variant):
        found = lm._phi_terms(variant, r, cb, sb, 2 * cb**2 - 1)
        return [sympy.nsimplify(term, rational=True) for term in found]

    def vanishes_on_the_circle(expr):
        return sympy.rem(sympy.expand(expr), cb**2 + sb**2 - 1, sb) == 0

    y, x, d = terms("triple")
    assert vanishes_on_the_circle(y**2 + x**2 - (2 * d) ** 2)
    assert sympy.expand(d - (1 - cb) / 2 - (cb + 1) * (2 * r**2 - 1) ** 2 / 2) == 0
    y, x, g = terms("quad")
    assert vanishes_on_the_circle(y**2 + x**2 - g**2)


def test_grg_sign_conventions():
    report = lm.shortcut_construction("grg", 0.5, 0.5)
    g1, mid, g3 = report.replacement
    assert g1.kind is geo.SegmentKind.G and g3.kind is geo.SegmentKind.G
    assert g1.angle >= 0.0 and abs(g1.angle - g3.angle) <= 1e-7
    assert mid.angle <= math.pi + 1e-9  # pi + offset with offset <= 0


def test_rgl_sign_conventions():
    report = lm.shortcut_construction("rgl", 0.8, 0.4)
    r1, mid, l3 = report.replacement
    assert r1.kind is geo.SegmentKind.R and l3.kind is geo.SegmentKind.L
    assert r1.angle <= math.pi + 1e-9  # pi + offset with offset <= 0
    assert mid.kind is geo.SegmentKind.G and mid.angle >= 0.0
    assert abs(r1.angle - l3.angle) <= 1e-7


# ---------------------------------------------------------------------------
# Taylor coefficients and constraint identities
# ---------------------------------------------------------------------------

def _check_named(report, name):
    matches = [c for c in report.coefficient_checks if c.name == name]
    assert matches, f"missing coefficient row {name}"
    return matches[0]


@pytest.mark.parametrize("r", [0.2, 0.35, 0.5, 0.65, SQRT2_INV - 1e-3])
def test_grg_taylor_coefficients(r):
    report = lm.shortcut_construction("grg", r, 0.3)
    a1 = _check_named(report, "a1")
    a2 = _check_named(report, "a2")
    assert a1.rel_error <= 1e-3
    assert a2.rel_error <= 1e-3
    ident = _check_named(report, "2r*a1+a2")
    assert abs(ident.closed_form - 2.0 * (2.0 * r * r - 1.0)) <= 1e-12
    assert ident.abs_error <= 1e-9
    b_row = _check_named(report, "2r*b1+b2")
    assert abs(b_row.numeric) <= 1e-3


@pytest.mark.parametrize("r", [SQRT2_INV + 1e-3, 0.75, 0.8, 0.83, SQRT3_2 - 1e-3])
def test_rgl_taylor_coefficients(r):
    report = lm.shortcut_construction("rgl", r, 0.3)
    a1 = _check_named(report, "a1")
    a2 = _check_named(report, "a2")
    assert a1.rel_error <= 1e-3
    assert a2.rel_error <= 1e-3
    ident = _check_named(report, "2r*a1+a2")
    assert abs(ident.closed_form - 2.0 * r * (4.0 * r * r - 3.0)) <= 1e-12
    assert ident.abs_error <= 1e-9


def test_grg_at_boundary_radius_a2_vanishes():
    report = lm.shortcut_construction("grg", SQRT2_INV, 1e-4)
    a2 = _check_named(report, "a2")
    # 1 - 2r^2 underflows to ~2e-16 at the representable boundary radius
    assert abs(a2.closed_form) <= 1e-7
    assert abs(a2.numeric) <= 1e-4
    assert a2.abs_error <= 1e-4
    assert report.passed


def test_lrl5_solvable_at_boundary_radius():
    # the sine coefficient vanishes at the boundary but the cosine one cannot
    for beta in (0.3, 1.5, 2.8):
        report = lm.closed_replacement("lrl5", SQRT2_INV, beta)
        assert report.passed
        a = 4 * SQRT2_INV**2 * (SQRT2_INV**2 - 1) + math.cos(beta) * (
            1 + (1 - 2 * SQRT2_INV**2) ** 2
        )
        assert abs(a - (math.cos(beta) - 1.0)) <= 1e-12
        assert a != 0.0


def test_out_of_regime_errors():
    with pytest.raises(OutOfRegime):
        lm.shortcut_construction("grg", 0.8, 0.3)
    with pytest.raises(OutOfRegime):
        lm.shortcut_construction("rgl", 0.5, 0.3)
    with pytest.raises(OutOfRegime):
        lm.closed_replacement("lrl5", 0.75, 0.3)
    with pytest.raises(OutOfRegime):
        lm.closed_replacement("lrlr6", 0.5, 0.3)
    with pytest.raises(OutOfRegime):
        lm.closed_replacement("lrl5", 0.5, 4.0)
    with pytest.raises(OutOfRegime):
        lm.shortcut_construction("grg", 0.5, 0.9)


# ---------------------------------------------------------------------------
# closed-form product tables
# ---------------------------------------------------------------------------

def test_triple_tables_match_products():
    worst = 0.0
    for r in np.linspace(0.05, SQRT2_INV, 10):
        for beta in np.linspace(0.1, math.pi - 0.1, 10):
            tables = lm.appendix_products("triple", float(r), float(beta), phi=1.234)
            worst = max(worst, tables.formula_vs_product)
    assert worst <= 1e-10


def test_quad_tables_match_products():
    worst = 0.0
    for r in np.linspace(SQRT2_INV + 1e-3, SQRT3_2, 10):
        for beta in np.linspace(0.1, math.pi - 0.1, 10):
            tables = lm.appendix_products("quad", float(r), float(beta), phi=0.777)
            worst = max(worst, tables.formula_vs_product)
    assert worst <= 1e-10


def test_closed_phi_reproduces_original_product():
    for variant, radii in (
        ("triple", np.linspace(0.05, SQRT2_INV, 10)),
        ("quad", np.linspace(SQRT2_INV + 1e-3, SQRT3_2, 10)),
    ):
        for r in radii:
            for beta in np.linspace(0.1, math.pi - 0.1, 10):
                tables = lm.appendix_products(variant, float(r), float(beta))
                assert tables.replacement_vs_original <= 1e-9


def test_triple_tables_continuity_at_tiny_beta():
    tables = lm.appendix_products("triple", 0.5, 1e-6)
    assert tables.replacement_vs_original <= 1e-9
    # as beta -> 0 the replacement angle approaches pi (no shortcut left)
    assert abs(tables.phi - math.pi) <= 1e-2


def test_appendix_regime_checks():
    with pytest.raises(OutOfRegime):
        lm.appendix_products("triple", 0.8, 0.5)
    with pytest.raises(OutOfRegime):
        lm.appendix_products("quad", 0.5, 0.5)
    with pytest.raises(OutOfRegime):
        lm.appendix_products("quad", 0.8, 0.0)


LOW, HIGH = "(0, 1/sqrt(2)]", "(1/sqrt(2), sqrt(3)/2]"
ERROR_CASES = [
    # each kind's regime, as the lemma table prints it; the bounds are (lo, hi]
    (lm.shortcut_construction, ("grg", 0.8, 0.3), f"grg construction needs r in {LOW}, got 0.8"),
    (lm.shortcut_construction, ("grg", 0.0, 0.3), f"grg construction needs r in {LOW}, got 0.0"),
    (lm.shortcut_construction, ("RGL", 0.5, 0.3), f"rgl construction needs r in {HIGH}, got 0.5"),
    (lm.shortcut_construction, ("rgl", SQRT2_INV, 0.3),
     f"rgl construction needs r in {HIGH}, got {SQRT2_INV}"),
    (lm.closed_replacement, ("lrl5", 0.75, 0.3), f"lrl5 construction needs r in {LOW}, got 0.75"),
    (lm.closed_replacement, ("lrl5", math.nan, 0.3),
     f"lrl5 construction needs r in {LOW}, got nan"),
    (lm.closed_replacement, ("lrlr6", 0.5, 0.3), f"lrlr6 construction needs r in {HIGH}, got 0.5"),
    (lm.closed_replacement, ("lrlr6", 0.87, 0.3),
     f"lrlr6 construction needs r in {HIGH}, got 0.87"),
    # the table variants name the lrl5 and lrlr6 rows
    (lm.appendix_products, ("triple", 0.8, 0.5), f"triple tables need r in {LOW}, got 0.8"),
    (lm.appendix_products, ("quad", 0.5, 0.5), f"quad tables need r in {HIGH}, got 0.5"),
    # delta and beta ranges; a shortcut checks delta before r, a replacement r before beta
    (lm.shortcut_construction, ("grg", 0.5, 0.9), "delta must be in (0, 0.6], got 0.9"),
    (lm.shortcut_construction, ("rgl", 0.5, 0.0), "delta must be in (0, 0.6], got 0.0"),
    (lm.closed_replacement, ("lrl5", 0.5, 4.0), "beta must be in (0, pi), got 4.0"),
    (lm.closed_replacement, ("lrl5", 0.8, 4.0), f"lrl5 construction needs r in {LOW}, got 0.8"),
    (lm.appendix_products, ("quad", 0.8, 0.0), "beta must be in (0, pi), got 0.0"),
    (lm.appendix_products, ("triple", 0.5, math.pi, 1.0), f"beta must be in (0, pi), got {math.pi}"),
    # unknown kinds and variants
    (lm.shortcut_construction, ("lrl5", 0.5, 0.3), "unknown shortcut kind 'lrl5'"),
    (lm.closed_replacement, ("GRG", 0.5, 0.3), "unknown replacement kind 'grg'"),
    (lm.sweep_grid, ("triple",), "unknown lemma kind 'triple'"),
    (lm.appendix_products, ("lrl5", 0.5, 0.3), "unknown variant 'lrl5'"),
    (lm.closed_form_phi, ("TRIPLE", 0.5, 0.3), "unknown variant 'TRIPLE'"),
]


@pytest.mark.parametrize("build, args, message", ERROR_CASES)
def test_lemma_error_messages_are_pinned(build, args, message):
    with pytest.raises(OutOfRegime) as info:
        build(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("kind, r, param", [
    ("grg", 0.5, 0.3), ("RGL", 0.8, 0.4), ("lrl5", 0.55, 1.0), ("lrlr6", 0.72, 0.7),
])
def test_construct_picks_the_kinds_builder(kind, r, param):
    build = lm.shortcut_construction if kind.lower() in ("grg", "rgl") else lm.closed_replacement
    assert lm.construct(kind, r, param) == build(kind, r, param)
    with pytest.raises(OutOfRegime, match=r"^unknown replacement kind 'foo'$"):
        lm.construct("foo", r, param)


# ---------------------------------------------------------------------------
# sweep grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["grg", "rgl", "lrl5", "lrlr6"])
def test_sweep_grid_shape_and_bands(kind):
    r_values, params = lm.sweep_grid(kind)
    assert len(r_values) >= 20 and len(params) >= 20
    lo, hi = (0.0, SQRT2_INV) if kind in ("grg", "lrl5") else (SQRT2_INV, SQRT3_2)
    assert np.all(r_values >= lo + 1e-3 - 1e-12)
    assert np.all(r_values <= hi - 1e-3 + 1e-12)

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    random_configuration,
    random_in_bounds_path,
    random_rotation,
    random_unit,
    request_from_rotation,
    request_from_segments,
    solve_stack,
)
from sphere_dubins import geometry as geo
from sphere_dubins import linkage as lk
from sphere_dubins import oracle as orc
from sphere_dubins import planner as pl
from sphere_dubins.errors import MalformedConfiguration, NoCandidateFound, RadiusOutOfRange

SQRT2_INV = 1.0 / math.sqrt(2.0)

COMMON_TAGS = [
    "EMPTY", "G", "L", "R", "LG", "RG", "GL", "GR", "LR", "RL",
    "LGL", "LGR", "RGL", "RGR", "LRL", "RLR",
]


# targets 1e-9 to 1e-8 off a pure arc: the right free-middle row has an
# outer arc of a few 1e-9, which ANGLE_EPS = 1e-9 snapped to 0 and so left
# 1.1e-9 to 1.4e-9 off the target, above the residual gate
NEAR_ARC_TARGETS = [
    (0.6, "L", 4.126234927279428,
     (-0.9576327900973459, -0.07833870157943967, -0.27713261656690685), 1e-8),
    (0.6, "R", 3.826788188844647,
     (-0.13091937332670195, 0.6057386697503239, 0.7848189483293913), 1e-9),
    (0.8, "L", 4.619051628443655,
     (-0.6503695720161882, -0.07687465982057456, 0.7557180072440718), 1e-8),
    (math.sqrt(3.0) / 2.0, "R", 4.5969730063275245,
     (0.9702615444623824, 0.07675245568695455, -0.22956828152751066), 1e-8),
]


@pytest.mark.parametrize("r, kind, theta, u, eps", NEAR_ARC_TARGETS)
def test_plan_near_a_pure_arc(r, kind, theta, u, eps):
    geom = geo.TurnGeometry.from_radius(r)
    arc = geo.compose_path([geo.Segment(kind, theta)], geom)
    m = arc @ geo.rotation_about_axis(np.array(u), eps)
    best = pl.plan(request_from_rotation(m, r)).best_candidate
    assert abs(best.physical_length - r * theta) <= 1e-6


# Turn, a middle G of 1e-8 or 1e-7, turn.  Where both turns go the same way
# (LGL, RGR) `plan` returns a longer path than the one that generated the
# target (71 of 288 seeded cases at g in {1e-9, 1e-8, 1e-7} fail, by up to
# 5.44); opposite turns plan to the generating length.  ROADMAP item 8.
NEAR_TURN = pytest.mark.xfail(raises=AssertionError, strict=True,
                              reason="near-tangent LGL/RGR plans too long (ROADMAP item 8)")


def _near_turn(r, arcs, marks=NEAR_TURN):
    label = "".join(f"{kind}{angle:.6g}" for kind, angle in arcs) + f"@{r:.4g}"
    return pytest.param(r, arcs, id=label, marks=marks)


NEAR_TURN_PATHS = [  # the plan at the xfails, against the generating path
    _near_turn(0.5, (("L", 1.1), ("G", 1e-8), ("L", 2.0))),  # RLR, +0.125
    _near_turn(0.6, (("R", 2.5), ("G", 1e-8), ("R", 1.0))),  # LGR, +3.77
    _near_turn(0.71, (("L", 0.4), ("G", 1e-7), ("L", 4.0))),  # RLR, +4.46
    _near_turn(math.sqrt(3.0) / 2.0, (("L", 5.0), ("G", 1e-8), ("L", 0.7))),  # RGR, +0.49
    _near_turn(0.3, (("R", 1.7), ("G", 1e-7), ("R", 3.3))),  # LGL, +1.38
    _near_turn(0.5, (("L", 1.0), ("G", 1e-8), ("L", 2.0 * math.pi - 1.0))),  # RGL, 2pi against pi
    _near_turn(0.71, (("R", 2.0), ("G", 1e-8), ("R", 2.0 * math.pi - 2.0))),  # LGR, +1.82
    _near_turn(0.5, (("L", 1.1), ("G", 1e-8), ("R", 2.0)), marks=()),  # LR, equal
    _near_turn(0.8, (("R", 3.0), ("G", 1e-8), ("L", 2.2)), marks=()),  # RGL, equal
]


@pytest.mark.parametrize("r, arcs", NEAR_TURN_PATHS)
def test_plan_is_no_longer_than_its_generating_path(r, arcs):
    geom = geo.TurnGeometry.from_radius(r)
    path = [geo.Segment(kind, angle) for kind, angle in arcs]
    best = pl.plan(request_from_segments(path, r)).best_candidate
    assert best.unit_length <= geo.path_length(path, geom) + 1e-9, best


def test_normalize_scales_radius():
    req = request_from_segments([geo.G(1.0)], 0.71, sphere_radius=2.0)
    m, geom, _, _, _ = pl.normalize_problem(req)
    assert geom.r == pytest.approx(0.71, abs=1e-15)
    assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12


def test_normalize_identity():
    req = request_from_segments([], 0.5)
    m, _, _, _, _ = pl.normalize_problem(req)
    assert np.max(np.abs(m - np.eye(3))) <= 1e-12


def test_normalize_radius_out_of_range():
    req = request_from_segments([geo.G(1.0)], 0.5)
    bad = pl.PlanRequest(
        sphere_radius=req.sphere_radius,
        turning_radius=0.9,
        initial=req.initial,
        final=req.final,
    )
    with pytest.raises(RadiusOutOfRange):
        pl.normalize_problem(bad)
    # best-effort admits it
    m, geom, _, _, _ = pl.normalize_problem(bad, best_effort=True)
    assert geom.r == pytest.approx(0.9)


def test_normalize_rejects_malformed():
    req = request_from_segments([geo.G(1.0)], 0.5)
    crooked = pl.PlanRequest(
        sphere_radius=1.0,
        turning_radius=0.5,
        initial=pl.Pose(np.array([1.0, 0.0, 0.0]), np.array([0.5, 1.0, 0.0])),
        final=req.final,
    )
    with pytest.raises(MalformedConfiguration):
        pl.normalize_problem(crooked)


def test_normalize_reorthonormalizes_slightly_crooked():
    req = request_from_segments([geo.G(1.0)], 0.5)
    crooked = pl.PlanRequest(
        sphere_radius=1.0,
        turning_radius=0.5,
        initial=pl.Pose(np.array([1.0, 0.0, 0.0]), np.array([1e-7, 1.0, 0.0])),
        final=req.final,
    )
    m, _, _, _, _ = pl.normalize_problem(crooked)
    assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
    result = pl.plan(crooked)
    assert 1e-9 < result.input_adjustment <= 1e-6


def _edge_pose(rng: np.random.Generator, sphere: float) -> pl.Pose:
    """A pose off by up to just under INPUT_FRAME_TOL in the position's norm,
    the tangent's norm and their cosine, each at the edge or inside it; one
    in four lies on a coordinate axis, with zero components."""
    edge = 0.999 * pl.INPUT_FRAME_TOL
    off = [edge if rng.random() < 0.5 else rng.uniform(0.0, edge) for _ in range(3)]
    signs = rng.choice([-1.0, 1.0], size=2)
    if rng.random() < 0.25:
        x, t = np.eye(3)[rng.permutation(3)[:2]] * rng.choice([-1.0, 1.0], size=(2, 1))
    else:
        pose = random_configuration(rng)
        x, t = pose.position, pose.tangent
    tangent = (math.sqrt(1.0 - off[2] ** 2) * t + off[2] * x) * (1.0 + signs[1] * off[1])
    return pl.Pose(x * (sphere * (1.0 + signs[0] * off[0])), tangent)


def test_accepted_poses_meet_the_configuration_invariant():
    """Every pose the input checks accept, on spheres of radius 1e-150 to
    1e150, re-orthonormalizes to a frame that `Configuration` accepts: unit
    within CONFIG_UNIT_TOL and orthogonal within CONFIG_ORTHO_TOL."""
    rng = np.random.default_rng(19)
    spheres = [1e-150, 1e150, 1.0] + list(10.0 ** rng.uniform(-150.0, 150.0, 297))
    requests = [
        pl.PlanRequest(
            sphere, rng.uniform(0.1, 0.85) * sphere, _edge_pose(rng, sphere), _edge_pose(rng, sphere)
        )
        for sphere in spheres
    ]
    _, _, frames, adjustments = pl.normalize_requests(requests)
    assert max(adjustments) > 0.9 * pl.INPUT_FRAME_TOL
    for x, t in frames[..., :2].transpose(0, 1, 3, 2).reshape(-1, 2, 3):
        assert abs(np.linalg.norm(x) - 1.0) <= geo.CONFIG_UNIT_TOL
        assert abs(np.linalg.norm(t) - 1.0) <= geo.CONFIG_UNIT_TOL
        assert abs(float(x @ t)) <= geo.CONFIG_ORTHO_TOL
    for req in requests:
        _, _, initial, final, _ = pl.normalize_problem(req)
        assert isinstance(initial, geo.Configuration) and isinstance(final, geo.Configuration)


def test_catalog_low_regime():
    tags = [f.tag for f in pl.family_catalog(0.5)]
    assert tags == COMMON_TAGS


def test_catalog_four_chain_regime():
    tags = [f.tag for f in pl.family_catalog(0.6)]
    assert tags == COMMON_TAGS + ["LRLR", "RLRL"]


def test_catalog_sqrt2_boundary():
    tags = [f.tag for f in pl.family_catalog(SQRT2_INV)]
    assert tags == COMMON_TAGS


def test_catalog_high_regime():
    tags = [f.tag for f in pl.family_catalog(0.8)]
    assert tags == COMMON_TAGS + ["LRpiL", "RLpiR", "LRLR", "RLRL", "LRLRL", "RLRLR"]


def test_catalog_out_of_range():
    with pytest.raises(RadiusOutOfRange):
        pl.family_catalog(0.9)
    # all mode stays available for best-effort planning
    tags = [f.tag for f in pl.family_catalog(0.9, mode="all")]
    assert "GLG" in tags and "RLpiR" in tags


def test_catalog_monotone_in_regime():
    low = {f.tag for f in pl.family_catalog(0.4)}
    high = {f.tag for f in pl.family_catalog(0.8)}
    assert low <= high


AUDIT_TAGS = ["GLG", "GRG", "GLR", "GRL", "LRG", "RLG", "LRLR", "RLRL", "LRLRL", "RLRLR"]


def test_catalog_all_mode_appends_audit():
    """In every regime, "all" is the table followed by the audit families it lacks."""
    for r in (0.3, 0.4, 0.5, 0.6, SQRT2_INV, 0.8, math.sqrt(3.0) / 2.0):
        table = [f.tag for f in pl.family_catalog(r)]
        every = [f.tag for f in pl.family_catalog(r, mode="all")]
        assert len(table) == len(set(table)), r
        assert len(every) == len(set(every)), r
        assert every == table + [t for t in AUDIT_TAGS if t not in table], r


def test_plan_identity():
    result = pl.plan(request_from_segments([], 0.5))
    best = result.best_candidate
    assert best.family == "EMPTY"
    assert best.physical_length == 0.0
    assert best.segments == ()


def test_plan_example_fixed_pi_regime():
    req = request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71)
    result = pl.plan(req)
    best = result.best_candidate
    assert best.family == "RLpiR"
    assert abs(best.unit_length - 3.2245) <= 5e-4
    cgc_ccc = [c for c in result.candidates if c.family in ("LGL", "LGR", "RGL", "RGR", "LRL", "RLR")]
    alt = min(cgc_ccc, key=lambda c: c.physical_length)
    assert alt.family == "LRL"
    assert abs(alt.unit_length - 6.6964) <= 5e-4


def test_plan_example_four_chain_regime():
    req = request_from_segments(
        [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55
    )
    result = pl.plan(req)
    best = result.best_candidate
    assert best.family == "RLRL"
    assert abs(best.unit_length - 4.2853) <= 5e-4
    others = [c for c in result.candidates if c.family != "RLRL"]
    runner_length = min(c.physical_length for c in others)
    assert abs(runner_length - 4.3643) <= 5e-4
    near = [c for c in others if c.physical_length <= runner_length + 1e-9]
    assert "LRL" in {c.family for c in near}


def test_plan_dedups_degenerate_families():
    result = pl.plan(request_from_segments([geo.G(1.3)], 0.5))
    # G, LG, GL, LGL, ... all degenerate to the bare arc; exactly one survives
    def canonical(c):
        return tuple((s.kind.value, round(s.angle, 6)) for s in c.segments if s.angle > 0)

    bare = [c for c in result.candidates if canonical(c) == (("G", 1.3),)]
    assert len(bare) == 1
    best = result.best_candidate
    assert best.family == "G"
    assert best.unit_length == pytest.approx(1.3, abs=1e-12)
    signatures = [canonical(c) for c in result.candidates]
    assert len(signatures) == len(set(signatures))


def test_plan_scale_invariance():
    rng = np.random.default_rng(17)
    m = random_rotation(rng)
    base = pl.plan(request_from_rotation(m, 0.6, sphere_radius=1.0))
    for k in (0.1, 10.0):
        scaled = pl.plan(request_from_rotation(m, 0.6, sphere_radius=k))
        assert len(scaled.candidates) == len(base.candidates)
        for a, b in zip(base.candidates, scaled.candidates):
            assert a.family == b.family
            assert a.unit_length == pytest.approx(b.unit_length, abs=1e-12)
            assert b.physical_length == pytest.approx(k * a.physical_length, rel=1e-9)


def test_plan_antipodal_and_near_identity():
    # antipodal: half great circle
    antipodal = pl.plan(request_from_segments([geo.G(math.pi)], 0.5))
    assert antipodal.best_candidate.residual <= 1e-9
    assert antipodal.best_candidate.unit_length == pytest.approx(math.pi, abs=1e-9)
    # near identity: tiny rotation still planned with no special casing
    tiny = pl.plan(request_from_segments([geo.G(1e-6)], 0.5))
    assert tiny.best_candidate.residual <= 1e-9
    assert tiny.best_candidate.unit_length <= 1e-5


# on and 1e-12 either side of 1/2, 1/sqrt(2) and sqrt(3)/2, where the catalog
# changes, but no further than the proven maximum
BOUNDARY_RADII = sorted({
    min(b + d, pl.MAX_RADIUS)
    for b in (0.5, SQRT2_INV, pl.MAX_RADIUS) for d in (-1e-12, 0.0, 1e-12)
})


@pytest.mark.parametrize("r", BOUNDARY_RADII)
def test_plan_near_a_half_turn_at_the_regime_boundaries(r):
    """Half turns about seeded axes, and turns 1e-9 and 1e-6 short of one:
    the plan recomposes to the target, the forward oracle finds nothing
    shorter and the audit catalog adds nothing.  Targets near the identity
    plan too long (test_plan_is_no_longer_than_its_generating_path, ROADMAP
    item 8), so they are not checked here."""
    geom = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(28)
    for eps in (0.0, 1e-9, 1e-6):
        for _ in range(2):
            m = geo.rotation_about_axis(random_unit(rng), math.pi - eps)
            req = request_from_rotation(m, r)
            best = pl.plan(req).best_candidate
            assert np.linalg.norm(geo.compose_path(best.segments, geom) - m) <= 1e-9, best
            found = orc.forward_oracle(m, geom, seed=0, budget=2000)
            assert best.unit_length <= found.length + 1e-6, (eps, best, found)
            audit = pl.plan(req, mode="all").best_candidate
            assert best.unit_length - audit.unit_length <= 1e-6, (eps, best, audit)


def test_plan_best_effort_heuristic_label():
    req = request_from_rotation(random_rotation(np.random.default_rng(3)), 0.9)
    with pytest.raises(RadiusOutOfRange):
        pl.plan(req)
    result = pl.plan(req, best_effort=True)
    assert result.heuristic
    assert result.best_candidate.residual <= 1e-9


@pytest.mark.parametrize("sphere_radius", [1.5, 3.0])
def test_plan_proven_maximum_radius_at_any_sphere_radius(sphere_radius):
    """turning_radius / sphere_radius rounds one ulp above sqrt(3)/2 here; that
    quotient still gets the proven catalog, in table mode and not heuristic."""
    req = request_from_rotation(
        random_rotation(np.random.default_rng(1)), pl.MAX_RADIUS, sphere_radius
    )
    assert req.turning_radius / req.sphere_radius > pl.MAX_RADIUS
    result = pl.plan(req)
    assert not result.heuristic
    assert {c.family for c in result.candidates} <= {f.tag for f in pl.family_catalog(0.8)}


def test_underflowing_unit_radius_is_out_of_range():
    """A turning radius whose quotient by the sphere radius underflows to 0
    is out of range, not a geometry error."""
    req = request_from_rotation(np.eye(3), 0.5, sphere_radius=1e10)
    tiny = pl.PlanRequest(1e10, 1e-320, req.initial, req.final)
    assert tiny.turning_radius / tiny.sphere_radius == 0.0
    with pytest.raises(RadiusOutOfRange, match="underflows"):
        pl.plan(tiny)


def test_family_catalog_rejects_nan_radius():
    for mode in ("table", "all"):
        with pytest.raises(RadiusOutOfRange):
            pl.family_catalog(math.nan, mode)


def test_plan_radius_past_the_band_still_raises():
    req = request_from_rotation(np.eye(3), pl.MAX_RADIUS + 1e-11)
    with pytest.raises(RadiusOutOfRange):
        pl.plan(req)
    with pytest.raises(RadiusOutOfRange):
        pl.family_catalog(pl.MAX_RADIUS + 1e-11)
    assert pl.plan(req, best_effort=True).heuristic


@pytest.mark.parametrize(
    "boundary,expected",
    [
        (0.5, {-1e-11: "low", -1e-13: "four", 0.0: "low", 1e-13: "four", 1e-11: "four"}),
        (SQRT2_INV, {-1e-11: "four", -1e-13: "high", 0.0: "sqrt2", 1e-13: "high", 1e-11: "high"}),
    ],
)
def test_catalog_regime_band(boundary, expected):
    """Quotients within REGIME_BAND of a boundary, but not on it, get the
    larger catalog; the boundary itself and quotients past the band do not."""
    for offset, regime in expected.items():
        assert pl.catalog_regime(boundary + offset) == regime, offset


def test_plan_no_candidate_with_pathological_tolerance(monkeypatch):
    monkeypatch.setattr(lk, "TOL_RESIDUAL", 1e-18)
    req = request_from_rotation(random_rotation(np.random.default_rng(99)), 0.5)
    with pytest.raises(NoCandidateFound, match="pathological tolerances"):
        pl.plan(req)


def test_plan_no_candidate_at_a_heuristic_radius_names_it():
    # above sqrt(3)/2 the heuristic catalog reaches no path to this target
    req = request_from_rotation(random_rotation(np.random.default_rng(0)), 0.95)
    with pytest.raises(NoCandidateFound, match=r"heuristic at unit turning radius 0\.95 "):
        pl.plan(req, best_effort=True)


@pytest.mark.parametrize(
    "template", pl.family_catalog(0.8, mode="all")[1:], ids=lambda f: f.tag
)
def test_family_box_is_what_feasible_accepts(template):
    """Box corners give feasible arcs and a step of twice ANGLE_EPS past
    any bound does not; slot_map is exactly 0/1 and is the angles' slope."""
    lows, highs = template.box
    step = 2.0 * geo.ANGLE_EPS
    for corner in (lows, highs):
        assert template.feasible(template.angles(corner[None])[0])
    assert set(np.unique(template.slot_map).tolist()) <= {0.0, 1.0}
    center = (lows + highs) / 2.0
    for j in range(len(lows)):
        for corner, delta in ((lows, -step), (highs, step)):
            moved = corner.copy()
            moved[j] += delta
            assert not template.feasible(template.angles(moved[None])[0]), (j, delta)
        h = 0.25 * np.eye(len(lows))[j]
        slope = (template.angles((center + h)[None]) - template.angles((center - h)[None]))[0]
        assert np.allclose(slope / 0.5, template.slot_map[:, j], rtol=0.0, atol=1e-12)
    if template.equal_middles:  # outer arcs up to pi + beta only
        inside = np.array([math.pi + 0.5, 0.5, 1.0])
        assert template.feasible(template.angles(inside[None])[0])
        inside[0] += step
        assert not template.feasible(template.angles(inside[None])[0])


@pytest.mark.parametrize("pattern", ["LRLR", "RLRLR"])
def test_equal_middle_box_is_applied_by_the_planner(pattern, monkeypatch):
    """The stacked solve `plan_batch` runs, and `solve_family` on each
    target, return the residual-passing roots whose outer arcs are at most
    pi + beta; the stack also has roots outside that box, which a box that
    admits everything lets through."""
    g = geo.TurnGeometry.from_radius(0.8)
    template = next(f for f in pl.family_catalog(0.8) if f.tag == pattern)
    rng = np.random.default_rng(7)
    stack = np.stack([random_rotation(rng) for _ in range(40)])
    kept = solve_stack(template, stack, g.r)
    assert [pl.solve_family(template, m, g) for m in stack] == kept
    with monkeypatch.context() as patch:
        patch.setattr(lk.FamilyTemplate, "feasible", lambda self, angles: True)
        everything = solve_stack(template, stack, g.r)
    outside = 0
    for sols, feasible in zip(everything, kept):
        assert all(template.feasible(s.angles) for s in feasible)
        inside = [s for s in sols if max(s.angles[0], s.angles[-1]) <= s.angles[1] + 1e-9]
        assert feasible == inside
        outside += len(sols) - len(inside)
    assert outside > 0


def test_plan_residual_is_the_recomposed_residual():
    """Each candidate carries its solver's residual, which equals the
    residual of the recomposed path bit for bit, for every family shape."""
    shapes = set()
    for r in (0.3, 0.5, 0.55, SQRT2_INV, 0.71, 0.85, math.sqrt(3.0) / 2.0):
        rng = np.random.default_rng(7)
        g = geo.TurnGeometry.from_radius(r)
        paths = (
            [geo.L(1.0)], [geo.R(2.5)], [geo.G(0.4)],
            [geo.L(0.8), geo.R(1.9)], [geo.G(0.6), geo.L(1.2)],
            [geo.R(0.7), geo.L(math.pi), geo.R(0.7)],
        )
        targets = [np.eye(3)] + [geo.compose_path(p, g) for p in paths]
        targets += [random_rotation(rng) for _ in range(10)]
        for target in targets:
            req = request_from_rotation(target, r)
            m, geom, _, _, _ = pl.normalize_problem(req)
            for mode in ("table", "all"):
                for c in pl.plan(req, mode=mode).candidates:
                    recomposed = float(np.linalg.norm(geo.compose_path(c.segments, geom) - m))
                    assert c.residual == recomposed, (r, mode, c.family)
                    shapes.add("pi" if "pi" in c.family else len(c.segments))
    assert shapes == {0, 1, 2, 3, 4, 5, "pi"}


def test_plan_candidates_meet_residual_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        req = request_from_rotation(random_rotation(rng), 0.71)
        result = pl.plan(req)
        assert all(c.residual <= 1e-9 for c in result.candidates)
        lengths = [c.physical_length for c in result.candidates]
        assert result.best_candidate.physical_length == min(lengths)


@pytest.mark.parametrize("mode", ["table", "all"])
def test_candidate_lengths_are_path_length(mode):
    """Each candidate's lengths have the bits of `path_length` on its
    segments, in every regime and on spheres of radius 1 to 3: both add the
    arcs left to right, on every interpreter."""
    rng = np.random.default_rng(19)
    requests = [
        request_from_rotation(random_rotation(rng), r, sphere)
        for r in (0.3, 0.5, 0.6, SQRT2_INV, 0.8, math.sqrt(3.0) / 2.0)
        for sphere in (1.0, 1.7, 2.5, 3.0)
        for _ in range(3)
    ]
    for req, result in zip(requests, pl.plan_batch(requests, mode=mode)):
        geom = geo.TurnGeometry.from_radius(result.unit_r)
        for c in result.candidates:
            assert c.unit_length == geo.path_length(c.segments, geom)
            assert c.physical_length == geo.path_length(c.segments, geom, req.sphere_radius)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.6, SQRT2_INV, 0.71, 0.8, 0.85])
def test_plan_upper_bound_and_endpoint_soundness(r):
    """Planning a forward-composed in-catalog path never does worse, and the
    best path lands on the target frame (physical)."""
    rng = np.random.default_rng(int(r * 1000))
    solvable = [f for f in pl.family_catalog(r) if f.kinds]
    geom = geo.TurnGeometry.from_radius(r)
    for _ in range(72):
        template = solvable[int(rng.integers(0, len(solvable)))]
        segs = random_in_bounds_path(template, rng)
        req = request_from_segments(segs, r, sphere_radius=2.0)
        gen_len = geo.path_length(segs, geom, sphere_radius=2.0)
        result = pl.plan(req)
        assert result.best_candidate.physical_length <= gen_len + 1e-6
        # physical endpoint check
        m, geom2, initial, final, _ = pl.normalize_problem(req)
        reached = initial.frame() @ geo.compose_path(result.best_candidate.segments, geom2)
        assert np.max(np.abs(reached - final.frame())) <= 1e-8


def test_planning_import_does_not_load_scipy():
    """The package runs on numpy alone: planning, and the CLI with the oracle."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for module in ("sphere_dubins.planner", "sphere_dubins.cli"):
        out = subprocess.run(
            [sys.executable, "-c", f"import {module}, sys; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False", module

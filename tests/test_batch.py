"""plan_batch returns what plan returns, whatever the batch around a request.

Property tests over the edges of the catalog: radii within 1e-12 of the
regime boundaries 1/2, 1/sqrt(2) and sqrt(3)/2, near-identity and antipodal
targets, and the published RLpiR and RLRL instances.  A batch is planned
whole, permuted and split, and every result must match the one-request plan
bit for bit.  A batch holding a bad request raises the input error of the
first bad request; when all are valid, it raises the NoCandidateFound of
the first request without a candidate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_in_bounds_path, request_from_rotation, request_from_segments, solve_stack,
)
from sphere_dubins import geometry as geo
from sphere_dubins import linkage as lk
from sphere_dubins import planner as pl
from sphere_dubins.errors import MalformedConfiguration, NoCandidateFound, RadiusOutOfRange
from sphere_dubins.oracle import random_rotation

SQRT2_INV = 1.0 / math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

boundary_r = st.builds(
    lambda base, offset: min(base + offset, SQRT3_2),
    st.sampled_from([0.5, SQRT2_INV, SQRT3_2]),
    st.floats(-1e-12, 1e-12),
)
radius = st.one_of(boundary_r, st.floats(0.2, SQRT3_2))
sphere = st.sampled_from([1.0, 2.5, 6371.0])
heuristic_radius = st.floats(SQRT3_2, 0.95, exclude_min=True)


@st.composite
def near_identity(draw):
    r = draw(radius)
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    angle = 10.0 ** draw(st.floats(-9.0, -2.0))
    m = geo.rotation_about_axis(axis / np.linalg.norm(axis), angle)
    return request_from_rotation(m, r, draw(sphere))


@st.composite
def antipodal(draw):
    r = draw(radius)
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    x = np.array([-1.0, 0.0, 0.0])
    t = np.array([0.0, math.cos(theta), math.sin(theta)])
    m = np.column_stack([x, t, np.cross(x, t)])
    return request_from_rotation(m, r, draw(sphere))


@st.composite
def random_target(draw, radius=radius):
    r = draw(radius)
    seed = draw(st.integers(0, 2**32 - 1))
    return request_from_rotation(random_rotation(np.random.default_rng(seed)), r, draw(sphere))


published = st.sampled_from([
    request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71),
    request_from_segments([geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55),
])
request = st.one_of(
    near_identity(), antipodal(), random_target(), published, random_target(heuristic_radius)
)


def signature(result: pl.PlanResult) -> tuple:
    """Everything a plan reports, with floats as their repr."""
    return (
        result.best,
        repr(result.unit_r),
        result.heuristic,
        repr(result.input_adjustment),
        tuple(
            (
                c.family,
                tuple((s.kind, repr(s.angle)) for s in c.segments),
                repr(c.unit_length),
                repr(c.physical_length),
                repr(c.residual),
            )
            for c in result.candidates
        ),
    )


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except Exception as exc:  # the properties compare whatever is raised
        return type(exc), str(exc)
    return None


def _batch_error(errors: list[tuple[type, str] | None]) -> tuple[type, str] | None:
    """What a batch raises, given what each request raises alone: the first
    input error, else the first NoCandidateFound."""
    raised = [err for err in errors if err is not None]
    inputs = [err for err in raised if err[0] is not NoCandidateFound]
    return (inputs or raised or [None])[0]


@PROPERTY
@given(
    requests=st.lists(request, min_size=1, max_size=6),
    mode=st.sampled_from(["table", "all"]),
    data=st.data(),
)
def test_batch_matches_single_plans(requests, mode, data):
    # best_effort admits the heuristic radii above sqrt(3)/2 (where a plan
    # may find no candidate) and changes nothing below it
    def alone(req):
        error = _raised(lambda: pl.plan(req, mode=mode, best_effort=True))
        return error if error is not None else signature(pl.plan(req, mode=mode, best_effort=True))

    def expected(reqs):
        outcomes = [alone(req) for req in reqs]
        error = _batch_error([o for o in outcomes if not isinstance(o[0], int)])
        return error if error is not None else outcomes

    def batch(reqs):
        error = _raised(lambda: pl.plan_batch(reqs, mode=mode, best_effort=True))
        if error is not None:
            return error
        return [signature(r) for r in pl.plan_batch(reqs, mode=mode, best_effort=True)]

    assert batch(requests) == expected(requests)
    order = data.draw(st.permutations(range(len(requests))))
    permuted = [requests[i] for i in order]
    assert batch(permuted) == expected(permuted)
    cut = data.draw(st.integers(0, len(requests)))
    assert batch(requests[:cut]) == expected(requests[:cut])
    assert batch(requests[cut:]) == expected(requests[cut:])


def _malformed(req: pl.PlanRequest, how: str) -> pl.PlanRequest:
    fields = {
        "sphere_radius": req.sphere_radius,
        "turning_radius": req.turning_radius,
        "initial": req.initial,
        "final": req.final,
    }
    if how == "radius_too_large":
        fields["turning_radius"] = 0.9 * req.sphere_radius
    elif how == "no_tight_turn":
        fields["turning_radius"] = 1.5 * req.sphere_radius
    elif how == "negative_sphere":
        fields["sphere_radius"] = -1.0
    elif how == "nan_tangent":
        fields["final"] = pl.Pose(req.final.position, np.array([math.nan, 1.0, 0.0]))
    elif how == "off_sphere":
        fields["initial"] = pl.Pose(req.initial.position * 1.01, req.initial.tangent)
    elif how == "short_vector":
        fields["final"] = pl.Pose(req.final.position[:2], req.final.tangent)
    elif how == "long_tangent":
        fields["final"] = pl.Pose(req.final.position, req.final.tangent * (1.0 + 2e-6))
    elif how == "skewed_tangent":
        # still unit, with |cos| = 2e-6 against the position
        x = req.final.position / np.linalg.norm(req.final.position)
        tangent = math.sqrt(1.0 - 4e-12) * req.final.tangent + 2e-6 * x
        fields["final"] = pl.Pose(req.final.position, tangent)
    elif how == "zero_position":
        fields["initial"] = pl.Pose(np.zeros(3), req.initial.tangent)
    elif how == "infinite_sphere":
        fields["sphere_radius"] = math.inf
    elif how == "nan_turning":
        fields["turning_radius"] = math.nan
    elif how == "underflowing_radius":
        # valid poses on a sphere of radius 1e10 times the original
        scale = 1e10
        fields["sphere_radius"] = scale * req.sphere_radius
        fields["turning_radius"] = 5e-324
        fields["initial"] = pl.Pose(req.initial.position * scale, req.initial.tangent)
        fields["final"] = pl.Pose(req.final.position * scale, req.final.tangent)
    elif how == "near_valid":
        # accepted and re-orthonormalized: an adjustment of about 3e-7
        x = req.final.position / np.linalg.norm(req.final.position)
        tangent = req.final.tangent + 2e-7 * x
        fields["final"] = pl.Pose(req.final.position * (1.0 + 3e-7), tangent)
    return pl.PlanRequest(**fields)


@PROPERTY
@given(
    requests=st.lists(random_target(), min_size=1, max_size=5),
    bad=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from(["radius_too_large", "no_tight_turn", "negative_sphere",
                             "nan_tangent", "off_sphere", "short_vector", "long_tangent",
                             "skewed_tangent", "zero_position", "infinite_sphere",
                             "nan_turning", "underflowing_radius", "near_valid"]),
        ),
        min_size=1, max_size=3,
    ),
    best_effort=st.booleans(),
)
def test_batch_raises_first_failing_request(requests, bad, best_effort):
    requests = list(requests)
    for index, how in bad:
        i = index % len(requests)
        requests[i] = _malformed(requests[i], how)
    alone = [_raised(lambda q=q: pl.plan(q, best_effort=best_effort)) for q in requests]
    assert _raised(lambda: pl.plan_batch(requests, best_effort=best_effort)) == _batch_error(alone)


@pytest.mark.parametrize("how, kind, message", [
    ("long_tangent", MalformedConfiguration, "final.tangent: norm 1.000002 is not unit"),
    ("skewed_tangent", MalformedConfiguration,
     "final: tangent not orthogonal to position (|cos| = 2.000e-06)"),
    ("zero_position", MalformedConfiguration,
     "initial.position: norm 0 not within 1e-06 relative of sphere_radius 2.5"),
    ("infinite_sphere", MalformedConfiguration, "sphere_radius must be positive, got inf"),
    ("nan_turning", MalformedConfiguration, "turning_radius must be positive, got nan"),
    ("underflowing_radius", RadiusOutOfRange,
     "unit turning radius 4.94066e-324 / 2.5e+10 underflows to 0"),
])
def test_input_error_messages(how, kind, message):
    """Each check names what failed, after a valid request, alone or batched."""
    valid = request_from_rotation(random_rotation(np.random.default_rng(3)), 0.6, 2.5)
    bad = _malformed(valid, how)
    assert _raised(lambda: pl.plan(bad)) == (kind, message)
    assert _raised(lambda: pl.plan_batch([valid, bad, bad])) == (kind, message)


def test_near_valid_pose_in_a_valid_batch():
    """A pose off by less than INPUT_FRAME_TOL is re-orthonormalized and
    planned; in the middle of a valid batch it changes no other result, and
    every adjustment is a Python float."""
    rng = np.random.default_rng(18)
    requests = [
        request_from_rotation(random_rotation(rng), r, sphere)
        for r, sphere in ((0.3, 1.0), (0.6, 2.5), (0.8, 6371.0), (0.6, 1.0), (0.3, 2.5))
    ]
    requests[2] = _malformed(requests[2], "near_valid")
    results = pl.plan_batch(requests)
    assert [signature(r) for r in results] == [signature(pl.plan(q)) for q in requests]
    assert 1e-9 < results[2].input_adjustment <= 1e-6
    assert all(type(r.input_adjustment) is float for r in results)


def test_input_error_wins_over_an_earlier_missing_candidate():
    # the heuristic catalog above sqrt(3)/2 has no candidate for this target
    stuck = request_from_rotation(random_rotation(np.random.default_rng(0)), 0.95)
    with pytest.raises(NoCandidateFound):
        pl.plan(stuck, best_effort=True)
    valid = request_from_rotation(random_rotation(np.random.default_rng(1)), 0.6)
    with pytest.raises(NoCandidateFound):
        pl.plan_batch([valid, stuck, valid], best_effort=True)
    bad = _malformed(valid, "negative_sphere")
    expected = _raised(lambda: pl.plan(bad, best_effort=True))
    assert expected is not None and expected[0] is not NoCandidateFound
    assert _raised(lambda: pl.plan_batch([stuck, bad], best_effort=True)) == expected


def test_empty_batch():
    assert pl.plan_batch([]) == []


def test_mode_is_checked_on_every_batch():
    """An invalid mode raises once every request is valid: on an empty batch,
    and at a best-effort radius past sqrt(3)/2, which plans with the `all`
    catalog whatever the mode; a bad request's input error still wins."""
    message = r"^mode must be 'table' or 'all', got 'bogus'$"
    with pytest.raises(ValueError, match=message):
        pl.plan_batch([], mode="bogus")
    heuristic = request_from_rotation(random_rotation(np.random.default_rng(1)), 0.9)
    with pytest.raises(ValueError, match=message):
        pl.plan(heuristic, mode="bogus", best_effort=True)
    bad = _malformed(heuristic, "nan_tangent")
    expected = _raised(lambda: pl.plan(bad, best_effort=True))
    assert expected is not None and expected[0] is MalformedConfiguration
    assert _raised(lambda: pl.plan_batch([heuristic, bad], mode="bogus", best_effort=True)) == expected


@pytest.mark.parametrize("r", [0.3, 0.6, SQRT2_INV, 0.8, SQRT3_2])
def test_solvers_on_a_stack_match_single_targets(r):
    """Every family solved on a stack (`solve_shapes`, as `plan_batch` runs
    it) returns each target's `solve_chain` result."""
    g = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(int(r * 1000))
    stack = [random_rotation(rng) for _ in range(6)] + [np.eye(3)]
    families = pl.family_catalog(r, mode="all")
    for f in families:
        if f.equal_middles:
            angles = f.angles(np.array([[0.4, 0.9, 1.3]]))[0]
            stack.append(geo.compose_path([geo.Segment(k, a) for k, a in zip(f.kinds, angles)], g))
    stack = np.stack(stack)
    for f in families:
        batched = solve_stack(f, stack, r)
        assert len(batched) == len(stack)
        for m, sols in zip(stack, batched):
            single = lk.solve_chain(f, m, g)
            assert [(s.angles, s.residual) for s in sols] == [
                (s.angles, s.residual) for s in single
            ], f.tag


def test_merged_outer_rows_in_a_stack_match_single_targets(monkeypatch):
    """At r = 1/sqrt(2) a middle turn of pi carries the last axis onto minus
    the first, so the outer rotations merge and `_recover_outer` solves those
    rows as one arc; in a stack with random targets, a pinned `RLpiR`, a free
    `LRL` and the other two triples give every target its single-target bits."""
    g = geo.TurnGeometry.from_radius(SQRT2_INV)
    rng = np.random.default_rng(14)
    merged = [
        geo.compose_path([geo.Segment(o, a), geo.Segment(i, math.pi), geo.Segment(o, b)], g)
        for o, i, a, b in (("R", "L", 0.8, 0.0), ("R", "L", 1.2, 0.3),
                           ("L", "R", 1.1, 0.4), ("L", "R", 2.0, 0.0))
    ]
    order = rng.permutation(8)
    stack = np.stack(merged + [random_rotation(rng) for _ in range(4)])[order]
    merged_at = [int(np.nonzero(order == k)[0][0]) for k in range(4)]
    one_arc_rows = []
    one_arc = lk._one_arc

    def spy(ms, *args):
        one_arc_rows.append(len(ms))
        return one_arc(ms, *args)

    monkeypatch.setattr(lk, "_one_arc", spy)
    templates = [lk.FamilyTemplate.of(p, pinned=True) for p in ("RLR", "LRL")]
    templates += [lk.FamilyTemplate.of(p) for p in ("RLR", "LRL")]
    for template in templates:
        del one_arc_rows[:]
        stacked = solve_stack(template, stack, SQRT2_INV)
        assert sum(one_arc_rows) >= 2, template.tag
        assert _bits(stacked) == _bits([lk.solve_chain(template, m, g) for m in stack])
        outer = template.kinds[0].value
        for i in merged_at[:2] if outer == "R" else merged_at[2:]:
            assert any(s.angles[-1] == 0.0 for s in stacked[i]), (template.tag, i)


def test_solvers_reject_bad_target_shapes():
    g = geo.TurnGeometry.from_radius(0.6)
    with pytest.raises(geo.InvalidInput):
        lk.solve_two(np.zeros((2, 3)), ("L", "R"), g)


def test_equal_middle_stack_with_vanishing_end_coefficients():
    """At r = 1e-100 the 5-chain polynomial's end coefficients underflow to 0;
    those rows take np.roots' trimmed degree, alone or in a stack."""
    g = geo.TurnGeometry.from_radius(1e-100)
    axes = [geo.turn_axis(k, g) for k in "LRLRL"]
    coeffs = lk._laurent_coefficients(axes[0], axes[1:-1], axes[-1])
    assert coeffs[0] == 0.0 and coeffs[-1] == 0.0
    rng = np.random.default_rng(5)
    stack = np.stack([random_rotation(rng) for _ in range(3)] + [np.eye(3)])
    batched = solve_stack(lk.FamilyTemplate.of("LRLRL"), stack, g.r)
    assert batched == [lk.solve_equal_middle(m, "LRLRL", g) for m in stack]


def _bits(per_target: list[list[lk.CandidateSolution]]) -> list[list[tuple]]:
    return [[(tuple(map(repr, s.angles)), repr(s.residual)) for s in sols] for sols in per_target]


def _grouped(rows: list[lk.Row], families: int, targets: int) -> list[list[list]]:
    """`solve_shapes` rows as one list of solutions per target for each
    family position in turn, each list in row order."""
    grouped = [[[] for _ in range(targets)] for _ in range(families)]
    for i, f, arcs, residual in rows:
        assert 0 <= f < families and 0 <= i < targets
        grouped[f][i].append(lk.CandidateSolution(arcs, residual))
    return grouped


@st.composite
def target_stack(draw, r: float) -> np.ndarray:
    """One to five targets: random rotations, the identity, paths of a
    catalog family, and free turn triples with middle pi (which the fixed-pi
    families own where the regime has them)."""
    g = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    families = [f for f in pl.family_catalog(r, mode="all") if f.kinds]
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["random", "identity", "path", "middle_pi"]))
        if how == "random":
            stack.append(random_rotation(rng))
        elif how == "identity":
            stack.append(np.eye(3))
        else:
            if how == "path":
                segments = random_in_bounds_path(draw(st.sampled_from(families)), rng)
            else:
                outer, inner = draw(st.sampled_from(["LR", "RL"]))
                a, b = rng.uniform(0.0, math.pi, 2)
                kinds, angles = (outer, inner, outer), (a, math.pi, b)
                segments = [geo.Segment(k, x) for k, x in zip(kinds, angles)]
            stack.append(geo.compose_path(segments, g))
    return np.stack(stack)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("mode", ["table", "all"])
@pytest.mark.parametrize("r", [0.3, 0.6, SQRT2_INV, 0.8, SQRT3_2])
def test_shape_stacked_solve_matches_each_family_alone(r, mode, data):
    """One stacked solve over every chain shape of the catalog, with the
    fixed-pi ownership rule applied per family, gives each family on each
    target alone bit for bit; in `all` mode the great-circle sandwiches share
    the free-middle pass with the turn triples, whose box differs.  Each row
    names its family's catalog position."""
    g = geo.TurnGeometry.from_radius(r)
    stack = data.draw(target_stack(r))
    families = pl.family_catalog(r, mode=mode)
    fixed_pi = any(f.pinned for f in families)
    shapes = lk.chain_shapes(r, tuple(families))
    placed = {p: t for shape in shapes for p, t in zip(shape.positions, shape.templates)}
    assert placed == dict(enumerate(families))
    stacked = _grouped(lk.solve_shapes(shapes, stack), len(families), len(stack))
    for template, per_target in zip(families, stacked):
        alone = [pl.solve_family(template, m, g) for m in stack]
        if fixed_pi and template.is_free_middle_turn_triple:
            per_target = [[s for s in sols if not pl._ceded(s.angles)] for sols in per_target]
        assert _bits(per_target) == _bits(alone), template.tag


def test_one_solve_over_a_catalog_matches_shape_by_shape(monkeypatch):
    """At r = 1/sqrt(2) in `all` mode one `solve_shapes` call closes 0-, 1-,
    2- and 3-slot interiors in one step-2 pass, with merged outer rotations
    (a free `RLR` middle of pi carries the last axis onto minus the first)
    and the 4- and 5-chain roots polished together; it gives every family on
    every target the bits of `solve_shapes` on its shape alone."""
    r = SQRT2_INV
    g = geo.TurnGeometry.from_radius(r)
    rng = np.random.default_rng(16)
    shapes = lk.chain_shapes(r, tuple(pl.family_catalog(r, mode="all")))
    equal_middle = [f for shape in shapes for f in shape.templates if f.equal_middles]
    paths = [random_in_bounds_path(f, rng) for f in equal_middle for _ in range(2)]
    paths.append([geo.Segment("R", 0.8), geo.Segment("L", math.pi), geo.Segment("R", 0.3)])
    stack = np.stack([geo.compose_path(p, g) for p in paths] + [random_rotation(rng)])

    closed, polished = [], []
    close_chain, interior_roots = lk._close_chain, lk._interior_roots

    def close_spy(ms, chains, found):
        closed.append(sorted({len(mids[0]) for _, mids in found if mids}))
        return close_chain(ms, chains, found)

    def roots_spy(blocks):
        found = interior_roots(blocks)
        ends = np.cumsum([len(b) for b in blocks])
        counts = [sum(map(len, found[end - len(b):end])) for b, end in zip(blocks, ends)]
        polished.append([(b.shape[1], count) for b, count in zip(blocks, counts)])
        return found

    monkeypatch.setattr(lk, "_close_chain", close_spy)
    monkeypatch.setattr(lk, "_interior_roots", roots_spy)
    tags = [f.tag for f in pl.family_catalog(r, mode="all")]
    together = _grouped(lk.solve_shapes(shapes, stack), len(tags), len(stack))
    assert closed == [[0, 1, 2, 3]] and len(polished) == 1
    assert [width for width, _ in polished[0]] == [5, 7]
    assert all(roots > 0 for _, roots in polished[0])
    # the merged branch reports the single arc M B^T as phi_1, with phi_n = 0
    rlr = tags.index("RLR")
    assert any(s.angles[1] == math.pi and s.angles[-1] == 0.0 for s in together[rlr][-2])
    # a shape solved alone names the same catalog positions
    shape_by_shape = [None] * len(tags)
    for shape in shapes:
        alone = _grouped(lk.solve_shapes([shape], stack), len(tags), len(stack))
        for position in shape.positions:
            shape_by_shape[position] = alone[position]
    assert len(closed) == 1 + sum(s.axes.shape[1] >= 2 for s in shapes)
    assert [_bits(sols) for sols in together] == [_bits(sols) for sols in shape_by_shape]


def _assembled(r: float, placed: dict[str, list[tuple]], targets: int = 1) -> list[list[tuple]]:
    """(family, angles, unit length) of each target's candidates from
    `_assemble` on hand-built solutions: `placed` maps a family tag of the
    `all` catalog at r to angle tuples, which every target gets."""
    catalog = pl._catalog(r, "all")
    rows = [
        (i, position, tuple(angles), 0.0)
        for position, template in enumerate(catalog.families) for i in range(targets)
        for angles in placed.get(template.tag, ())
    ]
    found = pl._assemble(catalog, rows, [1.0] * targets)
    return [
        [(c.family, tuple(s.angle for s in c.segments), c.unit_length) for c in cands]
        for cands in found
    ]


def test_dedup_compares_with_kept_candidates_only():
    """B duplicates A and is dropped; C duplicates B but not A, so C is kept."""
    tol = pl.DEDUP_ANGLE_TOL
    a, b, c = ((1.0 + k * tol, 4.0, 1.0) for k in (0.0, 0.75, 1.5))
    kept = _assembled(0.6, {"LRL": [c, b, a]})[0]
    assert [angles for _, angles, _ in kept] == [a, c]


def _edge(x: float, up: bool) -> float:
    """The largest float y with y - x <= DEDUP_ANGLE_TOL, or the next one above."""
    tol = pl.DEDUP_ANGLE_TOL
    y = x + tol
    while y - x > tol:
        y = float(np.nextafter(y, -math.inf))
    while float(np.nextafter(y, math.inf)) - x <= tol:
        y = float(np.nextafter(y, math.inf))
    return float(np.nextafter(y, math.inf)) if up else y


@pytest.mark.parametrize("r", [0.8, SQRT3_2])
def test_dedup_of_five_arcs_each_at_the_tolerance(r):
    """Five arcs each longer by exactly DEDUP_ANGLE_TOL make a duplicate,
    whose unit length differs by about 5 r DEDUP_ANGLE_TOL, near the length
    prefilter's edge; one arc longer by one more ulp makes a new candidate."""
    base = (0.5, 4.0, 4.0, 4.0, 0.7)
    edge = tuple(_edge(x, up=False) for x in base)
    past = edge[:-1] + (_edge(base[-1], up=True),)
    assert all(y - x <= pl.DEDUP_ANGLE_TOL for x, y in zip(base, edge))
    assert past[-1] - base[-1] > pl.DEDUP_ANGLE_TOL
    (kept,) = _assembled(r, {"LRLRL": [edge, base]})
    assert [angles for _, angles, _ in kept] == [base]
    (kept,) = _assembled(r, {"LRLRL": [past, base]})
    assert [angles for _, angles, _ in kept] == [base, past]


def _reference(r: float, placed: dict[str, list[tuple]]) -> list[tuple]:
    """Family by family in catalog order: sort by (unit length, turn sum,
    angles), each a left-to-right sum, and drop a path whose nonzero kinds
    match an earlier kept one with every angle within DEDUP_ANGLE_TOL."""
    kept, keys = [], []
    for template in pl.family_catalog(r, "all"):
        rows = []
        for angles in placed.get(template.tag, ()):
            length, turning = 0.0, 0.0
            for kind, angle in zip(template.kinds, angles):
                length += r * angle if kind.is_turn else angle
                turning += angle if kind.is_turn else 0.0
            rows.append(((length, turning, tuple(angles)), angles))
        for (length, _, _), angles in sorted(rows, key=lambda row: row[0]):
            key = [(k, a) for k, a in zip(template.kinds, angles) if a > 0.0]
            if any(
                [k for k, _ in key] == [k for k, _ in other]
                and all(abs(a - b) <= pl.DEDUP_ANGLE_TOL for (_, a), (_, b) in zip(key, other))
                for other in keys
            ):
                continue
            keys.append(key)
            kept.append((template.tag, tuple(angles), length))
    return kept


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8])
def test_assembly_matches_a_family_by_family_reference(r):
    """Clusters of near-duplicates across families (absent arcs make `LR`,
    `LGR` and `L` paths share kinds), ties in length, and three targets with
    the same solutions, which never deduplicate against each other."""
    tol = pl.DEDUP_ANGLE_TOL
    rng = np.random.default_rng(int(r * 10))
    placed: dict[str, list[tuple]] = {}
    for tag, arcs in (("L", 1), ("LR", 2), ("LGR", 3), ("LRL", 3), ("LRLR", 4), ("LRLRL", 5)):
        for _ in range(4):
            base = rng.uniform(0.1, 3.0, arcs)
            base[rng.uniform(size=arcs) < 0.3] = 0.0
            for shift in rng.integers(-3, 4, size=(3, arcs)):
                angles = np.where(base > 0.0, base + shift * tol / 2, 0.0)
                placed.setdefault(tag, []).append(tuple(angles.tolist()))
    placed["LR"] += [(1.5, 0.0), (1.5, 0.0)]
    placed["LGR"] += [(1.5, 0.0, 0.0), (1.5 + tol, 0.0, 0.0)]
    placed["L"] += [(1.5 - tol / 2,)]
    found = _assembled(r, placed, targets=3)
    assert found[0] == found[1] == found[2] == _reference(r, placed)
    assert len(found[0]) < sum(map(len, placed.values()))

import math

import numpy as np
import pytest

from conftest import random_in_bounds_path, request_from_rotation, request_from_segments
from sphere_dubins import geometry as geo
from sphere_dubins import linkage as lk
from sphere_dubins import oracle as orc
from sphere_dubins import planner as pl
from sphere_dubins.errors import InvalidInput

SQRT2_INV = 1.0 / math.sqrt(2.0)


def test_oracle_identity():
    geom = geo.TurnGeometry.from_radius(0.5)
    result = orc.forward_oracle(np.eye(3), geom, seed=3, budget=500)
    assert result.found
    assert result.length == 0.0
    assert result.segments == ()


def test_oracle_recovers_generating_length():
    geom = geo.TurnGeometry.from_radius(0.5)
    segs = [geo.L(1.1), geo.G(0.9), geo.L(2.0)]
    m = geo.compose_path(segs, geom)
    result = orc.forward_oracle(m, geom, seed=7, budget=10_000)
    assert result.found
    assert abs(result.length - geo.path_length(segs, geom)) <= 1e-3
    assert result.residual <= 1e-9


def test_oracle_never_beats_plan():
    for i, r in enumerate((0.3, 0.71, 0.8)):
        req = orc.random_request(r, seed=500 + i)
        best = pl.plan(req).best_candidate.physical_length
        target, geom, _, _, _ = pl.normalize_problem(req)
        found = orc.forward_oracle(target, geom, seed=11, budget=20_000)
        assert found.found
        assert found.length >= best - 1e-6


def test_oracle_deterministic():
    geom = geo.TurnGeometry.from_radius(0.71)
    m = geo.compose_path([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], geom)
    a = orc.forward_oracle(m, geom, seed=5, budget=4000)
    b = orc.forward_oracle(m, geom, seed=5, budget=4000)
    assert a == b


def test_random_rotation_uniformity_basics():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = orc.random_rotation(rng)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
        assert np.linalg.det(m) > 0.0


def test_cross_family_audit_bounded_gap():
    requests = [orc.random_request(0.4, seed=100 + i) for i in range(8)]
    requests += [orc.random_request(0.8, seed=200 + i) for i in range(8)]
    report = orc.cross_family_audit(requests, seed=0)
    assert len(report.rows) == 16
    assert report.max_gap <= 1e-6


def test_cross_family_audit_identity_instance():
    req = request_from_rotation(np.eye(3), 0.5)
    report = orc.cross_family_audit([req])
    row = report.rows[0]
    assert row.table_length == 0.0
    assert row.all_length == 0.0
    assert row.gap == 0.0


def test_oracle_finds_published_four_chain():
    # the RLRL of criterion 2 (r = 0.55, length 4.28538): the equal-middle search
    geom = geo.TurnGeometry.from_radius(0.55)
    m = geo.compose_path([geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], geom)
    result = orc.forward_oracle(m, geom, seed=1, budget=20_000)
    assert result.found
    assert result.family == "RLRL"
    assert result.residual <= 1e-9
    assert abs(result.length - 4.28538) <= 1e-3


@pytest.mark.parametrize("seed", [2, 3, 5, 6])
def test_oracle_does_not_beat_the_published_rlpir(seed):
    req = request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71)
    best = pl.plan(req).best_candidate.physical_length
    target, geom, _, _, _ = pl.normalize_problem(req)
    found = orc.forward_oracle(target, geom, seed=seed, budget=20_000)
    assert found.found
    assert best <= found.length + 1e-6


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("outer", [(0.7, 0.7), (0.3, 1.1)])
@pytest.mark.parametrize("r", [0.71, 0.8, math.sqrt(3.0) / 2.0])
@pytest.mark.parametrize("pattern", ["RLR", "LRL"])
def test_oracle_does_not_beat_the_plan_at_pi_middle_targets(pattern, r, outer, seed):
    # a middle arc of exactly pi is a double root of the free three-turn chain
    first, middle, last = (geo.SegmentKind(c) for c in pattern)
    segments = [
        geo.Segment(first, outer[0]), geo.Segment(middle, math.pi), geo.Segment(last, outer[1])
    ]
    req = request_from_segments(segments, r)
    best = pl.plan(req).best_candidate.physical_length
    target, geom, _, _, _ = pl.normalize_problem(req)
    found = orc.forward_oracle(target, geom, seed=seed, budget=20_000)
    assert found.found
    assert best <= found.length + 1e-6


# one family per search mode: free 1/2/3 slots, the free turn triple,
# fixed pi, and equal-middle 4- and 5-chains
JACOBIAN_FAMILIES = [("L", None), ("GR", None), ("LGL", None), ("RLR", None),
                     ("RLR", math.pi), ("RLRL", None), ("LRLRL", None)]


def _alone(template, geom):
    """The oracle's search of one family."""
    return orc._FamilySearch(lk.chain_shapes(geom.r, (template,))[0])


def _central_jacobian(endpoint, params, h=1e-6):
    """(9, p) central differences of the 3x3 `endpoint(params)`."""
    columns = []
    for k in range(len(params)):
        step = np.zeros(len(params))
        step[k] = h
        columns.append(((endpoint(params + step) - endpoint(params - step)) / (2.0 * h)).ravel())
    return np.column_stack(columns)


@pytest.mark.parametrize("pattern, fixed", JACOBIAN_FAMILIES)
def test_polish_jacobian_matches_central_differences(pattern, fixed):
    geom = geo.TurnGeometry.from_radius(0.8)
    search = _alone(pl.FamilyTemplate.of(pattern, pinned=fixed is not None), geom)
    params = search.sample(np.random.default_rng(len(pattern) + 10 * (fixed is not None)), 20, 0)
    owner = np.zeros(20, dtype=int)
    ends, jac = search.linearize(params, owner)
    template = search.template

    def endpoint(p):
        angles = template.angles(p[None, :])[0]
        return geo.compose_path([geo.Segment(k, a) for k, a in zip(template.kinds, angles)], geom)

    for row, end in zip(params, ends):
        assert np.array_equal(end, endpoint(row))
    assert jac.shape == (20, 9, params.shape[1])

    for row, analytic in zip(params, jac):
        assert np.max(np.abs(analytic - _central_jacobian(endpoint, row))) <= 1e-7


def _audit_searches(r):
    """The oracle's searches at r, one per parameter shape, and the audit catalog."""
    families = tuple(f for f in pl.family_catalog(r, mode="all") if f.kinds)
    searches = [orc._FamilySearch(shape) for shape in lk.chain_shapes(r, families)]
    return geo.TurnGeometry.from_radius(r), searches, families


@pytest.mark.parametrize("r", [0.3, 0.8])
def test_quaternion_ranking_keeps_the_residual_order(r):
    geom, searches, families = _audit_searches(r)
    m = orc.random_rotation(np.random.default_rng(int(r * 100)))
    davenport = orc._davenport(m)
    for search in searches:
        for family, template in enumerate(search.templates):
            params = search.sample(np.random.default_rng(families.index(template)), 2000, family)
            q = search.compose_batch(params, family)
            assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)) <= 1e-12
            chains = search.linearize(params, np.full(len(params), family))[0]
            residual = np.linalg.norm(chains - m, axis=(1, 2))
            trace = np.einsum("nij,ij->n", chains, m)
            assert np.max(np.abs(np.einsum("ni,ni->n", q @ davenport, q) - trace)) <= 1e-12
            expected = np.argsort(residual)[:orc.REFINE_TOP]
            assert np.array_equal(orc._top_restarts(q, davenport), expected), template.tag


@pytest.mark.parametrize("r", [0.3, 0.71, 0.8, math.sqrt(3.0) / 2.0])
def test_stacked_polish_matches_each_family_alone(r):
    """Polishing every family of a parameter shape in one batch gives each
    row the bits of a search built for its family alone, on seeded restarts
    (after the descent, as in `forward_oracle`) and on restarts 1e-9 off a
    root."""
    geom, searches, _ = _audit_searches(r)
    rng = np.random.default_rng(int(r * 1000))
    m = geo.compose_path(random_in_bounds_path(pl.FamilyTemplate.of("LRLR"), rng), geom)
    assert len(searches) == (6 if r > SQRT2_INV else 5)
    near_roots = 0
    for search in searches:
        starts, owners = [], []
        for family, template in enumerate(search.templates):
            alone = _alone(template, geom)
            seeded = alone.sample(rng, 6, 0)
            if not template.equal_middles:
                seeded = orc._descend_restarts(m, [(alone, seeded, np.zeros(6, dtype=int))])[0]
            polished, _ = alone._polish(m, seeded, np.zeros(6, dtype=int))
            ends, _ = alone.linearize(polished, np.zeros(6, dtype=int))
            roots = polished[np.linalg.norm(ends - m, axis=(1, 2)) <= orc.ACCEPT_GATE]
            near_roots += len(roots)
            near = roots + 1e-9 * rng.standard_normal(roots.shape)
            near = alone._clamp(near, np.zeros(len(near), dtype=int))
            starts.append(np.concatenate([seeded, near]))
            owners.append(np.full(len(starts[-1]), family))
        owner = np.concatenate(owners)
        params, singular = search._polish(m, np.concatenate(starts), owner)
        for family, (template, rows) in enumerate(zip(search.templates, starts)):
            alone = _alone(template, geom)
            got, got_singular = alone._polish(m, rows, np.zeros(len(rows), dtype=int))
            assert np.array_equal(params[owner == family], got), template.tag
            assert np.array_equal(singular[owner == family], got_singular), template.tag
    assert near_roots >= 10


@pytest.mark.parametrize("r", [0.3, 0.71, 0.8, math.sqrt(3.0) / 2.0])
def test_one_descent_matches_each_shape_alone(r):
    """One descent over the restarts of every shape, each row padded to
    three slots by identity turns, gives each row the bits of an unpadded
    descent of its shape alone and of a one-shape `_descend_restarts`;
    equal-middle restarts come back as drawn.  The targets are a random
    rotation and an in-box free three-turn path."""
    geom, searches, _ = _audit_searches(r)
    rng = np.random.default_rng(int(r * 1000) + 1)
    targets = [
        orc.random_rotation(rng),
        geo.compose_path(random_in_bounds_path(pl.FamilyTemplate.of("LRL"), rng), geom),
    ]
    descended = 0
    for m in targets:
        batches = []
        for search in searches:
            count = len(search.templates)
            params = np.concatenate([search.sample(rng, 6, family) for family in range(count)])
            batches.append((search, params, np.repeat(np.arange(count), 6)))
        together = orc._descend_restarts(m, batches)
        for (search, params, owner), got in zip(batches, together):
            if search.template.equal_middles:
                assert got is params
                continue
            template = search.template
            lo, hi = (template.angles(bound[owner]) for bound in search.box)
            alone = orc._descend_angles(search.axes[owner], lo, hi, template.angles(params), m)
            assert np.array_equal(got, alone @ template.slot_map), template.tag
            shape_alone = orc._descend_restarts(m, [(search, params, owner)])[0]
            assert np.array_equal(got, shape_alone), template.tag
            descended += len(got)
    assert descended >= 2 * 6 * 10


def _searches(monkeypatch, r) -> list:
    """(search, shape) of each `_FamilySearch` one forward_oracle call at r builds."""
    built = []
    init = orc._FamilySearch.__init__

    def spy(search, shape):
        init(search, shape)
        built.append((search, shape))

    monkeypatch.setattr(orc._FamilySearch, "__init__", spy)
    orc.forward_oracle(orc.random_rotation(np.random.default_rng(1)), geo.TurnGeometry(r), 0, 1)
    return built


@pytest.mark.parametrize("r", [0.3, 0.6, 0.71, 0.8])
def test_oracle_searches_the_solvers_shape_table(monkeypatch, r):
    # every search's axes are the read-only `ChainShape.axes` that plan(mode="all") solves
    pl._catalog.cache_clear()
    solved = [shape for shape in pl._catalog(r, "all").shapes if shape.templates[0].kinds]
    searches = _searches(monkeypatch, r)
    assert len(searches) == len(solved)
    for (search, _), shape in zip(searches, solved):
        assert search.axes is shape.axes and search.templates == shape.templates
        assert not search.axes.flags.writeable


def test_shape_table_outlives_other_radii(monkeypatch):
    # the catalog cache keeps r = 0.6's shapes while 200 other radii are cached
    pl._catalog.cache_clear()
    solved = [shape for shape in pl._catalog(0.6, "all").shapes if shape.templates[0].kinds]
    for k in range(200):
        pl._catalog(0.61 + 0.001 * k, "all")
    searched = [shape for _, shape in _searches(monkeypatch, 0.6)]
    assert len(searched) == len(solved)
    assert all(shape is mine for shape, mine in zip(searched, solved))


def test_a_zero_turn_is_exactly_identity():
    # the descent's pad slots turn by 0 and must multiply as I, bit for bit
    rng = np.random.default_rng(9)
    axes = rng.standard_normal((50, 3))
    axes = np.vstack([axes / np.linalg.norm(axes, axis=1, keepdims=True), orc._PAD_AXIS])
    rots = geo.rotations_about_axis(axes, np.zeros(len(axes)))
    assert rots.tobytes() == np.broadcast_to(np.eye(3), rots.shape).tobytes()
    chains = geo.rotations_about_axis(axes, rng.uniform(0.0, 2.0 * math.pi, len(axes)))
    assert np.array_equal(chains @ rots, chains)
    assert np.array_equal(rots @ chains, chains)


@pytest.mark.parametrize("target, message", [
    (np.full((3, 3), np.nan), r"^target must be finite$"),
    (np.diag([1.0, np.inf, 1.0]), r"^target must be finite$"),
    (np.eye(4), r"^target must have shape \(3, 3\), got \(4, 4\)$"),
    (np.eye(3)[None], r"^target must have shape \(3, 3\), got \(1, 3, 3\)$"),
], ids=["nan", "inf", "4x4", "stack"])
def test_oracle_rejects_a_bad_target(target, message):
    # a NaN target used to pass the residual gate as family G of length 0
    geom = geo.TurnGeometry.from_radius(0.6)
    with pytest.raises(InvalidInput, match=message):
        orc.forward_oracle(target, geom, seed=0, budget=200)


def test_a_nan_residual_fails_the_gate(monkeypatch):
    geom = geo.TurnGeometry.from_radius(0.6)
    m = orc.random_rotation(np.random.default_rng(3))
    assert orc.forward_oracle(m, geom, seed=0, budget=200).found
    refine = orc._FamilySearch.refine
    monkeypatch.setattr(orc._FamilySearch, "refine", lambda *args: (refine(*args)[0], math.nan))
    assert not orc.forward_oracle(m, geom, seed=0, budget=200).found


def test_oracle_takes_a_nested_list_target():
    geom = geo.TurnGeometry.from_radius(0.5)
    m = geo.compose_path([geo.L(1.1), geo.G(0.9), geo.L(2.0)], geom)
    found = orc.forward_oracle(m.tolist(), geom, seed=7, budget=2000)
    assert found == orc.forward_oracle(m, geom, seed=7, budget=2000)
    assert found.found


def test_oracle_budget_is_an_integer_of_at_least_one():
    geom = geo.TurnGeometry.from_radius(0.5)
    with pytest.raises(TypeError, match=r"^budget must be an integer, got 200\.0$"):
        orc.forward_oracle(np.eye(3), geom, seed=0, budget=200.0)
    with pytest.raises(ValueError, match=r"^budget must be at least 1, got 0$"):
        orc.forward_oracle(np.eye(3), geom, seed=0, budget=0)
    assert orc.forward_oracle(np.eye(3), geom, seed=0, budget=np.int64(1)).family == "EMPTY"


def test_oracle_seed_is_a_non_negative_integer():
    geom = geo.TurnGeometry.from_radius(0.5)
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 1\.5$"):
        orc.forward_oracle(np.eye(3), geom, seed=1.5, budget=1)
    with pytest.raises(TypeError, match=r"^seed must be an integer, got '3'$"):
        orc.forward_oracle(np.eye(3), geom, seed="3", budget=1)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        orc.forward_oracle(np.eye(3), geom, seed=-1, budget=1)
    m = orc.random_rotation(np.random.default_rng(3))
    assert repr(orc.forward_oracle(m, geom, seed=np.int64(2), budget=200)) == repr(
        orc.forward_oracle(m, geom, seed=2, budget=200)
    )


# family and length of forward_oracle at budget 20000, recorded before the
# oracle ranked samples by quaternion and polished one stack per shape
PINNED_RESULTS = [
    (0.3, 601, "RGL", 1.5710300505009287),
    (0.45, 602, "LGR", 2.813910542814579),
    (0.55, 603, "LGL", 4.04648559435525),
    (0.6, 604, "LGL", 3.9122082723071254),
    (0.71, 605, "RLR", 4.482229614751496),
    (0.8, 606, "LRL", 6.806959173613749),
    (0.85, 607, "RLRL", 8.362634615771196),
    (math.sqrt(3.0) / 2.0, 608, "RLRL", 7.74048822135834),
    (0.71, None, "RLR", 3.224530420341459),  # the published RLpiR, oracle seed 2
]


@pytest.mark.parametrize("r, seed, family, length", PINNED_RESULTS)
def test_oracle_results_are_pinned(r, seed, family, length):
    if seed is None:
        req = request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], r)
    else:
        req = orc.random_request(r, seed=seed)
    target, geom, _, _, _ = pl.normalize_problem(req)
    found = orc.forward_oracle(target, geom, seed=2 if seed is None else seed, budget=20_000)
    assert found.family == family
    assert abs(found.length - length) <= 1e-12


# exact forward_oracle results at budget 2000: the winner's family, arcs,
# length, residual and min_singular, and the evaluations, as repr writes them
BIT_PINNED_RESULTS = [
    (0.3, 700, "RGL", (0.9344973276247317, 2.8234984205434763, 0.19414950884887824),
     3.1620924714855594, 3.860919290733388e-16, 2000, 0.3021648626650585),
    (0.5, 701, "LGL", (2.1241295857725726, 1.6055380549560911, 0.8983091525005448),
     3.1167574240926497, 3.040470972244059e-16, 2000, 0.8900075081190671),
    (SQRT2_INV, 702, "LGR", (1.705497649620665, 0.7696703095927576, 0.5867411429571753),
     2.390527903923412, 5.266250202865052e-16, 2000, 0.368742141843399),
    (0.71, 703, "RGR", (0.28341627911756884, 0.9299533079734656, 0.3157053308395804),
     1.3553296510430415, 3.795517880871664e-16, 1998, 0.6315307867983856),
    (0.8, 704, "RGR", (1.7817575591757142, 0.9758060745500612, 0.6550270425624471),
     2.9252337559405905, 4.4236469051213343e-16, 1998, 0.5625295628178292),
    (0.85, 705, "RLR", (0.1403194933162684, 5.065926573119302, 1.5413226607959607),
     5.735433418146801, 3.632164660233972e-16, 1998, 1.0240275382247255),
    (math.sqrt(3.0) / 2.0, 706, "RLR", (0.16325895003111826, 4.86412327915494, 2.2084143388057877),
     6.266383644497193, 6.91247581697378e-16, 1998, 0.9503767653371544),
    # the published RLpiR, oracle seed 2
    (0.71, None, "RLR", (0.6999997548531482, 3.1415926576102016, 0.6999997548531482),
     3.224530438794713, 7.351339748142066e-16, 1998, 4.02000283083643e-09),
]


@pytest.mark.parametrize("r, seed, family, arcs, length, residual, evaluations, singular",
                         BIT_PINNED_RESULTS)
def test_oracle_results_are_bit_identical(
    r, seed, family, arcs, length, residual, evaluations, singular
):
    # every float to the last bit, which the 1e-12 length pin above cannot see
    if seed is None:
        req = request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], r)
    else:
        req = orc.random_request(r, seed=seed)
    target, geom, _, _, _ = pl.normalize_problem(req)
    found = orc.forward_oracle(target, geom, seed=2 if seed is None else seed, budget=2000)
    segments = tuple(geo.Segment(kind, arc) for kind, arc in zip(family, arcs))
    expected = orc.OracleResult(segments, length, residual, family, evaluations, singular)
    assert repr(found) == repr(expected)


def test_a_nan_restart_sorts_last_and_is_never_refined(monkeypatch):
    # one NaN row in a polished batch used to abort the call from Segment
    geom = geo.TurnGeometry.from_radius(0.6)
    m = orc.random_rotation(np.random.default_rng(3))
    clean = orc.forward_oracle(m, geom, seed=0, budget=200)
    assert clean.found
    polish, refine, spoiled, refined = orc._FamilySearch._polish, orc._FamilySearch.refine, [], []

    def spoil(search, m, params, owner):
        params, singular = polish(search, m, params, owner)
        if not spoiled and clean.family not in (t.tag for t in search.templates):
            params[0, 0] = math.nan
            spoiled.append(search)
        return params, singular

    def spy(search, m, params, family, geom):
        refined.append(params)
        return refine(search, m, params, family, geom)

    monkeypatch.setattr(orc._FamilySearch, "_polish", spoil)
    monkeypatch.setattr(orc._FamilySearch, "refine", spy)
    assert repr(orc.forward_oracle(m, geom, seed=0, budget=200)) == repr(clean)
    assert spoiled and refined and all(np.isfinite(params).all() for params in refined)
    # with every residual failing the gate, the NaN row is still never refined
    monkeypatch.setattr(orc, "TOL_RESIDUAL", -1.0)
    spoiled.clear()
    refined.clear()
    assert not orc.forward_oracle(m, geom, seed=0, budget=200).found
    assert spoiled and refined and all(np.isfinite(params).all() for params in refined)


@pytest.mark.parametrize("n", [1, orc.REFINE_TOP, orc.REFINE_TOP + 1, 500])
def test_top_restarts_match_a_full_sort(n):
    # the partition keeps the REFINE_TOP best of any count, a single sample included
    rng = np.random.default_rng(n)
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    davenport = orc._davenport(orc.random_rotation(rng))
    score = np.einsum("ni,ni->n", q @ davenport, q)
    assert len(np.unique(score)) == n
    assert np.array_equal(orc._top_restarts(q, davenport), np.argsort(-score)[:orc.REFINE_TOP])


@pytest.mark.parametrize("r", [0.6, 0.8])
def test_oracle_at_budget_one_samples_each_family_once(r):
    # a non-identity target: one sample per family is ranked, descended and polished
    geom = geo.TurnGeometry.from_radius(r)
    m = geo.compose_path([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], geom)
    found = orc.forward_oracle(m, geom, seed=0, budget=1)
    families = [f for f in pl.family_catalog(r, mode="all") if f.kinds]
    assert found.evaluations == len(families) == (25 if r < SQRT2_INV else 27)
    assert not found.found or found.residual <= orc.TOL_RESIDUAL


RESIDUAL_CASES = [
    ([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71, 2),  # the published RLpiR
    ([geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55, 1),  # the published RLRL
    (None, 0.8, 606),
]


@pytest.mark.parametrize("segments, r, seed", RESIDUAL_CASES)
def test_oracle_residual_is_its_paths_compose_path_residual(segments, r, seed):
    # the one residual: refine's ||compose_path(segments) - m||, gated and reported
    if segments is None:
        req = orc.random_request(r, seed=seed)
    else:
        req = request_from_segments(segments, r)
    target, geom, _, _, _ = pl.normalize_problem(req)
    found = orc.forward_oracle(target, geom, seed=seed, budget=20_000)
    assert found.found and found.residual <= orc.TOL_RESIDUAL
    assert found.residual == float(np.linalg.norm(geo.compose_path(found.segments, geom) - target))


def _winner_endpoint(result, geom):
    """The winner's parameter vector, read from its segments through the
    template's slot map, and its endpoint as a function of the parameters,
    composed with compose_path."""
    template = next(f for f in pl.family_catalog(geom.r, mode="all") if f.tag == result.family)
    angles = np.array([seg.angle for seg in result.segments])
    offset = template.angles(np.zeros((1, template.slot_map.shape[1])))[0]
    params = np.linalg.lstsq(template.slot_map, angles - offset, rcond=None)[0]

    def endpoint(p):
        chain = template.angles(p[None, :])[0]
        return geo.compose_path([geo.Segment(k, a) for k, a in zip(template.kinds, chain)], geom)

    return params, endpoint


@pytest.mark.parametrize("case", ["generic", "rlpir"])
def test_min_singular_is_the_winners_jacobian(case):
    if case == "generic":
        geom = geo.TurnGeometry.from_radius(0.5)
        m = geo.compose_path([geo.L(1.1), geo.G(0.9), geo.L(2.0)], geom)
    else:
        geom = geo.TurnGeometry.from_radius(0.71)
        m = geo.compose_path([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], geom)
    result = orc.forward_oracle(m, geom, seed=2, budget=20_000)
    assert result.found
    params, endpoint = _winner_endpoint(result, geom)
    expected = np.linalg.svd(_central_jacobian(endpoint, params), compute_uv=False)[-1]
    assert abs(result.min_singular - expected) <= 1e-6
    if case == "generic":
        assert result.min_singular > 1e-3
    else:  # the near-singular double root at a pi middle arc
        assert result.family == "RLR" and result.min_singular < 1e-6


def test_min_singular_is_nan_without_a_path(monkeypatch):
    geom = geo.TurnGeometry.from_radius(0.5)
    empty = orc.forward_oracle(np.eye(3), geom, seed=3, budget=500)
    assert empty.family == "EMPTY"
    assert math.isnan(empty.min_singular)
    # nothing found: no restart passes a residual gate below every residual
    monkeypatch.setattr(orc, "TOL_RESIDUAL", -1.0)
    m = geo.compose_path([geo.L(1.1), geo.G(0.9), geo.L(2.0)], geom)
    missed = orc.forward_oracle(m, geom, seed=3, budget=500)
    assert not missed.found
    assert math.isnan(missed.min_singular)


@pytest.mark.parametrize("r", [0.6, 0.8, math.sqrt(3.0) / 2.0])
@pytest.mark.parametrize("pattern", ["LRLR", "RLRL", "LRLRL", "RLRLR"])
def test_polish_alone_finds_equal_middle_families(monkeypatch, pattern, r):
    # equal-middle restarts skip the coordinate descent: the polish must reach the root
    template = next(f for f in pl.family_catalog(r, mode="all") if f.tag == pattern)
    rng = np.random.default_rng(len(pattern) * 100 + int(r * 100))
    segments = random_in_bounds_path(template, rng)
    geom = geo.TurnGeometry.from_radius(r)
    m = geo.compose_path(segments, geom)
    # a catalog of this family alone, every table of it built by `_catalog`
    monkeypatch.setattr(pl, "family_catalog", lambda *_: [template])
    pl._catalog.cache_clear()
    try:
        result = orc.forward_oracle(m, geom, seed=1, budget=20_000)
    finally:
        pl._catalog.cache_clear()
    assert result.found and result.family == pattern
    assert result.residual <= 1e-9
    assert result.length == geo.path_length(result.segments, geom)
    assert result.length <= geo.path_length(segments, geom) + 1e-9


def test_generator_rodrigues_matches_rotations_about_axis():
    # the descent and the polish build K and K^2 once; every slot keeps its bits
    rng = np.random.default_rng(21)
    axes = rng.standard_normal((6, 5, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    for row, r in enumerate((0.3, 0.6, SQRT2_INV)):
        for slot, kind in enumerate("GLR"):
            axes[row, slot] = geo.turn_axis(kind, geo.TurnGeometry(r))
    axes[:, 3] = orc._PAD_AXIS
    angles = rng.uniform(0.0, 2.0 * math.pi, (6, 5))
    angles[::2, 1:] = 0.0
    angles[:, 3] = 0.0
    k = geo.skew(axes)
    k2 = k @ k
    whole = geo.rotations_from_generators(k, k2, angles)
    assert whole.tobytes() == geo.rotations_about_axis(axes, angles).tobytes()
    for slot in range(5):
        got = geo.rotations_from_generators(k[:, slot], k2[:, slot], angles[:, slot])
        assert got.tobytes() == geo.rotations_about_axis(axes[:, slot], angles[:, slot]).tobytes()
    zero = whole[angles == 0.0]
    assert zero.tobytes() == np.broadcast_to(np.eye(3), zero.shape).tobytes()


def _quaternion_rows(search, params, family):
    """The (n, 4) composition, slot by slot q <- cos q + sin q (0, axis)."""
    half = 0.5 * search.template.angles(params)
    cos, sin = np.cos(half), np.sin(half)
    q = np.zeros((len(params), 4))
    q[:, 0] = 1.0
    for slot, axis in enumerate(search.axes[family]):
        q = cos[:, slot, None] * q + sin[:, slot, None] * (q @ orc._right_product(axis).T)
    return q


@pytest.mark.parametrize("r", [0.3, 0.5, 0.6, 0.8, math.sqrt(3.0) / 2.0])
def test_column_quaternions_match_the_row_composition(r):
    _, searches, families = _audit_searches(r)
    davenport = orc._davenport(orc.random_rotation(np.random.default_rng(int(r * 100))))
    for search in searches:
        for family, template in enumerate(search.templates):
            params = search.sample(np.random.default_rng(families.index(template)), 500, family)
            got = search.compose_batch(params, family)
            expected = _quaternion_rows(search, params, family)
            assert got.tobytes() == expected.tobytes(), template.tag
            ranked = orc._top_restarts(got, davenport)
            assert np.array_equal(ranked, orc._top_restarts(expected, davenport)), template.tag


def _two_slot_search(r):
    families = tuple(f for f in pl.family_catalog(r, mode="all") if f.kinds)
    shape = next(s for s in lk.chain_shapes(r, families) if s.templates[0].shape == (2, False))
    search = orc._FamilySearch(shape)
    rng = np.random.default_rng(1)
    params = np.concatenate([search.sample(rng, 8, f) for f in range(len(search.templates))])
    return search, params, np.repeat(np.arange(len(search.templates)), 8)


def _polish_steps(search, m, params, owner):
    """The polished parameters and the number of LM steps taken."""
    calls = []
    search.linearize = lambda *args: calls.append(1) or orc._FamilySearch.linearize(search, *args)
    try:
        polished, _ = search._polish(m, params, owner)
    finally:
        del search.linearize
    return polished, len(calls) - 1


def test_polish_stops_stalled_rows(monkeypatch):
    # two arcs reach a generic target only at a nonzero residual minimum
    search, params, owner = _two_slot_search(0.6)
    m = orc.random_rotation(np.random.default_rng(7))
    _, steps = _polish_steps(search, m, params, owner)
    monkeypatch.setattr(orc, "POLISH_STALL", 0.0)
    _, unstopped = _polish_steps(search, m, params, owner)
    assert steps < orc.POLISH_STEPS == unstopped


def test_polish_stops_only_rows_above_the_gate(monkeypatch):
    search, params, owner = _two_slot_search(0.6)
    geom = geo.TurnGeometry(0.6)
    m = geo.compose_path([geo.L(1.0), geo.R(2.0)], geom)
    stopped, _ = _polish_steps(search, m, params, owner)
    monkeypatch.setattr(orc, "POLISH_STALL", 0.0)
    unstopped, _ = _polish_steps(search, m, params, owner)
    residual = {
        name: np.linalg.norm(search.linearize(p, owner)[0] - m, axis=(1, 2))
        for name, p in (("stopped", stopped), ("unstopped", unstopped))
    }
    changed = (stopped != unstopped).any(axis=1)
    assert changed.any() and (~changed).any()
    assert (residual["unstopped"][~changed] <= orc.ACCEPT_GATE).any()
    assert (residual["stopped"][changed] > orc.ACCEPT_GATE).all()
    assert (residual["unstopped"][changed] > orc.ACCEPT_GATE).all()


def _finish_every_restart(m, geom, polished, evaluations):
    """The reference finish: refine every polished restart in catalog order,
    keep a passing path only if strictly shorter, starting from EMPTY when
    the identity passes."""
    families = tuple(f for f in pl.family_catalog(geom.r, mode="all") if f.kinds)
    restarts = sorted(
        (
            (families.index(search.templates[f]), search, f, p, s)
            for search, owner, params, singular in polished
            for f, p, s in zip(owner, params, singular)
        ),
        key=lambda restart: restart[0],
    )
    best = orc.OracleResult(None, math.inf, math.inf, "", evaluations)
    identity_residual = float(np.linalg.norm(m - np.eye(3)))
    if identity_residual <= orc.TOL_RESIDUAL:
        best = orc.OracleResult((), 0.0, identity_residual, "EMPTY", evaluations)
    for _, search, family, params, min_singular in restarts:
        segments, res = search.refine(m, params, family, geom)
        length = geo.path_length(segments, geom)
        if res <= orc.TOL_RESIDUAL and length < best.length:
            tag = search.templates[family].tag
            best = orc.OracleResult(segments, length, res, tag, evaluations, float(min_singular))
    return best


@pytest.mark.parametrize("case, r, seed", [
    ("seeded", 0.3, 31), ("seeded", 0.5, 32), ("seeded", SQRT2_INV, 33), ("seeded", 0.71, 34),
    ("seeded", 0.8, 35), ("seeded", math.sqrt(3.0) / 2.0, 36),
    ("identity", 0.5, 3), ("pure turn", 0.71, 4), ("rlpir", 0.71, 2),
])
def test_lazy_finish_picks_the_catalog_order_winner(monkeypatch, case, r, seed):
    geom = geo.TurnGeometry.from_radius(r)
    m = {
        "seeded": lambda: orc.random_rotation(np.random.default_rng(seed)),
        "identity": lambda: np.eye(3),
        "pure turn": lambda: geo.compose_path([geo.L(2.0)], geom),  # equal-length ties
        "rlpir": lambda: geo.compose_path([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], geom),
    }[case]()
    polish, polished = orc._FamilySearch._polish, []

    def spy(search, m, params, owner):
        out = polish(search, m, params, owner)
        polished.append((search, owner, *out))
        return out

    monkeypatch.setattr(orc._FamilySearch, "_polish", spy)
    result = orc.forward_oracle(m, geom, seed=seed, budget=20_000)
    assert repr(result) == repr(_finish_every_restart(m, geom, polished, result.evaluations))
    assert result.found
    if case == "identity":
        assert result.family == "EMPTY" and not polished
    if case == "pure turn":
        assert abs(result.length - 2.0 * r) <= 1e-12

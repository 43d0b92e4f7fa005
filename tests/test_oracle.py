import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descent_reference
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
    """Descending and polishing every family of a parameter shape in one
    batch gives each row the bits of a search built for its family alone,
    on seeded restarts (after the descent, as in `forward_oracle`) and on
    restarts 1e-9 off a root."""
    geom, searches, _ = _audit_searches(r)
    rng = np.random.default_rng(int(r * 1000))
    m = geo.compose_path(random_in_bounds_path(pl.FamilyTemplate.of("LRLR"), rng), geom)
    assert len(searches) == (6 if r > SQRT2_INV else 5)
    near_roots = 0
    for search in searches:
        starts, owners, drawn, descended = [], [], [], []
        for family, template in enumerate(search.templates):
            alone = _alone(template, geom)
            seeded = alone.sample(rng, 6, 0)
            if not template.equal_middles:
                drawn.append(seeded)
                seeded = alone.descend(m, seeded, np.zeros(6, dtype=int))
                descended.append(seeded)
            polished, _ = alone._polish(m, seeded, np.zeros(6, dtype=int))
            ends, _ = alone.linearize(polished, np.zeros(6, dtype=int))
            roots = polished[np.linalg.norm(ends - m, axis=(1, 2)) <= orc.ACCEPT_GATE]
            near_roots += len(roots)
            near = roots + 1e-9 * rng.standard_normal(roots.shape)
            near = alone._clamp(near, np.zeros(len(near), dtype=int))
            starts.append(np.concatenate([seeded, near]))
            owners.append(np.full(len(starts[-1]), family))
        if drawn:
            together = search.descend(m, np.concatenate(drawn), np.repeat(np.arange(len(drawn)), 6))
            assert np.array_equal(together, np.concatenate(descended)), search.template.tag
        owner = np.concatenate(owners)
        params, singular = search._polish(m, np.concatenate(starts), owner)
        for family, (template, rows) in enumerate(zip(search.templates, starts)):
            alone = _alone(template, geom)
            got, got_singular = alone._polish(m, rows, np.zeros(len(rows), dtype=int))
            assert np.array_equal(params[owner == family], got), template.tag
            assert np.array_equal(singular[owner == family], got_singular), template.tag
    assert near_roots >= 10


# a random_rotation seed per radius whose budget-1 oracle passes no path
# shorter than 3 pi r, the length of a 5-chain's low arcs
UNPRUNED_SEEDS = {0.3: 0, 0.6: 36, 0.71: 171, 0.8: 6}


def _built_searches(monkeypatch) -> list:
    """(search, shape) of each `_FamilySearch` built from now on."""
    built = []
    init = orc._FamilySearch.__init__

    def spy(search, shape):
        init(search, shape)
        built.append((search, shape))

    monkeypatch.setattr(orc._FamilySearch, "__init__", spy)
    return built


def _searches(monkeypatch, r) -> tuple[list, np.ndarray, float]:
    """(search, shape) of each `_FamilySearch` one forward_oracle call at r
    builds, the target and the winner's length."""
    built = _built_searches(monkeypatch)
    m = orc.random_rotation(np.random.default_rng(UNPRUNED_SEEDS[r]))
    found = orc.forward_oracle(m, geo.TurnGeometry(r), 0, 1)
    assert found.length >= 3.0 * math.pi * r
    return built, m, found.length


def _solved_shapes(r) -> list:
    """The non-EMPTY shapes of the audit catalog at r."""
    return [shape for shape in pl._catalog(r, "all").shapes if shape.templates[0].kinds]


def _kept_shapes(r, m, length) -> list:
    """The shapes forward_oracle searches at r on target m when its winner
    has `length`, in its order: those with a family whose bound
    (`_family_bounds`) is at most that length, by least bound.  A shape
    whose least bound is above it cannot give that winner, so the winner
    came from a shape before it, and the loop stopped there."""
    weights = pl._catalog(r, "all").weights
    bounds = [(orc._family_bounds(shape, weights, m).min(), shape) for shape in _solved_shapes(r)]
    return [shape for least, shape in sorted(bounds, key=lambda pair: pair[0])
            if least <= length and least < math.inf]


def _no_bound(shape, *_):
    """`_family_bounds` that bounds nothing: every family is sampled."""
    return np.zeros(len(shape.templates))


@pytest.mark.parametrize("r", [0.3, 0.6, 0.71, 0.8])
def test_oracle_searches_the_solvers_shape_table(monkeypatch, r):
    # every search's axes are the read-only `ChainShape.axes` that plan(mode="all")
    # solves; one search per shape with a family whose bound is within the winner
    pl._catalog.cache_clear()
    solved = _solved_shapes(r)
    searches, m, length = _searches(monkeypatch, r)
    kept = _kept_shapes(r, m, length)
    # no single arc reaches a random target: its shape is ruled out whole
    assert len(searches) == len(kept) < len(solved)
    for (search, _), shape in zip(searches, kept):
        assert search.axes is shape.axes and search.templates == shape.templates
        assert not search.axes.flags.writeable


def test_shape_table_outlives_other_radii(monkeypatch):
    # the catalog cache keeps r = 0.6's shapes while 200 other radii are cached
    pl._catalog.cache_clear()
    solved = _solved_shapes(0.6)
    for k in range(200):
        pl._catalog(0.61 + 0.001 * k, "all")
    built, m, length = _searches(monkeypatch, 0.6)
    searched = [shape for _, shape in built]
    kept = _kept_shapes(0.6, m, length)
    assert len(searched) == len(kept) and any(shape.templates[0].equal_middles for shape in kept)
    assert all(shape is mine for shape, mine in zip(searched, kept))
    assert all(any(shape is mine for mine in solved) for shape in searched)


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
    # one NaN row in a polished batch used to abort the call from Segment; it
    # is put in the first polished batch, on a family other than the winner's
    geom = geo.TurnGeometry.from_radius(0.6)
    m = orc.random_rotation(np.random.default_rng(3))
    clean = orc.forward_oracle(m, geom, seed=0, budget=200)
    assert clean.found
    polish, refine = orc._FamilySearch._polish, orc._FamilySearch.refine
    spoiled, refined, rows = [], [], []

    def spoil(search, m, params, owner):
        params, singular = polish(search, m, params, owner)
        others = np.flatnonzero([search.templates[f].tag != clean.family for f in owner])
        if not spoiled and others.size:
            params[others[0], 0] = math.nan
            spoiled.append(search)
        rows.append(len(params))
        return params, singular

    def spy(search, m, params, family, geom):
        refined.append(params)
        return refine(search, m, params, family, geom)

    monkeypatch.setattr(orc._FamilySearch, "_polish", spoil)
    monkeypatch.setattr(orc._FamilySearch, "refine", spy)
    assert repr(orc.forward_oracle(m, geom, seed=0, budget=200)) == repr(clean)
    assert spoiled and refined and all(np.isfinite(params).all() for params in refined)
    assert clean.family in (t.tag for t in spoiled[0].templates)  # the winner's own batch
    # the gate's negative bound rules out every family, so nothing is
    # polished; with every family searched all the same, every row but the
    # NaN one is refined, as every residual fails the gate
    monkeypatch.setattr(orc, "TOL_RESIDUAL", -1.0)
    spoiled.clear()
    refined.clear()
    rows.clear()
    assert not orc.forward_oracle(m, geom, seed=0, budget=200).found
    assert not spoiled and not rows
    monkeypatch.setattr(orc, "_family_bounds", _no_bound)
    assert not orc.forward_oracle(m, geom, seed=0, budget=200).found
    assert spoiled and len(rows) == len(_solved_shapes(0.6))
    assert len(refined) == sum(rows) - 1
    assert all(np.isfinite(params).all() for params in refined)


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
def test_oracle_at_budget_one_allots_each_family_one_sample(monkeypatch, r):
    # a non-identity target: `evaluations` counts one sample per family, and a
    # family is sampled once, or not at all when its chain invariant rules it
    # out or its shape is pruned
    geom = geo.TurnGeometry.from_radius(r)
    m = geo.compose_path([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], geom)
    sample, drawn = orc._FamilySearch.sample, []

    def spy(search, rng, n, family):
        drawn.append((search.templates[family], n))
        return sample(search, rng, n, family)

    monkeypatch.setattr(orc._FamilySearch, "sample", spy)
    found = orc.forward_oracle(m, geom, seed=0, budget=1)
    families = [f for f in pl.family_catalog(r, mode="all") if f.kinds]
    assert found.evaluations == len(families) == (25 if r < SQRT2_INV else 27)
    assert not found.found or found.residual <= orc.TOL_RESIDUAL
    sampled = [template for template, _ in drawn]
    assert all(n == 1 for _, n in drawn) and len(set(sampled)) == len(sampled)
    assert set(sampled) <= set(families)
    kept = {
        template
        for shape in _solved_shapes(r) if not shape.templates[0].equal_middles
        for template, out in zip(shape.templates, orc._ruled_out(shape, m).tolist()) if not out
    }
    assert {template for template in sampled if not template.equal_middles} == kept
    assert len(kept) < len([f for f in families if not f.equal_middles])  # e.g. G, L and R
    tags = {template.tag for template in kept}
    assert "RLR" in tags and ("RLpiR" in tags) == (r > SQRT2_INV)  # the target's own families


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
    axes[:, 3] = [0.0, 0.0, 1.0]  # e_z: turned by 0 it is exactly I
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


def _quaternion_rows(search, params, family, trig=None):
    """The (n, 4) composition, slot by slot q <- cos q + sin q (0, axis), with
    the half-angle trig `compose_batch` takes (`_half_angle_trig`) unless
    `trig` gives another: the (cos, sin) of the (n, slots) arcs."""
    arcs = search.template.angles(params).copy()  # a free family's arcs are its params
    cos, sin = (trig or orc._half_angle_trig)(arcs)
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


def _oracle_target(case, r, seed):
    geom = geo.TurnGeometry.from_radius(r)
    segments = {
        "rlrl": [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)],  # the published RLRL
        "pure turn": [geo.L(2.0)],  # equal-length ties across families
    }.get(case)
    if segments is None:
        return geom, orc.random_rotation(np.random.default_rng(seed))
    return geom, geo.compose_path(segments, geom)


@pytest.mark.parametrize("case, r, seed", [
    ("seeded", 0.3, 41), ("seeded", 0.5, 42), ("seeded", 0.55, 43), ("seeded", SQRT2_INV, 44),
    ("seeded", 0.71, 45), ("seeded", 0.8, 46), ("seeded", 0.85, 47),
    ("seeded", math.sqrt(3.0) / 2.0, 48), ("rlrl", 0.55, 1), ("pure turn", 0.71, 4),
])
def test_pruning_changes_no_result(monkeypatch, case, r, seed):
    # the reference searches every family of every shape: its bound is 0
    geom, m = _oracle_target(case, r, seed)
    built = _built_searches(monkeypatch)
    pruned = orc.forward_oracle(m, geom, seed=seed, budget=2000)
    searched = [shape for _, shape in built]
    assert searched == _kept_shapes(r, m, pruned.length)
    built.clear()
    monkeypatch.setattr(orc, "_family_bounds", _no_bound)
    every = orc.forward_oracle(m, geom, seed=seed, budget=2000)
    assert len(searched) < len(built) == len(_solved_shapes(r))
    assert repr(pruned) == repr(every)
    assert pruned.found
    if case == "rlrl":  # the 4-chain wins, so its shape is searched
        assert pruned.family == "RLRL"
    if case == "pure turn":  # 2r is below every equal-middle bound: neither shape is searched
        assert abs(pruned.length - 2.0 * r) <= 1e-12
        assert not any(shape.templates[0].equal_middles for shape in searched)


@pytest.mark.parametrize("r", [0.55, 0.8, math.sqrt(3.0) / 2.0])
def test_least_length_bounds_every_polished_row(monkeypatch, r):
    """Every equal-middle row the polish takes and returns has beta in the
    margined box and a finish length of at least that of (0, ANGLE_EPS, 0),
    its family's least possible bound, above (n - 2) pi r; a row that
    passes the gate is at least its family's bound (`_family_bounds`).
    The rows: the restarts of three oracle calls with every family
    searched, the last with every beta drawn on its box's ends (0 or pi,
    which the clamp moves in), and rows pinned at beta = ANGLE_EPS and
    pi - ANGLE_EPS, outer arcs at 0 or their cap, which the clamp leaves as
    they are and canonical_angles does not snap, before and after a
    polish."""
    catalog = pl._catalog(r, "all")
    shapes = [shape for shape in catalog.shapes if shape.templates[0].equal_middles]
    assert [len(shape.templates[0].kinds) for shape in shapes] == [4, 5]
    eps, pi = geo.ANGLE_EPS, math.pi
    pinned = np.array([[0.0, eps, 0.0], [pi + eps, eps, pi + eps], [0.0, pi - eps, 0.0],
                       [2.0 * pi - eps, pi - eps, 2.0 * pi - eps], [1.0, pi - eps, 0.0]])
    owner = np.zeros(len(pinned), dtype=int)
    polish, checked = orc._FamilySearch._polish, []

    def spy(search, m, params, owner):
        out = polish(search, m, params, owner)
        if search.template.equal_middles:
            checked.extend([(m, search, owner, params), (m, search, owner, out[0])])
        return out

    sample = orc._FamilySearch.sample

    def on_the_ends(search, rng, n, family):
        params = sample(search, rng, n, family)
        if search.template.equal_middles:
            params[:, 1] = np.where(np.arange(n) % 2, pi, 0.0)
        return params

    bounds = orc._family_bounds
    monkeypatch.setattr(orc._FamilySearch, "_polish", spy)
    monkeypatch.setattr(orc, "_family_bounds", _no_bound)  # search every family
    geom = geo.TurnGeometry.from_radius(r)
    for seed in range(3):
        if seed == 2:
            monkeypatch.setattr(orc._FamilySearch, "sample", on_the_ends)
        m = orc.random_rotation(np.random.default_rng(seed))
        orc.forward_oracle(m, geom, seed, 2000)
        for _, search, _, _ in checked[-4::2]:  # the 4-chain and the 5-chain search
            assert search._clamp(pinned, owner).tobytes() == pinned.tobytes()
            arcs = search.template.angles(pinned)
            assert np.array_equal(geo.canonical_angles(arcs)[:, 1:-1], arcs[:, 1:-1])
            search._polish(m, pinned, owner)
    assert len(checked) == 3 * 2 * 2 * 2
    passed = 0
    for m, search, owner, params in checked:
        lows, highs = search.box
        assert lows[0, 1] == eps and highs[0, 1] == pi - eps
        assert ((params[:, 1] >= eps) & (params[:, 1] <= pi - eps)).all()
        factors = catalog.weights[search.positions[owner], 0]
        lengths = orc._finish_lengths(search.template, params, factors)
        low = orc._finish_lengths(search.template, np.array([[0.0, eps, 0.0]]), factors)
        n = len(search.template.kinds)
        assert (low >= (n - 2) * pi * r).all() and (lengths >= low).all()
        shape = next(shape for shape in shapes if shape.axes is search.axes)
        bound = bounds(shape, catalog.weights, m)[owner]
        for family, row, length, least in zip(owner, params, lengths, bound):
            if search.refine(m, row, family, geom)[1] <= orc.TOL_RESIDUAL:
                passed += 1
                assert length >= least
    assert passed  # equal-middle rows reach these targets, so the bound is put to the test


@pytest.mark.parametrize("r", [0.3, SQRT2_INV, 0.8, math.sqrt(3.0) / 2.0])
def test_least_length_is_zero_off_the_equal_middle_shapes(r):
    """Every free and pinned-middle family's bound is 0.0, or inf where its
    chain invariant rules the target out; an equal-middle family's is inf
    or at least its low arcs' length (n - 2) pi r.  The witness for 0.0: an
    `LRL` row with its middle at the box top 2 pi, which canonical_angles
    snaps to 0, reaches L(0.5) within the gate at length 0.5 r, below
    pi r, the length of its low arcs, so its low arcs bound nothing."""
    catalog = pl._catalog(r, "all")
    geom = geo.TurnGeometry.from_radius(r)
    m = geo.compose_path([geo.L(0.5)], geom)
    for shape in _solved_shapes(r):
        bound = orc._family_bounds(shape, catalog.weights, m)
        if shape.templates[0].equal_middles:
            low = (len(shape.templates[0].kinds) - 2) * math.pi * r
            assert (bound >= low).all()
        else:
            assert bound.tolist() == np.where(orc._ruled_out(shape, m), math.inf, 0.0).tolist()
    shape = next(s for s in _solved_shapes(r) if s.templates[0].shape == (3, False))
    family = next(i for i, t in enumerate(shape.templates) if t.tag == "LRL")
    assert orc._family_bounds(shape, catalog.weights, m)[family] == 0.0
    template = shape.templates[family]
    lows, highs = template.box
    row = np.array([[0.3, highs[1], 0.2]])
    assert highs[1] == 2.0 * math.pi and (lows <= row).all() and (row <= highs).all()
    factors = catalog.weights[[shape.positions[family]], 0]
    length = orc._finish_lengths(template, row, factors)[0]
    low_arcs = orc._finish_lengths(template, lows[None, :], factors)[0]
    assert abs(low_arcs - math.pi * r) <= 1e-15 and abs(length - 0.5 * r) <= 1e-15
    assert length < low_arcs
    segments, residual = orc._FamilySearch(shape).refine(m, row[0], family, geom)
    assert residual <= orc.TOL_RESIDUAL and [s.angle for s in segments][1] == 0.0


# five structured targets per radius, beside three seeded ones: 1- and 2-arc
# winners and the published RLpiR, whose free three-turn families sit on the
# edge of their chain invariant's interval
REPLAY_PATHS = [
    [geo.L(2.0)], [geo.G(1.3)], [geo.L(1.1), geo.G(0.4)], [geo.L(0.8), geo.R(1.9)],
    [geo.R(0.7), geo.L(math.pi), geo.R(0.7)],
]
REPLAY_RADII = [0.3, 0.5, 0.55, SQRT2_INV, 0.71, 0.8, 0.85, math.sqrt(3.0) / 2.0]


# (case, r, seed, tags the rule must keep): seeded targets, 1- and 2-arc
# paths, a great-circle sandwich, a near pure turn and the published RLpiR,
# whose free three-turn families sit on the edge of their interval
RULE_CASES = [("seeded", r, 50 + k, ()) for k, r in enumerate(REPLAY_RADII)] + [
    ([geo.L(2.0)], 0.71, 4, ("L", "LR", "RL", "LG", "GL")),
    ([geo.G(1.3)], 0.5, 5, ("G",)),
    ([geo.L(1.1), geo.G(0.4)], 0.3, 6, ("LG",)),
    ([geo.L(0.8), geo.R(1.9)], 0.8, 7, ("LR",)),
    ([geo.G(0.5), geo.L(1.2), geo.G(0.7)], 0.55, 8, ("GLG",)),
    ([geo.L(1.0), geo.G(1e-7), geo.L(2.0)], 0.6, 9, ("LGL", "L")),  # L: a second-order miss
    ([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71, 2, ("RLR", "RLpiR")),
]


@pytest.mark.parametrize("path, r, seed, kept", RULE_CASES)
def test_ruled_out_families_change_no_result(monkeypatch, path, r, seed, kept):
    # the reference samples every family: its bound is 0
    geom = geo.TurnGeometry.from_radius(r)
    if path == "seeded":
        m = orc.random_rotation(np.random.default_rng(seed))
    else:
        m = geo.compose_path(path, geom)
    sample, sampled = orc._FamilySearch.sample, set()

    def spy(search, rng, n, family):
        sampled.add(search.templates[family].tag)
        return sample(search, rng, n, family)

    monkeypatch.setattr(orc._FamilySearch, "sample", spy)
    ruled = orc.forward_oracle(m, geom, seed=seed, budget=2000)
    kept_here = set(sampled)
    sampled.clear()
    monkeypatch.setattr(orc, "_family_bounds", _no_bound)
    every = orc.forward_oracle(m, geom, seed=seed, budget=2000)
    assert repr(ruled) == repr(every)
    assert ruled.found
    assert set(kept) <= kept_here < sampled
    if path == "seeded":  # no single arc reaches a generic target
        assert not {"G", "L", "R"} & kept_here


def test_the_rule_keeps_one_two_and_pinned_families():
    # over RULE_CASES, a one-arc, a two-arc and a pinned-middle family are kept
    shapes = {
        template.shape
        for _, r, _, tags in RULE_CASES
        for template in pl.family_catalog(r, mode="all") if template.tag in tags
    }
    assert {(1, False), (2, False), (3, True)} <= shapes


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
boundary_r = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([0.5, SQRT2_INV, math.sqrt(3.0) / 2.0]),
    st.floats(-1e-12, 1e-12),
)
radius = st.one_of(boundary_r, st.floats(0.05, 0.95))


def _ruled_shapes(r):
    """The free and pinned-middle shapes of the audit catalog at r."""
    return [shape for shape in _solved_shapes(r) if not shape.templates[0].equal_middles]


@PROPERTY
@given(r=radius, data=st.data())
def test_no_family_is_ruled_out_on_its_own_endpoint(r, data):
    # every free and pinned-middle family, on a path drawn from its box; a
    # middle arc of 0, pi or 2 pi - ANGLE_EPS where its box has it
    geom = geo.TurnGeometry.from_radius(r)
    special = (0.0, math.pi, 2.0 * math.pi - geo.ANGLE_EPS)
    for shape in _ruled_shapes(r):
        for family, template in enumerate(shape.templates):
            lows, highs = template.box
            params = [data.draw(st.floats(lo, hi)) for lo, hi in zip(lows, highs)]
            if len(params) == 3:
                params[1] = data.draw(st.one_of(
                    st.sampled_from([v for v in special if lows[1] <= v <= highs[1]]),
                    st.just(params[1]),
                ))
            angles = template.angles(np.array([params]))[0]
            m = geo.compose_path([geo.Segment(k, a) for k, a in zip(template.kinds, angles)], geom)
            assert not orc._ruled_out(shape, m)[family], (template.tag, angles.tolist())


@PROPERTY
@given(r=radius, seed=st.integers(0, 10**6), path=st.sampled_from([None] + REPLAY_PATHS))
def test_every_row_of_a_ruled_out_family_fails_the_gate(r, seed, path):
    # the polish with every family searched: no row of a family the rule rules out passes
    geom = geo.TurnGeometry.from_radius(r)
    if path is None:
        m = orc.random_rotation(np.random.default_rng(seed))
    else:
        m = geo.compose_path(path, geom)
    out = {id(shape.axes): orc._ruled_out(shape, m) for shape in _ruled_shapes(r)}
    polish, rows = orc._FamilySearch._polish, []

    def spy(search, m, params, owner):
        polished = polish(search, m, params, owner)
        if not search.template.equal_middles:
            rows.extend((search, f, p) for f, p in zip(owner.tolist(), polished[0]))
        return polished

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orc._FamilySearch, "_polish", spy)
        patch.setattr(orc, "_family_bounds", _no_bound)
        orc.forward_oracle(m, geom, seed=seed, budget=200)
    ruled = [(search, f, p) for search, f, p in rows if out[id(search.axes)][f]]
    assert ruled  # no single arc reaches a generic target, nor all of L(2)'s families
    for search, family, params in ruled:
        assert search.refine(m, params, family, geom)[1] > orc.TOL_RESIDUAL


def _equal_middle_shapes(r):
    """The 4- and 5-chain shapes of the audit catalog at r."""
    return [shape for shape in _solved_shapes(r) if shape.templates[0].equal_middles]


def _equal_middle_endpoint(template, geom, data, beta):
    """An in-box row (outer arc, beta, outer arc), each outer arc at 0, at
    its cap pi + beta or in between, and the endpoint of its path."""
    cap = math.pi + beta  # `outer_cap`, the interior arc
    outer = st.one_of(st.sampled_from([0.0, cap]), st.floats(0.0, cap))
    row = np.array([[data.draw(outer), beta, data.draw(outer)]])
    angles = template.angles(row)[0]
    return row, geo.compose_path([geo.Segment(k, a) for k, a in zip(template.kinds, angles)], geom)


@PROPERTY
@given(r=radius, data=st.data())
def test_no_equal_middle_family_is_ruled_out_on_its_own_endpoint(r, data):
    # every 4- and 5-chain family, on a path with beta in the margined box,
    # its ends included: its bound is at most the path's own finish length
    geom = geo.TurnGeometry.from_radius(r)
    weights = pl._catalog(r, "all").weights
    eps = geo.ANGLE_EPS
    for shape in _equal_middle_shapes(r):
        for family, template in enumerate(shape.templates):
            beta = data.draw(st.one_of(st.sampled_from([eps, math.pi - eps]),
                                       st.floats(eps, math.pi - eps)))
            row, m = _equal_middle_endpoint(template, geom, data, beta)
            length = orc._finish_lengths(template, row, weights[[shape.positions[family]], 0])
            bound = orc._family_bounds(shape, weights, m)[family]
            assert bound <= length[0], (template.tag, row.tolist())


@PROPERTY
@given(r=radius, data=st.data())
def test_the_slack_covers_the_rounding_at_a_cell_centre(r, data):
    # with beta on a cell centre no Lipschitz term is needed: the path's own
    # family is kept with TOL_RESIDUAL set to cancel (n - 2) h/2, so that
    # the gate is BETA_SLACK alone
    geom = geo.TurnGeometry.from_radius(r)
    weights = pl._catalog(r, "all").weights
    for shape in _equal_middle_shapes(r):
        lipschitz = (len(shape.templates[0].kinds) - 2) * orc._BETA_HALF
        for family, template in enumerate(shape.templates):
            beta = orc._BETA_CENTRES[data.draw(st.integers(0, orc.BETA_CELLS - 1))]
            row, m = _equal_middle_endpoint(template, geom, data, beta)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(orc, "TOL_RESIDUAL", -lipschitz)
                bound = orc._family_bounds(shape, weights, m)[family]
            assert bound < math.inf, (template.tag, row.tolist())


@PROPERTY
@given(r=radius, seed=st.integers(0, 10**6),
       path=st.sampled_from([None, "LRLR", "RLRL", "LRLRL", "RLRLR"] + REPLAY_PATHS))
def test_every_row_of_a_pruned_family_fails_the_gate_or_sorts_after_the_winner(r, seed, path):
    # the polish with every family searched: a row of a family that the
    # bounds leave unsampled never sorts before the winner by (length,
    # catalog position) with a residual that passes the gate
    geom = geo.TurnGeometry.from_radius(r)
    catalog = pl._catalog(r, "all")
    if path is None:
        m = orc.random_rotation(np.random.default_rng(seed))
    elif isinstance(path, str):
        template = next(f for f in catalog.families if f.tag == path)
        m = geo.compose_path(random_in_bounds_path(template, np.random.default_rng(seed)), geom)
    else:
        m = geo.compose_path(path, geom)
    sample, polish, sampled, rows = orc._FamilySearch.sample, orc._FamilySearch._polish, set(), []

    def spy_sample(search, rng, n, family):
        sampled.add(search.templates[family])
        return sample(search, rng, n, family)

    def spy_polish(search, m, params, owner):
        polished = polish(search, m, params, owner)
        rows.extend((search, f, p) for f, p in zip(owner.tolist(), polished[0]))
        return polished

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orc._FamilySearch, "sample", spy_sample)
        winner = orc.forward_oracle(m, geom, seed=seed, budget=200)
        kept = set(sampled)
        patch.setattr(orc._FamilySearch, "_polish", spy_polish)
        patch.setattr(orc, "_family_bounds", _no_bound)
        orc.forward_oracle(m, geom, seed=seed, budget=200)
    best = (math.inf, math.inf)
    if winner.found:
        best = (winner.length, [f.tag for f in catalog.families].index(winner.family))
    pruned = [(search, f, p) for search, f, p in rows if search.templates[f] not in kept]
    assert pruned  # no single arc reaches a generic target, nor all of L(2)'s families
    for search, family, params in pruned:
        if search.refine(m, params, family, geom)[1] <= orc.TOL_RESIDUAL:
            position = search.positions[family]
            length = orc._finish_lengths(search.template, params[None], catalog.weights[[position], 0])
            assert (length[0], position) > best, search.templates[family].tag


@pytest.mark.parametrize("r", REPLAY_RADII)
def test_descent_has_the_bits_of_the_reference(r):
    # seeded batches of every free and pinned-middle shape (lo == hi on a
    # pinned pi), on seeded and structured targets: the sweep gives the bits
    # of the reference (`descent_reference`), on rows stopped by each rule
    geom, searches, _ = _audit_searches(r)
    rng = np.random.default_rng(round(r * 1000))
    targets = [orc.random_rotation(rng) for _ in range(2)]
    targets += [geo.compose_path(path, geom) for path in REPLAY_PATHS]
    stops, pinned = Counter(), False
    for m in targets:
        for search in searches:
            if search.template.equal_middles:
                continue
            pinned |= search.template.pinned
            families = len(search.templates)
            params = np.concatenate([search.sample(rng, 6, f) for f in range(families)])
            owner = np.repeat(np.arange(families), 6)
            got = search.descend(m, params, owner)
            expected = descent_reference.descend(search, m, params, owner, stops)
            assert got.tobytes() == expected.tobytes(), search.template.tag
    assert set(stops) == {"gain", "residual", "sweeps"}
    assert pinned == (r >= 0.71)


# SHA-256 of the 64 reprs, recorded before the oracle ruled out families
# whose chain invariant misses the target
REPLAY_SHA256 = "faa32699f10605b2a0581008ba4aa3c94b7be19586d6c0e937ecc2e699493c19"


def test_oracle_replay_hash():
    # every bit of 64 budget-2000 results, seeded and structured, at 8 radii
    digest = hashlib.sha256()
    for i, r in enumerate(REPLAY_RADII):
        geom = geo.TurnGeometry.from_radius(r)
        targets = [orc.random_rotation(np.random.default_rng(900 + 3 * i + k)) for k in range(3)]
        targets += [geo.compose_path(path, geom) for path in REPLAY_PATHS]
        for k, m in enumerate(targets):
            digest.update(repr(orc.forward_oracle(m, geom, seed=i + k, budget=2000)).encode())
    assert digest.hexdigest() == REPLAY_SHA256


def _cos_sin_of_half(arcs):
    return np.cos(0.5 * arcs), np.sin(0.5 * arcs)


@pytest.mark.parametrize("r", REPLAY_RADII)
def test_tangent_trig_chooses_the_restarts_of_cos_and_sin(r):
    # 20 seeded batches of 4 000 samples per family: the tangent trig ranks
    # as np.cos and np.sin of the half angles do, within 16 u of their
    # quaternions (10 u, 1.11e-15, measured), so it chooses the same restarts
    _, searches, families = _audit_searches(r)
    worst = 0.0
    for seed in range(20):
        davenport = orc._davenport(orc.random_rotation(np.random.default_rng(seed)))
        for search in searches:
            for family, template in enumerate(search.templates):
                rng = np.random.default_rng(seed + families.index(template))
                params = search.sample(rng, 4000, family)
                got = search.compose_batch(params, family)
                expected = _quaternion_rows(search, params, family, _cos_sin_of_half)
                worst = max(worst, float(np.max(np.abs(got - expected))))
                ranked = orc._top_restarts(got, davenport)
                assert np.array_equal(ranked, orc._top_restarts(expected, davenport)), template.tag
    assert worst <= 16 * 2.0**-53


def test_half_angle_trig_at_the_box_ends():
    # arcs 0, pi and 2 pi (the box top: tan(pi/2) in float, ~1.6e16) without overflow
    arcs = np.array([0.0, math.pi, 2.0 * math.pi, 1e-300])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cos, sin = orc._half_angle_trig(arcs.copy())
    assert cos.tolist()[0::2] == [1.0, -1.0] and sin.tolist()[0] == 0.0
    assert np.max(np.abs(cos - np.cos(0.5 * arcs))) <= 2.0**-52
    assert np.max(np.abs(sin - np.sin(0.5 * arcs))) <= 2.0**-52


def _uniform_rows(search, rng, n, family):
    """A family's samples drawn entry by entry with `rng.uniform`."""
    lows, highs = search.templates[family].box
    if not search.template.equal_middles:
        return rng.uniform(lows, highs, size=(n, len(lows)))
    params = np.zeros((n, 3))
    params[:, 1] = rng.uniform(lows[1], highs[1], size=n)
    cap = search.template.outer_cap(search.template.angles(params).T)
    params[:, 0] = rng.uniform(lows[0], cap)
    params[:, 2] = rng.uniform(lows[2], cap)
    return params


def test_sample_draws_the_bits_of_rng_uniform():
    # free, pinned and equal-middle families over 50 seeds: the same rows
    # and the same draws taken from the stream
    kinds = set()
    for r in (0.3, 0.71, math.sqrt(3.0) / 2.0):
        for search in _audit_searches(r)[1]:
            kinds.add((search.template.pinned, search.template.equal_middles))
            for family in range(len(search.templates)):
                for seed in range(50):
                    n = (1, 7, 4000)[seed % 3]
                    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = search.sample(rng, n, family)
                    assert got.tobytes() == _uniform_rows(search, reference, n, family).tobytes()
                    assert rng.random() == reference.random()
    assert kinds == {(False, False), (True, False), (False, True)}


# the published RLRL and in-box LRLR, RLRL and LRLRL paths at three radii:
# REPLAY_PATHS holds no 4- or 5-chain path, and equal-middle families win here
EQUAL_MIDDLE_RADII = [0.55, 0.8, math.sqrt(3.0) / 2.0]
EQUAL_MIDDLE_PARAMS = [(0.35, 0.4, 0.35), (0.2, 0.1, 0.5)]

# SHA-256 of the 38 reprs, recorded before the oracle bounded each
# equal-middle family's least length through its chain invariant
EQUAL_MIDDLE_SHA256 = "ea417d7fcf7ad4007795a4e4d985a91a7d6b9f05b8575c05f7a16dea9d3663f4"


def _equal_middle_targets():
    """(r, target): the published RLRL, then per radius each of LRLR, RLRL
    and LRLRL at every EQUAL_MIDDLE_PARAMS row (outer arc, beta, outer arc)."""
    published = [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)]
    targets = [(0.55, geo.compose_path(published, geo.TurnGeometry(0.55)))]
    for r in EQUAL_MIDDLE_RADII:
        for tag in ("LRLR", "RLRL", "LRLRL"):
            template = next(f for f in pl.family_catalog(r, mode="all") if f.tag == tag)
            for params in EQUAL_MIDDLE_PARAMS:
                angles = template.angles(np.array([params]))[0]
                segments = [geo.Segment(k, a) for k, a in zip(template.kinds, angles)]
                targets.append((r, geo.compose_path(segments, geo.TurnGeometry(r))))
    return targets


def test_equal_middle_winners_are_bit_pinned():
    # every bit of 38 results at budgets 2 000 and 100 000
    digest, winners = hashlib.sha256(), set()
    for budget in (2000, 100_000):
        for k, (r, m) in enumerate(_equal_middle_targets()):
            found = orc.forward_oracle(m, geo.TurnGeometry.from_radius(r), seed=k, budget=budget)
            digest.update(repr(found).encode())
            winners.add(found.family)
    assert {"LRLR", "RLRL"} <= winners
    assert digest.hexdigest() == EQUAL_MIDDLE_SHA256

import math

import numpy as np

from conftest import request_from_rotation
from sphere_dubins import geometry as geo
from sphere_dubins import oracle as orc
from sphere_dubins import planner as pl


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

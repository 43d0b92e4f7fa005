import math
import re

import numpy as np
import pytest

from conftest import random_configuration, random_unit
from sphere_dubins import geometry as geo
from sphere_dubins import linkage as lk
from sphere_dubins.errors import InvalidInput, MalformedConfiguration
from sphere_dubins.lemmas import triple_turn_pi_entries

GEOM = geo.TurnGeometry.from_radius(0.5)


def test_rotation_zero_angle_is_identity():
    axis = np.array([0.3, -0.4, math.sqrt(0.75)])
    assert np.allclose(geo.rotation_about_axis(axis, 0.0), np.eye(3), atol=0.0)


def test_rotation_elementary_quarter_turn():
    r = geo.rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_full_turn_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        axis = random_unit(rng)
        assert np.max(np.abs(geo.rotation_about_axis(axis, 2 * math.pi) - np.eye(3))) <= 1e-12


def test_rotations_about_axis_matches_scalar_rotation():
    # one axis for every angle, one axis per angle, and (slots, 3) axes against (n, slots) angles
    rng = np.random.default_rng(4)
    axes = rng.standard_normal((6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-7.0, 7.0, size=(5, 6))
    one = geo.rotations_about_axis(axes[0], angles[0])
    per_row = geo.rotations_about_axis(axes, angles[0])
    grid = geo.rotations_about_axis(axes, angles)
    assert grid.shape == (5, 6, 3, 3)
    for j in range(6):
        assert np.array_equal(one[j], geo.rotation_about_axis(axes[0], angles[0, j]))
        assert np.max(np.abs(per_row[j] - geo.rotation_about_axis(axes[j], angles[0, j]))) <= 1e-15
        for i in range(5):
            expected = geo.rotation_about_axis(axes[j], angles[i, j])
            assert np.max(np.abs(grid[i, j] - expected)) <= 1e-15


def test_rotation_rejects_non_unit_axis():
    with pytest.raises(InvalidInput):
        geo.rotation_about_axis(np.array([1.0, 1.0, 0.0]), 0.5)


def test_rotation_rejects_nan_axis():
    with pytest.raises(InvalidInput):
        geo.rotation_about_axis(np.array([math.nan, 0.0, 1.0]), 0.5)


def test_turn_axes():
    g = geo.TurnGeometry.from_radius(0.6)
    assert np.allclose(geo.turn_axis("G", g), [0.0, 0.0, 1.0])
    assert np.allclose(geo.turn_axis("L", g), [0.8, 0.0, 0.6])
    assert np.allclose(geo.turn_axis("R", g), [-0.8, 0.0, 0.6])


def test_turn_geometry_consistency():
    """u_max follows from r, the one field; a radius outside (0, 1), NaN
    included, is rejected."""
    g = geo.TurnGeometry.from_radius(0.71)
    assert abs(g.r - 1.0 / math.sqrt(1.0 + g.u_max**2)) <= 1e-12
    assert g == geo.TurnGeometry(0.71)
    for r in (float("nan"), 0.0, 1.0, -0.5, float("inf")):
        with pytest.raises(InvalidInput):
            geo.TurnGeometry(r)


@pytest.mark.parametrize(
    "position, tangent",
    [([math.nan, 0.0, 0.0], [0.0, 1.0, 0.0]), ([1.0, 0.0, 0.0], [0.0, math.nan, 0.0])],
)
def test_configuration_rejects_nan(position, tangent):
    with pytest.raises(MalformedConfiguration):
        geo.Configuration(position=position, tangent=tangent)


def test_configuration_from_frame_rejects_nan():
    with pytest.raises(MalformedConfiguration):
        geo.Configuration.from_frame(np.full((3, 3), math.nan))


@pytest.mark.parametrize("position, tangent, message", [
    ([1.0, 0.0], [0.0, 1.0, 0.0], "position and tangent must be 3-vectors"),
    ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0], "tangent must be orthogonal to position"),
], ids=["two-vector", "not-orthogonal"])
def test_configuration_rejects_bad_vectors(position, tangent, message):
    with pytest.raises(MalformedConfiguration, match=f"^{message}$"):
        geo.Configuration(position=position, tangent=tangent)


@pytest.mark.parametrize("frame, message", [
    (np.eye(2), "frame must be a 3x3 matrix"),
    (np.diag([1.0, 1.0, -1.0]), "frame must be proper"),
], ids=["2x2", "improper"])
def test_configuration_from_frame_rejects_bad_frames(frame, message):
    with pytest.raises(MalformedConfiguration, match=f"^{re.escape(message)}"):
        geo.Configuration.from_frame(frame)


def test_skew_of_a_stack_matches_the_component_matrices():
    # one skew construction: a (K, n, 3) stack equals the matrices built from
    # components, and the rotations keep the bits of Rodrigues on those
    rng = np.random.default_rng(17)
    v = rng.standard_normal((4, 5, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    for slot, kind in enumerate("GLR"):
        v[0, slot] = geo.turn_axis(kind, geo.TurnGeometry(0.6))
    x, y, z = np.moveaxis(v, -1, 0)
    zero = np.zeros_like(x)
    rows = ([zero, -z, y], [z, zero, -x], [-y, x, zero])
    built = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    k = geo.skew(v)
    assert k.shape == (4, 5, 3, 3)
    assert np.array_equal(k, built)
    assert all(np.array_equal(geo.skew(one), m) for one, m in zip(v[1], built[1]))
    angles = rng.uniform(0.0, 2.0 * math.pi, (4, 5))
    s, c = np.sin(angles)[..., None, None], (1.0 - np.cos(angles))[..., None, None]
    rodrigues = np.eye(3) + s * built + c * (built @ built)
    assert geo.rotations_about_axis(v, angles).tobytes() == rodrigues.tobytes()


def test_segment_generators_are_skew_with_matching_axis():
    g = geo.TurnGeometry.from_radius(0.71)
    for kind in ("L", "R", "G"):
        gen = geo.skew(geo.turn_axis(kind, g))
        assert np.max(np.abs(gen + gen.T)) == 0.0
        axis = geo.turn_axis(kind, g)
        recovered = np.array([gen[2, 1], gen[0, 2], gen[1, 0]])
        assert np.max(np.abs(recovered - axis)) <= 1e-15
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-12


def test_great_circle_x_column():
    r = geo.segment_rotation("G", math.pi / 2, GEOM)
    assert np.allclose(r[:, 0], [0.0, 1.0, 0.0], atol=1e-15)


def test_full_turn_segment_rotation_identity():
    r = geo.segment_rotation("L", 2 * math.pi, GEOM)
    assert np.max(np.abs(r - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("r,beta", [(0.3, 0.7), (0.5, 1.9), (0.62, 0.25), (0.71, 2.8)])
def test_pi_sandwich_center_entry_is_minus_cos_beta(r, beta):
    g = geo.TurnGeometry.from_radius(r)
    m = geo.compose_path([geo.L(math.pi), geo.R(math.pi + beta), geo.L(math.pi)], g)
    assert abs(m[1, 1] + math.cos(beta)) <= 1e-12


def test_compose_empty_is_identity():
    assert np.array_equal(geo.compose_path([], GEOM), np.eye(3))


def test_one_parameter_subgroup():
    a = geo.segment_rotation("L", 0.7, GEOM) @ geo.segment_rotation("L", 1.1, GEOM)
    b = geo.segment_rotation("L", 1.8, GEOM)
    assert np.max(np.abs(a - b)) <= 1e-13


def test_pi_sandwich_matches_closed_form_entries():
    # frozen from the entrywise closed form at (r, beta) = (0.6, 0.8)
    expected = np.array(
        [
            [-0.4864779612322142, -0.6714453010819533, -0.5590173529420293],
            [0.6714453010819533, -0.6967067093471654, 0.252509343996632],
            [-0.5590173529420293, -0.252509343996632, 0.7897712518850489],
        ]
    )
    g = geo.TurnGeometry.from_radius(0.6)
    product = geo.compose_path([geo.L(math.pi), geo.R(math.pi + 0.8), geo.L(math.pi)], g)
    assert np.max(np.abs(product - expected)) <= 1e-10
    assert np.max(np.abs(triple_turn_pi_entries(0.6, 0.8) - expected)) <= 1e-15


def test_relative_rotation_identity_and_definition():
    cfg = geo.Configuration.canonical()
    assert np.allclose(geo.relative_rotation(cfg, cfg), np.eye(3), atol=0.0)
    g = GEOM
    target = geo.segment_rotation("G", math.pi / 2, g)
    reached = geo.Configuration.from_frame(cfg.frame() @ target)
    assert np.max(np.abs(geo.relative_rotation(cfg, reached) - target)) <= 1e-14


def test_relative_rotation_is_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_configuration(rng)
        b = random_configuration(rng)
        m = geo.relative_rotation(a, b)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-10
        assert np.linalg.det(m) > 0.0


def test_segment_angle_canonicalization():
    assert geo.Segment("L", 5e-11).angle == 0.0
    assert geo.Segment("L", 2 * math.pi - 5e-11).angle == 0.0
    assert geo.Segment("L", -0.5).angle == pytest.approx(2 * math.pi - 0.5)


def test_sample_path_single_great_arc():
    start = geo.Configuration.canonical()
    samples = geo.sample_path(start, [geo.G(math.pi)], GEOM, math.pi / 2)
    assert len(samples) == 3
    mid = samples[1].configuration
    rotated = geo.rotation_about_axis(start.normal, math.pi / 2) @ start.position
    assert np.max(np.abs(mid.position - rotated)) <= 1e-12


def test_sample_path_empty():
    start = geo.Configuration.canonical()
    samples = geo.sample_path(start, [], GEOM, 0.5)
    assert len(samples) == 1
    assert samples[0].s == 0.0
    assert samples[0].segment_index == -1
    assert samples[0].configuration is start


def test_sample_path_of_length_zero_needs_no_step():
    # `plan --samples` divides a length-0 path by count - 1: step 0
    start = geo.Configuration.canonical()
    assert geo.sample_path(start, [], GEOM, 0.0) == [geo.PathSample(0.0, start, -1)]


def test_sample_path_merges_samples_within_rounding():
    # the step's first multiple lands 5e-13 past the boundary at 0.5: one sample
    start = geo.Configuration.canonical()
    samples = geo.sample_path(start, [geo.G(0.5), geo.G(0.5)], GEOM, 0.5 + 5e-13)
    assert [(s.s, s.segment_index) for s in samples] == [(0.0, 0), (0.5, 1), (1.0, 1)]


@pytest.mark.parametrize("step", [math.nan, math.inf])
def test_sample_path_rejects_bad_step(step):
    start = geo.Configuration.canonical()
    with pytest.raises(InvalidInput):
        geo.sample_path(start, [geo.G(1.0)], GEOM, step)


def test_sample_path_end_frame_matches_compose():
    g = geo.TurnGeometry.from_radius(0.71)
    segs = [geo.R(0.7), geo.L(math.pi), geo.R(0.7)]
    start = geo.Configuration.canonical()
    samples = geo.sample_path(start, segs, g, 0.05)
    end = samples[-1].configuration.frame()
    expected = start.frame() @ geo.compose_path(segs, g)
    assert np.max(np.abs(end - expected)) <= 1e-9


def test_path_length_arithmetic_and_scaling():
    segs = [geo.G(math.pi / 2), geo.L(math.pi)]
    assert geo.path_length(segs, GEOM) == pytest.approx(math.pi, abs=1e-15)
    assert geo.path_length(segs, GEOM, sphere_radius=2.0) == pytest.approx(2 * math.pi, abs=1e-14)


def test_path_length_rejects_nan_sphere_radius():
    with pytest.raises(InvalidInput):
        geo.path_length([geo.G(1.0)], GEOM, sphere_radius=math.nan)


def test_path_length_rejects_infinite_sphere_radius():
    with pytest.raises(InvalidInput):
        geo.path_length([geo.G(1.0)], GEOM, sphere_radius=math.inf)


def test_path_length_adds_left_to_right():
    """Arc lengths whose compensated sum (`math.fsum`, and the builtin `sum`
    from Python 3.12 on) differs in the last bit from the left-to-right one:
    `path_length` and `sample_path` give the left-to-right bits on every
    interpreter."""
    arcs = (2.55, 1.491, 3.732)
    left_to_right = 7.773000000000001
    assert math.fsum(arcs) == 7.773 != left_to_right
    segs = [geo.G(a) for a in arcs]
    assert geo.path_length(segs, GEOM) == left_to_right
    assert geo.path_length(segs, GEOM, sphere_radius=3.0) == 3.0 * left_to_right
    samples = geo.sample_path(geo.Configuration.canonical(), segs, GEOM, 1.0)
    assert samples[-1].s == left_to_right


def test_path_length_matches_published_example():
    g = geo.TurnGeometry.from_radius(0.71)
    segs = [geo.R(0.7), geo.L(math.pi), geo.R(0.7)]
    assert abs(geo.path_length(segs, g) - 3.2245) <= 5e-4


def _align_one(axis, v, w):
    """`align_angles` on one row: the angle, None if there is none."""
    (angle,) = geo.align_angles(axis, v[None], w[None])
    return angle


def test_align_angle_basics():
    z = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    assert _align_one(z, v, v) == 0.0
    angle = _align_one(z, v, np.array([0.0, 1.0, 0.0]))
    assert angle is not None
    assert angle == pytest.approx(math.pi / 2)


def test_align_angle_errors():
    z = np.array([0.0, 0.0, 1.0])
    # a probe parallel to the axis has no angle
    assert _align_one(z, z, z) is None


@pytest.mark.parametrize("r", [1e-300, 1e-8, 0.3, 0.5, 1 / math.sqrt(2), math.sqrt(3) / 2, 1 - 1e-16])
def test_every_turn_axis_is_orthogonal_to_the_tangent(r):
    """Every axis lies in the x-z plane, so the tangent e_y is orthogonal to
    each: the linkage solver aligns e_y for every single arc."""
    for kind in "GLR":
        axis = geo.turn_axis(kind, geo.TurnGeometry(r))
        assert axis[1] == 0.0 and float(np.array([0.0, 1.0, 0.0]) @ axis) == 0.0


def test_align_angles_are_canonical():
    """Every angle lies in [0, 2 pi), an angle within ANGLE_EPS of 0 or of a
    full turn is exactly 0.0, and a NaN row raises InvalidInput."""
    rng = np.random.default_rng(19)
    tiny = geo.ANGLE_EPS * np.array([0.0, 1e-6, 0.3, 0.9])
    turns = np.concatenate([
        rng.uniform(0.0, 2 * math.pi, 200), tiny, 2 * math.pi - tiny, -tiny,
        [math.pi, 2 * math.pi],
    ])
    axes = np.array([random_unit(rng) for _ in turns])
    v = np.array([random_unit(rng) for _ in turns])
    w = np.array([geo.rotation_about_axis(a, t) @ x for a, t, x in zip(axes, turns, v)])
    angles = geo.align_angles(axes, v, w)
    assert None not in angles
    assert all(0.0 <= a < 2 * math.pi for a in angles)
    for turn, angle in zip(turns, angles):
        if min(abs(turn), abs(2 * math.pi - turn)) < 0.5 * geo.ANGLE_EPS:
            assert angle == 0.0 and math.copysign(1.0, angle) == 1.0
    assert angles == [geo.canonical_angle(a) for a in angles]
    nan_row = np.full((1, 3), math.nan)
    with pytest.raises(InvalidInput, match="angle must be finite, got nan"):
        geo.align_angles(axes[:1], v[:1], nan_row)
    # the solvers reject a NaN target before they align anything
    for pattern in ("L", "LR", "LRL"):
        with pytest.raises(InvalidInput, match="target must be finite"):
            lk.solve_chain(lk.FamilyTemplate.of(pattern), np.full((3, 3), math.nan), GEOM)


def test_canonical_angles_match_canonical_angle_bit_for_bit():
    rng = np.random.default_rng(5)
    eps, two_pi = geo.ANGLE_EPS, 2.0 * math.pi
    edges = [0.0, -0.0, eps, 0.5 * eps, -0.5 * eps, two_pi, two_pi - eps, two_pi - 0.5 * eps,
             two_pi + 0.5 * eps, -two_pi, math.pi, -math.pi, 1e300, -1e-300]
    angles = np.concatenate([edges, rng.uniform(-40.0, 40.0, 500)]).reshape(2, -1)
    expected = np.array([[geo.canonical_angle(a) for a in row] for row in angles.tolist()])
    assert geo.canonical_angles(angles).tobytes() == expected.tobytes()
    assert math.isnan(geo.canonical_angles(np.array([math.nan]))[0])


def test_align_angle_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        axis = random_unit(rng)
        v = random_unit(rng)
        if np.linalg.norm(v - (v @ axis) * axis) < 1e-3:
            continue
        angle = rng.uniform(0.0, 2 * math.pi)
        w = geo.rotation_about_axis(axis, angle) @ v
        recovered = _align_one(axis, v, w)
        assert recovered is not None
        assert np.max(np.abs(geo.rotation_about_axis(axis, recovered) @ v - w)) <= 1e-7


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

def test_segment_rotations_orthonormal_10k():
    rng = np.random.default_rng(2024)
    kinds = rng.integers(0, 3, size=10_000)
    angles = rng.uniform(0.0, 2 * math.pi, size=10_000)
    radii = rng.uniform(0.05, 0.85, size=10_000)
    for kind_idx, angle, r in zip(kinds, angles, radii):
        kind = "LRG"[kind_idx]
        g = geo.TurnGeometry.from_radius(float(r))
        rot = geo.segment_rotation(kind, float(angle), g)
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-12


def test_subgroup_property_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        r = float(rng.uniform(0.05, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        kind = "LRG"[int(rng.integers(0, 3))]
        p1, p2 = rng.uniform(0.0, 2 * math.pi, size=2)
        lhs = geo.segment_rotation(kind, p1, g) @ geo.segment_rotation(kind, p2, g)
        rhs = geo.segment_rotation(kind, (p1 + p2) % (2 * math.pi), g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_axis_fixed_point_random():
    rng = np.random.default_rng(4)
    for _ in range(500):
        r = float(rng.uniform(0.05, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        kind = "LRG"[int(rng.integers(0, 3))]
        angle = float(rng.uniform(0.0, 2 * math.pi))
        axis = geo.turn_axis(kind, g)
        assert np.max(np.abs(geo.segment_rotation(kind, angle, g) @ axis - axis)) <= 1e-12


def test_forward_sampling_consistency_random():
    rng = np.random.default_rng(5)
    kinds_pool = ["L", "R", "G"]
    for _ in range(50):
        r = float(rng.uniform(0.2, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        n = int(rng.integers(1, 6))
        segs = []
        prev = None
        for _ in range(n):
            choices = [k for k in kinds_pool if k != prev]
            kind = choices[int(rng.integers(0, len(choices)))]
            segs.append(geo.Segment(kind, float(rng.uniform(0.1, 2 * math.pi - 0.1))))
            prev = kind
        start = random_configuration(rng)
        samples = geo.sample_path(start, segs, g, 0.3)
        end = samples[-1].configuration.frame()
        expected = start.frame() @ geo.compose_path(segs, g)
        assert np.max(np.abs(end - expected)) <= 1e-9


@pytest.mark.parametrize(
    "kind,r,angle",
    [("G", 0.5, 2.0), ("L", 0.5, 2.4), ("R", 0.71, 1.3), ("L", 0.3, 5.9)],
)
def test_rk4_frame_integration_matches_rodrigues(kind, r, angle):
    # independent oracle: integrate R' = R Omega(u) with classical RK4
    g = geo.TurnGeometry.from_radius(r)
    u = {"G": 0.0, "L": g.u_max, "R": -g.u_max}[kind]
    omega = geo.frame_generator(u)
    arc = angle if kind == "G" else r * angle
    h = 1e-4
    n = int(round(arc / h))
    h = arc / n
    k = h * omega
    one_step = (
        np.eye(3) + k + (k @ k) / 2.0 + (k @ k @ k) / 6.0 + (k @ k @ k @ k) / 24.0
    )
    integrated = np.linalg.matrix_power(one_step, n)
    assert np.max(np.abs(integrated - geo.segment_rotation(kind, angle, g))) <= 1e-6

"""Sabban-frame geometry for curvature-constrained paths on the unit sphere.

A vehicle state is the rotation matrix ``[X T N]`` whose columns are the
position on the unit sphere, the unit tangent, and the frame normal
``N = X x T``.  Moving along a segment of constant geodesic curvature
right-multiplies the frame by a fixed-axis rotation, so whole paths are
products of Rodrigues rotations and never need numerical integration.

Segment alphabet:

* ``G`` -- great-circle arc (zero geodesic curvature), axis ``(0, 0, 1)``.
* ``L`` / ``R`` -- tight turns of unit-sphere radius ``r``, axes
  ``(+/-sqrt(1 - r^2), 0, r)``.

Arc *angles* are measured about the segment axis; the corresponding arc
*length* is the angle for ``G`` segments and ``r`` times the angle for turns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, MalformedConfiguration

TWO_PI = 2.0 * math.pi

# Angle resolution: angles closer than this are one angle.  It snaps an absent
# segment to exactly zero, merges roots, is the slack on a family-box bound,
# and beta's margin from its excluded ends in the oracle's polish.
ANGLE_EPS = 1e-9
# Off-axis length below which a vector has no turn angle (`align_angles`),
# so the outer rotations of a chain merge into one.
PERP_EPS = 1e-7
# A Configuration's position and tangent are unit within CONFIG_UNIT_TOL and
# orthogonal within CONFIG_ORTHO_TOL.
CONFIG_UNIT_TOL = 1e-12
CONFIG_ORTHO_TOL = 1e-10

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])
_EYE = np.eye(3)


class SegmentKind(str, Enum):
    """Segment alphabet: left turn, right turn, great-circle arc."""

    L = "L"
    R = "R"
    G = "G"

    @property
    def is_turn(self) -> bool:
        return self is not SegmentKind.G


def canonical_angle(angle: float) -> float:
    """Reduce an angle to [0, 2*pi), snapping near-zero values to exactly 0."""
    if not math.isfinite(angle):
        raise InvalidInput(f"angle must be finite, got {angle!r}")
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a < ANGLE_EPS or TWO_PI - a < ANGLE_EPS:
        return 0.0
    return a


def canonical_angles(angles: np.ndarray) -> np.ndarray:
    """`canonical_angle` of every entry of a float array, bit for bit (np.fmod
    is math.fmod, exact); a NaN entry stays NaN instead of raising."""
    a = np.fmod(angles, TWO_PI)
    a = np.where(a < 0.0, a + TWO_PI, a)
    return np.where((a < ANGLE_EPS) | (TWO_PI - a < ANGLE_EPS), 0.0, a)


@dataclass(frozen=True)
class Segment:
    """A typed arc with its arc angle in [0, 2*pi)."""

    kind: SegmentKind
    angle: float

    def __post_init__(self) -> None:
        if type(self.kind) is not SegmentKind:
            object.__setattr__(self, "kind", SegmentKind(self.kind))
        object.__setattr__(self, "angle", canonical_angle(float(self.angle)))

    def arc_length(self, geom: "TurnGeometry") -> float:
        return self.angle if self.kind is SegmentKind.G else geom.r * self.angle


def L(angle: float) -> Segment:
    return Segment(SegmentKind.L, angle)


def R(angle: float) -> Segment:
    return Segment(SegmentKind.R, angle)


def G(angle: float) -> Segment:
    return Segment(SegmentKind.G, angle)


@dataclass(frozen=True)
class TurnGeometry:
    """Turning radius r on the unit sphere; the curvature bound u_max follows
    from it (``r = 1 / sqrt(1 + u_max^2)``)."""

    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise InvalidInput(f"turning radius must be in (0, 1), got {self.r}")

    @property
    def u_max(self) -> float:
        return math.sqrt(1.0 - self.r * self.r) / self.r

    @classmethod
    def from_radius(cls, r: float) -> "TurnGeometry":
        return cls(r=r)


def turn_axis(kind: SegmentKind | str, geom: TurnGeometry) -> np.ndarray:
    """Unit rotation axis of a segment kind for the given turn geometry."""
    kind = SegmentKind(kind)
    if kind is SegmentKind.G:
        return _EZ.copy()
    s = math.sqrt(1.0 - geom.r**2)
    if kind is SegmentKind.L:
        return np.array([s, 0.0, geom.r])
    return np.array([-s, 0.0, geom.r])


_SKEW_ROWS = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices (..., 3, 3), ``skew(v) @ w == cross(v, w)``, of
    one vector (3,) or a stack (..., 3): v @ _SKEW_ROWS, each entry of it one
    signed component of v, so the product is exact."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_ROWS).reshape(v.shape[:-1] + (3, 3))


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, same bits, without its per-call overhead;
    (3, K) operands give the K cross products of their columns."""
    ux, uy, uz = u
    vx, vy, vz = v
    return np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


def frame_generator(u_g: float) -> np.ndarray:
    """Frame velocity matrix: the moving frame obeys R'(s) = R(s) @ frame_generator(u_g)."""
    return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -u_g], [0.0, u_g, 0.0]])


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Proper rotation by `angle` about a unit `axis` (Rodrigues formula)."""
    if not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:
        raise InvalidInput(f"rotation axis must be unit, got norm {np.linalg.norm(axis)}")
    return rotations_about_axis(axis, angle)


def rotations_about_axis(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Vectorized Rodrigues: rotations (..., 3, 3) by `angles` (...) about
    unit axes (..., 3), broadcast against each other; one axis (3,) serves
    every angle."""
    angles = np.asarray(angles, dtype=float)
    k = skew(axis)
    return rotations_from_generators(k, k @ k, angles)


def rotations_from_generators(k: np.ndarray, k2: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues, I + sin K + (1 - cos) K^2, by the float array `angles` (...)
    from generators K = skew(axis) (..., 3, 3) and K @ K, which callers with
    fixed axes build once."""
    s = np.sin(angles)[..., None, None]
    c = (1.0 - np.cos(angles))[..., None, None]
    return _EYE + s * k + c * k2


def segment_rotation(kind: SegmentKind | str, angle: float, geom: TurnGeometry) -> np.ndarray:
    """Net rotation of one segment, as a function of its arc angle."""
    return rotation_about_axis(turn_axis(kind, geom), angle)


def compose_path(segments: Iterable[Segment], geom: TurnGeometry) -> np.ndarray:
    """Product of segment rotations in traversal order (identity if empty): one
    stacked Rodrigues call, multiplied left to right; a zero arc's is exactly I."""
    segments = tuple(segments)
    angles = [seg.angle for seg in segments]
    axes = np.array([turn_axis(seg.kind, geom) for seg in segments]).reshape(-1, 3)
    return reduce(np.matmul, rotations_about_axis(axes, angles), np.eye(3))


def path_length(
    segments: Iterable[Segment], geom: TurnGeometry, sphere_radius: float = 1.0
) -> float:
    """Arc length of a path, scaled to a sphere of the given radius.  The
    arcs are added left to right, as the planner's column adds do, on every
    interpreter (the builtin `sum` is compensated from Python 3.12 on)."""
    if not (sphere_radius > 0.0):
        raise InvalidInput(f"sphere radius must be positive, got {sphere_radius}")
    total = 0.0
    for seg in segments:
        total += seg.arc_length(geom)
    return sphere_radius * total


@dataclass(frozen=True)
class Configuration:
    """A point on the unit sphere plus its unit tangent direction.

    The frame normal is always derived as ``position x tangent`` so the
    orthonormality of the full frame holds by construction.
    """

    position: np.ndarray
    tangent: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.position, dtype=float)
        tan = np.array(self.tangent, dtype=float)
        if pos.shape != (3,) or tan.shape != (3,):
            raise MalformedConfiguration("position and tangent must be 3-vectors")
        unit = (
            abs(np.linalg.norm(pos) - 1.0) <= CONFIG_UNIT_TOL
            and abs(np.linalg.norm(tan) - 1.0) <= CONFIG_UNIT_TOL
        )
        if not unit:
            raise MalformedConfiguration("position and tangent must be unit vectors")
        if not abs(float(pos @ tan)) <= CONFIG_ORTHO_TOL:
            raise MalformedConfiguration("tangent must be orthogonal to position")
        pos.setflags(write=False)
        tan.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "tangent", tan)

    @property
    def normal(self) -> np.ndarray:
        return cross(self.position, self.tangent)

    def frame(self) -> np.ndarray:
        """3x3 frame with columns (position, tangent, normal)."""
        return np.column_stack([self.position, self.tangent, self.normal])

    @classmethod
    def from_frame(cls, frame: np.ndarray) -> "Configuration":
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (3, 3):
            raise MalformedConfiguration("frame must be a 3x3 matrix")
        if not np.max(np.abs(frame.T @ frame - np.eye(3))) <= 1e-10:
            raise MalformedConfiguration("frame must be orthonormal")
        if np.linalg.det(frame) < 0.0:
            raise MalformedConfiguration("frame must be proper (det = +1)")
        return cls(position=frame[:, 0], tangent=frame[:, 1])

    @classmethod
    def canonical(cls) -> "Configuration":
        return cls(position=_EX, tangent=_EY)


def relative_rotation(initial: Configuration, final: Configuration) -> np.ndarray:
    """Rotation M with ``initial_frame @ M == final_frame``."""
    return initial.frame().T @ final.frame()


class PathSample(NamedTuple):
    s: float
    configuration: Configuration
    segment_index: int


def sample_path(
    start: Configuration,
    segments: Sequence[Segment],
    geom: TurnGeometry,
    step: float,
) -> list[PathSample]:
    """Closed-form samples of a path at arc-length increments.

    Samples sit at multiples of `step` plus every segment boundary (and the
    path end).  A sample exactly on a boundary is reported with the index of
    the segment that starts there, except the final sample which belongs to
    the last segment.  A path of length 0 yields the single sample
    (0, start, -1), whatever the step.
    """
    bounds = np.concatenate([[0.0], np.cumsum([seg.arc_length(geom) for seg in segments])])
    total = float(bounds[-1])
    if total == 0.0:
        return [PathSample(0.0, start, -1)]
    if not (0.0 < step < math.inf):
        raise InvalidInput(f"step must be positive and finite, got {step}")

    s_values = {0.0, total}
    s_values.update(float(b) for b in bounds[1:-1])
    n_steps = int(total / step)
    s_values.update(k * step for k in range(1, n_steps + 1) if k * step < total)
    ordered = sorted(s_values)
    # merge values that collide within rounding
    merged: list[float] = []
    for s in ordered:
        if merged and s - merged[-1] <= 1e-12:
            continue
        merged.append(s)

    prefixes = [compose_path(segments[:k], geom) for k in range(len(segments))]
    inner = list(bounds[1:-1])
    start_frame = start.frame()

    samples: list[PathSample] = []
    for s in merged:
        k = bisect_right(inner, s + 1e-12)
        k = min(k, len(segments) - 1)
        ds = s - bounds[k]
        seg = segments[k]
        local = ds if seg.kind is SegmentKind.G else ds / geom.r
        frame = start_frame @ prefixes[k] @ segment_rotation(seg.kind, local, geom)
        samples.append(PathSample(s, Configuration.from_frame(frame), k))
    return samples


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of (K, 3) stacks; a (3,) operand serves
    every row.  Each is a 1x3 @ 3x1 product, so it has the bits of
    ``float(u[k] @ v[k])``."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each x[k] in a stack, with the bits of
    ``np.linalg.norm(x[k])`` (the square root of one dot product)."""
    flat = x.reshape(len(x), 1, math.prod(x.shape[1:]))  # -1 fails on an empty stack
    return np.sqrt((flat @ flat.transpose(0, 2, 1))[:, 0, 0])


def align_angles(axes: np.ndarray, v: np.ndarray, w: np.ndarray) -> list[float | None]:
    """Canonical angles (`canonical_angle`) about `axes` turning each row of
    `v` onto the same row of the (K, 3) stack `w` (`axes` or `v` may be one
    vector (3,) for every row); None where `v` lies within PERP_EPS of its
    axis.  Axial components are not compared: the caller's residual gate
    rejects a row where they differ.  A NaN row raises InvalidInput."""
    av = row_dots(axes, v)
    aw = row_dots(axes, w)
    v_perp = v - av[:, None] * axes
    w_perp = w - aw[:, None] * axes
    squares = row_dots(v_perp, v_perp).tolist()
    sines = row_dots(axes, cross(v_perp.T, w_perp.T).T).tolist()
    cosines = row_dots(v_perp, w_perp).tolist()
    return [
        None if math.sqrt(square) < PERP_EPS else canonical_angle(math.atan2(sine, cosine))
        for square, sine, cosine in zip(squares, sines, cosines)
    ]

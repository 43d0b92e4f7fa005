import numpy as np

from sphere_dubins import geometry as geo
from sphere_dubins.oracle import random_rotation  # noqa: F401  (re-exported for the tests)
from sphere_dubins.planner import PlanRequest, Pose


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_configuration(rng: np.random.Generator) -> geo.Configuration:
    x = random_unit(rng)
    t = rng.standard_normal(3)
    t -= (t @ x) * x
    t /= np.linalg.norm(t)
    return geo.Configuration(position=x, tangent=t)


def request_from_segments(
    segments, unit_r: float, sphere_radius: float = 1.0
) -> PlanRequest:
    """Forward-compose a unit-sphere path into a physical plan request."""
    geom = geo.TurnGeometry.from_radius(unit_r)
    start = geo.Configuration.canonical()
    final_frame = start.frame() @ geo.compose_path(segments, geom)
    return PlanRequest(
        sphere_radius=sphere_radius,
        turning_radius=unit_r * sphere_radius,
        initial=Pose(start.position * sphere_radius, start.tangent),
        final=Pose(final_frame[:, 0] * sphere_radius, final_frame[:, 1]),
    )


def request_from_rotation(m, unit_r: float, sphere_radius: float = 1.0) -> PlanRequest:
    start = geo.Configuration.canonical()
    final_frame = start.frame() @ m
    return PlanRequest(
        sphere_radius=sphere_radius,
        turning_radius=unit_r * sphere_radius,
        initial=Pose(start.position * sphere_radius, start.tangent),
        final=Pose(final_frame[:, 0] * sphere_radius, final_frame[:, 1]),
    )


def random_in_bounds_path(template, rng: np.random.Generator) -> list[geo.Segment]:
    """Random arcs drawn from the family's whole box (`FamilyTemplate.box`),
    kept where `feasible` accepts them; an equal-middle beta stays 0.05 off
    its ends, where the interior arcs become full loops."""
    lows, highs = template.box
    if template.equal_middles:
        margin = np.array([0.0, 0.05, 0.0])
        lows, highs = lows + margin, highs - margin
    while True:
        angles = template.angles(rng.uniform(lows, highs)[None])[0]
        if template.feasible(angles):
            return [geo.Segment(k, a) for k, a in zip(template.kinds, angles)]

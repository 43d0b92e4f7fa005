"""Shortest curvature-constrained (Dubins) paths on a sphere.

The package plans minimum-length paths between full configurations
(position plus tangent frame) for a vehicle with bounded geodesic curvature
moving on a sphere, and ships a verification lab that numerically checks the
analytic facts the planner relies on.
"""

from .errors import (
    InvalidInitialState,
    InvalidInput,
    MalformedConfiguration,
    NoCandidateFound,
    OutOfDomain,
    OutOfRegime,
    RadiusOutOfRange,
    SphereDubinsError,
)
from .geometry import (
    Configuration,
    G,
    L,
    PathSample,
    R,
    Segment,
    SegmentKind,
    TurnGeometry,
    compose_path,
    path_length,
    relative_rotation,
    rotation_about_axis,
    sample_path,
    segment_rotation,
    turn_axis,
)
from .linkage import (
    CandidateSolution,
    FamilyTemplate,
    solve_chain,
    solve_equal_middle,
    solve_one,
    solve_three,
    solve_two,
)
from .planner import (
    PathCandidate,
    PlanRequest,
    PlanResult,
    Pose,
    family_catalog,
    plan,
    plan_batch,
)

__all__ = [
    "CandidateSolution",
    "Configuration",
    "FamilyTemplate",
    "G",
    "InvalidInitialState",
    "InvalidInput",
    "L",
    "MalformedConfiguration",
    "NoCandidateFound",
    "OutOfDomain",
    "OutOfRegime",
    "PathCandidate",
    "PathSample",
    "PlanRequest",
    "PlanResult",
    "Pose",
    "R",
    "RadiusOutOfRange",
    "Segment",
    "SegmentKind",
    "SphereDubinsError",
    "TurnGeometry",
    "compose_path",
    "family_catalog",
    "path_length",
    "plan",
    "plan_batch",
    "relative_rotation",
    "rotation_about_axis",
    "sample_path",
    "segment_rotation",
    "solve_chain",
    "solve_equal_middle",
    "solve_one",
    "solve_three",
    "solve_two",
    "turn_axis",
]

__version__ = "0.1.0"

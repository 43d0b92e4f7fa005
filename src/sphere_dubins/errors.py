"""Exception types shared across the package."""


class SphereDubinsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SphereDubinsError):
    """An argument violates a documented precondition."""


class MalformedConfiguration(InvalidInput):
    """A pose is not a valid point-plus-tangent on the sphere."""


class RadiusOutOfRange(SphereDubinsError):
    """Turning radius outside the range the candidate catalog covers."""


class NoCandidateFound(SphereDubinsError):
    """No candidate path survived solving and filtering (a heuristic radius or bad tolerances)."""


class InvalidInitialState(SphereDubinsError):
    """Adjoint initial state violates the zero-Hamiltonian condition."""


class OutOfDomain(SphereDubinsError):
    """Scalar argument outside the formula's domain."""


class OutOfRegime(SphereDubinsError):
    """Lemma construction requested outside its turning-radius regime."""

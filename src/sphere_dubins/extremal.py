"""Adjoint integration and phase-portrait invariants for extremal paths.

Along an extremal, three adjoint scalars (h1, h2, H12) evolve together with
the moving frame; the control is bang-bang in the sign of H12 with a
great-circle branch available only on the normal (lam = 1) solution set.
Two quantities are conserved and serve as integration oracles: the quadratic
invariant J = h1^2 + h2^2 + H12^2 and the phase-portrait radius f, the
squared distance of (|H12|, dH12/ds) from the portrait center.

The integrator is fixed-step RK4 with bisection-localized control switches,
which keeps switch times reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInitialState, InvalidInput, OutOfDomain
from .geometry import frame_generator

ZERO_BRANCH_EPS = 1e-12   # |H12|, |h2| below this at start select the great-circle branch
HAMILTONIAN_TOL = 1e-9    # accepted violation of the zero-Hamiltonian condition
SWITCH_LOCATE_TOL = 1e-12  # arc-length resolution of switch bisection


def _control(h12: float, u_max: float) -> float:
    if h12 > 0.0:
        return -u_max
    if h12 < 0.0:
        return u_max
    return 0.0


@dataclass(frozen=True)
class ExtremalState:
    """Frame plus adjoint scalars on one extremal branch (lam in {0, 1})."""

    frame: np.ndarray
    h1: float
    h2: float
    H12: float
    lam: int
    u_max: float

    def __post_init__(self) -> None:
        if self.lam not in (0, 1):
            raise InvalidInput(f"lam must be 0 or 1, got {self.lam}")
        if self.u_max <= 0.0:
            raise InvalidInput(f"u_max must be positive, got {self.u_max}")
        frame = np.array(self.frame, dtype=float)
        if frame.shape != (3, 3):
            raise InvalidInput("frame must be 3x3")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    def hamiltonian_residual(self) -> float:
        kappa = _control(self.H12, self.u_max)
        return abs(-self.lam + self.h1 - kappa * self.H12)

    def conserved_quadratic(self) -> float:
        return self.h1**2 + self.h2**2 + self.H12**2


def switch_state(lam: int, u_max: float, h2: float, frame: np.ndarray | None = None) -> ExtremalState:
    """Valid state at an inflection point (H12 = 0, h1 = lam)."""
    if frame is None:
        frame = np.eye(3)
    return ExtremalState(frame=frame, h1=float(lam), h2=h2, H12=0.0, lam=lam, u_max=u_max)


def mid_arc_state(
    lam: int, u_max: float, h12: float, h2: float, frame: np.ndarray | None = None
) -> ExtremalState:
    """Valid state inside a turn arc: h1 follows from the zero Hamiltonian."""
    if h12 == 0.0:
        raise InvalidInput("mid-arc states need a nonzero H12; use switch_state")
    if frame is None:
        frame = np.eye(3)
    h1 = lam - u_max * abs(h12)
    return ExtremalState(frame=frame, h1=h1, h2=h2, H12=h12, lam=lam, u_max=u_max)


@dataclass(frozen=True)
class ExtremalTrajectory:
    """Sampled extremal with the control in effect after each sample."""

    s: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    H12: np.ndarray
    kappa: np.ndarray
    frames: np.ndarray
    switches: tuple[float, ...]
    lam: int
    u_max: float

    def complete_arc_angles(self, r: float) -> list[float]:
        """Turn angles of fully traversed arcs (between consecutive switches)."""
        return [(b - a) / r for a, b in zip(self.switches, self.switches[1:])]


def _rk4_step(
    y: tuple[float, float, float, np.ndarray], kappa: float, omega: np.ndarray, h: float
) -> tuple[float, float, float, np.ndarray]:
    def rhs(h1: float, h2: float, h12: float, frame: np.ndarray):
        return (-kappa * h2, h12 + kappa * h1, -h2, frame @ omega)

    h1, h2, h12, fr = y
    k1 = rhs(h1, h2, h12, fr)
    k2 = rhs(h1 + 0.5 * h * k1[0], h2 + 0.5 * h * k1[1], h12 + 0.5 * h * k1[2], fr + 0.5 * h * k1[3])
    k3 = rhs(h1 + 0.5 * h * k2[0], h2 + 0.5 * h * k2[1], h12 + 0.5 * h * k2[2], fr + 0.5 * h * k2[3])
    k4 = rhs(h1 + h * k3[0], h2 + h * k3[1], h12 + h * k3[2], fr + h * k3[3])
    return (
        h1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        h2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        h12 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        fr + h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def integrate_extremal(init: ExtremalState, length: float, step: float) -> ExtremalTrajectory:
    """Integrate the adjoint/frame dynamics with localized control switches.

    Fixed-step RK4 between switches; a sign change of H12 inside a step is
    bisected to SWITCH_LOCATE_TOL in arc length, the switch is recorded, and
    integration resumes with the flipped control.  The great-circle branch
    (kappa = 0) is taken only when lam = 1 and both H12 and h2 start exactly
    at zero (within ZERO_BRANCH_EPS); it is a fixed point of the adjoints.
    """
    if step <= 0.0:
        raise InvalidInput(f"step must be positive, got {step}")
    if length <= 0.0:
        raise InvalidInput(f"length must be positive, got {length}")
    if init.hamiltonian_residual() > HAMILTONIAN_TOL:
        raise InvalidInitialState(
            f"zero-Hamiltonian violated by {init.hamiltonian_residual():.3e}"
        )
    on_zero = abs(init.H12) <= ZERO_BRANCH_EPS
    h2_zero = abs(init.h2) <= ZERO_BRANCH_EPS
    if init.lam == 0 and on_zero and h2_zero:
        raise InvalidInitialState("H12 identically zero is not an abnormal extremal")

    u = init.u_max
    great_circle_branch = init.lam == 1 and on_zero and h2_zero
    if great_circle_branch:
        side = 0
    elif on_zero:
        # crossing start: dH12/ds = -h2 gives the side H12 is about to take
        side = -1 if init.h2 > 0.0 else 1
    else:
        side = 1 if init.H12 > 0.0 else -1
    kappa = -u * side if side != 0 else 0.0

    omegas = {k: frame_generator(k) for k in (kappa, -kappa)}
    s_list = [0.0]
    h1_list = [init.h1]
    h2_list = [init.h2]
    h12_list = [init.H12]
    kappa_list = [kappa]
    frame_list = [np.array(init.frame, dtype=float)]
    switches: list[float] = []

    def leaves_side(h12: float) -> bool:
        return h12 == 0.0 or (h12 > 0.0) != (side > 0)

    s = 0.0
    y = (init.h1, init.h2, init.H12, frame_list[0])
    while s < length - 1e-15:
        h = min(step, length - s)
        omega = omegas[kappa]
        y_next = _rk4_step(y, kappa, omega, h)
        if side != 0 and leaves_side(y_next[2]):
            lo, hi = 0.0, h
            while hi - lo > SWITCH_LOCATE_TOL:
                mid = 0.5 * (lo + hi)
                if leaves_side(_rk4_step(y, kappa, omega, mid)[2]):
                    hi = mid
                else:
                    lo = mid
            tau = 0.5 * (lo + hi)
            stepped = _rk4_step(y, kappa, omega, tau)
            # snap onto the switching surface: |H12| here is below the locator
            # tolerance times the slope, so zeroing it costs nothing measurable
            y = (stepped[0], stepped[1], 0.0, stepped[3])
            s += tau
            switches.append(s)
            side = -side
            kappa = -u * side
        else:
            y = y_next
            s += h
        s_list.append(s)
        h1_list.append(y[0])
        h2_list.append(y[1])
        h12_list.append(y[2])
        kappa_list.append(kappa)
        frame_list.append(y[3])

    return ExtremalTrajectory(
        s=np.array(s_list),
        h1=np.array(h1_list),
        h2=np.array(h2_list),
        H12=np.array(h12_list),
        kappa=np.array(kappa_list),
        frames=np.array(frame_list),
        switches=tuple(switches),
        lam=init.lam,
        u_max=init.u_max,
    )


@dataclass(frozen=True)
class PhaseReport:
    """Worst-case drift of the conserved quantities along a trajectory."""

    max_j_drift: float
    max_f_drift: float
    max_hamiltonian_residual: float
    control_consistent: bool


def phase_invariants(trajectory: ExtremalTrajectory) -> PhaseReport:
    """Drift of J, of the phase-portrait radius f, and of the Hamiltonian.

    f couples |H12| with the slope dH12/ds = -h2; both f and J are exact
    constants of the dynamics, so any drift measures integration error.
    """
    u = trajectory.u_max
    lam = trajectory.lam
    center = lam * u / (1.0 + u * u)
    j = trajectory.h1**2 + trajectory.h2**2 + trajectory.H12**2
    f = (np.abs(trajectory.H12) - center) ** 2 + trajectory.h2**2 / (1.0 + u * u)
    ham = np.abs(-lam + trajectory.h1 - trajectory.kappa * trajectory.H12)
    live = np.abs(trajectory.H12) > 1e-9
    consistent = bool(
        np.all(trajectory.kappa[live] == -u * np.sign(trajectory.H12[live]))
    )
    return PhaseReport(
        max_j_drift=float(np.max(np.abs(j - j[0]))),
        max_f_drift=float(np.max(np.abs(f - f[0]))),
        max_hamiltonian_residual=float(np.max(ham)),
        control_consistent=consistent,
    )


def middle_arc_angle(lambda_h12: float, u_max: float) -> float:
    """Shared angle of fully traversed interior turn arcs on normal extremals.

    Defined for portrait radii above the great-circle threshold
    u_max / (1 + u_max^2); the result is pi + beta with beta in (0, pi),
    approaching pi as the radius grows.
    """
    if u_max <= 0.0:
        raise InvalidInput(f"u_max must be positive, got {u_max}")
    bound = u_max / (1.0 + u_max * u_max)
    if lambda_h12 <= bound:
        raise OutOfDomain(
            f"portrait radius {lambda_h12:.6g} must exceed u_max/(1+u_max^2) = {bound:.6g}"
        )
    discriminant = lambda_h12**2 * (1.0 + u_max * u_max) ** 2 - u_max * u_max
    return math.pi + 2.0 * math.atan(u_max / math.sqrt(discriminant))

"""Closed-form extremal flow and phase-portrait invariants for extremal paths.

Along an extremal, the adjoint y = (h1, h2, H12) evolves with the moving
frame F; the control kappa is bang-bang in the sign of H12, with a
great-circle branch (kappa = 0) only on the normal (lam = 1) solution set.
While kappa is constant both flows are rigid rotations at the rate
w = sqrt(1 + kappa^2): y' = skew(w_a) y turns y about w_a = (-1, 0, kappa),
and F' = F @ frame_generator(kappa) = F @ skew(w_f) turns F about
w_f = (kappa, 0, 1).  So H12 = c + a cos(w t) + b sin(w t) along each arc,
the paper's phase portrait.  Two conserved quantities check the flow
independently: J = h1^2 + h2^2 + H12^2 and the phase-portrait radius f, the
squared distance of (|H12|, dH12/ds) from the portrait center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInitialState, InvalidInput, OutOfDomain
from .geometry import rotations_about_axis

# The module's tolerances:
ZERO_BRANCH_EPS = 1e-12  # |H12|, |h2| at or below it at the start count as zero
HAMILTONIAN_TOL = 1e-9   # zero-Hamiltonian violation accepted in an initial state
END_SLACK = 1e-15        # no sample step starts this close to the length
LIVE_H12 = 1e-9          # |H12| at or below it is on the switching surface


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
        if not (0.0 < self.u_max < math.inf):
            raise InvalidInput(f"u_max must be positive and finite, got {self.u_max}")
        frame = np.array(self.frame, dtype=float)
        finite = np.isfinite([self.h1, self.h2, self.H12, *frame.flat])
        if frame.shape != (3, 3) or not finite.all():
            raise InvalidInput("frame must be 3x3, and frame, h1, h2 and H12 finite")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    def hamiltonian_residual(self) -> float:
        kappa = _control(self.H12, self.u_max)
        return abs(-self.lam + self.h1 - kappa * self.H12)

    def conserved_quadratic(self) -> float:
        return self.h1**2 + self.h2**2 + self.H12**2


def switch_state(lam: int, u_max: float, h2: float) -> ExtremalState:
    """Valid state at an inflection point (H12 = 0, h1 = lam), at the identity frame."""
    return ExtremalState(frame=np.eye(3), h1=float(lam), h2=h2, H12=0.0, lam=lam, u_max=u_max)


def mid_arc_state(lam: int, u_max: float, h12: float, h2: float) -> ExtremalState:
    """Valid state inside a turn arc, at the identity frame: h1 follows from
    the zero Hamiltonian."""
    if h12 == 0.0:
        raise InvalidInput("mid-arc states need a nonzero H12; use switch_state")
    h1 = lam - u_max * abs(h12)
    return ExtremalState(frame=np.eye(3), h1=h1, h2=h2, H12=h12, lam=lam, u_max=u_max)


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


def _switch_angle(w_a: np.ndarray, y: np.ndarray, side: int) -> float:
    """Turn angle about w_a from y to the next sign change of H12, or inf.
    Along the turn H12 = c + rho cos(theta - phi): it falls through zero at
    phi + alpha and rises at phi - alpha (alpha = acos(-c / rho)), so side +1
    leaves at the first and side -1 at the second.  A start on the surface
    crosses at theta = 0 towards `side`, so it gets the next root."""
    if side == 0:
        return math.inf
    w2 = float(w_a @ w_a)
    c = w_a[2] * float(w_a @ y) / w2
    a, b = y[2] - c, (w_a[0] * y[1] - w_a[1] * y[0]) / math.sqrt(w2)
    rho = math.hypot(a, b)
    if abs(c) >= rho:
        return math.inf  # the portrait misses or only touches H12 = 0
    return (math.atan2(b, a) + side * math.acos(-c / rho)) % (2.0 * math.pi)


def _arc_grid(s0: float, stop: float, length: float, step: float) -> np.ndarray:
    """Sample positions after s0 up to the first at or past `stop`: every
    `step` by repeated addition, as a step loop rounds, then one short step
    onto `length` unless already within END_SLACK of it."""
    n = int((min(stop, length) - s0) / step) + 2
    g = np.add.accumulate(np.concatenate(([s0], np.full(n, step))))
    t = g[1:][step <= length - g[:-1]]
    if t.size < n and (t[-1] if t.size else s0) < length - END_SLACK:
        t = np.append(t, length)
    return t[: np.searchsorted(t, stop) + 1]


def integrate_extremal(init: ExtremalState, length: float, step: float) -> ExtremalTrajectory:
    """Propagate the adjoint/frame dynamics exactly, one constant-control arc
    at a time.

    With w_a, w_f and w = sqrt(1 + kappa^2) as in the module docstring, the
    state t past the arc start s0 is y(s0 + t) = R(w_a / w, w t) y(s0) and
    F(s0 + t) = F(s0) @ R(w_f / w, w t), one batched Rodrigues call per arc.
    The arc ends at the first root of the sinusoid H12, where the switch is
    recorded, H12 is snapped to zero and the control flips.  Samples fall
    every `step` from the last switch, at each switch and at `length`; each
    carries the control in effect after it.  The great-circle branch
    (kappa = 0) is taken only when lam = 1 and H12 and h2 both start at zero
    (within ZERO_BRANCH_EPS); it is a fixed point of the adjoints.
    """
    if not (0.0 < step < math.inf):
        raise InvalidInput(f"step must be positive and finite, got {step}")
    if not (0.0 < length < math.inf):
        raise InvalidInput(f"length must be positive and finite, got {length}")
    if init.hamiltonian_residual() > HAMILTONIAN_TOL:
        raise InvalidInitialState(
            f"zero-Hamiltonian violated by {init.hamiltonian_residual():.3e}"
        )
    on_zero = abs(init.H12) <= ZERO_BRANCH_EPS
    h2_zero = abs(init.h2) <= ZERO_BRANCH_EPS
    if init.lam == 0 and on_zero and h2_zero:
        raise InvalidInitialState("H12 identically zero is not an abnormal extremal")

    u = init.u_max
    if init.lam == 1 and on_zero and h2_zero:
        side = 0
    elif on_zero:
        # crossing start: dH12/ds = -h2 gives the side H12 is about to take
        side = -1 if init.h2 > 0.0 else 1
    else:
        side = 1 if init.H12 > 0.0 else -1
    kappa = -u * side if side != 0 else 0.0

    s = 0.0
    y = np.array([init.h1, init.h2, init.H12])
    frame = np.array(init.frame, dtype=float)
    arcs = [(np.zeros(1), y[None], frame[None], np.array([kappa]))]
    switches: list[float] = []
    while s < length - END_SLACK:
        w = math.sqrt(1.0 + kappa * kappa)
        axes = np.array([[-1.0, 0.0, kappa], [kappa, 0.0, 1.0]])  # w_a, w_f
        stop = s + _switch_angle(axes[0], y, side) / w
        t = _arc_grid(s, stop, length, step)
        kappas = np.full(t.size, kappa)
        switched = t[-1] >= stop
        if switched:
            t[-1] = stop
        rot = rotations_about_axis(axes[:, None] / w, w * (t - s))
        y_arc = rot[0] @ y
        frames = frame @ rot[1]
        if switched:
            y_arc[-1, 2] = 0.0  # snap onto the switching surface
            switches.append(stop)
            side = -side
            kappa = -u * side
            kappas[-1] = kappa
        s, y, frame = t[-1], y_arc[-1], frames[-1]
        arcs.append((t, y_arc, frames, kappas))

    s_all, y_all, frames_all, kappa_all = (np.concatenate(part) for part in zip(*arcs))
    return ExtremalTrajectory(
        s=s_all,
        h1=y_all[:, 0],
        h2=y_all[:, 1],
        H12=y_all[:, 2],
        kappa=kappa_all,
        frames=frames_all,
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
    live = np.abs(trajectory.H12) > LIVE_H12
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
    approaching pi as the radius grows.  A radius so large that beta rounds
    to 0 (or that overflows the discriminant) raises OutOfDomain.
    """
    if not (0.0 < u_max < math.inf):
        raise InvalidInput(f"u_max must be positive and finite, got {u_max}")
    if not math.isfinite(lambda_h12):  # an infinite radius would give beta = 0
        raise InvalidInput(f"portrait radius must be finite, got {lambda_h12}")
    bound = u_max / (1.0 + u_max * u_max)
    if lambda_h12 <= bound:
        raise OutOfDomain(
            f"portrait radius {lambda_h12:.6g} must exceed u_max/(1+u_max^2) = {bound:.6g}"
        )
    try:
        discriminant = lambda_h12**2 * (1.0 + u_max * u_max) ** 2 - u_max * u_max
    except OverflowError:
        discriminant = math.inf
    angle = math.pi + 2.0 * math.atan(u_max / math.sqrt(discriminant))
    if not angle > math.pi:  # beta rounds to 0 (from about 1e16 at u_max = 1), or NaN
        raise OutOfDomain(
            f"portrait radius {lambda_h12:.6g} at u_max = {u_max:.6g}: beta rounds to 0"
        )
    return angle

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphere_dubins import extremal as ex
from sphere_dubins import geometry as geo
from sphere_dubins.errors import InvalidInitialState, InvalidInput, OutOfDomain


def u_for_radius(r: float) -> float:
    return math.sqrt(1.0 - r * r) / r


def test_great_circle_branch_is_fixed_point():
    state = ex.ExtremalState(np.eye(3), h1=1.0, h2=0.0, H12=0.0, lam=1, u_max=1.0)
    traj = ex.integrate_extremal(state, 5.0, 1e-3)
    assert traj.switches == ()
    assert np.all(traj.kappa == 0.0)
    report = ex.phase_invariants(traj)
    assert report.max_j_drift <= 1e-12
    assert report.max_f_drift <= 1e-12
    assert report.max_hamiltonian_residual <= 1e-12
    # frame follows a great circle: position column sweeps the equator plane
    assert abs(traj.frames[-1][2, 2] - 1.0) <= 1e-9


def test_abnormal_complete_arcs_are_pi():
    r = 0.6
    traj = ex.integrate_extremal(ex.switch_state(0, u_for_radius(r), h2=-2.0), 10.0, 1e-3)
    arcs = traj.complete_arc_angles(r)
    assert len(arcs) >= 3
    assert max(abs(a - math.pi) for a in arcs) <= 1e-6
    # switch spacing is half the oscillation period pi*r (full period 2*pi*r)
    gaps = np.diff(traj.switches)
    assert np.max(np.abs(gaps - math.pi * r)) <= 1e-6


def test_abnormal_conservation():
    r = 0.45
    traj = ex.integrate_extremal(ex.switch_state(0, u_for_radius(r), h2=1.3), 10.0, 1e-3)
    report = ex.phase_invariants(traj)
    assert report.max_j_drift <= 1e-8
    assert report.max_f_drift <= 1e-8
    assert report.max_hamiltonian_residual <= 1e-8
    assert report.control_consistent


def test_normal_conservation_and_control():
    r = 0.71
    u = u_for_radius(r)
    traj = ex.integrate_extremal(ex.mid_arc_state(1, u, h12=0.8, h2=-0.4), 10.0, 1e-3)
    report = ex.phase_invariants(traj)
    assert report.max_j_drift <= 1e-8
    assert report.max_f_drift <= 1e-8
    assert report.max_hamiltonian_residual <= 1e-8
    assert report.control_consistent


def test_normal_interior_arcs_match_middle_arc_angle():
    r = 0.6
    u = u_for_radius(r)
    state = ex.mid_arc_state(1, u, h12=0.9, h2=0.5)
    traj = ex.integrate_extremal(state, 12.0, 1e-3)
    j = state.conserved_quadratic()
    radius = math.sqrt(j / (1 + u * u) - 1.0 / (1 + u * u) ** 2)
    predicted = ex.middle_arc_angle(radius, u)
    arcs = traj.complete_arc_angles(r)
    assert arcs, "expected interior arcs"
    assert max(abs(a - predicted) for a in arcs) <= 1e-6


def test_small_portrait_radius_never_switches():
    u = 1.0
    center = u / (1 + u * u)
    traj = ex.integrate_extremal(ex.mid_arc_state(1, u, h12=center, h2=0.01), 10.0, 1e-3)
    assert traj.switches == ()
    assert np.min(traj.H12) > 0.0


@pytest.mark.parametrize(
    "length, step", [(math.nan, 1e-3), (10.0, math.nan), (10.0, math.inf)]
)
def test_non_finite_length_or_step_rejected(length, step):
    state = ex.switch_state(0, u_for_radius(0.6), h2=1.3)
    with pytest.raises(InvalidInput):
        ex.integrate_extremal(state, length, step)


@pytest.mark.parametrize("field", ["u_max", "h1", "h2", "H12", "frame"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_rejected(field, bad):
    """Unchecked, a NaN state reaches integrate_extremal and dies in int(nan)."""
    fields = dict(frame=np.eye(3), h1=1.0, h2=0.0, H12=0.0, lam=1, u_max=1.0)
    fields[field] = np.full((3, 3), bad) if field == "frame" else bad
    with pytest.raises(InvalidInput):
        ex.ExtremalState(**fields)


def test_lam_outside_its_branches_rejected():
    with pytest.raises(InvalidInput, match="^lam must be 0 or 1, got 2$"):
        ex.ExtremalState(np.eye(3), h1=1.0, h2=0.0, H12=0.0, lam=2, u_max=1.0)


def test_mid_arc_state_needs_a_nonzero_h12():
    with pytest.raises(InvalidInput, match="^mid-arc states need a nonzero H12; use switch_state$"):
        ex.mid_arc_state(0, u_for_radius(0.6), h12=0.0, h2=0.5)


def test_infinite_length_rejected():
    """In a child process with a timeout: unchecked, an infinite length never returns."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import math\n"
        "from sphere_dubins import extremal as ex\n"
        "from sphere_dubins.errors import InvalidInput\n"
        "state = ex.switch_state(0, math.sqrt(1.0 - 0.6**2) / 0.6, h2=1.3)\n"
        "try:\n"
        "    ex.integrate_extremal(state, math.inf, 1.0)\n"
        "except InvalidInput:\n"
        "    print('rejected')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert out.stdout.strip() == "rejected", out.stderr


def test_invalid_initial_state():
    with pytest.raises(InvalidInitialState):
        ex.integrate_extremal(
            ex.ExtremalState(np.eye(3), h1=0.0, h2=0.0, H12=0.5, lam=0, u_max=1.0),
            1.0,
            1e-3,
        )
    # abnormal branch with H12 identically zero is excluded
    with pytest.raises(InvalidInitialState):
        ex.integrate_extremal(
            ex.ExtremalState(np.eye(3), h1=0.0, h2=0.0, H12=0.0, lam=0, u_max=1.0),
            1.0,
            1e-3,
        )


def test_middle_arc_angle_values():
    assert ex.middle_arc_angle(1.0, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-14)
    assert abs(ex.middle_arc_angle(1e6, 1.0) - math.pi) <= 1e-5
    with pytest.raises(OutOfDomain):
        ex.middle_arc_angle(0.5, 1.0)  # exactly at the bound u/(1+u^2)
    with pytest.raises(OutOfDomain):
        ex.middle_arc_angle(0.4, 1.0)


@pytest.mark.parametrize(
    "lambda_h12, u_max", [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (math.inf, 1.0)]
)
def test_middle_arc_angle_rejects_non_finite_input(lambda_h12, u_max):
    with pytest.raises(InvalidInput):
        ex.middle_arc_angle(lambda_h12, u_max)


def test_random_valid_states_conserve():
    rng = np.random.default_rng(31)
    for lam in (0, 1):
        for _ in range(10):
            r = float(rng.uniform(0.3, 0.85))
            u = u_for_radius(r)
            if rng.uniform() < 0.5:
                h2 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
                state = ex.switch_state(lam, u, h2=h2)
            else:
                h12 = float(rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]))
                h2 = float(rng.uniform(-1.5, 1.5))
                state = ex.mid_arc_state(lam, u, h12=h12, h2=h2)
            traj = ex.integrate_extremal(state, 10.0, 1e-3)
            report = ex.phase_invariants(traj)
            assert report.max_j_drift <= 1e-8
            assert report.max_f_drift <= 1e-8
            assert report.max_hamiltonian_residual <= 1e-8
            assert report.control_consistent


def criterion_7_state(lam: int, switch_start: bool, rng: np.random.Generator) -> ex.ExtremalState:
    u = u_for_radius(float(rng.uniform(0.3, 0.85)))
    if switch_start:
        return ex.switch_state(lam, u, h2=float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])))
    h12 = float(rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]))
    return ex.mid_arc_state(lam, u, h12=h12, h2=float(rng.uniform(-1.5, 1.5)))


def reference_arcs(state: ex.ExtremalState, length: float):
    """Independent reference: DOP853 on the adjoint/frame ODE, stopped at each
    H12 = 0 event and restarted there with the flipped control.  Returns the
    switch positions and the dense output of each arc."""
    from scipy.integrate import solve_ivp

    u = state.u_max
    side = int(np.sign(state.H12)) or -int(np.sign(state.h2))
    z = np.concatenate(([state.h1, state.h2, state.H12], state.frame.ravel()))
    s0, switches, arcs = 0.0, [], []
    while True:
        kappa = -u * side
        omega = geo.frame_generator(kappa)

        def rhs(s, z, kappa=kappa, omega=omega):
            h1, h2, h12 = z[:3]
            dframe = z[3:].reshape(3, 3) @ omega
            return np.concatenate(([-kappa * h2, h12 + kappa * h1, -h2], dframe.ravel()))

        def crossing(s, z):
            return z[2]

        crossing.terminal = True
        crossing.direction = -side  # only the crossing that leaves the current side
        sol = solve_ivp(rhs, (s0, length), z, method="DOP853", rtol=1e-12, atol=1e-12,
                        events=crossing, dense_output=True)
        assert sol.success
        arcs.append(sol.sol)
        if sol.status != 1:
            return switches, arcs
        s0, z = float(sol.t_events[0][0]), sol.y_events[0][0]
        switches.append(s0)
        side = -side


def test_closed_form_matches_independent_ode_reference():
    pytest.importorskip("scipy.integrate")  # the reference's integrator
    rng = np.random.default_rng(2026)
    for i in range(20):
        state = criterion_7_state(i % 2, (i // 2) % 2 == 0, rng)
        traj = ex.integrate_extremal(state, 10.0, 1e-3)
        switches, arcs = reference_arcs(state, 10.0)
        assert len(traj.switches) == len(switches)
        assert np.max(np.abs(np.subtract(traj.switches, switches)), initial=0.0) <= 1e-9
        assert np.all(traj.H12[np.isin(traj.s, traj.switches)] == 0.0)  # snapped at switches
        # each sample is compared on the reference arc its position falls in
        arc_of = np.searchsorted(switches, traj.s)
        for k, arc in enumerate(arcs):
            at = arc_of == k
            got = np.vstack([traj.h1[at], traj.h2[at], traj.H12[at], traj.frames[at].reshape(-1, 9).T])
            assert np.max(np.abs(got - arc(traj.s[at]))) <= 1e-8


def step_loop_grid(switches, length, step):
    """Sample positions of a step-by-step loop that lands on each switch."""
    s, grid, pending = 0.0, [0.0], list(switches)
    while s < length - 1e-15:
        h = min(step, length - s)
        s = pending.pop(0) if pending and pending[0] <= s + h else s + h
        grid.append(s)
    return grid


def test_switch_start_takes_the_side_of_minus_h2():
    u = u_for_radius(0.6)
    for lam in (0, 1):
        for h2 in (0.7, -0.7):
            traj = ex.integrate_extremal(ex.switch_state(lam, u, h2=h2), 3.0, 1e-3)
            assert traj.switches and traj.switches[0] > 0.1
            assert np.sign(traj.H12[1]) == -np.sign(h2)
            assert traj.kappa[0] == u * np.sign(h2)


def test_portrait_tangent_to_the_switching_line_never_switches():
    # u = 1: portrait center 1/2, and (H12, h2) = (1, 0) puts the portrait
    # circle's radius at 1/2 as well, touching H12 = 0 once per period
    state = ex.mid_arc_state(1, 1.0, h12=1.0, h2=0.0)
    traj = ex.integrate_extremal(state, 10.0, 1e-3)
    assert traj.switches == ()
    assert np.all(traj.kappa == -1.0)
    assert np.min(traj.H12) >= -1e-15 and np.min(traj.H12) <= 1e-6


def test_switch_on_a_grid_sample_is_recorded_once():
    for state in (ex.switch_state(0, u_for_radius(0.45), h2=1.3),
                  ex.mid_arc_state(1, u_for_radius(0.6), h12=0.9, h2=0.5)):
        first = ex.integrate_extremal(state, 10.0, 1e-3).switches[0]
        # the first switch does not depend on the step, and two steps of half
        # its position sum to it exactly
        traj = ex.integrate_extremal(state, 10.0, first / 2.0)
        assert traj.switches[0] == first
        assert traj.s[2] == first and np.count_nonzero(traj.s == first) == 1
        assert traj.s.tolist() == step_loop_grid(traj.switches, 10.0, first / 2.0)


@pytest.mark.parametrize(
    "length, step, samples, ends_on_length",
    # ten sums of 0.1 fall 1.1e-16 short of 1.0, within END_SLACK: no sliver step
    [(3.0007, 1e-3, 3002, True), (1.0, 0.1, 11, False), (2.5, 0.3, 10, True)],
)
def test_sample_grid_follows_the_step_loop(length, step, samples, ends_on_length):
    u = u_for_radius(0.5)
    great_circle = ex.ExtremalState(np.eye(3), h1=1.0, h2=0.0, H12=0.0, lam=1, u_max=u)
    for state in (ex.mid_arc_state(1, u, h12=0.9, h2=0.5), ex.switch_state(0, u, h2=-1.1), great_circle):
        traj = ex.integrate_extremal(state, length, step)
        assert traj.s.tolist() == step_loop_grid(traj.switches, length, step)
    assert len(traj.s) == samples
    assert (traj.s[-1] == length) == ends_on_length


def test_complete_arcs_are_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = float(rng.uniform(0.3, 0.85))
        u = u_for_radius(r)
        abnormal = ex.integrate_extremal(ex.switch_state(0, u, h2=float(rng.uniform(0.2, 2.0))), 10.0, 1e-3)
        arcs = abnormal.complete_arc_angles(r)
        assert arcs and max(abs(a - math.pi) for a in arcs) <= 1e-9
        state = ex.mid_arc_state(1, u, h12=float(rng.uniform(0.8, 1.5)), h2=float(rng.uniform(-1.0, 1.0)))
        j = state.conserved_quadratic()
        radius = math.sqrt(j / (1 + u * u) - 1.0 / (1 + u * u) ** 2)
        arcs = ex.integrate_extremal(state, 12.0, 1e-3).complete_arc_angles(r)
        assert arcs and max(abs(a - ex.middle_arc_angle(radius, u)) for a in arcs) <= 1e-9

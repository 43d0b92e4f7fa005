"""The benchmark's tracer must still find every function it wraps.

`perfbench/tracing.py` patches package functions by name and raises at
install time when one is missing, so a rename fails here instead of in a
traced benchmark run.
"""

import math
from pathlib import Path

from sphere_dubins import extremal, geometry, linkage, oracle, planner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import LINKAGE_SOLVERS, Tracer

    plan = planner.plan
    solvers = {name: getattr(linkage, name) for name in LINKAGE_SOLVERS}
    tracer = Tracer()
    tracer.install()
    try:
        assert planner.plan is not plan
        for name in LINKAGE_SOLVERS:
            assert getattr(planner, name) is getattr(linkage, name)
    finally:
        tracer.uninstall()
    assert planner.plan is plan
    for name, fn in solvers.items():
        assert getattr(linkage, name) is fn
        assert getattr(planner, name) is fn


def test_tracer_oracle_hooks_run_per_restart(monkeypatch):
    # the tracer times each refine the oracle makes and reads its (segments, residual);
    # the oracle refines restarts shortest first and stops at the first that passes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    geom = geometry.TurnGeometry.from_radius(0.71)
    m = geometry.compose_path([geometry.R(0.7), geometry.L(math.pi), geometry.R(0.7)], geom)
    families = [f for f in planner.family_catalog(geom.r, mode="all") if f.kinds]
    # free, pinned-middle and equal-middle parametrizations all run
    shapes = {(f.pinned, f.equal_middles) for f in families}
    assert shapes == {(False, False), (True, False), (False, True)}
    refine = oracle._FamilySearch.refine
    residuals = []

    def recorded(*args):
        result = refine(*args)
        residuals.append(result[1])
        return result

    monkeypatch.setattr(oracle._FamilySearch, "refine", recorded)
    tracer = Tracer()
    tracer.install()
    try:
        assert oracle._FamilySearch.refine is not recorded
        result = oracle.forward_oracle(m, geom, seed=0, budget=2000)
    finally:
        tracer.uninstall()
    assert result.found
    refines = [s for s in tracer.finished_spans() if s.name == "oracle.refine"]
    assert len(refines) == len(residuals) >= 1
    assert all(not res <= oracle.TOL_RESIDUAL for res in residuals[:-1])  # above it or NaN
    assert residuals[-1] <= oracle.TOL_RESIDUAL and residuals[-1] == result.residual
    assert oracle._FamilySearch.refine is recorded


def test_tracer_extremal_counters_read_the_trajectory(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    integrate, invariants = extremal.integrate_extremal, extremal.phase_invariants
    state = extremal.switch_state(0, math.sqrt(1.0 - 0.6**2) / 0.6, h2=1.3)
    tracer = Tracer()
    tracer.install()
    try:
        traj = extremal.integrate_extremal(state, 3.0007, 1e-3)
        extremal.phase_invariants(traj)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.finished_spans()]
    assert names == ["extremal.integrate_extremal", "extremal.phase_invariants"]
    assert traj.switches
    assert tracer.counts["extremal.steps"] == len(traj.s) - 1
    assert tracer.counts["extremal.switches"] == len(traj.switches)
    assert extremal.integrate_extremal is integrate
    assert extremal.phase_invariants is invariants

"""The benchmark's tracer must still find every function it wraps.

`perfbench/tracing.py` patches package functions by name and raises at
install time when one is missing, so a rename fails here instead of in a
traced benchmark run.
"""

from pathlib import Path

from sphere_dubins import linkage, planner

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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite takes 6-7 s on a shared 2-core Intel Xeon
machine, most of it criterion 6 (200 budget-100000 oracle runs, about 3 s);
criterion 7 (200 closed-form extremal trajectories) takes about 1 s.
"""

import math
import time

import numpy as np

from conftest import request_from_segments
from sphere_dubins import cli
from sphere_dubins import extremal as ex
from sphere_dubins import geometry as geo
from sphere_dubins import lemmas as lm
from sphere_dubins import oracle as orc
from sphere_dubins import planner as pl

SQRT2_INV = 1.0 / math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0


def record(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_fixed_pi_example():
    req = request_from_segments([geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71)
    start = time.perf_counter()
    result = pl.plan(req)
    elapsed = time.perf_counter() - start
    best = result.best_candidate
    cgc_ccc = [
        c for c in result.candidates
        if c.family in ("LGL", "LGR", "RGL", "RGR", "LRL", "RLR")
    ]
    alt = min(cgc_ccc, key=lambda c: c.physical_length)
    ok = (
        best.family == "RLpiR"
        and abs(best.unit_length - 3.2245) <= 5e-4
        and alt.family == "LRL"
        and abs(alt.unit_length - 6.6964) <= 5e-4
        and elapsed < 1.0
    )
    record(
        "criterion 1 (fixed-pi instance)",
        ok,
        f"best={best.family}@{best.unit_length:.5f}, alt={alt.family}@{alt.unit_length:.5f}, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_four_chain_example():
    req = request_from_segments(
        [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55
    )
    start = time.perf_counter()
    result = pl.plan(req)
    elapsed = time.perf_counter() - start
    best = result.best_candidate
    others = [c for c in result.candidates if c.family != "RLRL"]
    runner_length = min(c.physical_length for c in others)
    runner_families = {
        c.family for c in others if c.physical_length <= runner_length + 1e-9
    }
    ok = (
        best.family == "RLRL"
        and abs(best.unit_length - 4.2853) <= 5e-4
        and abs(runner_length - 4.3643) <= 5e-4
        and "LRL" in runner_families
        and elapsed < 1.0
    )
    record(
        "criterion 2 (four-chain instance)",
        ok,
        f"best={best.family}@{best.unit_length:.5f}, "
        f"runner-up@{runner_length:.5f} ({sorted(runner_families)}), {elapsed * 1000:.0f} ms",
    )


def test_criterion_3_figure_reproductions():
    cases = [
        ("grg", 0.5, math.radians(30)),
        ("rgl", 0.865, math.radians(20)),
        ("lrl5", 0.55, math.radians(40)),
        ("lrlr6", 0.72, math.radians(40)),
    ]
    worst_residual = 0.0
    min_delta = math.inf
    exit_codes = []
    for kind, r, param in cases:
        report = lm.construct(kind, r, param)
        worst_residual = max(worst_residual, report.endpoint_residual)
        min_delta = min(min_delta, report.length_delta)
        exit_codes.append(
            cli.main(["validate", "--lemma", kind, "--r", repr(r), "--param", repr(param)])
        )
    ok = worst_residual <= 1e-8 and min_delta > 0.0 and all(c == 0 for c in exit_codes)
    record(
        "criterion 3 (figure reproductions)",
        ok,
        f"worst residual {worst_residual:.2e}, min delta {min_delta:.4f}, exits {exit_codes}",
    )


def test_criterion_4_lemma_sweeps():
    worst_residual = 0.0
    min_delta = math.inf
    worst_taylor = 0.0
    worst_identity = 0.0
    for kind in ("grg", "rgl", "lrl5", "lrlr6"):
        r_values, params = lm.sweep_grid(kind)
        assert len(r_values) >= 20 and len(params) >= 20
        for i, r in enumerate(r_values):
            for j, param in enumerate(params):
                report = lm.construct(kind, float(r), float(param))
                worst_residual = max(worst_residual, report.endpoint_residual)
                min_delta = min(min_delta, report.length_delta)
                if kind in ("grg", "rgl") and j == 0:
                    by_name = {c.name: c for c in report.coefficient_checks}
                    worst_taylor = max(
                        worst_taylor, by_name["a1"].rel_error, by_name["a2"].rel_error
                    )
                    ident = by_name["2r*a1+a2"]
                    expected = (
                        2.0 * (2.0 * r * r - 1.0)
                        if kind == "grg"
                        else 2.0 * r * (4.0 * r * r - 3.0)
                    )
                    worst_identity = max(
                        worst_identity,
                        abs(ident.closed_form - expected),
                        ident.abs_error,
                    )
    ok = (
        worst_residual <= 1e-8
        and min_delta > 0.0
        and worst_taylor <= 1e-3
        and worst_identity <= 1e-9
    )
    record(
        "criterion 4 (lemma sweeps)",
        ok,
        f"residual {worst_residual:.2e}, min delta {min_delta:.4g}, "
        f"taylor rel {worst_taylor:.2e}, identity {worst_identity:.2e}",
    )


def test_criterion_5_closed_form_tables():
    worst_formula = 0.0
    worst_closed_phi = 0.0
    grids = {
        "triple": np.linspace(0.05, SQRT2_INV, 10),
        "quad": np.linspace(SQRT2_INV + 1e-3, SQRT3_2, 10),
    }
    for variant, radii in grids.items():
        for r in radii:
            for beta in np.linspace(0.1, math.pi - 0.1, 10):
                free = lm.appendix_products(variant, float(r), float(beta), phi=1.1)
                worst_formula = max(worst_formula, free.formula_vs_product)
                closed = lm.appendix_products(variant, float(r), float(beta))
                worst_formula = max(worst_formula, closed.formula_vs_product)
                worst_closed_phi = max(worst_closed_phi, closed.replacement_vs_original)
    ok = worst_formula <= 1e-10 and worst_closed_phi <= 1e-9
    record(
        "criterion 5 (closed-form product tables)",
        ok,
        f"formula vs product {worst_formula:.2e}, closed-phi match {worst_closed_phi:.2e}",
    )


def test_criterion_6_optimality_audit():
    radii = (0.3, 0.5, 0.71, 0.8)
    per_radius = 50
    worst_endpoint = 0.0
    worst_beat = -math.inf
    start = time.perf_counter()
    instances = [
        (base + i, orc.random_request(r, seed=base + i))
        for base, r in zip((10_000, 20_000, 30_000, 40_000), radii)
        for i in range(per_radius)
    ]
    requests = [req for _, req in instances]
    for (seed, req), result in zip(instances, pl.plan_batch(requests)):
        target, geom, initial, final, _ = pl.normalize_problem(req)
        reached = initial.frame() @ geo.compose_path(result.best_candidate.segments, geom)
        worst_endpoint = max(worst_endpoint, float(np.max(np.abs(reached - final.frame()))))
        found = orc.forward_oracle(target, geom, seed=seed, budget=100_000)
        beat = result.best_candidate.physical_length - (
            found.length if found.found else math.inf
        )
        worst_beat = max(worst_beat, beat)
    audit = orc.cross_family_audit(requests, seed=0)
    elapsed = time.perf_counter() - start
    ok = worst_endpoint <= 1e-8 and worst_beat <= 1e-6 and audit.max_gap <= 1e-6
    record(
        "criterion 6 (optimality audit, 200 instances)",
        ok,
        f"endpoint {worst_endpoint:.2e}, oracle margin {worst_beat:.2e}, "
        f"audit gap {audit.max_gap:.2e}, {elapsed:.0f} s",
    )


def test_criterion_7_extremal_invariants():
    rng = np.random.default_rng(777)
    worst = {"j": 0.0, "f": 0.0, "ham": 0.0, "arc": 0.0}
    consistent = True
    for lam in (0, 1):
        for _ in range(100):
            r = float(rng.uniform(0.3, 0.85))
            u = math.sqrt(1.0 - r * r) / r
            if rng.uniform() < 0.5:
                h2 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
                state = ex.switch_state(lam, u, h2=h2)
            else:
                h12 = float(rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]))
                h2 = float(rng.uniform(-1.5, 1.5))
                state = ex.mid_arc_state(lam, u, h12=h12, h2=h2)
            traj = ex.integrate_extremal(state, 10.0, 1e-3)
            report = ex.phase_invariants(traj)
            worst["j"] = max(worst["j"], report.max_j_drift)
            worst["f"] = max(worst["f"], report.max_f_drift)
            worst["ham"] = max(worst["ham"], report.max_hamiltonian_residual)
            consistent = consistent and report.control_consistent
            if lam == 0:
                arcs = traj.complete_arc_angles(r)
                assert arcs, "abnormal trajectory of length 10 must contain full arcs"
                worst["arc"] = max(worst["arc"], max(abs(a - math.pi) for a in arcs))
    ok = (
        worst["j"] <= 1e-8
        and worst["f"] <= 1e-8
        and worst["ham"] <= 1e-8
        and worst["arc"] <= 1e-6
        and consistent
    )
    record(
        "criterion 7 (extremal invariants)",
        ok,
        f"J {worst['j']:.2e}, f {worst['f']:.2e}, H {worst['ham']:.2e}, "
        f"arc-pi {worst['arc']:.2e}",
    )


def test_criterion_8_group_properties_and_determinism(tmp_path):
    rng = np.random.default_rng(424242)
    worst_ortho = 0.0
    worst_det = 0.0
    worst_subgroup = 0.0
    worst_axis = 0.0
    for _ in range(10_000):
        r = float(rng.uniform(0.05, 0.85))
        g = geo.TurnGeometry.from_radius(r)
        kind = "LRG"[int(rng.integers(0, 3))]
        p1, p2 = rng.uniform(0.0, 2 * math.pi, size=2)
        rot = geo.segment_rotation(kind, float(p1), g)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(rot.T @ rot - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(rot)) - 1.0))
        two = rot @ geo.segment_rotation(kind, float(p2), g)
        combined = geo.segment_rotation(kind, float((p1 + p2) % (2 * math.pi)), g)
        worst_subgroup = max(worst_subgroup, float(np.max(np.abs(two - combined))))
        axis = geo.turn_axis(kind, g)
        worst_axis = max(worst_axis, float(np.max(np.abs(rot @ axis - axis))))

    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = ["sweep", "--r", "0.5,0.8", "--instances", "5", "--seed", "11"]
    code1 = cli.main(args + ["--output", str(out1), "--parallel", "1"])
    code2 = cli.main(args + ["--output", str(out2), "--parallel", "4"])
    identical = out1.read_bytes() == out2.read_bytes()

    ok = (
        worst_ortho <= 1e-12
        and worst_det <= 1e-12
        and worst_subgroup <= 1e-11
        and worst_axis <= 1e-12
        and code1 == 0
        and code2 == 0
        and identical
    )
    record(
        "criterion 8 (group properties + sweep determinism)",
        ok,
        f"orthonormality {worst_ortho:.2e}, det {worst_det:.2e}, "
        f"subgroup {worst_subgroup:.2e}, axis {worst_axis:.2e}, byte-identical {identical}",
    )

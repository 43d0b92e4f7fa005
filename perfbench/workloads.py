"""Workloads of the sphere-dubins benchmark.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  Inputs come from the seed alone,
and every output is checked by code here that does not reuse the package's
own geometry (rotations are recomposed with a separate Rodrigues formula).

The package is driven only through its public entry points: ``planner.plan``,
``planner.normalize_problem``, ``oracle.forward_oracle``,
``oracle.cross_family_audit``, ``extremal.integrate_extremal``,
``extremal.phase_invariants`` and ``cli.main``.  Extremal start states are
built with the public helpers ``extremal.switch_state``/``mid_arc_state``.
Only ``planner`` is imported at the top; ``cli``, ``oracle`` and
``extremal`` are imported where they are used, so that a workload's set-up
time covers only the modules it needs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from sphere_dubins import planner
from sphere_dubins.planner import PlanRequest, Pose

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

SQRT2_INV = 1.0 / math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
TWO_PI = 2.0 * math.pi

RESIDUAL_TOL = 1e-9     # published bound on the Frobenius residual of a returned path
GOLDEN_TOL = 1e-12      # golden-corpus lengths must agree this closely (ROADMAP item 1)
DOMINANCE_TOL = 1e-6    # acceptance criterion 6: plan <= oracle + tol, audit gap <= tol
INVARIANT_TOL = 1e-8    # acceptance criterion 7: drift bound on J, f and H
ORACLE_BUDGET = 100_000
EXTREMAL_LENGTH = 10.0
EXTREMAL_STEP = 1e-3

# Radii per workload.  0.5 and 1/sqrt(2) are the exact boundary values at
# which only the common set is solved; sqrt(3)/2 is the largest proven radius.
COMMON_RADII = (0.3, 0.5, SQRT2_INV)
CHAIN_RADII = (0.55, 0.71, 0.85, SQRT3_2)
LAB_RADII = (0.3, 0.5, 0.71, 0.8)
LAB_UNITS = 16          # lab inputs per seed, four per radius; about 35 s per pass
SPECIAL_EVERY = 8       # one structured or published target in every eight; a plan-* pass

SWEEP_R = "0.3:0.85:0.05"   # twelve radii across the low, four-chain and high regimes
SWEEP_RADII = 12
SWEEP_INSTANCES = 8         # 96 rows, about one second per serial sweep
SWEEP_HEADER = (
    "instance_id,seed,r,best_family,best_length_unit,"
    "runner_up_family,gap,residual,solve_time_ms"
)

GOLDEN_SAMPLE = 24      # corpus entries re-checked by workloads that do not plan in bulk
WARMUP_SEED = 2**32 - 1  # the untimed first calls draw their inputs from this seed

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# independent geometry and inputs
# ---------------------------------------------------------------------------

def axis(kind: str, r: float) -> np.ndarray:
    if kind == "G":
        return np.array([0.0, 0.0, 1.0])
    s = math.sqrt(1.0 - r * r)
    return np.array([s if kind == "L" else -s, 0.0, r])


def rotation(a: np.ndarray, angle: float) -> np.ndarray:
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def compose(path: list[tuple[str, float]], r: float) -> np.ndarray:
    m = np.eye(3)
    for kind, angle in path:
        m = m @ rotation(axis(kind, r), angle)
    return m


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def frame(position: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    return np.column_stack([position, tangent, np.cross(position, tangent)])


def request(m: np.ndarray, r: float) -> PlanRequest:
    """Unit-sphere request from the canonical frame to the frame `m`."""
    return PlanRequest(
        sphere_radius=1.0,
        turning_radius=r,
        initial=Pose(E_X, E_Y),
        final=Pose(m[:, 0].copy(), m[:, 1].copy()),
    )


# The two published instances: RLpiR of length 3.2245 at r = 0.71 and RLRL of
# length 4.2853 at r = 0.55.
PUBLISHED = {
    "published_RLpiR": (0.71, [("R", 0.7), ("L", math.pi), ("R", 0.7)]),
    "published_RLRL": (0.55, [("R", 0.35), ("L", 3.5458), ("R", 3.5458), ("L", 0.35)]),
}
STRUCTURED = ("near_identity", "antipodal", "pure_turn")


@dataclass(frozen=True)
class Target:
    kind: str
    r: float
    m: np.ndarray


def special_target(kind: str, r: float, rng: np.random.Generator) -> Target:
    if kind in PUBLISHED:
        r_pub, path = PUBLISHED[kind]
        return Target(kind, r_pub, compose(path, r_pub))
    if kind == "near_identity":
        a = rng.standard_normal(3)
        return Target(kind, r, rotation(a / np.linalg.norm(a), 10.0 ** rng.uniform(-8.0, -2.0)))
    if kind == "antipodal":
        theta = rng.uniform(0.0, TWO_PI)
        return Target(kind, r, frame(-E_X, np.array([0.0, math.cos(theta), math.sin(theta)])))
    if kind == "pure_turn":
        turn = "LRG"[int(rng.integers(0, 3))]
        return Target(kind, r, rotation(axis(turn, r), rng.uniform(0.0, TWO_PI)))
    raise ValueError(f"unknown target kind {kind!r}")


def plan_targets(
    radii: tuple[float, ...], specials: tuple[str, ...], rng: np.random.Generator
) -> Iterator[Target]:
    """Uniform random targets cycling through `radii`, with every eighth
    target a special one cycling through `specials` (and, independently,
    through the radii)."""
    n_random = 0
    n_special = 0
    while True:
        for _ in range(SPECIAL_EVERY - 1):
            yield Target("random", radii[n_random % len(radii)], random_rotation(rng))
            n_random += 1
        kind = specials[n_special % len(specials)]
        r = radii[(n_special // len(specials)) % len(radii)]
        n_special += 1
        yield special_target(kind, r, rng)


# ---------------------------------------------------------------------------
# correctness checks (each returns a list of problems; empty means correct)
# ---------------------------------------------------------------------------

def check_plan(result: planner.PlanResult, m: np.ndarray, r: float) -> list[str]:
    """Best path passes the residual bound, is the shortest candidate, and
    reaches the final frame when recomposed independently."""
    problems = []
    best = result.best_candidate
    if not best.residual <= RESIDUAL_TOL:
        problems.append(f"best residual {best.residual:.2e} > {RESIDUAL_TOL:g}")
    shortest = min(c.physical_length for c in result.candidates)
    if best.physical_length > shortest:
        problems.append(f"best length {best.physical_length!r} > shortest {shortest!r}")
    path = [(s.kind.value, s.angle) for s in best.segments]
    miss = float(np.linalg.norm(compose(path, r) - m))
    if not miss <= RESIDUAL_TOL:
        problems.append(f"best path misses the final frame by {miss:.2e}")
    length = sum(a if k == "G" else r * a for k, a in path)
    if not abs(length - best.unit_length) <= GOLDEN_TOL:
        problems.append(f"unit length {best.unit_length!r} != arc sum {length!r}")
    return problems


def check_golden(result: planner.PlanResult, entry: dict) -> list[str]:
    problems = check_plan(result, golden_target(entry), entry["r"])
    best = result.best_candidate
    if not abs(best.unit_length - entry["unit_length"]) <= GOLDEN_TOL:
        problems.append(
            f"golden {entry['id']}: length {best.unit_length!r} != {entry['unit_length']!r}"
        )
    if not entry["family_tied"] and best.family != entry["family"]:
        problems.append(f"golden {entry['id']}: family {best.family} != {entry['family']}")
    return problems


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_target(entry: dict) -> np.ndarray:
    return frame(np.array(entry["position"]), np.array(entry["tangent"]))


def verify_golden(entries: list[dict]) -> list[list[str]]:
    """Plan every entry; one list of problems per entry."""
    results = []
    for entry in entries:
        try:
            result = planner.plan(request(golden_target(entry), entry["r"]))
        except Exception:  # a raise is a failed check, not a crash
            results.append([f"golden {entry['id']}: {traceback.format_exc()}"])
            continue
        results.append(check_golden(result, entry))
    return results


def golden_sample(seed: int) -> list[dict]:
    entries = load_golden()["entries"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(entries), size=GOLDEN_SAMPLE, replace=False)
    return [entries[i] for i in sorted(picks)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.  `units` is the number of
    workload units the call completes (rows for a sweep, otherwise 1).
    `parallel` is the same sweep on two worker processes; it is run only in
    the traced run, where it gives the --parallel 2 throughput."""

    call: Callable[[], object]
    check: Callable[[object], list[str]]
    units: int = 1
    parallel: "Op | None" = None


def plan_op(t: Target) -> Op:
    req = request(t.m, t.r)
    return Op(call=lambda: planner.plan(req), check=lambda res: check_plan(res, t.m, t.r))


def plan_ops(radii: tuple[float, ...], specials: tuple[str, ...]) -> Callable[[int, Path], Iterator[Op]]:
    def ops(seed: int, workdir: Path) -> Iterator[Op]:
        for t in plan_targets(radii, specials, np.random.default_rng(seed)):
            yield plan_op(t)
    return ops


def sweep_args(seed: int, instances: int, out: Path, parallel: int) -> list[str]:
    return [
        "sweep", "--r", SWEEP_R, "--instances", str(instances), "--seed", str(seed),
        "--output", str(out), "--parallel", str(parallel),
    ]


def run_sweep(args: list[str]) -> int:
    from sphere_dubins import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def check_sweep_csv(code: object, path: Path, seed: int, instances: int) -> list[str]:
    if code != 0:
        return [f"sweep exited with {code}"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep CSV header changed"]
    rows = lines[1:]
    if len(rows) != SWEEP_RADII * instances:
        return [f"sweep wrote {len(rows)} rows, expected {SWEEP_RADII * instances}"]
    problems = []
    for i, row in enumerate(rows):
        cols = row.split(",")
        r_expected = round(0.3 + (i // instances) * 0.05, 12)
        ok = (
            len(cols) == 9
            and cols[0] == str(i)
            and cols[1] == str(seed + i)
            and float(cols[2]) == r_expected
            and cols[3] != ""
            and math.isfinite(float(cols[4])) and float(cols[4]) >= 0.0
            and float(cols[7]) <= RESIDUAL_TOL
        )
        if not ok:
            problems.append(f"sweep row {i} fails its check: {row}")
    return problems


def sweep_op(seed: int, workdir: Path) -> Op:
    serial_out = workdir / "sweep.csv"
    parallel_out = workdir / "sweep-par2.csv"

    def check_parallel(code: object) -> list[str]:
        if code != 0:
            return [f"sweep --parallel 2 exited with {code}"]
        if parallel_out.read_bytes() != serial_out.read_bytes():
            return ["sweep --parallel 2 output differs from --parallel 1"]
        return []

    parallel = Op(
        call=lambda: run_sweep(sweep_args(seed, SWEEP_INSTANCES, parallel_out, 2)),
        check=check_parallel,
        units=SWEEP_RADII * SWEEP_INSTANCES,
    )
    return Op(
        call=lambda: run_sweep(sweep_args(seed, SWEEP_INSTANCES, serial_out, 1)),
        check=lambda code: check_sweep_csv(code, serial_out, seed, SWEEP_INSTANCES),
        units=SWEEP_RADII * SWEEP_INSTANCES,
        parallel=parallel,
    )


def sweep_ops(seed: int, workdir: Path) -> Iterator[Op]:
    k = 0
    while True:
        # instance seeds of one sweep are seed_base + instance_id, so bases
        # a whole sweep apart never share an instance
        yield sweep_op(seed * 10**7 + k * SWEEP_RADII * SWEEP_INSTANCES, workdir)
        k += 1


def verify_sweep(seed: int, workdir: Path) -> list[list[str]]:
    """Three checks: the fixed reference sweep matches its recorded hash, and
    --parallel 2 is byte-identical to --parallel 1 on it and on a seeded
    sweep."""
    golden = load_golden()["sweep"]
    instances = golden["instances"]
    outputs = {}
    csv_problems = []
    for name, sweep_seed in (("reference", golden["seed"]), ("seeded", seed * 10**7 + 9 * 10**6)):
        for parallel in (1, 2):
            out = workdir / f"check-{name}-{parallel}.csv"
            code = run_sweep(sweep_args(sweep_seed, instances, out, parallel))
            csv_problems += check_sweep_csv(code, out, sweep_seed, instances)
            outputs[name, parallel] = out.read_bytes() if code == 0 else b""
    digest = hashlib.sha256(outputs["reference", 1]).hexdigest()
    hash_problems = csv_problems
    if digest != golden["sha256"]:
        hash_problems = hash_problems + [f"reference sweep hash {digest} != {golden['sha256']}"]
    return [hash_problems] + [
        [] if outputs[name, 1] == outputs[name, 2]
        else [f"{name} sweep: --parallel 2 output differs from --parallel 1"]
        for name in ("reference", "seeded")
    ]


def extremal_state(lam: int, rng: np.random.Generator) -> extremal.ExtremalState:
    """Start state drawn as in acceptance criterion 7."""
    from sphere_dubins import extremal

    r = float(rng.uniform(0.3, 0.85))
    u = math.sqrt(1.0 - r * r) / r
    if rng.uniform() < 0.5:
        h2 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        return extremal.switch_state(lam, u, h2=h2)
    h12 = float(rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]))
    h2 = float(rng.uniform(-1.5, 1.5))
    return extremal.mid_arc_state(lam, u, h12=h12, h2=h2)


def lab_op(r: float, m: np.ndarray, oracle_seed: int, state: extremal.ExtremalState) -> Op:
    """One criterion-6 audit (plan, forward oracle, one-request cross-family
    audit) plus one criterion-7 trajectory with its invariants."""
    from sphere_dubins import extremal, oracle

    req = request(m, r)

    def call():
        result = planner.plan(req)
        target, geom, _, _, _ = planner.normalize_problem(req)
        found = oracle.forward_oracle(target, geom, seed=oracle_seed, budget=ORACLE_BUDGET)
        audit = oracle.cross_family_audit([req], seed=oracle_seed)
        report = extremal.phase_invariants(
            extremal.integrate_extremal(state, EXTREMAL_LENGTH, EXTREMAL_STEP)
        )
        return result, found, audit, report

    def check(out) -> list[str]:
        result, found, audit, report = out
        problems = check_plan(result, m, r)
        plan_length = result.best_candidate.physical_length
        oracle_length = found.length * req.sphere_radius if found.found else math.inf
        if not plan_length <= oracle_length + DOMINANCE_TOL:
            problems.append(f"oracle beat the plan: {oracle_length!r} < {plan_length!r}")
        if not audit.max_gap <= DOMINANCE_TOL:
            problems.append(f"cross-family audit gap {audit.max_gap:.2e}")
        drift = max(report.max_j_drift, report.max_f_drift, report.max_hamiltonian_residual)
        if not drift <= INVARIANT_TOL:
            problems.append(f"extremal invariant drift {drift:.2e}")
        if not report.control_consistent:
            problems.append("extremal control inconsistent with the sign of H12")
        return problems

    return Op(call=call, check=check)


def lab_ops(seed: int, workdir: Path) -> Iterator[Op]:
    """The same LAB_UNITS units over and over: a run times whole passes of
    this set, so every run of a seed times the same inputs, however fast."""
    rng = np.random.default_rng(seed)
    units = []
    for i in range(LAB_UNITS):
        r = LAB_RADII[i % len(LAB_RADII)]
        m = random_rotation(rng)
        oracle_seed = int(rng.integers(0, 2**31))
        units.append(lab_op(r, m, oracle_seed, extremal_state(i % 2, rng)))
    return itertools.cycle(units)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def first_plan(radii: tuple[float, ...]) -> Callable[[Path], None]:
    def call(workdir: Path) -> None:
        rng = np.random.default_rng(WARMUP_SEED)
        planner.plan(request(random_rotation(rng), radii[0]))
    return call


def first_sweep(workdir: Path) -> None:
    run_sweep(["sweep", "--r", "0.55", "--instances", "1", "--output", str(workdir / "first.csv")])


def first_lab(workdir: Path) -> None:
    from sphere_dubins import extremal, oracle

    rng = np.random.default_rng(WARMUP_SEED)
    req = request(random_rotation(rng), LAB_RADII[0])
    planner.plan(req)
    target, geom, _, _, _ = planner.normalize_problem(req)
    oracle.forward_oracle(target, geom, seed=0, budget=1)
    oracle.cross_family_audit([req])
    extremal.phase_invariants(extremal.integrate_extremal(extremal_state(0, rng), 0.1, EXTREMAL_STEP))


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                                       # what one op completes
    ops: Callable[[int, Path], Iterator[Op]]        # (seed, workdir) -> timed ops
    verify: Callable[[int, Path], list[list[str]]]  # untimed checks, problems per check
    warmup: Callable[[Path], None]                  # a small first call of each entry point
    pass_size: int = 1                              # a run times whole passes of this many ops


def golden_cases(*cases: str) -> Callable[[int, Path], list[list[str]]]:
    def verify(seed: int, workdir: Path) -> list[list[str]]:
        return verify_golden([e for e in load_golden()["entries"] if e["case"] in cases])
    return verify


def golden_sample_and(extra=None) -> Callable[[int, Path], list[list[str]]]:
    def verify(seed: int, workdir: Path) -> list[list[str]]:
        checks = verify_golden(golden_sample(seed))
        return checks + (extra(seed, workdir) if extra is not None else [])
    return verify


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan-common", "plan",
            plan_ops(COMMON_RADII, STRUCTURED),
            golden_cases("low", "half", "sqrt2"),
            first_plan(COMMON_RADII),
            SPECIAL_EVERY,
        ),
        Workload(
            "plan-chains", "plan",
            plan_ops(CHAIN_RADII, tuple(PUBLISHED) + STRUCTURED),
            golden_cases("four", "high"),
            first_plan(CHAIN_RADII),
            SPECIAL_EVERY,
        ),
        Workload("sweep", "row", sweep_ops, golden_sample_and(verify_sweep), first_sweep),
        Workload("lab", "lab unit", lab_ops, golden_sample_and(), first_lab, LAB_UNITS),
    )
}

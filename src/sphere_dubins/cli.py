"""Command-line front end: plan, sweep, validate, oracle.

Exit codes: 0 success, 2 input/flag validation, 3 radius out of range,
4 lemma construction out of regime, 5 failing lemma report, 6 oracle
dominance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (
    MalformedConfiguration,
    NoCandidateFound,
    OutOfRegime,
    RadiusOutOfRange,
)
from .geometry import sample_path
from .lemmas import construct, sweep_grid
from .oracle import forward_oracle, random_request
from .planner import (
    PlanRequest,
    PlanResult,
    Pose,
    beyond_proven,
    normalize_problem,
    plan,
    plan_batch,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RADIUS = 3
EXIT_REGIME = 4
EXIT_LEMMA_FAIL = 5
EXIT_DOMINANCE = 6

ADJUSTMENT_WARN = 1e-9   # pose inconsistencies above this are re-orthonormalized loudly
R_STEP_MIN = 1e-12       # sweep --r ranges round values to 12 decimals; finer steps repeat them


class InputError(Exception):
    """Input document or flag problem; the message names the failing field."""


# Exit code of each error that ends a command; main prints it as "error: ...".
EXIT_CODES = {
    InputError: EXIT_VALIDATION,
    MalformedConfiguration: EXIT_VALIDATION,
    NoCandidateFound: EXIT_VALIDATION,
    RadiusOutOfRange: EXIT_RADIUS,
    OutOfRegime: EXIT_REGIME,
}


def _number(value: object, field: str) -> float:
    """A JSON number (int or float; bool is not one) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{field}: expected a finite number") from None


def _vector(doc: dict, path: str) -> list[float]:
    node: object = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise InputError(f"{path}: missing field")
        node = node[key]
    if not isinstance(node, list) or len(node) != 3:
        raise InputError(f"{path}: expected a list of 3 numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _scalar(doc: dict, key: str) -> float:
    if key not in doc:
        raise InputError(f"{key}: missing field")
    value = _number(doc[key], key)
    if not math.isfinite(value):
        raise InputError(f"{key}: expected a finite number")
    return value


def load_request(path: str | Path) -> PlanRequest:
    """Parse a plan-request document; InputError messages name the field."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return PlanRequest(
        sphere_radius=_scalar(doc, "sphere_radius"),
        turning_radius=_scalar(doc, "turning_radius"),
        initial=Pose(
            np.array(_vector(doc, "initial.position")),
            np.array(_vector(doc, "initial.tangent")),
        ),
        final=Pose(
            np.array(_vector(doc, "final.position")),
            np.array(_vector(doc, "final.tangent")),
        ),
    )


def plan_document(result: PlanResult) -> dict:
    best = result.best_candidate
    doc = {
        "unit_r": result.unit_r,
        "sphere_radius": result.sphere_radius,
        "turning_radius": result.turning_radius,
        "best": result.best,
        "best_family": best.family,
        "best_physical_length": best.physical_length,
        "candidates": [
            {
                "family": c.family,
                "kinds": [s.kind.value for s in c.segments],
                "angles": [s.angle for s in c.segments],
                "unit_length": c.unit_length,
                "physical_length": c.physical_length,
                "residual": c.residual,
            }
            for c in result.candidates
        ],
    }
    if result.heuristic:
        doc["heuristic"] = True
        doc["note"] = "heuristic: outside proven sufficiency"
    return doc


def write_samples_csv(
    path: str | Path, result: PlanResult, req: PlanRequest, count: int
) -> None:
    """Uniformly spaced samples of the best path plus segment boundaries."""
    _, geom, initial, _, _ = normalize_problem(req, best_effort=True)
    best = result.best_candidate
    radius = req.sphere_radius
    rows = ["s,x,y,z,tx,ty,tz,nx,ny,nz,segment_index"]
    for s, cfg, index in sample_path(initial, best.segments, geom, best.unit_length / (count - 1)):
        values = [radius * s, *(radius * cfg.position), *cfg.tangent, *cfg.normal]
        rows.append(",".join(repr(float(v)) for v in values) + f",{index}")
    Path(path).write_text("\n".join(rows) + "\n", newline="\n")


def _warn_adjustment(result: PlanResult) -> None:
    if result.input_adjustment > ADJUSTMENT_WARN:
        print(
            f"warning: input frames re-orthonormalized "
            f"(largest adjustment {result.input_adjustment:.3e})",
            file=sys.stderr,
        )


def cmd_plan(args: argparse.Namespace) -> int:
    req = load_request(args.input)
    if args.samples is not None:
        if args.samples < 2:
            raise InputError("--samples must be at least 2")
        if not args.samples_out:
            raise InputError("--samples requires --samples-out")
    elif args.samples_out:
        raise InputError("--samples-out requires --samples")
    result = plan(req, mode=args.families, best_effort=args.best_effort)
    _warn_adjustment(result)
    Path(args.output).write_text(json.dumps(plan_document(result), indent=2) + "\n")
    if args.samples is not None:
        write_samples_csv(args.samples_out, result, req, args.samples)
    best = result.best_candidate
    print(f"best {best.family}: physical length {best.physical_length!r}")
    return EXIT_OK


def _sweep_row(task: tuple[int, int, float], result: PlanResult) -> str:
    """One CSV row: the planned instance's best family and its runner-up."""
    instance_id, seed, r = task
    best = result.best_candidate
    others = [c for c in result.candidates if c.family != best.family]
    if others:
        runner = min(others, key=lambda c: c.physical_length)
        runner_family = runner.family
        gap = runner.physical_length - best.physical_length
    else:
        runner_family = ""
        gap = 0.0
    # wall-clock timing would break the byte-identical determinism contract,
    # so the timing column is a fixed placeholder
    return (
        f"{instance_id},{seed},{r!r},{best.family},{best.unit_length!r},"
        f"{runner_family},{gap!r},{best.residual!r},0.0"
    )


def _sweep_rows(tasks: list[tuple[int, int, float]]) -> list[str]:
    """Rows of a run of sweep tasks, planned in one batch."""
    requests = [random_request(r, seed) for _, seed, r in tasks]
    return [_sweep_row(task, result) for task, result in zip(tasks, plan_batch(requests))]


def _parse_r_values(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError("--r range must be start:stop:step")
        try:
            start, stop, step_v = (float(p) for p in parts)
        except ValueError:
            raise InputError("--r range must contain numbers") from None
        if not all(math.isfinite(v) for v in (start, stop, step_v)):
            raise InputError("--r range must contain finite numbers")
        if step_v <= 0.0 or stop < start:
            raise InputError("--r range must have positive step and stop >= start")
        if step_v < R_STEP_MIN:
            raise InputError(f"--r range step must be at least {R_STEP_MIN:g}")
        values = []
        k = 0
        while True:
            v = start + k * step_v
            if v > stop + 1e-12:
                break
            values.append(round(v, 12))
            k += 1
        return values
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise InputError("--r must be a number, comma list, or start:stop:step") from None
    if not values:
        raise InputError("--r produced no values")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    r_values = _parse_r_values(args.r)
    if args.instances < 1:
        raise InputError("--instances must be at least 1")
    if args.parallel < 1:
        raise InputError("--parallel must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    for r in r_values:
        if not r > 0.0 or beyond_proven(r):
            raise InputError(f"--r value {r} outside (0, sqrt(3)/2]")

    tasks = []
    instance_id = 0
    for r in r_values:
        for _ in range(args.instances):
            tasks.append((instance_id, args.seed + instance_id, r))
            instance_id += 1

    if args.parallel == 1:
        rows = _sweep_rows(tasks)
    else:
        # N contiguous runs of tasks, on at most one worker per CPU; batches
        # never change a row
        size = -(-len(tasks) // args.parallel)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            rows = [row for chunk in pool.map(_sweep_rows, chunks) for row in chunk]

    header = (
        "instance_id,seed,r,best_family,best_length_unit,"
        "runner_up_family,gap,residual,solve_time_ms"
    )
    Path(args.output).write_text("\n".join([header] + rows) + "\n", newline="\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.grid:
        r_values, params = sweep_grid(args.lemma)
        failures = 0
        worst_residual = 0.0
        min_delta = math.inf
        for r in r_values:
            for p in params:
                report = construct(args.lemma, float(r), float(p))
                worst_residual = max(worst_residual, report.endpoint_residual)
                min_delta = min(min_delta, report.length_delta)
                if not report.passed:
                    failures += 1
                    print(f"FAIL r={r:.6g} param={p:.6g}", file=sys.stderr)
        print(
            f"lemma {args.lemma} grid {len(r_values)}x{len(params)}: "
            f"{failures} failures, worst residual {worst_residual:.3e}, "
            f"min length delta {min_delta:.6g}"
        )
        return EXIT_OK if failures == 0 else EXIT_LEMMA_FAIL
    if math.isnan(args.r) or math.isnan(args.param):
        raise InputError("--r and --param are required without --grid")
    report = construct(args.lemma, args.r, args.param)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_LEMMA_FAIL


def cmd_oracle(args: argparse.Namespace) -> int:
    req = load_request(args.input)
    if args.budget < 1:
        raise InputError("--budget must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    result = plan(req)
    target, geom, _, _, _ = normalize_problem(req)
    found = forward_oracle(target, geom, seed=args.seed, budget=args.budget)
    best = result.best_candidate
    oracle_length = found.length * req.sphere_radius  # found.length is inf when none is found
    dominated = best.unit_length <= found.length + 1e-6  # the bound is on the unit sphere
    print(f"plan:   {best.physical_length!r} ({best.family})")
    print(f"oracle: {oracle_length!r} ({found.family if found.found else 'none'})")
    print(f"dominance (plan <= oracle + 1e-6): {'OK' if dominated else 'VIOLATED'}")
    return EXIT_OK if dominated else EXIT_DOMINANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-dubins",
        description="Shortest curvature-constrained paths on a sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a single instance from a JSON request")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--samples-out", default=None)
    p.add_argument("--families", choices=("table", "all"), default="table")
    p.add_argument("--best-effort", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="plan seeded random instances, write a CSV")
    p.add_argument("--r", required=True, help="value, comma list, or start:stop:step")
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run a replacement-construction check")
    p.add_argument("--lemma", required=True, choices=("grg", "rgl", "lrl5", "lrlr6"))
    p.add_argument("--r", type=float, default=math.nan)
    p.add_argument("--param", type=float, default=math.nan)
    p.add_argument("--grid", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="compare the plan against the forward oracle")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the sphere-dubins package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-chains --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory for why each exists):
plan-common, plan-chains, sweep, lab.  The program is imported from
``src/`` of the checkout; nothing needs installing.

With ``--trace 0`` the run measures set-up time (median of five fresh
interpreters), then times the workload's operations for ``--seconds``
seconds with tracing off (``lab`` times whole passes over its fixed set of
units, so it may run past the deadline to finish one), each followed by
the calibration kernel of ``calibration.py``, then runs the untimed
correctness checks.  With
``--trace 1`` it runs every operation twice, untraced and with spans
recorded around the package's layers, and reports per-layer metrics and
the tracing overhead.  Every output is checked; an operation
that raises or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name and unit with its sample count or base.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
CAL_SHARE = 0.05        # calibration time after an op, as a share of the op's time
SETUP_TIMEOUT_S = 60
MAX_PROBLEMS_SHOWN = 10


def attempt(run, index: int, op, into: list) -> float:
    """Time one call, then check its output; a raise or a failed check
    counts the op as failed.  Returns the call's wall seconds (0 if it
    raised)."""
    run.attempted += 1
    elapsed = 0.0
    start_cpu = process_time()
    start = perf_counter()
    try:
        out = op.call()
        elapsed = perf_counter() - start
        run.cpu += process_time() - start_cpu
        problems = op.check(out)
    except Exception:  # a raise is a failed operation, not a crash
        problems = [traceback.format_exc()]
    else:
        into.append((index, elapsed, op.units))
    if problems:
        run.failed += 1
        run.problems.extend(f"op {index}: {p}" for p in problems)
    return elapsed


def measure(ops, seconds: float, pass_size: int):
    """Run ops in a closed loop until `seconds` of wall time have passed and
    a whole pass of `pass_size` ops is done.  The calibration kernel runs
    before the first op and after every op, for at least CAL_SHARE of the
    op's time; an op's calibration is the mean of the blocks before and
    after it."""
    from calibration import calibrate
    from metrics import Run

    run = Run(pass_size=pass_size)
    before = calibrate()
    deadline = perf_counter() + seconds
    for index, op in enumerate(ops):
        elapsed = attempt(run, index, op, run.samples)
        after = calibrate(CAL_SHARE * elapsed)
        run.cal[index] = 0.5 * (before + after)
        before = after
        if (index + 1) % pass_size == 0 and perf_counter() >= deadline:
            break
    return run


def measure_paired(ops, seconds: float, pass_size: int, tracer):
    """Run every op twice, once untraced and once traced, alternating which
    goes first, so that the tracing overhead is measured on the same inputs
    under the same load.  A sweep op's --parallel 2 twin runs traced after
    the pair."""
    from metrics import Run

    off, on = Run(pass_size=pass_size), Run(pass_size=pass_size)
    deadline = perf_counter() + seconds
    for index, op in enumerate(ops):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                attempt(off, index, op, off.samples)
                continue
            tracer.install()
            tracer.op = index
            try:
                attempt(on, index, op, on.samples)
                if op.parallel is not None:
                    tracer.op = -1
                    attempt(on, index, op.parallel, on.parallel)
            finally:
                tracer.uninstall()
        if (index + 1) % pass_size == 0 and perf_counter() >= deadline:
            break
    return off, on


def measure_setup(workload: str, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import the modules the workload
    uses and make its first call."""
    code = (
        "import sys, pathlib; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import workloads; "
        f"workloads.WORKLOADS[{workload!r}].warmup(pathlib.Path({str(workdir)!r}))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "sphere_dubins").rglob("*.py"))


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    from metrics import END_TO_END, end_to_end
    from stats import percentile, tail_percentile

    setup = measure_setup(workload.name, workdir)
    workload.warmup(workdir)
    run = measure(workload.ops(seed, workdir), seconds, workload.pass_size)
    rss = peak_rss_mb()
    if not run.samples:
        raise SystemExit(f"error: no {workload.unit} completed; {run.problems[:1]}")
    values = end_to_end(run, setup, rss)
    p50 = percentile(run.per_pass_ms, 50)
    tail = tail_percentile(run.per_unit_ms)
    cal = percentile(list(run.cal.values()), 50).value
    per_pass = f" passes of {workload.pass_size}" if workload.pass_size > 1 else ""
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_cal": f"per {workload.unit}, n={p50.samples}{per_pass}; "
        f"1 cal = one calibration chunk, median {1000.0 * cal:.4g} ms",
        "peak_rss_mb": "this process",
    }
    lines = [
        f"{name:34s} {values[name]:.6g} {unit}  ({notes[name]})"
        for name, (unit, _, _) in END_TO_END.items()
    ]
    lines.append(
        f"{'op_p50_ms':34s} {p50.value:.6g} ms  (wall time, not in BENCHMARK.json"
        + (f"; p{tail.q:g} {tail.value:.4g} ms with {tail.beyond} beyond)" if tail else ")")
    )
    lines.append(
        f"{'throughput':34s} {run.units / run.seconds:.6g} {workload.unit}s/s  "
        f"({run.units} in {run.seconds:.4g} s; cpu {1000.0 * run.cpu / run.units:.4g} ms "
        f"per {workload.unit}; not in BENCHMARK.json)"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in END_TO_END.items()}
    return run, metrics, lines


def run_traced(workload, seed: int, seconds: float, workdir: Path):
    from metrics import PER_LAYER, per_layer
    from tracing import Tracer

    workload.warmup(workdir)
    tracer = Tracer()
    off, on = measure_paired(workload.ops(seed, workdir), seconds, workload.pass_size, tracer)
    spans_path = OUT / f"spans-{workload.name}-{seed}.tsv.gz"
    tracer.write(spans_path)
    ratios = per_layer(tracer, off, on, src_lines())
    lines = [f"spans written to {spans_path.relative_to(ROOT)}"] + [
        f"{name:34s} {ratios[name].value:.6g} {unit}  "
        f"(= {ratios[name].numerator:.6g} / {ratios[name].base:.6g})"
        for name, unit in PER_LAYER.items()
    ]
    metrics = {name: {"value": ratios[name].value, "unit": unit} for name, unit in PER_LAYER.items()}
    off.attempted += on.attempted
    off.failed += on.failed
    off.problems += on.problems
    return off, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "sphere_dubins" / "__init__.py").is_file():
        print(f"error: package not found at {SRC / 'sphere_dubins'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        run, metrics, lines = runner(workload, args.seed, args.seconds, workdir)
        checks = workload.verify(args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run.attempted + len(checks)
    failed = run.failed + sum(1 for c in checks if c)
    for p in (run.problems + [p for c in checks for p in c])[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("\n".join(lines))
    print(f"{'error_rate':34s} {failed / attempted:.6g}  (= {failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

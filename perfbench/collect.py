"""Run the benchmark over several seeds and summarize it into one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --out BENCH.json
    python3 perfbench/collect.py --seeds 1-10 --against ../parent --out BENCH.json

Runs every workload once per seed, interleaved (seed 1 of every workload,
then seed 2, ...), each in its own process for BENCHMARK.json's
``run_seconds``, then one traced run per workload on the first seed.  With
``--against``, every run is paired with the same run in a second checkout
(for example the parent commit), alternating which goes first, so that a
change in the machine's speed hits both sides alike.  For each checkout,
end-to-end metric and workload it records the values, their median and
quartiles, and the spread (Q3 - Q1) / median with
``statistics.quantiles(values, n=4)`` (and the same for the printed
``op_p50_ms``, the operation time in plain wall milliseconds); for each
traced run, every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600

sys.path[:0] = [str(HERE), str(ROOT / "src")]
from metrics import END_TO_END  # noqa: E402
from stats import quartile_spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in spec.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if not trace:  # the same median in plain wall milliseconds, printed but not a metric
        result["op_p50_ms"] = next(float(x.split()[1]) for x in lines if x.startswith("op_p50_ms "))
    result["seed"] = seed
    print(f"{checkout.name:12s} {workload:12s} seed {seed:3d} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} wall {wall:.0f} s", flush=True)
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in [*END_TO_END, "op_p50_ms"]:
        values = [r["metrics"][name]["value"] if name in END_TO_END else r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": quartile_spread(values), "values": values,
        }
    return out


def collect(runs: dict[str, list[dict]], traced: dict[str, dict], seconds: int) -> dict:
    return {
        "seconds": seconds,
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs)
        and all(r["correct"] for r in traced.values()),
        "end_to_end": {w: summarize(rs) for w, rs in runs.items()},
        "run_wall_s": {w: statistics.median(r["wall_s"] for r in rs) for w, rs in runs.items()},
        "attempted_failed": {
            w: [sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)]
            for w, rs in runs.items()
        },
        "per_layer": {
            w: {"seed": r["seed"], "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            for w, r in traced.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", type=Path, help="a second checkout to pair every run with")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])

    runs = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    for i, seed in enumerate(seeds):
        for j, w in enumerate(WORKLOADS):
            order = checkouts if (i + j) % 2 == 0 else checkouts[::-1]
            for c in order:
                runs[c][w].append(run_once(c, w, seed, seconds, 0))
    traced = {c: {w: run_once(c, w, seeds[0], seconds, 1) for w in WORKLOADS} for c in checkouts}

    doc = {"seeds": seeds, **collect(runs[ROOT], traced[ROOT], seconds)}
    if args.against:
        doc["against"] = {"checkout": args.against.resolve().name,
                          **collect(runs[checkouts[1]], traced[checkouts[1]], seconds)}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for c in checkouts:
        for w, rs in runs[c].items():
            for name, s in summarize(rs).items():
                if name not in END_TO_END:
                    continue
                bound = END_TO_END[name][2]
                flag = "" if s["spread"] < bound / 3 else ("  (above a third of the bound)"
                                                           if s["spread"] <= bound else "  (ABOVE BOUND)")
                print(f"{c.name:12s} {w:12s} {name:12s} median {s['median']:.5g}  "
                      f"spread {s['spread']:.3f} (bound {bound}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

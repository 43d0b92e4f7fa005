"""Regenerate golden.json: the golden corpus and the reference sweep hash.

    python3 perfbench/make_golden.py

The corpus holds 1000 seeded targets, 200 in each regime case of the
paper's table: r = 0.3 (below 1/2), r = 0.5 exactly, r = 0.55 (4-chains),
r = 1/sqrt(2) exactly, and r in {0.71, 0.85, sqrt(3)/2} (fixed-pi, 4- and
5-chains).  Each case has 24 structured targets (near-identity, antipodal
position, pure turn), the published instance of its regime where there is
one, and uniform random targets.  Each entry records the best family and
unit length that `plan` returned when the file was made, and whether
another family tied it within GOLDEN_TOL (then only the length is checked).

Regenerating is a deliberate act: the corpus pins the planner's answers,
and a refactor must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from sphere_dubins import planner  # noqa: E402

CORPUS_SEED = 20250401
CASES = (
    ("low", (0.3,), ()),
    ("half", (0.5,), ()),
    ("four", (0.55,), ("published_RLRL",)),
    ("sqrt2", (w.SQRT2_INV,), ()),
    ("high", (0.71, 0.85, w.SQRT3_2), ("published_RLpiR",)),
)
PER_CASE = 200
STRUCTURED_PER_CASE = 24
SWEEP_SEED = 0
SWEEP_INSTANCES = 2     # the reference sweep is small: it checks the hash and --parallel


def corpus_targets(rng: np.random.Generator):
    for case, radii, published in CASES:
        targets = [w.special_target(kind, radii[0], rng) for kind in published]
        for j in range(STRUCTURED_PER_CASE):
            kind = w.STRUCTURED[j % len(w.STRUCTURED)]
            targets.append(w.special_target(kind, radii[(j // 3) % len(radii)], rng))
        j = 0
        while len(targets) < PER_CASE:
            targets.append(w.Target("random", radii[j % len(radii)], w.random_rotation(rng)))
            j += 1
        for t in targets:
            yield case, t


def entry(index: int, case: str, t: w.Target) -> dict:
    result = planner.plan(w.request(t.m, t.r))
    problems = w.check_plan(result, t.m, t.r)
    if problems:
        raise SystemExit(f"corpus target {index} fails its own check: {problems}")
    best = result.best_candidate
    tied = any(
        c.family != best.family and abs(c.unit_length - best.unit_length) <= w.GOLDEN_TOL
        for c in result.candidates
    )
    return {
        "id": index,
        "case": case,
        "kind": t.kind,
        "r": t.r,
        "position": [float(v) for v in t.m[:, 0]],
        "tangent": [float(v) for v in t.m[:, 1]],
        "family": best.family,
        "unit_length": best.unit_length,
        "family_tied": tied,
    }


def main() -> int:
    rng = np.random.default_rng(CORPUS_SEED)
    entries = [entry(i, case, t) for i, (case, t) in enumerate(corpus_targets(rng))]
    out = HERE.parent / ".bench_build" / "golden-sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    code = w.run_sweep(w.sweep_args(SWEEP_SEED, SWEEP_INSTANCES, out, 1))
    if code != 0:
        raise SystemExit(f"reference sweep exited with {code}")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    doc = {
        "corpus_seed": CORPUS_SEED,
        "tolerance": w.GOLDEN_TOL,
        "sweep": {
            "args": w.sweep_args(SWEEP_SEED, SWEEP_INSTANCES, Path("OUT.csv"), 1),
            "seed": SWEEP_SEED,
            "instances": SWEEP_INSTANCES,
            "sha256": digest,
        },
        "entries": entries,
    }
    text = json.dumps(doc, indent=None, separators=(",", ":"))
    w.GOLDEN_PATH.write_text(text.replace('},{"id"', '},\n{"id"') + "\n")
    families = sorted({e["family"] for e in entries})
    print(f"wrote {len(entries)} entries ({len(families)} best families: {' '.join(families)}), "
          f"sweep sha256 {digest[:12]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Bit-drift pins: the recorded golden corpus and reference sweep.

`perfbench/golden.json` holds 1000 plan targets with the best family and
unit length recorded when the corpus was made, and the SHA-256 of a small
reference sweep, which pins the `repr` of every length and residual it
writes.  The file is only read here.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from sphere_dubins import cli
from sphere_dubins import planner as pl

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])


def golden_request(entry: dict) -> pl.PlanRequest:
    """Unit-sphere request from the canonical frame to the entry's final pose."""
    return pl.PlanRequest(
        sphere_radius=1.0,
        turning_radius=entry["r"],
        initial=pl.Pose(E_X, E_Y),
        final=pl.Pose(np.array(entry["position"]), np.array(entry["tangent"])),
    )


def test_golden_corpus_in_one_batch():
    entries = GOLDEN["entries"]
    assert len(entries) == 1000
    results = pl.plan_batch([golden_request(e) for e in entries])
    tol = GOLDEN["tolerance"]
    misses = []
    for entry, result in zip(entries, results):
        best = result.best_candidate
        if not abs(best.unit_length - entry["unit_length"]) <= tol:
            misses.append((entry["id"], "length", best.unit_length, entry["unit_length"]))
        if not entry["family_tied"] and best.family != entry["family"]:
            misses.append((entry["id"], "family", best.family, entry["family"]))
        assert best.residual <= 1e-9 and math.isfinite(best.unit_length)
    assert not misses, misses[:10]


def test_reference_sweep_hash(tmp_path):
    # the recorded args run serially; two workers must write the same bytes
    sweep = GOLDEN["sweep"]
    out = tmp_path / "reference.csv"
    args = [str(out) if a == "OUT.csv" else a for a in sweep["args"]]
    assert str(out) in args and args[args.index("--parallel") + 1] == "1"
    for parallel in ("1", "2"):
        args[args.index("--parallel") + 1] = parallel
        out.unlink(missing_ok=True)
        assert cli.main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sweep["sha256"], parallel

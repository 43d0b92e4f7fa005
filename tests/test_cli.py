import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import request_from_segments
from sphere_dubins import cli
from sphere_dubins import geometry as geo
from sphere_dubins.planner import plan


def write_request(path, segments, unit_r, sphere_radius=1.0):
    req = request_from_segments(segments, unit_r, sphere_radius)
    doc = {
        "sphere_radius": req.sphere_radius,
        "turning_radius": req.turning_radius,
        "initial": {
            "position": [float(v) for v in req.initial.position],
            "tangent": [float(v) for v in req.initial.tangent],
        },
        "final": {
            "position": [float(v) for v in req.final.position],
            "tangent": [float(v) for v in req.final.tangent],
        },
    }
    path.write_text(json.dumps(doc))
    return req


RLPIR = [geo.R(0.7), geo.L(math.pi), geo.R(0.7)]  # published, r = 0.71
RLRL = [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)]  # published, r = 0.55


def test_plan_cmd_published_example(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_request(inp, [geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71)
    code = cli.main(["plan", "--input", str(inp), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["best_family"] == "RLpiR"
    assert abs(doc["best_physical_length"] - 3.2245) <= 5e-4


def test_plan_cmd_identity(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_request(inp, [], 0.5)
    assert cli.main(["plan", "--input", str(inp), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["best_physical_length"] == 0.0
    assert doc["candidates"][doc["best"]]["angles"] == []


def test_plan_cmd_radius_exit_code(tmp_path):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    doc = json.loads(inp.read_text())
    doc["turning_radius"] = 0.9
    inp.write_text(json.dumps(doc))
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == 3


def test_plan_cmd_underflowing_radius_exit_code(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5, sphere_radius=1e10)
    doc = json.loads(inp.read_text())
    doc["turning_radius"] = 1e-320  # 1e-320 / 1e10 underflows to 0
    inp.write_text(json.dumps(doc))
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == 3
    assert "underflows" in capsys.readouterr().err


def test_plan_cmd_validation_exit_code(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"sphere_radius": 1.0}))
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == 2
    inp.write_text("not json")
    assert cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("sphere_radius", True),
        ("turning_radius", "0.6"),
        ("initial.tangent", [0, "1", 0]),
        ("sphere_radius", 10 ** 400),
    ],
    ids=["bool-scalar", "string-scalar", "string-entry", "huge-int"],
)
def test_plan_cmd_rejects_non_numbers(tmp_path, capsys, field, value):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    doc = json.loads(inp.read_text())
    node = doc
    *parents, key = field.split(".")
    for name in parents:
        node = node[name]
    node[key] = value
    inp.write_text(json.dumps(doc))
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["initial"].pop("position"), "initial.position: missing field"),
    (lambda doc: doc["final"].update(tangent=[0.0, 1.0]),
     "final.tangent: expected a list of 3 numbers"),
    (lambda doc: doc.update(sphere_radius=math.inf), "sphere_radius: expected a finite number"),
], ids=["missing-vector", "two-list", "infinity"])
def test_plan_cmd_rejects_bad_fields(tmp_path, capsys, edit, message):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    doc = json.loads(inp.read_text())
    edit(doc)
    inp.write_text(json.dumps(doc))  # math.inf is written as the JSON literal Infinity
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_request_rejects_missing_files_and_non_objects(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(cli.InputError, match=f"^input file not found: {re.escape(str(missing))}$"):
        cli.load_request(missing)
    listed = tmp_path / "list.json"
    listed.write_text("[1.0, 0.5]")
    with pytest.raises(cli.InputError, match="^input document must be a JSON object$"):
        cli.load_request(listed)


def test_plan_output_roundtrip_recompose(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_request(inp, [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55)
    assert cli.main(["plan", "--input", str(inp), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    req = cli.load_request(inp)
    from sphere_dubins.planner import normalize_problem

    target, geom, _, _, _ = normalize_problem(req)
    best = doc["candidates"][doc["best"]]
    segs = [geo.Segment(k, a) for k, a in zip(best["kinds"], best["angles"])]
    recomposed = float(np.linalg.norm(geo.compose_path(segs, geom) - target))
    assert abs(recomposed - best["residual"]) <= 1e-12


def test_plan_samples_csv(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    csv_path = tmp_path / "samples.csv"
    write_request(inp, [geo.R(0.7), geo.L(math.pi), geo.R(0.7)], 0.71, sphere_radius=2.0)
    code = cli.main(
        ["plan", "--input", str(inp), "--output", str(out),
         "--samples", "21", "--samples-out", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s,x,y,z,tx,ty,tz,nx,ny,nz,segment_index"
    rows = [line.split(",") for line in lines[1:]]
    s_values = [float(r[0]) for r in rows]
    indices = [int(r[-1]) for r in rows]
    total = json.loads(out.read_text())["best_physical_length"]
    step = total / 20
    assert s_values[0] == 0.0
    assert abs(s_values[-1] - total) <= 1e-9
    # uniform spacing except at boundary rows, which are flagged by an index change
    for (s0, i0), (s1, i1) in zip(zip(s_values, indices), zip(s_values[1:], indices[1:])):
        if i0 == i1:
            k0 = round(s0 / step)
            k1 = round(s1 / step)
            if abs(s0 - k0 * step) <= 1e-9 and abs(s1 - k1 * step) <= 1e-9:
                assert abs((s1 - s0) - step) <= 1e-9
        else:
            assert i1 == i0 + 1
    # positions lie on the radius-2 sphere and frames are orthonormal
    for r in rows:
        pos = np.array([float(v) for v in r[1:4]])
        tan = np.array([float(v) for v in r[4:7]])
        assert abs(np.linalg.norm(pos) - 2.0) <= 1e-9
        assert abs(np.linalg.norm(tan) - 1.0) <= 1e-9
        assert abs(pos @ tan) / 2.0 <= 1e-9


def test_plan_cmd_families_all_superset(tmp_path):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.R(0.35), geo.L(3.5458), geo.R(3.5458), geo.L(0.35)], 0.55)
    out_table = tmp_path / "table.json"
    out_all = tmp_path / "all.json"
    assert cli.main(["plan", "--input", str(inp), "--output", str(out_table)]) == 0
    assert cli.main(["plan", "--input", str(inp), "--output", str(out_all),
                     "--families", "all"]) == 0
    table = json.loads(out_table.read_text())
    everything = json.loads(out_all.read_text())
    assert everything["best_physical_length"] <= table["best_physical_length"] + 1e-9
    assert len(everything["candidates"]) >= len(table["candidates"])


def test_plan_cmd_best_effort_label(tmp_path):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    doc = json.loads(inp.read_text())
    doc["turning_radius"] = 0.9
    inp.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main(["plan", "--input", str(inp), "--output", str(out), "--best-effort"])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["heuristic"] is True
    assert "heuristic" in result["note"]


def test_plan_samples_requires_sink(tmp_path):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    code = cli.main(
        ["plan", "--input", str(inp), "--output", str(tmp_path / "o.json"), "--samples", "5"]
    )
    assert code == 2


def test_plan_samples_out_requires_samples(tmp_path, capsys):
    inp = tmp_path / "in.json"
    csv_path = tmp_path / "s.csv"
    write_request(inp, [geo.G(1.0)], 0.5)
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     "--samples-out", str(csv_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: --samples-out requires --samples\n"
    assert not csv_path.exists()


def test_plan_samples_needs_two(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    code = cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     "--samples", "1", "--samples-out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: --samples must be at least 2\n"


def test_plan_samples_of_an_empty_path(tmp_path):
    # the identity's best path is EMPTY: one sample at the start, segment index -1
    inp = tmp_path / "in.json"
    csv_path = tmp_path / "samples.csv"
    write_request(inp, [], 0.5)
    assert cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     "--samples", "5", "--samples-out", str(csv_path)]) == 0
    header, *rows = csv_path.read_text().splitlines()
    assert header == "s,x,y,z,tx,ty,tz,nx,ny,nz,segment_index"
    assert rows == ["0.0,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,-1"]


def test_plan_warns_about_an_adjusted_pose(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.G(1.0)], 0.5)
    doc = json.loads(inp.read_text())
    doc["final"]["tangent"] = [v * (1.0 + 1e-7) for v in doc["final"]["tangent"]]
    inp.write_text(json.dumps(doc))
    assert cli.main(["plan", "--input", str(inp), "--output", str(tmp_path / "o.json")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: input frames re-orthonormalized (largest adjustment ")
    assert float(err.split()[-1].rstrip(")")) > cli.ADJUSTMENT_WARN


@pytest.mark.parametrize("families", ["table", "all"])
def test_plan_cmd_pure_arc(tmp_path, families):
    # L(2.0) at r = 0.71: a single arc, and LGL/LGR with G = 0 merge their outer arcs
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_request(inp, [geo.L(2.0)], 0.71)
    assert cli.main(["plan", "--input", str(inp), "--output", str(out),
                     "--families", families]) == 0
    doc = json.loads(out.read_text())
    assert doc["best_family"] == "L"
    assert abs(doc["best_physical_length"] - 1.42) <= 1e-12


def test_plan_cmd_published_rlrl(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_request(inp, RLRL, 0.55)
    assert cli.main(["plan", "--input", str(inp), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["best_family"] == "RLRL"


def test_sweep_row_without_a_runner_up():
    identity = plan(request_from_segments([], 0.5))
    assert [c.family for c in identity.candidates] == ["EMPTY"]
    assert cli._sweep_row((0, 0, 0.5), identity) == "0,0,0.5,EMPTY,0.0,,0.0,0.0,0.0"


def test_sweep_determinism_across_parallel(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--r", "0.5,0.8", "--instances", "4", "--seed", "7"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2), "--parallel", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("instance_id,seed,r,best_family")
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[6]) >= 0.0  # gap
        assert float(fields[7]) <= 1e-9  # residual


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1), (64, 10)])
def test_sweep_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch, cpus, workers):
    # --parallel 500 over 10 rows: ten one-row runs on min(runs, CPUs) workers;
    # the stand-in pool records its size and maps in this process
    started, mapped = [], []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            mapped.extend(len(chunk) for chunk in chunks)
            return map(fn, chunks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    args = ["sweep", "--r", "0.5,0.8", "--instances", "5", "--seed", "7"]
    assert cli.main(args + ["--output", str(serial)]) == 0
    assert not started
    assert cli.main(args + ["--output", str(parallel), "--parallel", "500"]) == 0
    assert started == [workers] and mapped == [1] * 10
    assert parallel.read_bytes() == serial.read_bytes()


def test_sweep_high_regime_families_are_cataloged(tmp_path):
    out = tmp_path / "high.csv"
    assert cli.main(["sweep", "--r", "0.8", "--instances", "20",
                     "--seed", "3", "--output", str(out)]) == 0
    from sphere_dubins.planner import family_catalog

    valid = {f.tag for f in family_catalog(0.8)}
    winners = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert all(w in valid for w in winners)
    # observational: no specific count asserted for the extra families
    extras = [w for w in winners if w in ("LRpiL", "RLpiR", "LRLR", "RLRL", "LRLRL", "RLRLR")]
    print(f"high-regime winners among extras: {len(extras)}/{len(winners)}")


def test_sweep_rejects_bad_flags(tmp_path):
    assert cli.main(["sweep", "--r", "0.5", "--instances", "0",
                     "--output", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["sweep", "--r", "0.95", "--instances", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["sweep", "--r", "zzz", "--instances", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["sweep", "--r", "0.5", "--instances", "1", "--seed", "-5",
                     "--output", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_sweep_accepts_the_proven_maximum_rounded_up(tmp_path):
    # one ulp above sqrt(3)/2, within the regime band: the proven catalog
    out = tmp_path / "max.csv"
    assert cli.main(["sweep", "--r", "0.8660254037844387", "--instances", "2",
                     "--seed", "1", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("flags, message", [
    (["--r", "0.3:0.5"], "--r range must be start:stop:step"),
    (["--r", "0.3:x:0.1"], "--r range must contain numbers"),
    (["--r", "0.5:0.3:0.1"], "--r range must have positive step and stop >= start"),
    (["--r", ","], "--r produced no values"),
    (["--r", "0.5", "--parallel", "0"], "--parallel must be at least 1"),
], ids=["two-parts", "not-a-number", "stop-below-start", "empty-list", "parallel-0"])
def test_sweep_rejects_bad_specs(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", *flags, "--instances", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0.3:inf:0.1", "0.3:0.5:nan", "0.3:0.5:1e-300"])
def test_sweep_rejects_runaway_range(tmp_path, spec):
    """A non-finite part or a vanishing step is an input error, not an endless loop."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "sphere_dubins.cli", "sweep", "--r", spec,
         "--instances", "1", "--output", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: --r range"), out.stderr
    assert not (tmp_path / "x.csv").exists()


def test_sweep_range_spec(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["sweep", "--r", "0.3:0.5:0.1", "--instances", "1",
                     "--seed", "1", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    rs = [float(line.split(",")[2]) for line in lines[1:]]
    assert rs == [0.3, 0.4, 0.5]


@pytest.mark.parametrize(
    "lemma,r,param",
    [
        ("grg", "0.5", "0.5236"),
        ("rgl", "0.865", "0.3491"),
        ("lrl5", "0.55", "0.6981"),
        ("lrlr6", "0.72", "0.6981"),
    ],
)
def test_validate_cmd_passes(lemma, r, param, capsys):
    code = cli.main(["validate", "--lemma", lemma, "--r", r, "--param", param])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out


@pytest.mark.parametrize("lemma", ["grg", "rgl", "lrl5", "lrlr6"])
def test_validate_grid_passes(lemma, capsys):
    # every row of every report, coefficient checks included, meets its bound
    assert cli.main(["validate", "--lemma", lemma, "--grid"]) == 0
    assert " 0 failures" in capsys.readouterr().out


def test_validate_cmd_out_of_regime():
    assert cli.main(["validate", "--lemma", "rgl", "--r", "0.5", "--param", "0.3"]) == 4


def test_validate_cmd_requires_params():
    assert cli.main(["validate", "--lemma", "grg"]) == 2


def test_oracle_cmd(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.L(1.0), geo.G(0.8), geo.R(0.4)], 0.5)
    code = cli.main(["oracle", "--input", str(inp), "--budget", "4000", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "dominance" in captured.out
    assert "OK" in captured.out


def test_oracle_cmd_published_rlpir_is_dominated(tmp_path, capsys):
    # the pi middle arc is a double root for the free RLR chain
    inp = tmp_path / "in.json"
    write_request(inp, RLPIR, 0.71)
    code = cli.main(["oracle", "--input", str(inp), "--budget", "20000", "--seed", "2"])
    captured = capsys.readouterr()
    assert "dominance (plan <= oracle + 1e-6): OK" in captured.out
    assert code == 0


def test_oracle_cmd_judges_dominance_on_unit_lengths(tmp_path, capsys):
    # on an Earth-sized sphere the RLpiR double-root gap, 3.6e-7 on the unit
    # sphere, reads 2.3e-3 in physical length: the 1e-6 bound is a unit one
    inp = tmp_path / "in.json"
    write_request(inp, RLPIR, 0.71, sphere_radius=6371.0)
    code = cli.main(["oracle", "--input", str(inp), "--budget", "20000", "--seed", "2"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("plan:   20543.48") and out[0].endswith(" (RLpiR)")
    assert out[2] == "dominance (plan <= oracle + 1e-6): OK"
    assert code == 0


def test_oracle_cmd_rejects_zero_budget(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.L(1.0)], 0.5)
    assert cli.main(["oracle", "--input", str(inp), "--budget", "0"]) == 2
    assert capsys.readouterr().err == "error: --budget must be at least 1\n"


def test_oracle_cmd_rejects_negative_seed(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [geo.L(1.0)], 0.5)
    code = cli.main(["oracle", "--input", str(inp), "--budget", "100", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative\n"


def test_oracle_cmd_identity(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_request(inp, [], 0.5)
    code = cli.main(["oracle", "--input", str(inp), "--budget", "100", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1] == "oracle: 0.0 (EMPTY)"

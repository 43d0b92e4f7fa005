"""Tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench
"""

import itertools
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

from metrics import END_TO_END, PER_LAYER, Run, end_to_end
from stats import (
    Ratio,
    Span,
    covered_length,
    percentile,
    quartile_spread,
    self_times,
    tail_percentile,
    totals_by_name,
)

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_interpolates_and_counts():
    p = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert p.value == 2.5
    assert (p.samples, p.beyond) == (4, 2)
    assert percentile([7.0], 95).value == 7.0
    p95 = percentile(list(range(1, 101)), 95)
    assert p95.value == pytest.approx(95.05)
    assert (p95.samples, p95.beyond) == (100, 5)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * 30) is None            # nothing lies above a constant
    tail = tail_percentile([float(i) for i in range(200)])
    assert tail.q == 95.0 and tail.beyond == 10
    assert tail_percentile([float(i) for i in range(100)]).q == 90.0
    assert tail_percentile([float(i) for i in range(20)]) is None


def test_ratio_keeps_its_base():
    r = Ratio(3.0, 4.0)
    assert (r.value, r.numerator, r.base) == (0.75, 3.0, 4.0)
    assert Ratio(5.0, 0.0).value == 0.0


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("plan", 0.0, 10.0, -1, 0),
        Span("solve_family", 1.0, 4.0, 0, 0),
        Span("solve_three", 1.5, 3.5, 1, 0),   # grandchild of plan
        Span("solve_family", 5.0, 6.0, 0, 0),
        Span("plan", 11.0, 12.0, -1, 1),       # a second op, no children
    ]
    assert self_times(spans) == [6.0, 1.0, 2.0, 1.0, 1.0]
    totals = totals_by_name(spans)
    assert totals["plan"].calls == 2
    assert totals["plan"].inclusive == 11.0
    assert totals["plan"].self_time == 7.0
    assert totals["solve_family"].self_time == 2.0


def test_self_time_with_overlapping_children():
    spans = [Span("p", 0.0, 10.0, -1, 0), Span("a", 1.0, 5.0, 0, 0), Span("b", 4.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == 5.0


def test_end_to_end_metrics_from_samples():
    # calibration chunks of 1 ms throughout: cal units equal milliseconds
    run = Run(samples=[(0, 0.002, 1), (1, 0.004, 1), (2, 0.003, 1)], cal=dict.fromkeys(range(3), 0.001))
    values = end_to_end(run, [1.0, 3.0, 2.0], 80.0)
    assert values["setup_s"] == 2.0
    assert values["op_p50_cal"] == pytest.approx(3.0)
    assert values["peak_rss_mb"] == 80.0
    rows = Run(samples=[(0, 1.0, 100), (1, 3.0, 100), (2, 2.0, 100)],   # sweeps of 100 rows
               cal=dict.fromkeys(range(3), 0.001))
    assert end_to_end(rows, [1.0], 1.0)["op_p50_cal"] == pytest.approx(20.0)
    assert Ratio(rows.units, rows.seconds).value == pytest.approx(50.0)
    # two passes of two units: the first pass's mean is 3 ms, the second's 6 ms
    passes = Run(pass_size=2, samples=[(0, 0.002, 1), (1, 0.004, 1), (2, 0.005, 1), (3, 0.007, 1)])
    assert passes.per_pass_ms == pytest.approx([3.0, 6.0])


def test_calibrated_time_cancels_the_machine_speed():
    # the machine runs at half speed during ops 1 and 2: op time and
    # calibration chunk both double, so every op reads 4 chunks
    run = Run(samples=[(0, 0.004, 1), (1, 0.008, 1), (2, 0.008, 1), (3, 0.004, 1)],
              cal={0: 0.001, 1: 0.002, 2: 0.002, 3: 0.001})
    assert run.per_pass_ms == pytest.approx([4.0, 8.0, 8.0, 4.0])
    assert run.per_pass_cal == pytest.approx([4.0] * 4)
    # in a pass each op is divided by its own calibration before the mean
    passes = Run(pass_size=2, samples=run.samples, cal=run.cal)
    assert passes.per_pass_cal == pytest.approx([4.0, 4.0])
    assert end_to_end(passes, [1.0], 1.0)["op_p50_cal"] == pytest.approx(4.0)


class _Op:
    units = 1

    @staticmethod
    def call():
        return None

    @staticmethod
    def check(out):
        return []


def test_measure_times_whole_passes():
    from run import measure

    assert len(measure(itertools.repeat(_Op), 0.0, 1).samples) == 1
    assert len(measure(itertools.repeat(_Op), 0.0, 4).samples) == 4
    run = measure(itertools.repeat(_Op), 0.01, 3)
    assert len(run.samples) % 3 == 0 and run.attempted == len(run.samples)
    assert sorted(run.cal) == [index for index, _, _ in run.samples]
    assert all(c > 0.0 for c in run.cal.values())


def test_calibrate_runs_at_least_one_chunk_and_fills_its_time():
    from calibration import calibrate

    one = calibrate()
    assert 0.0 < one < 0.1
    start = perf_counter()
    calibrate(0.02)
    assert perf_counter() - start >= 0.02


def test_quartile_spread_matches_statistics_module():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / med
    assert math.isinf(quartile_spread([0.0, 0.0, 0.0]))


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)

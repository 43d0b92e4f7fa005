"""Names, units and derivations of the benchmark's metrics.

End-to-end metrics come from a run with tracing off.  Each workload has one
operation (`Workload.unit`): a ``plan`` call, a sweep ``row``, or a ``lab
unit``; every end-to-end metric is defined on that operation so that every
workload reports all of them.  ``op_p50_cal`` is the median over passes of
the mean time per unit within a pass, each op's time taken in units of the
calibration kernel's time around it (``calibration.py``), so that the
machine's changes of speed cancel out.  A pass is eight consecutive calls
for ``plan-*`` (seven random targets and one special one, so every pass
mixes the radii alike; the median of single plans jumps between the modes
of plan-chains' mix of radii), one call for ``sweep`` (so the metric is the
median per-row time of a sweep call) and the whole fixed set of units for
``lab`` (so it is the mean unit time of that set, which varies less
between seeds than the median of its uneven units does).  The same in plain wall milliseconds
is printed, and reported per layer as ``process.wall_p50_ms``.

Per-layer metrics come from a traced run.  ``<layer>.<fn>.ms`` is the mean
inclusive wall time of one call of that function, except
``oracle.sample.ms``, which is the sampling time (``sample`` plus
``compose_batch``) of one ``forward_oracle`` call.  ``.calls`` counts calls
per ``plan`` for planner, linkage and geometry, and per ``forward_oracle``
for the oracle's internals.  A metric of a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from stats import Ratio, SpanTotals, percentile, totals_by_name
from tracing import LINKAGE_SOLVERS, Tracer

# name: (unit, better, bound).  The bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_cal": ("cal", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

PER_LAYER = {
    "planner.plan.calls": "count",
    "planner.plan.ms": "ms",
    "planner.plan.p95_ms": "ms",
    "planner.normalize_problem.ms": "ms",
    "planner.solve_family.ms": "ms",
    "planner.self.ms": "ms",
    "planner.families_per_plan": "count",
    "planner.candidates_per_plan": "count",
    "planner.feasible_ratio": "ratio",
    "planner.dedup_ratio": "ratio",
    "linkage.solutions_per_plan": "count",
    **{f"linkage.{fn}.ms": "ms" for fn in LINKAGE_SOLVERS},
    **{f"linkage.{fn}.calls": "count" for fn in LINKAGE_SOLVERS},
    "linkage.solve_equal_middle.roots": "count",
    "linkage.equal_middle_share": "ratio",
    "geometry.compose_path.calls": "count",
    "geometry.rotation_about_axis.calls": "count",
    "oracle.forward_oracle.ms": "ms",
    "oracle.sample.ms": "ms",
    "oracle.refine.ms": "ms",
    "oracle.refine.calls": "count",
    "oracle.polish.ms": "ms",
    "oracle.polish.calls": "count",
    "oracle.refine_accept_ratio": "ratio",
    "oracle.sample_share": "ratio",
    "oracle.refine_share": "ratio",
    "oracle.evaluations": "count",
    "oracle.cross_family_audit.ms": "ms",
    "extremal.integrate_extremal.ms": "ms",
    "extremal.steps": "count",
    "extremal.switches": "count",
    "extremal.step_us": "us",
    "extremal.phase_invariants.ms": "ms",
    "cli.sweep_row.ms": "ms",
    "cli.sweep.overhead_ms": "ms",
    "cli.par1_rows_per_s": "1/s",
    "cli.par2_rows_per_s": "1/s",
    "cli.par2_speedup": "ratio",
    "process.cpu_ms_per_op": "ms",
    "process.wall_p50_ms": "ms",
    "repo.src_lines": "count",
    "trace.overhead_pct": "%",
    "trace.spans_per_op": "count",
}


@dataclass
class Run:
    """What one measuring loop saw.  `samples` holds (op index, wall
    seconds, units) for every op that returned; `parallel` the same for the
    --parallel 2 sweeps of a traced sweep run.  Ops `pass_size * k` to
    `pass_size * (k + 1) - 1` form pass k.  `cal` maps an op's index to
    the seconds of one calibration chunk around it (untraced runs only)."""

    pass_size: int = 1
    samples: list[tuple[int, float, int]] = field(default_factory=list)
    parallel: list[tuple[int, float, int]] = field(default_factory=list)
    cal: dict[int, float] = field(default_factory=dict)
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(u for _, _, u in self.samples)

    @property
    def seconds(self) -> float:
        return sum(t for _, t, _ in self.samples)

    @property
    def per_unit_ms(self) -> list[float]:
        return [1000.0 * t / u for _, t, u in self.samples]

    @property
    def per_pass_ms(self) -> list[float]:
        """Mean wall milliseconds per unit of each pass, in pass order."""
        return self._per_pass(lambda index, t: 1000.0 * t)

    @property
    def per_pass_cal(self) -> list[float]:
        """Mean time per unit of each pass in calibration chunks, in pass
        order: each op's time is divided by its own calibration."""
        return self._per_pass(lambda index, t: t / self.cal[index])

    def _per_pass(self, scale) -> list[float]:
        time: Counter = Counter()
        units: Counter = Counter()
        for index, t, u in self.samples:
            time[index // self.pass_size] += scale(index, t)
            units[index // self.pass_size] += u
        return [time[k] / units[k] for k in sorted(time)]


def end_to_end(run: Run, setup_times: list[float], rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": percentile(setup_times, 50).value,
        "op_p50_cal": percentile(run.per_pass_cal, 50).value,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer: Tracer, untraced: Run, traced: Run, src_lines: int) -> dict[str, Ratio]:
    """Per-layer metrics of the traced executions, each with the base it is
    taken over; `untraced` ran the same ops with tracing off."""
    spans = tracer.finished_spans()
    totals = totals_by_name(spans)
    counts: Counter = tracer.counts

    def t(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    def ms(name: str) -> Ratio:
        return Ratio(1000.0 * t(name).inclusive, t(name).calls)

    plan = t("planner.plan")
    oracle = t("oracle.forward_oracle")
    refine = t("oracle.refine")
    polish = t("oracle.polish")
    integrate = t("extremal.integrate_extremal")
    equal_middle = t("linkage.solve_equal_middle")
    sampling = t("oracle.sample").inclusive + t("oracle.compose_batch").inclusive
    plan_ms = [1000.0 * s.duration for s in spans if s.name == "planner.plan"]

    def per_plan(x: float) -> Ratio:
        return Ratio(x, plan.calls)

    m = {
        "planner.plan.calls": Ratio(plan.calls, len(traced.samples)),
        "planner.plan.ms": ms("planner.plan"),
        "planner.plan.p95_ms": Ratio(percentile(plan_ms, 95).value if plan_ms else 0.0, 1),
        "planner.normalize_problem.ms": ms("planner.normalize_problem"),
        "planner.solve_family.ms": ms("planner.solve_family"),
        "planner.self.ms": Ratio(1000.0 * plan.self_time, plan.calls),
        "planner.families_per_plan": per_plan(t("planner.solve_family").calls),
        "planner.candidates_per_plan": per_plan(counts["planner.candidates"]),
        "planner.feasible_ratio": Ratio(counts["planner.feasible"], counts["linkage.solutions"]),
        "planner.dedup_ratio": Ratio(counts["planner.candidates"], counts["planner.feasible"]),
        "linkage.solutions_per_plan": per_plan(counts["linkage.solutions"]),
        "linkage.solve_equal_middle.roots": Ratio(
            counts["linkage.equal_middle_roots"], equal_middle.calls
        ),
        "linkage.equal_middle_share": Ratio(equal_middle.inclusive, plan.inclusive),
        "geometry.compose_path.calls": per_plan(counts["geometry.compose_path"]),
        "geometry.rotation_about_axis.calls": per_plan(counts["geometry.rotation_about_axis"]),
        "oracle.forward_oracle.ms": ms("oracle.forward_oracle"),
        "oracle.sample.ms": Ratio(1000.0 * sampling, oracle.calls),
        "oracle.refine.ms": ms("oracle.refine"),
        "oracle.refine.calls": Ratio(refine.calls, oracle.calls),
        "oracle.polish.ms": ms("oracle.polish"),
        "oracle.polish.calls": Ratio(polish.calls, oracle.calls),
        "oracle.refine_accept_ratio": Ratio(counts["oracle.refine_accepted"], refine.calls),
        "oracle.sample_share": Ratio(sampling, oracle.inclusive),
        "oracle.refine_share": Ratio(refine.inclusive, oracle.inclusive),
        "oracle.evaluations": Ratio(counts["oracle.evaluations"], oracle.calls),
        "oracle.cross_family_audit.ms": ms("oracle.cross_family_audit"),
        "extremal.integrate_extremal.ms": ms("extremal.integrate_extremal"),
        "extremal.steps": Ratio(counts["extremal.steps"], integrate.calls),
        "extremal.switches": Ratio(counts["extremal.switches"], integrate.calls),
        "extremal.step_us": Ratio(1e6 * integrate.inclusive, counts["extremal.steps"]),
        "extremal.phase_invariants.ms": ms("extremal.phase_invariants"),
        "cli.sweep_row.ms": ms("cli.sweep_row"),
        "process.cpu_ms_per_op": Ratio(1000.0 * untraced.cpu, untraced.units),
        "process.wall_p50_ms": Ratio(percentile(untraced.per_pass_ms, 50).value, 1),
        "repo.src_lines": Ratio(src_lines, 1),
        "trace.spans_per_op": Ratio(len(spans), len(traced.samples)),
    }
    for fn in LINKAGE_SOLVERS:
        m[f"linkage.{fn}.ms"] = ms(f"linkage.{fn}")
        m[f"linkage.{fn}.calls"] = per_plan(t(f"linkage.{fn}").calls)

    # cli layer: wall time of a serial sweep outside its rows, and the
    # --parallel 2 rate against the traced serial rate
    row_seconds: Counter = Counter()
    for s in spans:
        if s.name == "cli.sweep_row":
            row_seconds[s.op] += s.duration
    sweeps = [(seconds, row_seconds[op]) for op, seconds, _ in traced.samples if op in row_seconds]
    m["cli.sweep.overhead_ms"] = Ratio(1000.0 * sum(w - r for w, r in sweeps), len(sweeps))
    par1 = Ratio(traced.units, traced.seconds) if traced.parallel else Ratio(0.0, 0.0)
    par2 = Ratio(sum(u for _, _, u in traced.parallel), sum(w for _, w, _ in traced.parallel))
    m["cli.par1_rows_per_s"] = Ratio(par1.numerator, par1.base)
    m["cli.par2_rows_per_s"] = par2
    m["cli.par2_speedup"] = Ratio(par2.value, par1.value)

    # tracing overhead: the same ops, timed untraced and traced
    off_by_op = {op: seconds for op, seconds, _ in untraced.samples}
    matched = [(off_by_op[op], seconds) for op, seconds, _ in traced.samples if op in off_by_op]
    off = sum(a for a, _ in matched)
    on = sum(b for _, b in matched)
    m["trace.overhead_pct"] = Ratio(100.0 * (on - off), off)
    return {name: m[name] for name in PER_LAYER}

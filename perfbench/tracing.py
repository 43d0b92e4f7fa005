"""Span recording around the package's layers, from outside the package.

`Tracer.install` replaces functions of the package's modules with wrappers
that record a span (name, start, end, parent span, operation id) or count
calls; `uninstall` puts the originals back.  Nothing under ``src/`` changes.

Besides public functions, these private ones are wrapped because the
per-layer split needs them: ``oracle._FamilySearch.sample``,
``compose_batch``, ``refine`` and ``_polish`` (the oracle's sample-versus-
refine split), ``linkage._recover_outer`` (one call per equal-middle root),
and ``cli._sweep_row`` (one call per sweep row).  A function that is
missing, or that a listed module no longer shares with the others, raises
at install time, so the tracer is updated together with the package.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

from stats import Span

# A refine counts as accepted when it reaches forward_oracle's residual gate
# (ten times the default residual tolerance of 1e-9).
REFINE_GATE = 1e-8

LINKAGE_SOLVERS = ("solve_one", "solve_two", "solve_three", "solve_equal_middle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._names: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            self._names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._names.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable, within: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within in self._names:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, name: str, sites: list[tuple[object, str]], make: Callable) -> None:
        """Wrap one function at every place it is looked up from."""
        original = getattr(*sites[0])
        wrapper = make(original)
        for owner, attr in sites:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"trace: {owner.__name__}.{attr} is not {name}")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        from sphere_dubins import cli, extremal, geometry, linkage, oracle, planner

        search = oracle._FamilySearch
        spans = [
            ("planner.plan", [(planner, "plan"), (oracle, "plan"), (cli, "plan")], _observe_plan),
            ("planner.normalize_problem",
             [(planner, "normalize_problem"), (cli, "normalize_problem")], None),
            ("planner.solve_family", [(planner, "solve_family")], _observe_feasible),
        ]
        spans += [
            (f"linkage.{fn}", [(planner, fn), (linkage, fn)], _observe_solutions)
            for fn in LINKAGE_SOLVERS
        ]
        spans += [
            ("oracle.forward_oracle",
             [(oracle, "forward_oracle"), (cli, "forward_oracle")], _observe_oracle),
            ("oracle.cross_family_audit", [(oracle, "cross_family_audit")], None),
            ("oracle.sample", [(search, "sample")], None),
            ("oracle.compose_batch", [(search, "compose_batch")], None),
            ("oracle.refine", [(search, "refine")], _observe_refine),
            ("oracle.polish", [(search, "_polish")], None),
            ("extremal.integrate_extremal",
             [(extremal, "integrate_extremal")], _observe_trajectory),
            ("extremal.phase_invariants", [(extremal, "phase_invariants")], None),
            ("cli.sweep_row", [(cli, "_sweep_row")], None),
        ]
        counters = [
            ("geometry.compose_path",
             [(geometry, "compose_path"), (planner, "compose_path"), (oracle, "compose_path")],
             "planner.plan"),
            ("geometry.rotation_about_axis",
             [(geometry, "rotation_about_axis"), (linkage, "rotation_about_axis")],
             "planner.plan"),
            ("linkage.equal_middle_roots", [(linkage, "_recover_outer")],
             "linkage.solve_equal_middle"),
        ]
        for name, sites, observe in spans:
            self._patch(name, sites, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for name, sites, within in counters:
            self._patch(name, sites, lambda fn, n=name, w=within: self._counter(n, fn, w))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for s in self.finished_spans():
                out.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.op}\n")


def _observe_plan(counts: Counter, result) -> None:
    counts["planner.candidates"] += len(result.candidates)


def _observe_feasible(counts: Counter, result) -> None:
    counts["planner.feasible"] += len(result)


def _observe_solutions(counts: Counter, result) -> None:
    if isinstance(result, list):
        counts["linkage.solutions"] += len(result)
    elif result is not None:
        counts["linkage.solutions"] += 1


def _observe_oracle(counts: Counter, result) -> None:
    counts["oracle.evaluations"] += result.evaluations


def _observe_refine(counts: Counter, result) -> None:
    if result[1] <= REFINE_GATE:
        counts["oracle.refine_accepted"] += 1


def _observe_trajectory(counts: Counter, result) -> None:
    counts["extremal.steps"] += len(result.s) - 1
    counts["extremal.switches"] += len(result.switches)

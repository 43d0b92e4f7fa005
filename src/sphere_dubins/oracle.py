"""Independent upper-bound search and cross-catalog audits.

The forward oracle searches candidate-family angle vectors directly: seeded
uniform restarts inside each family's feasible box, then a
Levenberg-Marquardt polish with the chain's analytic Jacobian.  Samples are
composed as unit quaternions and ranked by tr(m^T R), which orders them as
the endpoint residual does; the ranking only chooses the restarts.  Free
and pinned-middle restarts are first brought near a root by coordinate
descent on the endpoint residual; equal-middle restarts (interior arcs pi +
beta) go to the polish as drawn, clamped into beta's margined box.  Each
restart ends as one canonical path; the finish takes them shortest first,
and the first whose one residual, read from `compose_path`, passes
TOL_RESIDUAL wins and is reported, so the rest are never composed.

One loop takes the chain shapes (free 1/2/3 slots, pinned pi,
equal-middle 4 and 5) one after another, each searched and finished
against the winner so far, in ascending least length (`_least_length`):
0 for the free and pinned-middle shapes, then 2 pi r and 3 pi r for the
equal-middle 4- and 5-chains, whose interior arcs of at least pi each
bound every path's length.  Two exact bounds cut the loop, and what
either rules out could never win, so neither changes the result.  A
shape whose least length is above the winner so far ends the loop.  The
chain invariant a_1 . P a_n = a_1 . B a_n (`_ruled_out`) bounds what a
free or pinned-middle family can reach: a family whose interval of
a_1 . B a_n misses a_1 . m a_n by more than the gate is never sampled,
and a shape left with no family is skipped.  That rules out most
families with fewer than three free arcs.  The oracle never consults the
closed-form linkage solver, so agreement between the two is meaningful
evidence: of the planner's cached audit catalog
(`planner._catalog(r, "all")`) it reads only each `ChainShape`'s
`templates`, `axes` and `positions`, and the catalog's arc-length factors
(`weights`), never the step-1 coefficients, the predicted scalars or a
`solve_*` function.  One search object serves each searched shape, with
one row of axes and bounds per family, and descends and polishes the
kept restarts of its families as one numpy batch, each row with its own
family's axes, bounds and stop rule and the same bits as in a batch of
its family alone.  The polish drives every near-root to float64
rounding, which matters at singular targets (a `CCC` middle arc of
exactly pi): there a 1e-9 residual still admits paths shorter than the
optimum by about 1e-5.  The cross-family audit compares the planner's
proven catalog against the audit catalog (great-circle sandwiches and
unconditional 4/5-chains) on given instances.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import (
    ANGLE_EPS,
    Configuration,
    Segment,
    TurnGeometry,
    canonical_angles,
    compose_path,
    rotations_from_generators,
    skew,
)
from .linkage import TOL_RESIDUAL, ChainShape, checked_target
from .planner import PlanRequest, Pose, _catalog, plan_batch
from .planner import plan  # noqa: F401  perfbench/tracing.py wraps oracle.plan

REFINE_TOP = 8        # restarts kept per family for local refinement
REFINE_SWEEPS = 60    # max coordinate-descent sweeps per restart
ACCEPT_GATE = 10.0 * TOL_RESIDUAL  # a polish row above it stops on a stall or after POLISH_STEPS
POLISH_FLOOR = 1e-15  # a polished row stops at this residual (float64 rounding of the chain)
POLISH_DAMP = 1e-14   # initial damping, relative to the largest singular value squared
POLISH_DAMP_CAP = 1e-4  # a row whose damping passes this stops: no step lowers its residual
POLISH_STEPS = 100    # steps for a row still above ACCEPT_GATE; rows below get as many again
POLISH_STALL = 1e-9   # a row above ACCEPT_GATE stops once a kept step gains less than this share
INVARIANT_SLACK = 2.0**-45  # 256 u: rounding between a passing row and its chain invariant


@dataclass(frozen=True)
class OracleResult:
    segments: tuple[Segment, ...] | None
    length: float
    residual: float
    family: str
    evaluations: int
    min_singular: float = math.nan  # of the winner's parameter Jacobian; nan if none or EMPTY

    @property
    def found(self) -> bool:
        return self.segments is not None


def _right_product(a: np.ndarray) -> np.ndarray:
    """The 4x4 matrices (..., 4, 4) of q -> q (0, a), a quaternion's product on
    the right with the pure quaternion of axis a, for one axis (3,) or a
    stack (..., 3); quaternions are (w, x, y, z)."""
    x, y, z = np.moveaxis(a, -1, 0)
    o = np.zeros_like(x)
    entries = [o, -x, -y, -z, x, o, z, -y, y, -z, o, x, z, y, -x, o]
    return np.stack(entries, axis=-1).reshape(np.shape(a)[:-1] + (4, 4))


def _davenport(m: np.ndarray) -> np.ndarray:
    """Davenport's symmetric K(m), with q^T K q = tr(m^T R(q)) for a unit
    quaternion q of rotation R(q)."""
    trace = np.trace(m)
    z = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    k = np.empty((4, 4))
    k[0, 0] = trace
    k[0, 1:] = k[1:, 0] = z
    k[1:, 1:] = m + m.T - trace * np.eye(3)
    return k


def _top_restarts(q: np.ndarray, davenport: np.ndarray) -> np.ndarray:
    """Indices of the REFINE_TOP samples, best first, by tr(m^T R) = q^T K q
    of their quaternions (`compose_batch`, `_davenport`): the order of the
    endpoint residual, since |R - m|^2 = 3 + |m|^2 - 2 tr(m^T R).  Only the
    kept samples are sorted, after a partition."""
    negated = -np.einsum("ni,ni->n", q @ davenport, q)
    kept = np.argpartition(negated, min(REFINE_TOP, len(negated)) - 1)[:REFINE_TOP]
    return kept[np.argsort(negated[kept])]


def _trace_argmax(
    w: np.ndarray, axis: np.ndarray, lo: np.ndarray, hi: np.ndarray, trig: np.ndarray
) -> np.ndarray:
    """Per row, the angle in [lo, hi] maximizing tr(w @ R(axis, angle)) in
    closed form: tr(W R) = a.W.a + (tr W - a.W.a) cos + tr(W K) sin, K = skew(a).
    Every axis lies in the x-z plane, so tr(W K) has no y term.  `trig`
    holds the rows' cos lo, cos hi, sin lo and sin hi, one per column."""
    const = np.einsum("ni,nij,nj->n", axis, w, axis)
    c_coef = w[:, 0, 0] + w[:, 1, 1] + w[:, 2, 2] - const
    s_coef = axis[:, 0] * (w[:, 1, 2] - w[:, 2, 1]) + axis[:, 2] * (w[:, 0, 1] - w[:, 1, 0])
    best = np.arctan2(s_coef, c_coef) % (2.0 * math.pi)
    # first maximum wins: the lower bound, then the upper, then the free optimum
    value, upper = (c_coef[:, None] * trig[:, :2] + s_coef[:, None] * trig[:, 2:]).T
    angle = np.where(upper > value, hi, lo)
    value = np.maximum(value, upper)
    free = (lo <= best) & (best <= hi) & (c_coef * np.cos(best) + s_coef * np.sin(best) > value)
    return np.where(free, best, angle)


class _FamilySearch:
    """Sampling, composition, the coordinate descent, the
    Levenberg-Marquardt polish and the per-restart finish for the families
    of one `ChainShape` (its `templates`, catalog `positions` and read-only
    `axes`), with one row per family of generators, quaternion steps and
    margined box.  `forward_oracle` builds one per searched shape, in its
    one loop over the shapes, and descends (free or pinned middle) or
    clamps (equal middles), polishes and finishes that shape's restarts
    before it builds the next.  `template` (the first family) gives the
    shape's `angles`, `slot_map` and `outer_cap`.  A batch of restarts
    names its rows' families (indices into `templates`) in `owner`; every
    product is one row's own, so a row gets the same bits in any batch."""

    def __init__(self, shape: ChainShape):
        self.templates = shape.templates
        self.positions = np.array(shape.positions)
        self.template = shape.templates[0]
        self.axes = shape.axes
        self.generators = skew(shape.axes)
        self.squares = self.generators @ self.generators
        self.quaternion_steps = _right_product(self.axes)
        # one trig column per distinct arc (its parameters and offset): the
        # interior arcs pi + beta are one
        offset = self.template.angles(np.zeros((1, self.template.slot_map.shape[1]))).T
        arcs = [tuple(arc) for arc in np.hstack([self.template.slot_map, offset]).tolist()]
        distinct = list(dict.fromkeys(arcs))
        self.arc_columns = [arcs.index(arc) for arc in distinct]
        self.slot_columns = [distinct.index(arc) for arc in arcs]
        lows, highs = (np.stack(bound) for bound in zip(*(t.box for t in self.templates)))
        # beta's interval is open: the polish, its clamped starts included,
        # stays ANGLE_EPS inside it (which `_least_length` relies on)
        margin = np.array([0.0, ANGLE_EPS, 0.0]) if self.template.equal_middles else 0.0
        self.box = (lows + margin, highs - margin)

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int, family: int) -> np.ndarray:
        lows, highs = self.templates[family].box
        if self.template.equal_middles:  # beta first, then outer arcs up to its cap
            params = np.zeros((n, 3))
            params[:, 1] = rng.uniform(lows[1], highs[1], size=n)
            cap = self.template.outer_cap(self.template.angles(params).T)
            params[:, 0] = rng.uniform(lows[0], cap)
            params[:, 2] = rng.uniform(lows[2], cap)
            return params
        return rng.uniform(lows, highs, size=(n, len(lows)))

    def compose_batch(self, params: np.ndarray, family: int) -> np.ndarray:
        """Unit quaternions (n, 4) of one family's sampled chains: slot by
        slot, q <- cos(angle/2) q + sin(angle/2) q (0, axis), composed in
        place as (4, n) columns so each step is one 4x4 product; the first
        slot's step from (1, 0, 0, 0) is written out, and the half-angle
        trig is taken once per distinct arc column.  They only rank the
        samples (`forward_oracle`) to choose restarts; the one gate reads
        the residual of `compose_path` (`refine`)."""
        half = 0.5 * np.ascontiguousarray(self.template.angles(params).T[self.arc_columns])
        cos, sin = np.cos(half), np.sin(half)
        first, *rest = self.slot_columns
        q = np.empty((4, len(params)))
        q[0] = cos[first]
        q[1:] = 0.0 + sin[first] * self.axes[family, 0, :, None]  # 0.0 +: the product's +0.0
        step_q = np.empty_like(q)
        for step, column in zip(self.quaternion_steps[family, 1:], rest):
            np.matmul(step, q, out=step_q)
            step_q *= sin[column]
            q *= cos[column]
            q += step_q
        return q.T

    # -- coordinate descent ------------------------------------------------
    def descend(self, m: np.ndarray, params: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Coordinate descent of a free or pinned-middle batch, every restart
        at once, each with its own family's axes and box.  Each sweep
        maximizes tr(R^T m) over one slot at a time, first to last; a pinned
        slot has lo == hi.  A restart stops once its residual gains less
        than 1e-16 in a sweep, reaches TOL_RESIDUAL * 1e-3, or REFINE_SWEEPS
        sweeps pass; only the restarts still running are swept.  The slot
        rotations carry over from sweep to sweep, the bounds' cosines and
        sines and one m^T per row are taken once (a stack times a stack of
        m^T has the bits of a stack times the one m^T, without the
        broadcast), and a sweep carries the product of the slots before the
        current one left to right, so its last product is the sweep's
        endpoint, whose residual is read.  The carried arrays are cut down
        to the running restarts only on a sweep where some stop."""
        lo, hi = (self.template.angles(bound[owner]) for bound in self.box)
        axes, k, k2 = self.axes[owner], self.generators[owner], self.squares[owner]
        angles = self.template.angles(params).copy()
        n_slots = axes.shape[1]
        p = angles.copy()  # the running restarts' angles
        m_t = np.tile(m.T, (len(angles), 1, 1))  # per row: m.T's bits, faster than broadcasting
        trig = np.stack([np.cos(lo), np.cos(hi), np.sin(lo), np.sin(hi)], axis=-1)
        rots = [rotations_from_generators(k[:, j], k2[:, j], angles[:, j]) for j in range(n_slots)]
        current = np.linalg.norm(reduce(np.matmul, rots[1:], rots[0]) - m, axis=(1, 2))
        active = np.arange(len(angles))
        for _ in range(REFINE_SWEEPS):
            if active.size == 0:
                break
            for slot in range(n_slots):
                w = m_t if slot == n_slots - 1 else reduce(np.matmul, rots[slot + 1:]) @ m_t
                if slot:
                    w = w @ prefix
                p[:, slot] = _trace_argmax(
                    w, axes[:, slot], lo[:, slot], hi[:, slot], trig[:, slot]
                )
                rots[slot] = rotations_from_generators(k[:, slot], k2[:, slot], p[:, slot])
                prefix = rots[0] if slot == 0 else prefix @ rots[slot]
            after = np.linalg.norm(prefix - m, axis=(1, 2))
            done = (current - after < 1e-16) | (after <= TOL_RESIDUAL * 1e-3)
            current = after
            if done.any():
                angles[active[done]] = p[done]
                keep = ~done
                active, p, current = active[keep], p[keep], current[keep]
                rots = [rot[keep] for rot in rots]
                axes, lo, hi, trig = axes[keep], lo[keep], hi[keep], trig[keep]
                k, k2, m_t = k[keep], k2[keep], m_t[keep]
        angles[active] = p
        return angles @ self.template.slot_map  # the parameters' arcs

    # -- polish and per-restart finish -------------------------------------
    def refine(
        self, m: np.ndarray, params: np.ndarray, family: int, geom: TurnGeometry
    ) -> tuple[tuple[Segment, ...], float]:
        """Finish one restart after the polish: its canonical segments and the
        one residual, ||compose_path - m||, that `forward_oracle` gates and reports."""
        template = self.templates[family]
        angles = template.angles(params[None, :])[0]
        segments = tuple(Segment(k, a) for k, a in zip(template.kinds, angles))
        return segments, float(np.linalg.norm(compose_path(segments, geom) - m))

    def linearize(self, params: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (k, 3, 3) and parameter Jacobians (k, 9, p) of a batch.

        Slot j's column of d(endpoint)/d(angle) is prefix_j @ skew(a_j) @
        suffix_j, with prefix_j the product of the slots before j and
        suffix_j that of slot j onward; `slot_map` takes it to parameters.
        The endpoints are the slot rotations multiplied left to right.
        """
        generators = self.generators[owner]
        angles = self.template.angles(params)
        rots = rotations_from_generators(generators, self.squares[owner], angles)
        n = rots.shape[1]
        prefix = [rots[:, 0]]
        for j in range(1, n):
            prefix.append(prefix[-1] @ rots[:, j])
        suffix = [rots[:, -1]]
        for j in range(n - 2, -1, -1):
            suffix.append(rots[:, j] @ suffix[-1])
        suffix.reverse()
        columns = [generators[:, 0] @ suffix[0]]
        columns += [prefix[j - 1] @ generators[:, j] @ suffix[j] for j in range(1, n)]
        slots = np.stack(columns, axis=-1).reshape(len(params), 9, n)
        return prefix[-1], slots @ self.template.slot_map

    def _clamp(self, params: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Into the box; equal-middle outer angles also to at most `outer_cap`."""
        lows, highs = self.box
        params = np.clip(params, lows[owner], highs[owner])
        if self.template.equal_middles:
            cap = self.template.outer_cap(self.template.angles(params).T)
            params[:, [0, 2]] = np.minimum(params[:, [0, 2]], cap[:, None])
        return params

    def _polish(
        self, m: np.ndarray, params: np.ndarray, owner: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Levenberg-Marquardt on a batch of restarts, all rows at once, each
        with its own family's axes and box: every row is driven towards
        POLISH_FLOOR.  Returns the parameters and the smallest singular
        value of each row's parameter Jacobian there.

        The damped step comes from the SVD of J, not from J^T J, which
        would square a near-zero singular value; the damping is relative to
        the largest singular value squared and starts near 0, so the step
        also moves along a nearly null direction.  A step is kept only where
        it lowers the residual (the damping then drops tenfold, else it
        rises a hundredfold), so no row ends worse than it started, and the
        box (with outer angles up to `outer_cap` on equal-middle chains) is
        enforced after every step.  A row stops at POLISH_FLOOR or once its
        damping passes POLISH_DAMP_CAP; one that is still above ACCEPT_GATE
        after POLISH_STEPS steps cannot be accepted and stops too, as does
        one above it whose kept step gains less than the share POLISH_STALL:
        it has settled off the root (an `LG` row held 1.009 for 100 steps)
        and would fail the finish's gate.  Below ACCEPT_GATE a row is never
        stopped on a small gain: at a singular root each step only quarters
        the residual.

        Honest limit: at a double root (a `CCC` middle arc of exactly pi)
        the residual grows quadratically along the null direction, so a
        float64 residual of a few eps fixes the angles, and hence the
        length, only to about sqrt(eps) scale.  At the published RLpiR the
        polished RLR lengths stay about 4e-7 below the optimum, half the
        1e-6 dominance bound.
        """
        params = params.copy()
        ends, jac = self.linearize(params, owner)
        res = (ends - m).reshape(len(params), 9)
        norm = np.linalg.norm(res, axis=1)
        damping = np.full(len(params), POLISH_DAMP)
        active = np.arange(len(params))
        for step in range(2 * POLISH_STEPS):
            live = (norm[active] > POLISH_FLOOR) & (damping[active] <= POLISH_DAMP_CAP)
            active = active[live & ((step < POLISH_STEPS) | (norm[active] <= ACCEPT_GATE))]
            if active.size == 0:
                break
            u, s, vt = np.linalg.svd(jac[active], full_matrices=False)
            lam = damping[active, None] * s[:, :1] ** 2
            coef = s / (s * s + lam) * np.einsum("kip,ki->kp", u, res[active])
            rows = owner[active]
            trial = self._clamp(params[active] - np.einsum("kpq,kp->kq", vt, coef), rows)
            ends, trial_jac = self.linearize(trial, rows)
            trial_res = (ends - m).reshape(len(active), 9)
            trial_norm = np.linalg.norm(trial_res, axis=1)
            old = norm[active]
            better = trial_norm < old
            stalled = better & (old > ACCEPT_GATE) & (old - trial_norm < POLISH_STALL * old)
            kept = active[better]
            params[kept], jac[kept] = trial[better], trial_jac[better]
            res[kept], norm[kept] = trial_res[better], trial_norm[better]
            damping[active] *= np.where(better, 0.1, 100.0)
            active = active[~stalled]
        return params, np.linalg.svd(jac, compute_uv=False)[:, -1]


def _integer(name: str, value, least: int, rule: str) -> int:
    """`operator.index(value)`; below `least` it raises ValueError saying `rule`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def _finish_lengths(template, params: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The length the finish ranks each parameter row by, with the bits of
    `path_length` of its `refine` segments: canonical arcs times the row's
    arc factors (k, SLOTS), added left to right.  A NaN parameter gives a
    NaN length."""
    arcs = canonical_angles(template.angles(params))
    return np.add.accumulate(arcs * factors[:, :arcs.shape[1]], axis=1)[:, -1]


def _least_length(shape: ChainShape, weights: np.ndarray) -> float:
    """The least length the finish can give a row of the shape.  For an
    equal-middle shape it is `_finish_lengths` of each family's canonical
    low arcs (outer arcs 0, interior arcs pi each) with its catalog arc
    factors, the least over the shape's families; 2 pi r for a 4-chain,
    3 pi r for a 5-chain.  A free or pinned-middle shape gets 0.0: the
    proof below holds only in the margined equal-middle box, and a free
    arc may sit at its box top 2 pi, which canonical_angles snaps to 0 (an
    `LRL` middle of 2 pi is no turn at all), so a free row can be shorter
    than its low arcs.

    The equal-middle bound is a true lower bound.  A row the finish
    measures has outer arcs of at least 0 and interior arcs pi + beta with
    beta in the margined box [ANGLE_EPS, pi - ANGLE_EPS]: `forward_oracle`
    clamps the drawn starts into it (`_clamp`) and the polish clamps every
    step.  canonical_angles leaves such an arc in [pi, 2 pi) and never
    snaps it to 0: at the top, 2 pi - (pi + (pi - ANGLE_EPS)) is
    1.0000000827e-9 in float64, above ANGLE_EPS.  Every canonical arc is
    then at least its low arc, and a rounded product by a factor >= 0 and
    a rounded sum are monotone in their operands, so the row's length,
    computed by the same operations in the same order, is at least this
    one."""
    if not shape.templates[0].equal_middles:
        return 0.0
    lows = np.stack([template.box[0] for template in shape.templates])
    factors = weights[list(shape.positions), 0]
    return float(_finish_lengths(shape.templates[0], lows, factors).min())


def _ruled_out(shape: ChainShape, m: np.ndarray) -> np.ndarray:
    """Per family of the shape, whether its chain invariant rules the
    target m out, so that no row of it can pass the finish's gate; on an
    equal-middle shape it rules nothing out.

    A chain P = R(a_1, .) B R(a_n, .) has a_1 . P a_n = a_1 . B a_n, as
    R(a, t) a = a (Davenport; Shuster and Markley).  Over the interior B
    takes, that scalar covers [k0 - rho, k0 + rho]: a_1 . a_n for one arc (1)
    or two, 2 (a_1 . a_2)(a_2 . a_3) - a_1 . a_3 around a pinned pi, and for
    a free middle (any angle, so a superset of its box) k0 = (a_1 . a_2)(a_2
    . a_3) with rho = hypot(a_1 . a_3 - k0, a_1 . (a_2 x a_3)).  The family
    is ruled out when |a_1 . m a_n - k0| - rho > TOL_RESIDUAL +
    INVARIANT_SLACK; as |a_1 . (P - m) a_n| <= ||P - m||_F, a row within
    TOL_RESIDUAL of m is not, once the slack bounds the rounding.

    The slack, in u = 2^-53: the axes (`turn_axis`) are unit to 3u.  A
    Rodrigues factor of `compose_path` is within 34u (Frobenius) of the
    exact rotation about the unit axis by its float angle: sine and cosine
    to 1 ulp, K^2 and the two sums rounded entrywise, the axis's norm.  Its
    at most three factors and two 3x3 products put P within 120u of the
    exact chain, and a pinned middle of float pi within 2u more.  The norm
    that gates P is within 6u TOL_RESIDUAL of ||P - m||_F.  The computed
    a_1 . m a_n is within 21u (||m||_F < 1.8 where a row passes), k0 within
    13u, rho within 25u and the rule's last subtractions within 7u.  The sum,
    under 190u, is below INVARIANT_SLACK = 256u = 2^-45, so a ruled-out
    family's every row has a gated residual above TOL_RESIDUAL."""
    a = shape.axes
    if shape.templates[0].equal_middles:
        return np.zeros(len(a), dtype=bool)
    first, last = a[:, 0], a[:, -1]
    ends = np.einsum("fi,fi->f", first, last)
    k0, rho = ends, 0.0  # one arc or two
    if a.shape[1] == 3:
        middle = a[:, 1]
        k0 = np.einsum("fi,fi->f", first, middle) * np.einsum("fi,fi->f", middle, last)
        if shape.templates[0].pinned:
            k0 = 2.0 * k0 - ends
        else:
            rho = np.hypot(ends - k0, np.einsum("fi,fi->f", first, np.cross(middle, last)))
    scalar = np.einsum("fi,ij,fj->f", first, m, last)
    return np.abs(scalar - k0) - rho > TOL_RESIDUAL + INVARIANT_SLACK


def _finish(
    m: np.ndarray,
    geom: TurnGeometry,
    weights: np.ndarray,
    search: _FamilySearch,
    owner: np.ndarray,
    params: np.ndarray,
    singular: np.ndarray,
    winner: tuple[float, float, OracleResult],
) -> tuple[float, float, OracleResult]:
    """The lazy finish of one polished batch (owner, parameters, min
    singular) against `winner` (length, catalog position, result).  Its
    restarts are taken by length (`_finish_lengths` with the catalog's arc
    factors `weights` at their families' positions), stably over catalog
    order, as long as they sort before the winner by (length, position);
    each is refined (`refine`), and the first whose residual is at most
    TOL_RESIDUAL is the new winner.  A NaN length sorts last and is never
    refined; no passing restart keeps the winner."""
    positions = search.positions[owner]
    lengths = _finish_lengths(search.template, params, weights[positions, 0])
    order = np.argsort(positions, kind="stable")  # the first equal length wins
    order = order[np.argsort(lengths[order], kind="stable")]  # shortest first, NaN last
    for i in order:
        if not (lengths[i], positions[i]) < winner[:2]:  # False for a NaN length
            break
        family = int(owner[i])
        segments, res = search.refine(m, params[i], family, geom)
        if res <= TOL_RESIDUAL:  # a NaN residual fails
            length, tag = float(lengths[i]), search.templates[family].tag
            evaluations = winner[2].evaluations
            return length, int(positions[i]), OracleResult(
                segments, length, res, tag, evaluations, float(singular[i])
            )
    return winner


def forward_oracle(
    m: np.ndarray,
    geom: TurnGeometry,
    seed: int,
    budget: int,
) -> OracleResult:
    """Best residual-passing path found by seeded restarts plus refinement.

    The budget counts sampled angle vectors, split evenly across the audit
    catalog's families with at least one per family.  `evaluations` is the
    number the budget allots, `per_family` per non-EMPTY family, a
    ruled-out family's and a pruned shape's included, so it can exceed
    the budget: budget=1 reports 25 below 1/sqrt(2) and 27 above.

    One loop takes the non-EMPTY chain shapes of the planner's cached audit
    catalog (`_catalog(r, "all")`) in ascending least length
    (`_least_length`: 0 for the free and pinned-middle shapes, then 2 pi r
    and 3 pi r for the equal-middle 4- and 5-chains), stably over catalog
    order.  For each shape:

    1. Once the winner so far is strictly shorter than the shape's least
       length, the loop stops: every row of it and of every later shape
       sorts after the winner.
    2. A family whose chain invariant rules the target out (`_ruled_out`)
       draws no sample, and a shape with every family ruled out is skipped.
    3. Otherwise one search (`_FamilySearch`) samples each kept family
       (non-EMPTY catalog family i with seed + i) and takes its REFINE_TOP
       best samples (`_top_restarts`).  Free and pinned-middle restarts
       are descended (`descend`), equal-middle ones clamped into the
       margined box (beta is drawn from [0, pi]); all of them are polished
       in one batch, and the finish (`_finish`) refines them shortest first,
       only those that sort before the winner by (length, catalog position),
       until one passes TOL_RESIDUAL.

    The result is that of finishing every restart of every family at once:
    no row of a ruled-out family can pass the gate, and a row keeps its
    bits in any batch.  It is the shortest passing path, the first of two
    equal lengths in catalog order.
    A target the identity reaches is EMPTY, with no search.  `min_singular`
    is the smallest singular value of the winner's parameter Jacobian, from
    the polish.  Results are deterministic for a fixed seed.  The target is
    a finite 3x3 array-like, `seed` an integer >= 0 and `budget` an integer
    >= 1.
    """
    m = checked_target(m)
    seed = _integer("seed", seed, 0, "non-negative")
    budget = _integer("budget", budget, 1, "at least 1")
    catalog = _catalog(geom.r, "all")
    families = tuple(f for f in catalog.families if f.kinds)
    per_family = max(1, budget // len(families))

    evaluations = per_family * len(families)
    identity_residual = float(np.linalg.norm(m - np.eye(3)))
    if identity_residual <= TOL_RESIDUAL:  # no path is shorter than the empty one
        return OracleResult((), 0.0, identity_residual, "EMPTY", evaluations)

    davenport = _davenport(m)
    shapes = [shape for shape in catalog.shapes if shape.templates[0].kinds]
    leasts = [_least_length(shape, catalog.weights) for shape in shapes]
    winner = (math.inf, math.inf, OracleResult(None, math.inf, math.inf, "", evaluations))
    for least, shape in sorted(zip(leasts, shapes), key=lambda pair: pair[0]):
        if winner[0] < least:  # every row of this shape and the next sorts after the winner
            break
        kept = np.flatnonzero(~_ruled_out(shape, m))
        if not kept.size:
            continue
        search, starts = _FamilySearch(shape), []
        for family in kept.tolist():
            rng = np.random.default_rng(seed + families.index(shape.templates[family]))
            params = search.sample(rng, per_family, family)
            starts.append(params[_top_restarts(search.compose_batch(params, family), davenport)])
        owner = np.repeat(kept, [len(rows) for rows in starts])
        if search.template.equal_middles:
            params = search._clamp(np.concatenate(starts), owner)  # beta is drawn from [0, pi]
        else:
            params = search.descend(m, np.concatenate(starts), owner)
        polished = search._polish(m, params, owner)
        winner = _finish(m, geom, catalog.weights, search, owner, *polished, winner)
    return winner[2]


# ---------------------------------------------------------------------------
# instance generation and the table-vs-all audit
# ---------------------------------------------------------------------------

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized four-component sample."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


_START = Configuration.canonical()  # every `request_for_target` starts here
_START_FRAME = _START.frame()
_START_FRAME.setflags(write=False)


def request_for_target(
    m: np.ndarray, unit_r: float, sphere_radius: float = 1.0
) -> PlanRequest:
    """Plan request from the canonical start to the frame reached by m."""
    final_frame = _START_FRAME @ m
    return PlanRequest(
        sphere_radius=sphere_radius,
        turning_radius=unit_r * sphere_radius,
        initial=Pose(_START.position * sphere_radius, _START.tangent),
        final=Pose(final_frame[:, 0] * sphere_radius, final_frame[:, 1]),
    )


def random_request(unit_r: float, seed: int) -> PlanRequest:
    return request_for_target(random_rotation(np.random.default_rng(seed)), unit_r)


@dataclass(frozen=True)
class AuditRow:
    unit_r: float
    table_family: str
    table_length: float
    all_family: str
    all_length: float

    @property
    def gap(self) -> float:
        return self.table_length - self.all_length


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    seed: int

    @property
    def max_gap(self) -> float:
        return max((row.gap for row in self.rows), default=0.0)


def cross_family_audit(requests: list[PlanRequest], seed: int = 0) -> AuditReport:
    """Compare the proven catalog's best against the audit catalog's best.

    Both plans are deterministic; `seed` is only recorded in the report.
    A positive gap means the audit families found a shorter path than the
    proven catalog, which would contradict the catalog's sufficiency; the
    expected outcome is a gap bounded by solver noise.
    """
    rows = tuple(
        AuditRow(
            unit_r=table.unit_r,
            table_family=table.best_candidate.family,
            table_length=table.best_candidate.physical_length,
            all_family=everything.best_candidate.family,
            all_length=everything.best_candidate.physical_length,
        )
        for table, everything in zip(
            plan_batch(requests, mode="table"), plan_batch(requests, mode="all")
        )
    )
    return AuditReport(rows=rows, seed=seed)

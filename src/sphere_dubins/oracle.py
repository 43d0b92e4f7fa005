"""Independent upper-bound search and cross-catalog audits.

The forward oracle searches candidate-family angle vectors directly: seeded
uniform restarts inside each family's feasible box, coordinate descent on
the endpoint residual, then a Levenberg-Marquardt polish with the chain's
analytic Jacobian.  It never consults the closed-form linkage solver, so
agreement between the two is meaningful evidence.  The descent runs every
kept restart of every family at once, one numpy batch per chain shape, and
the polish one batch per family; each restart keeps its own bounds and stop
rule.  The polish drives every near-root to float64 rounding, which matters
at singular targets (a `CCC` middle arc of exactly pi): there a 1e-9
residual still admits paths shorter than the optimum by about 1e-5.  The
cross-family audit compares the planner's proven catalog against the audit
catalog (great-circle sandwiches and unconditional 4/5-chains) on given
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import (
    Configuration,
    Segment,
    TurnGeometry,
    compose_path,
    path_length,
    rotations_about_axis,
    skew,
    turn_axis,
)
from .linkage import TOL_RESIDUAL
from .planner import FamilyTemplate, PlanRequest, Pose, family_catalog, plan

REFINE_TOP = 8        # restarts kept per family for local refinement
REFINE_SWEEPS = 60    # max coordinate-descent sweeps per restart
ACCEPT_GATE = 10.0 * TOL_RESIDUAL  # a refined restart above this is dropped
POLISH_GATE = 0.05    # descended residual below this gets the Levenberg-Marquardt polish
POLISH_FLOOR = 1e-15  # a polished row stops at this residual (float64 rounding of the chain)
POLISH_DAMP = 1e-14   # initial damping, relative to the largest singular value squared
POLISH_DAMP_CAP = 1e-4  # a row whose damping passes this stops: no step lowers its residual
POLISH_STEPS = 100    # steps for a row still above ACCEPT_GATE; rows below get as many again
BETA_LO = 1e-9        # equal-middle descent and LM polish keep beta in [BETA_LO, pi - BETA_LO]


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


def _chain(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Products R(axes[0], angles[:, 0]) @ ... @ R(axes[-1], angles[:, -1]);
    `axes` is (slots, 3), or (n, slots, 3) for one chain per row."""
    rots = rotations_about_axis(axes, angles)
    return reduce(np.matmul, (rots[:, k] for k in range(1, angles.shape[1])), rots[:, 0])


def _equal_angles(params: np.ndarray, n_slots: int) -> np.ndarray:
    """(alpha, beta, gamma) rows to chain angles with every interior at pi + beta."""
    mids = np.repeat(math.pi + params[:, 1:2], n_slots - 2, axis=1)
    return np.hstack([params[:, 0:1], mids, params[:, 2:3]])


class _FamilySearch:
    """Sampling, composition, the Levenberg-Marquardt polish and the
    per-restart finish for one family's feasible box."""

    def __init__(self, template: FamilyTemplate, geom: TurnGeometry):
        self.template = template
        self.axes = np.array([turn_axis(k, geom) for k in template.kinds])
        self.generators = np.array([skew(a) for a in self.axes])
        n_slots = len(template.kinds)
        # slots-by-params matrix d(angles)/d(params): the polish's Jacobian chain rule
        self.slot_map = np.eye(n_slots)
        if template.equal_middles:
            self.mode = "equal"
            self.slot_map = np.column_stack(
                [self.slot_map[:, 0], self.slot_map[:, 1:-1].sum(axis=1), self.slot_map[:, -1]]
            )
            self.box = (
                np.array([0.0, BETA_LO, 0.0]),
                np.array([2.0 * math.pi, math.pi - BETA_LO, 2.0 * math.pi]),
            )
            self.middle_cos, self.middle_sin = _middle_fourier(self.axes[1:-1])
        elif template.fixed_middle is not None:
            self.mode = "fixed"
            self.slot_map = self.slot_map[:, [0, 2]]
            self.box = (np.zeros(2), np.full(2, math.pi))
        else:
            self.mode = "free"
            lows = np.zeros(n_slots)
            if template.is_free_middle_turn_triple:
                lows[1] = math.pi
            self.box = (lows, np.full(n_slots, 2.0 * math.pi))

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.mode == "equal":
            beta = rng.uniform(0.0, math.pi, size=n)
            outer_hi = math.pi + beta
            alpha = rng.uniform(0.0, outer_hi)
            gamma = rng.uniform(0.0, outer_hi)
            return np.column_stack([alpha, beta, gamma])
        if self.mode == "fixed":
            return rng.uniform(0.0, math.pi, size=(n, 2))
        lows, highs = self.box
        return rng.uniform(lows, highs, size=(n, len(self.axes)))

    def angles(self, params: np.ndarray) -> np.ndarray:
        if self.mode == "equal":
            return _equal_angles(params, len(self.axes))
        if self.mode == "fixed":
            mid = np.full((params.shape[0], 1), self.template.fixed_middle)
            return np.hstack([params[:, 0:1], mid, params[:, 1:2]])
        return params

    def compose_batch(self, params: np.ndarray) -> np.ndarray:
        return _chain(self.axes, self.angles(params))

    def segments_for(self, params: np.ndarray) -> tuple[Segment, ...]:
        angles = self.angles(params[None, :])[0]
        return tuple(Segment(k, a) for k, a in zip(self.template.kinds, angles))

    # -- polish and per-restart finish -------------------------------------
    def refine(self, m: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, float]:
        """Finish one restart after the descent (`_descend`) and the polish
        (`_polish`): its parameters and the endpoint residual that
        `forward_oracle` gates on."""
        end = _chain(self.axes, self.angles(params[None, :]))[0]
        return params, float(np.linalg.norm(end - m))

    def linearize(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (k, 3, 3) and parameter Jacobians (k, 9, p) of a batch.

        Slot j's column of d(endpoint)/d(angle) is prefix_j @ skew(a_j) @
        suffix_j, with prefix_j the product of the slots before j and
        suffix_j that of slot j onward; `slot_map` takes it to parameters.
        The endpoint is `_chain`'s product, to the bit.
        """
        rots = rotations_about_axis(self.axes, self.angles(params))
        n = rots.shape[1]
        prefix = [rots[:, 0]]
        for j in range(1, n):
            prefix.append(prefix[-1] @ rots[:, j])
        suffix = [rots[:, -1]]
        for j in range(n - 2, -1, -1):
            suffix.append(rots[:, j] @ suffix[-1])
        suffix.reverse()
        columns = [self.generators[0] @ suffix[0]]
        columns += [prefix[j - 1] @ self.generators[j] @ suffix[j] for j in range(1, n)]
        slots = np.stack(columns, axis=-1).reshape(len(params), 9, n)
        return prefix[-1], slots @ self.slot_map

    def _clamp(self, params: np.ndarray) -> np.ndarray:
        """Into the box; equal-middle outer angles also to at most pi + beta."""
        params = np.clip(params, *self.box)
        if self.mode == "equal":
            params[:, [0, 2]] = np.minimum(params[:, [0, 2]], math.pi + params[:, 1:2])
        return params

    def _polish(self, m: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levenberg-Marquardt on this family's descended restarts, all rows
        at once: every row whose residual is below POLISH_GATE is driven to
        POLISH_FLOOR.  Returns the parameters and the smallest singular value
        of each row's parameter Jacobian there (nan above the gate).

        The damped step comes from the SVD of J, not from J^T J, which
        would square a near-zero singular value; the damping is relative to
        the largest singular value squared and starts near 0, so the step
        also moves along a nearly null direction.  A step is kept only where
        it lowers the residual (the damping then drops tenfold, else it
        rises a hundredfold), so no row ends worse than it started, and the
        box (with outer angles <= pi + beta on equal-middle chains) is
        enforced after every step.  A row stops at POLISH_FLOOR or once its
        damping passes POLISH_DAMP_CAP; one that is still above ACCEPT_GATE
        after POLISH_STEPS steps cannot be accepted and stops too.  A row
        is never stopped on a small gain: at a singular root each step only
        quarters the residual.

        Honest limit: at a double root (a `CCC` middle arc of exactly pi)
        the residual grows quadratically along the null direction, so a
        float64 residual of a few eps fixes the angles, and hence the
        length, only to about sqrt(eps) scale.  At the published RLpiR the
        polished RLR lengths stay about 4e-7 below the optimum, half the
        1e-6 dominance bound.
        """
        params = params.copy()
        ends, jac = self.linearize(params)
        res = (ends - m).reshape(len(params), 9)
        norm = np.linalg.norm(res, axis=1)
        rows = np.flatnonzero(norm < POLISH_GATE)
        damping = np.full(len(params), POLISH_DAMP)
        active = rows
        for step in range(2 * POLISH_STEPS):
            live = (norm[active] > POLISH_FLOOR) & (damping[active] <= POLISH_DAMP_CAP)
            active = active[live & ((step < POLISH_STEPS) | (norm[active] <= ACCEPT_GATE))]
            if active.size == 0:
                break
            u, s, vt = np.linalg.svd(jac[active], full_matrices=False)
            lam = damping[active, None] * s[:, :1] ** 2
            coef = s / (s * s + lam) * np.einsum("kip,ki->kp", u, res[active])
            trial = self._clamp(params[active] - np.einsum("kpq,kp->kq", vt, coef))
            ends, trial_jac = self.linearize(trial)
            trial_res = (ends - m).reshape(len(active), 9)
            trial_norm = np.linalg.norm(trial_res, axis=1)
            better = trial_norm < norm[active]
            kept = active[better]
            params[kept], jac[kept] = trial[better], trial_jac[better]
            res[kept], norm[kept] = trial_res[better], trial_norm[better]
            damping[active] *= np.where(better, 0.1, 100.0)
        singular = np.full(len(params), math.nan)
        singular[rows] = np.linalg.svd(jac[rows], compute_uv=False)[:, -1]
        return params, singular


# ---------------------------------------------------------------------------
# batched coordinate descent
# ---------------------------------------------------------------------------

def _trace_argmax(
    w: np.ndarray, axis: np.ndarray, lo: np.ndarray | float, hi: np.ndarray | float
) -> np.ndarray:
    """Per row, the angle in [lo, hi] maximizing tr(w @ R(axis, angle)) in
    closed form: tr(W R) = a.W.a + (tr W - a.W.a) cos + tr(W K) sin, K = skew(a)."""
    const = np.einsum("ni,nij,nj->n", axis, w, axis)
    c_coef = np.trace(w, axis1=1, axis2=2) - const
    s_coef = (
        axis[:, 0] * (w[:, 1, 2] - w[:, 2, 1])
        + axis[:, 1] * (w[:, 2, 0] - w[:, 0, 2])
        + axis[:, 2] * (w[:, 0, 1] - w[:, 1, 0])
    )
    lo, hi = np.broadcast_to(lo, c_coef.shape), np.broadcast_to(hi, c_coef.shape)
    best = np.arctan2(s_coef, c_coef) % (2.0 * math.pi)
    candidates = np.stack([lo, hi, best], axis=1)
    value = c_coef[:, None] * np.cos(candidates) + s_coef[:, None] * np.sin(candidates)
    value[:, 2] = np.where((lo <= best) & (best <= hi), value[:, 2], -np.inf)
    # first maximum wins: the lower bound, then the upper, then the free optimum
    return candidates[np.arange(len(best)), np.argmax(value, axis=1)]


def _middle_fourier(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix Fourier coefficients of B(beta) = prod_k R(axes[k], pi + beta).

    Each factor is I - sin(beta) K + (1 + cos(beta)) K^2, so B is a matrix
    trigonometric polynomial of degree d = len(axes); 2d + 1 equally spaced
    samples give its coefficients exactly: B = sum_k C[k] cos(k beta) + S[k] sin(k beta).
    """
    d = len(axes)
    n = 2 * d + 1
    t = 2.0 * math.pi * np.arange(n) / n
    blocks = _chain(axes, np.repeat(math.pi + t[:, None], d, axis=1))
    kt = np.outer(np.arange(d + 1), t)
    weight = np.full((d + 1, 1), 2.0 / n)
    weight[0] = 1.0 / n
    return (
        np.einsum("kj,jab->kab", weight * np.cos(kt), blocks),
        np.einsum("kj,jab->kab", weight * np.sin(kt), blocks),
    )


def _trig_values(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g(t) = sum_k a[:, k] cos(k t) + b[:, k] sin(k t) at angles t (n, c)."""
    kt = t[:, :, None] * np.arange(a.shape[1])
    return np.einsum("nck,nk->nc", np.cos(kt), a) + np.einsum("nck,nk->nc", np.sin(kt), b)


def _trig_max(a: np.ndarray, b: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the angle in [lo, hi] maximizing g(t) = sum_k a_k cos(k t) +
    b_k sin(k t), and g there.

    Candidates are the ends and the stationary points: with z = e^{it},
    g'(t) = sum_k e_k z^k + conj(e_k) z^-k, e_k = k (b_k + i a_k) / 2, so
    z^d g' is a degree-2d polynomial whose roots are batched companion
    eigenvalues.  A top coefficient that vanishes (below 1e-13 of the
    largest) lowers d instead of being divided by.  Every root's angle is a candidate, also one pushed off the
    unit circle by rounding near a double root: a candidate that is not a
    maximum only loses the comparison.
    """
    n, width = a.shape
    k = np.arange(width)
    e = 0.5 * k * (b + 1j * a)
    size = np.abs(e)
    degree = np.where(size > 1e-13 * size.max(axis=1, keepdims=True), k, 0).max(axis=1)
    roots = np.full((n, 2 * (width - 1)), lo)
    for d in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == d)
        poly = np.zeros((len(rows), 2 * d + 1), dtype=complex)
        poly[:, d - 1::-1] = e[rows, 1:d + 1]          # z^(d+k) for k = 1..d
        poly[:, d + 1:] = np.conj(e[rows, 1:d + 1])    # z^(d-k)
        companion = np.zeros((len(rows), 2 * d, 2 * d), dtype=complex)
        companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
        companion[:, np.arange(1, 2 * d), np.arange(2 * d - 1)] = 1.0
        roots[rows, :2 * d] = np.angle(np.linalg.eigvals(companion)) % (2.0 * math.pi)
    t = np.column_stack([np.full(n, lo), np.full(n, hi), roots])
    value = _trig_values(a, b, t)
    value[(t < lo) | (t > hi)] = -np.inf
    pick = (np.arange(n), np.argmax(value, axis=1))
    return t[pick], value[pick]


def _beta_step(
    middle_cos: np.ndarray, middle_sin: np.ndarray, left: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Per row, the beta in [BETA_LO, pi - BETA_LO] maximizing
    tr(left^T B(beta)), i.e. bringing the middle block closest to `left`,
    where it beats the current `beta`; elsewhere the current `beta`.
    B's Fourier coefficients come from `_middle_fourier`, one set per row."""
    a = np.einsum("nij,nkij->nk", left, middle_cos)
    b = np.einsum("nij,nkij->nk", left, middle_sin)
    best, value = _trig_max(a, b, BETA_LO, math.pi - BETA_LO)
    return np.where(value > _trig_values(a, b, beta[:, None])[:, 0], best, beta)


def _lockstep(step, residual, params: np.ndarray, rows: tuple) -> np.ndarray:
    """Sweep every restart with `step(params, *rows)` until its own stop rule
    holds: `residual(params, *rows)` gains less than 1e-16, reaches
    TOL_RESIDUAL * 1e-3, or REFINE_SWEEPS sweeps pass.  `rows` holds
    per-restart data; only the restarts still running are swept."""
    params = params.copy()
    current = residual(params, *rows)
    active = np.arange(len(params))
    for _ in range(REFINE_SWEEPS):
        if active.size == 0:
            break
        data = tuple(x[active] for x in rows)
        params[active] = step(params[active], *data)
        after = residual(params[active], *data)
        done = (current[active] - after < 1e-16) | (after <= TOL_RESIDUAL * 1e-3)
        current[active] = after
        active = active[~done]
    return params


def _descend_angles(axes, lo, hi, angles, m) -> np.ndarray:
    """Free and pinned-middle chains: each sweep maximizes tr(R^T m) over one
    slot at a time, first to last; a pinned slot has lo == hi."""
    n_slots = axes.shape[1]

    def residual(p, ax, *_):
        return np.linalg.norm(_chain(ax, p) - m, axis=(1, 2))

    def step(p, ax, lo, hi):
        rots = [rotations_about_axis(ax[:, k], p[:, k]) for k in range(n_slots)]
        eye = np.broadcast_to(np.eye(3), rots[0].shape)
        for slot in range(n_slots):
            prefix = reduce(np.matmul, rots[:slot], eye)
            suffix = reduce(np.matmul, rots[slot + 1:], eye)
            p[:, slot] = _trace_argmax(
                suffix @ m.T @ prefix, ax[:, slot], lo[:, slot], hi[:, slot]
            )
            rots[slot] = rotations_about_axis(ax[:, slot], p[:, slot])
        return p

    return _lockstep(step, residual, angles, (axes, lo, hi))


def _descend_equal(axes, middle_cos, middle_sin, params, m) -> np.ndarray:
    """Equal-middle chains (alpha, beta, gamma): alpha and gamma by the trace
    argmax within [0, pi + beta], then beta by the exact maximum of
    tr(left^T B(beta)), taken only where it beats the current beta."""
    n_slots = axes.shape[1]

    def residual(p, ax, *_):
        return np.linalg.norm(_chain(ax, _equal_angles(p, n_slots)) - m, axis=(1, 2))

    def step(p, ax, mc, ms):
        alpha, beta, gamma = p.T
        top = math.pi + beta
        mid = _chain(ax[:, 1:-1], np.repeat(top[:, None], n_slots - 2, axis=1))
        last = rotations_about_axis(ax[:, -1], gamma)
        alpha = _trace_argmax(mid @ last @ m.T, ax[:, 0], 0.0, top)
        first = rotations_about_axis(ax[:, 0], alpha)
        gamma = _trace_argmax(m.T @ first @ mid, ax[:, -1], 0.0, top)
        last = rotations_about_axis(ax[:, -1], gamma)
        left = np.swapaxes(first, 1, 2) @ m @ np.swapaxes(last, 1, 2)
        beta = _beta_step(mc, ms, left, beta)
        top = math.pi + beta
        return np.column_stack([np.minimum(alpha, top), beta, np.minimum(gamma, top)])

    return _lockstep(step, residual, params, (axes, middle_cos, middle_sin))


def _descend(
    searches: list[_FamilySearch], starts: list[np.ndarray], m: np.ndarray
) -> list[np.ndarray]:
    """Coordinate descent of every family's restarts, one lockstep batch per
    chain shape: equal-middle chains of one slot count, or free and
    pinned-middle chains of one slot count."""
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, search in enumerate(searches):
        groups.setdefault((search.mode == "equal", len(search.axes)), []).append(i)
    descended = list(starts)
    for (equal, _), members in groups.items():
        family = [searches[i] for i in members]
        counts = [len(starts[i]) for i in members]
        owner = np.repeat(np.arange(len(members)), counts)

        def per_row(values: list[np.ndarray]) -> np.ndarray:
            return np.stack(values)[owner]

        axes = per_row([s.axes for s in family])
        if equal:
            out = _descend_equal(
                axes,
                per_row([s.middle_cos for s in family]),
                per_row([s.middle_sin for s in family]),
                np.concatenate([starts[i] for i in members]),
                m,
            )
        else:
            bounds = per_row([s.angles(np.array(s.box)) for s in family])
            angles = np.concatenate([s.angles(starts[i]) for s, i in zip(family, members)])
            out = _descend_angles(axes, bounds[:, 0], bounds[:, 1], angles, m)
        for s, i, chunk in zip(family, members, np.split(out, np.cumsum(counts)[:-1])):
            descended[i] = chunk[:, [0, 2]] if s.mode == "fixed" else chunk
    return descended


def forward_oracle(
    m: np.ndarray,
    geom: TurnGeometry,
    seed: int,
    budget: int,
) -> OracleResult:
    """Best residual-passing path found by seeded restarts plus refinement.

    The budget counts sampled angle vectors, split evenly across the audit
    catalog's families.  Each family's REFINE_TOP best samples are descended
    and polished.  `min_singular` is the smallest singular value of the
    winner's parameter Jacobian, from the polish.  Results are deterministic
    for a fixed seed.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    families = [f for f in family_catalog(geom.r, mode="all") if f.kinds]
    per_family = max(1, budget // len(families))

    best_segments: tuple[Segment, ...] | None = None
    best_length = math.inf
    best_residual = math.inf
    best_family = ""
    best_singular = math.nan
    evaluations = 0

    identity_residual = float(np.linalg.norm(m - np.eye(3)))
    if identity_residual <= TOL_RESIDUAL:
        best_segments = ()
        best_length = 0.0
        best_residual = identity_residual
        best_family = "EMPTY"

    searches = [_FamilySearch(template, geom) for template in families]
    starts = []
    for index, search in enumerate(searches):
        rng = np.random.default_rng(seed + index)
        params = search.sample(rng, per_family)
        evaluations += per_family
        residuals = np.linalg.norm(search.compose_batch(params) - m, axis=(1, 2))
        starts.append(params[np.argsort(residuals)[:REFINE_TOP]])

    for search, descended in zip(searches, _descend(searches, starts, m)):
        polished, singular = search._polish(m, descended)
        for params, min_singular in zip(polished, singular):
            refined, res = search.refine(m, params)
            if res > ACCEPT_GATE:
                continue
            segments = search.segments_for(refined)
            res_canonical = float(np.linalg.norm(compose_path(segments, geom) - m))
            if res_canonical > TOL_RESIDUAL:
                continue
            length = path_length(segments, geom)
            if length < best_length:
                best_segments = segments
                best_length = length
                best_residual = res_canonical
                best_family = search.template.tag
                best_singular = float(min_singular)

    return OracleResult(
        segments=best_segments,
        length=best_length,
        residual=best_residual,
        family=best_family,
        evaluations=evaluations,
        min_singular=best_singular,
    )


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


def request_for_target(
    m: np.ndarray, unit_r: float, sphere_radius: float = 1.0
) -> PlanRequest:
    """Plan request from the canonical start to the frame reached by m."""
    start = Configuration.canonical()
    final_frame = start.frame() @ m
    return PlanRequest(
        sphere_radius=sphere_radius,
        turning_radius=unit_r * sphere_radius,
        initial=Pose(start.position * sphere_radius, start.tangent),
        final=Pose(final_frame[:, 0] * sphere_radius, final_frame[:, 1]),
    )


def random_request(unit_r: float, seed: int, sphere_radius: float = 1.0) -> PlanRequest:
    return request_for_target(
        random_rotation(np.random.default_rng(seed)), unit_r, sphere_radius
    )


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

    A positive gap means the audit families found a shorter path than the
    proven catalog, which would contradict the catalog's sufficiency; the
    expected outcome is a gap bounded by solver noise.
    """
    rows = []
    for req in requests:
        table = plan(req, mode="table")
        everything = plan(req, mode="all")
        rows.append(
            AuditRow(
                unit_r=table.unit_r,
                table_family=table.best_candidate.family,
                table_length=table.best_candidate.physical_length,
                all_family=everything.best_candidate.family,
                all_length=everything.best_candidate.physical_length,
            )
        )
    return AuditReport(rows=tuple(rows), seed=seed)

"""The forward oracle's coordinate descent as it was before its sweep was
made leaner: one `_trace_argmax` call per slot, a.W.a as an einsum and the
residual from `np.linalg.norm`.  `tests/test_oracle.py` pins
`_FamilySearch.descend` to these bits."""

import math
from collections import Counter
from functools import reduce

import numpy as np

from sphere_dubins.geometry import rotations_from_generators
from sphere_dubins.linkage import TOL_RESIDUAL
from sphere_dubins.oracle import REFINE_SWEEPS


def trace_argmax(
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


def descend(
    search, m: np.ndarray, params: np.ndarray, owner: np.ndarray, stops: Counter | None = None
) -> np.ndarray:
    """`_FamilySearch.descend` of `search` as it was, with the same stop
    rules: a gain below 1e-16 in a sweep, a residual of at most
    TOL_RESIDUAL * 1e-3, or REFINE_SWEEPS sweeps.  `stops`, if given,
    counts the rows each rule stops ("gain", "residual", "sweeps"; the
    residual rule first where both hold)."""
    stops = Counter() if stops is None else stops
    lo, hi = (search.template.angles(bound[owner]) for bound in search.box)
    axes, k, k2 = search.axes[owner], search.generators[owner], search.squares[owner]
    angles = search.template.angles(params).copy()
    n_slots = axes.shape[1]
    p = angles.copy()
    m_t = np.tile(m.T, (len(angles), 1, 1))
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
            p[:, slot] = trace_argmax(w, axes[:, slot], lo[:, slot], hi[:, slot], trig[:, slot])
            rots[slot] = rotations_from_generators(k[:, slot], k2[:, slot], p[:, slot])
            prefix = rots[0] if slot == 0 else prefix @ rots[slot]
        after = np.linalg.norm(prefix - m, axis=(1, 2))
        done = (current - after < 1e-16) | (after <= TOL_RESIDUAL * 1e-3)
        current = after
        if done.any():
            reached = after[done] <= TOL_RESIDUAL * 1e-3
            stops.update(residual=int(reached.sum()), gain=int((~reached).sum()))
            angles[active[done]] = p[done]
            keep = ~done
            active, p, current = active[keep], p[keep], current[keep]
            rots = [rot[keep] for rot in rots]
            axes, lo, hi, trig = axes[keep], lo[keep], hi[keep], trig[keep]
            k, k2, m_t = k[keep], k2[keep], m_t[keep]
    angles[active] = p
    stops.update(sweeps=len(active))
    return angles @ search.template.slot_map

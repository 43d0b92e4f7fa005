"""A fixed calibration kernel: how fast the machine runs right now.

The benchmark shares its cores with other tenants, and their load slows it
down by up to about 2x in episodes of seconds to minutes; CPU time slows down
with wall time, so it does not help.  The timed loop therefore runs this
kernel right after every operation and reports each operation's time in
units of the kernel's time around it (``cal``).  A slow episode lengthens
both alike and cancels out; a change to the package does not touch the
kernel, so it shows in full.

The kernel mixes what the package's hot paths do: a Python loop of
3x3 numpy products with scalar math (as in ``plan``), and batched
products and ufuncs over a few hundred 3x3 matrices (as in the oracle's
sampling).  Depends on nothing but numpy.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_A = np.array([[0.36, -0.48, 0.8], [0.8, 0.6, 0.0], [-0.48, 0.64, 0.6]])  # a rotation
_BATCH = np.tile(_A, (256, 1, 1))
SCALAR_STEPS = 50
BATCH_STEPS = 4


def chunk() -> float:
    """One fixed unit of work, about 0.3-0.6 ms on a 2-vCPU cloud VM."""
    m = np.eye(3)
    acc = 0.0
    last = {}
    for i in range(SCALAR_STEPS):
        m = m @ _A
        v = m[:, 0]
        acc += math.atan2(float(v[1]), float(v[0])) + math.sqrt(abs(float(v[2])))
        last[i & 7] = acc
        acc = sum(acc * k for k in range(8)) * 1e-3 + float(np.linalg.norm(v))
    x = _BATCH
    for _ in range(BATCH_STEPS):
        x = np.matmul(x, _BATCH)
        acc += float(np.einsum("nii->", x)) * 1e-9 + float(np.sin(x[:, 0, 0]).sum()) * 1e-9
    return acc


def calibrate(min_seconds: float = 0.0) -> float:
    """Mean wall seconds of one chunk, over as many chunks as fit in
    `min_seconds` (at least one)."""
    start = perf_counter()
    n = 0
    while True:
        chunk()
        n += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / n

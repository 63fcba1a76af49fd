"""The Monte Carlo hitting-time loop, with two interchangeable backends.

When numba is installed the per-walk loop is JIT-compiled. Setting the
environment variable QSWLAB_DISABLE_NUMBA (to any non-empty value), or a
missing numba, selects the lockstep numpy implementation instead. Both
consume the same pre-drawn uniforms, so they walk the same paths for a
given seed. The active backend name is exposed as BACKEND.
"""
from __future__ import annotations

import os

import numpy as np

_USE_NUMBA = not os.environ.get("QSWLAB_DISABLE_NUMBA")
if _USE_NUMBA:
    try:
        import numba
    except ImportError:
        _USE_NUMBA = False

BACKEND = "numba" if _USE_NUMBA else "numpy"


def _hitting_steps_loop(indptr, indices, starts, target, max_steps, raw):
    """Steps of a simple random walk from each start until hitting target.

    raw supplies one uniform(0,1) row per walk; a walk that exhausts its
    row without arriving is censored and reported as -1. Walks starting on
    the target take 0 steps.
    """
    n_walks = starts.shape[0]
    out = np.empty(n_walks, dtype=np.int64)
    for w in range(n_walks):
        v = starts[w]
        steps = 0
        while v != target and steps < max_steps:
            lo = indptr[v]
            deg = indptr[v + 1] - lo
            v = indices[lo + int(raw[w, steps] * deg)]
            steps += 1
        out[w] = steps if v == target else -1
    return out


def hitting_steps_numpy(indptr, indices, starts, target, max_steps, raw):
    """Lockstep-vectorized variant: every unfinished walk advances together."""
    n_walks = starts.shape[0]
    pos = starts.copy()
    steps = np.zeros(n_walks, dtype=np.int64)
    active = pos != target
    k = 0
    while active.any() and k < max_steps:
        idx = np.nonzero(active)[0]
        v = pos[idx]
        lo = indptr[v]
        deg = indptr[v + 1] - lo
        pos[idx] = indices[lo + (raw[idx, k] * deg).astype(np.int64)]
        steps[idx] += 1
        active[idx] = pos[idx] != target
        k += 1
    steps[active] = -1
    return steps


if _USE_NUMBA:
    hitting_steps_numba = numba.njit(cache=True)(_hitting_steps_loop)
    hitting_steps_kernel = hitting_steps_numba
else:
    hitting_steps_kernel = hitting_steps_numpy

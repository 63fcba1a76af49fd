"""Propagation measurement, convergence classification, and closed-form
references for the interpolated global walk on paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gksl, graphs, numkernel
from .exceptions import (
    DimensionError,
    NonPositiveDataError,
    NumericalError,
    ParameterRangeError,
)

GENERATOR_DIM_CAP = 2500  # largest n^2 we will diagonalize densely
MOMENT_TOL = 1e-6


def second_moment(p: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """sum_k x_k^2 p_k for each row p of a (T, n) stack of probability
    vectors over n finite positions x, one value per row (DimensionError for
    other shapes). Each row must have no entry below -MOMENT_TOL and a sum
    within MOMENT_TOL of 1, and the positions must be finite, or
    ParameterRangeError is raised; NumericalError past the float range."""
    p = np.asarray(p, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if p.ndim != 2 or p.size == 0 or pos.shape != p.shape[1:]:
        raise DimensionError(f"need a (T, n) stack and n positions, got {p.shape} and {pos.shape}")
    # written so that NaN fails too, the NaN or inf of a sum such as inf - inf included
    with np.errstate(invalid="ignore", over="ignore"):
        is_distribution = ((p.min(axis=1) >= -MOMENT_TOL)
                           & (np.abs(p.sum(axis=1) - 1.0) <= MOMENT_TOL))
    if not (np.all(is_distribution) and np.all(np.isfinite(pos))):
        raise ParameterRangeError("probabilities must form a distribution over finite "
                                  "positions")
    with np.errstate(over="ignore"):
        mu2 = np.sum(pos * pos * p, axis=1)
    if not np.all(np.isfinite(mu2)):
        raise NumericalError("the second moment is beyond the float range")
    return mu2


@dataclass(frozen=True)
class PropagationTrace:
    alpha_times: np.ndarray
    alphas: np.ndarray


def scaling_exponents(times, values, batch: int) -> PropagationTrace:
    """Sliding-window log-log slopes, each the least-squares slope of
    log values on log times over batch consecutive points; window i is
    reported at the time midpoint (t_i + t_{i+batch-1}) / 2. times must pass
    numkernel.check_times, and the logs need positive times and finite
    positive values (NonPositiveDataError, NumericalError for NaN or inf)."""
    t = numkernel.check_times(times)
    f = np.asarray(values, dtype=float)
    if f.shape != t.shape or t.size < batch or batch < 2:
        raise DimensionError("need at least `batch` matching points, batch >= 2")
    if not np.all(np.isfinite(f)):
        raise NumericalError("log-log slopes need finite values")
    if t[0] <= 0 or np.any(f <= 0):
        k = int(np.argmax((t <= 0) | (f <= 0)))
        raise NonPositiveDataError(f"log-log slopes need positive data, got "
                                   f"{float(f[k])} at t = {float(t[k])}")
    # all windows at once; both logs are centred, as centring log t alone loses digits
    x, y = (np.lib.stride_tricks.sliding_window_view(np.log(a), batch) for a in (t, f))
    x, y = x - x.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True)
    sxx = (x * x).sum(axis=1)
    if not sxx.all():
        raise NumericalError("the times of a window share one logarithm: no slope")
    alphas = (x * y).sum(axis=1) / sxx
    mids = (t[:alphas.size] + t[batch - 1:]) / 2
    return PropagationTrace(alpha_times=mids, alphas=alphas)


# ---------------------------------------------------------------------------
# Closed forms for the interpolated global walk on paths

PROFILE_NEG_TOL = 1e-12
PROFILE_SUM_TOL = 1e-10
# About 0.93 GB peak RSS, at about 54 bytes per n^2: lengths 1,000, 2,000
# and 3,000 peaked at 121, 284 and 554 MB.
PROFILE_LENGTH_CAP = 4000


def path_probability_profile(n: int, start: int, times, omega: float) -> np.ndarray:
    """Occupation probabilities of all n path vertices, one row per time, for
    the interpolated global walk from the vertex start (graphs.check_vertex),
    from the eigenbasis of the path:

        p_k(t) = sum_ij m_ki m_kj exp(-t omega d_ij^2 / 2) cos(b d_ij),

    with m_ki = (2/(n+1)) sin((k+1) (i+1) theta) sin((start+1) (i+1) theta)
    over 0-based k and i, theta = pi/(n+1), d_ij = lam_i - lam_j and
    b = t (1 - omega). times must pass numkernel.check_times. Since
    cos(b d_ij) = c_i c_j + s_i s_j with c = cos(b lam) and s = sin(b lam),
    a time costs n trig calls and two matrix products. A profile with an
    entry below -PROFILE_NEG_TOL or a sum off 1 by more than PROFILE_SUM_TOL
    raises NumericalError; nothing is clipped or renormalised. A path longer
    than PROFILE_LENGTH_CAP raises DimensionError before any n x n array
    exists."""
    graphs.check_vertex(start, n)
    if n > PROFILE_LENGTH_CAP:
        raise DimensionError(f"path length {n} is above the cap {PROFILE_LENGTH_CAP}")
    gksl.check_omega(omega)
    times = numkernel.check_times(times)
    theta = np.pi / (n + 1)
    i = np.arange(1, n + 1)
    lam = 2.0 * np.cos(i * theta)
    sines = np.sin(np.outer(i, i) * theta)  # [k, i]
    m = (2.0 / (n + 1)) * sines * sines[start]
    d2 = (lam[:, None] - lam[None, :]) ** 2
    p = np.empty((times.size, n))
    for r, tr in enumerate(times):
        c, s = np.cos(tr * (1.0 - omega) * lam), np.sin(tr * (1.0 - omega) * lam)
        w = np.exp(-0.5 * tr * omega * d2) * (np.outer(c, c) + np.outer(s, s))
        p[r] = ((m @ w) * m).sum(1)
    sum_err = np.abs(p.sum(1) - 1.0).max()
    if p.min() < -PROFILE_NEG_TOL or sum_err > PROFILE_SUM_TOL:
        raise NumericalError(f"path profile is not a distribution: min {p.min():.3e}, "
                             f"largest sum error {sum_err:.3e}")
    return p


# ---------------------------------------------------------------------------
# Convergence classification

@dataclass(frozen=True)
class ConvergenceReport:
    classification: str           # Relaxing | ConvergentNonRelaxing | PossiblyPeriodic
    zero_multiplicity: int
    second_smallest_abs: float
    imaginary_count: int
    tol: float


def check_generator_dim(n: int) -> None:
    """Raise DimensionError if the generator on n x n states, of size n^2,
    is too large to diagonalize densely (GENERATOR_DIM_CAP). It needs only
    n, so a caller can check before it builds any operator."""
    if n * n > GENERATOR_DIM_CAP:
        raise DimensionError(f"generator size {n * n} exceeds dense cap {GENERATOR_DIM_CAP}")


def classify_convergence(gen, tol: float = 1e-10) -> ConvergenceReport:
    """Classify from the generator spectrum: eigenvalues below tol in
    modulus count as zero; eigenvalues with tiny real part but nonzero
    imaginary part witness possible periodicity.

    The spectrum is that of the real matrix R = T^H S T in the Hermitian
    basis T, which is similar to S; it comes from gen.real
    (numkernel.real_form), which raises NumericalError unless S preserves
    Hermiticity.

    Accuracy of `second_smallest_abs`: S is not normal, so an eigenvalue
    in a Jordan block of size k is only accurate to about
    eps^(1/k) * ||S|| (eps^(1/3) is about 6e-6), while a simple one is good
    to about eps * ||S|| times its condition number. A defective gap can
    move in its fifth digit with the LAPACK path or the BLAS thread count.

    tol must be finite and positive, or ParameterRangeError is raised."""
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterRangeError(f"tol must be finite and positive, got {tol}")
    check_generator_dim(gen.dim)
    lam = numkernel.eig_general(gen.real.matrix)
    mods = np.abs(lam)
    zero = int(np.sum(mods < tol))
    imag = int(np.sum((np.abs(lam.real) < tol) & (np.abs(lam.imag) > tol)))
    nonzero = np.sort(mods[mods >= tol])
    second = float(nonzero[0]) if nonzero.size else 0.0
    if imag >= 1:
        cls = "PossiblyPeriodic"
    elif zero == 1:
        cls = "Relaxing"
    else:
        cls = "ConvergentNonRelaxing"
    return ConvergenceReport(classification=cls, zero_multiplicity=zero,
                             second_smallest_abs=second, imaginary_count=imag, tol=tol)

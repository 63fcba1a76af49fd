"""Continuous-time quantum spatial search and its classical baseline.

A marked vertex w is searched by evolving under gamma*H_G + |w><w| where
H_G is a normalized graph matrix with top eigenvalue 1. Spectral overlap
sums S_k drive the choice of gamma, the predicted measurement time, and
the applicability condition. The classical comparison is the mean first
passage time of the discrete uniform random walk.

One `SearchSpectrum` per graph carries the eigensystem of H_G; the
spectral sums, the gamma rules, the principal start state and the search
for every marked vertex share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs, numkernel
from .exceptions import (
    DegenerateTopError,
    DimensionError,
    NumericalError,
    ParameterRangeError,
    ZeroOverlapError,
)

GRAPH_MATRIX_KINDS = ("adjacency", "laplacian", "normalized_laplacian")
TOL_TOP_GAP = 1e-12   # relative gap below which the top eigenvalue counts as degenerate
TOL_PROB = 1e-10      # rounding allowed above p = 1 before a probability is an error
TOL_AMP = 1e-12       # allowed miss of the t = 0 amplitude against <w|v_1>
SEARCH_CONDITION_CONST = 0.1  # c in the applicability condition sqrt(eps) < c min(...)


def _base_matrix(g: graphs.Graph, kind: str) -> np.ndarray:
    if kind == "adjacency":
        return graphs.adjacency(g)
    if kind == "laplacian":
        graphs.require_connected(g)
        return graphs.laplacian(g)
    if kind == "normalized_laplacian":
        graphs.require_connected(g)
        return graphs.normalized_laplacian(g)
    raise ParameterRangeError(f"unknown graph matrix kind {kind!r}")


def _require_simple_top(values: np.ndarray) -> None:
    """Raise DimensionError for fewer than 2 values, and DegenerateTopError
    unless the gap between the two largest of values, sorted descending,
    exceeds TOL_TOP_GAP * max(1, max |lambda|)."""
    if values.size < 2:
        raise DimensionError(f"search needs at least 2 vertices, got {values.size}")
    scale = max(1.0, float(np.abs(values).max()))
    # written so that a NaN gap is rejected too
    if not values[0] - values[1] > TOL_TOP_GAP * scale:
        raise DegenerateTopError("top eigenvalue of the search matrix is not simple")


@dataclass(frozen=True, eq=False)
class SearchSpectrum:
    """The eigensystem of a search matrix H_G, decomposed once.

    `values` are sorted descending and `vectors` holds the matching
    orthonormal eigenvectors as columns. The spectral sums assume the top
    eigenvalue is 1, which `search_spectrum` guarantees. At least two
    vertices and a simple top eigenvalue are required.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _require_simple_top(self.values)


def search_spectrum(g: graphs.Graph, kind: str) -> SearchSpectrum:
    """The spectrum of H_G, top eigenvalue 1, from one decomposition of the
    graph matrix.

    adjacency: A / lambda_max(A); laplacian: I - L / lambda_max(L);
    normalized_laplacian: I - L_norm. The affine maps keep the eigenvectors,
    so only the eigenvalues are transformed. Fewer than 2 vertices raise
    DimensionError before any decomposition."""
    if g.n < 2:
        raise DimensionError(f"search needs at least 2 vertices, got {g.n}")
    values, vectors = numkernel.eig_hermitian(_base_matrix(g, kind))
    top = float(values[-1])
    if kind == "normalized_laplacian" or top <= 0.0:
        # L_norm needs no scale; the zero matrix of an edgeless graph keeps
        # scale 1 and is then rejected for its degenerate top eigenvalue
        top = 1.0
    if kind == "adjacency":
        return SearchSpectrum(values=values[::-1] / top, vectors=vectors[:, ::-1])
    return SearchSpectrum(values=1.0 - values / top, vectors=vectors)


def _overlap_sums(spec: SearchSpectrum, w: int) -> tuple[float, float, float, float]:
    """eps = |<v_1|w>|^2 and S_k = sum_{j>1} |<v_j|w>|^2 / (1 - lambda_j)^k, k = 1..3."""
    graphs.check_vertex(w, spec.values.size)
    overlaps = np.abs(spec.vectors[w, :]) ** 2
    denom = 1.0 - spec.values[1:]
    rest = overlaps[1:]
    return (float(overlaps[0]), float(np.sum(rest / denom)),
            float(np.sum(rest / denom**2)), float(np.sum(rest / denom**3)))


@dataclass(frozen=True)
class SearchStats:
    eps: float
    s1: float
    s2: float
    s3: float
    gap: float
    condition_holds: bool
    predicted_t: float
    caption_gamma: float   # the spectral-average rate S1 / (1 - eps)


def search_stats(spec: SearchSpectrum, w: int) -> SearchStats:
    eps, s1, s2, s3 = _overlap_sums(spec, w)
    # an overlap amplitude at the eigensolver's rounding level is no overlap
    if math.sqrt(eps) <= spec.values.size * np.finfo(float).eps:
        raise ZeroOverlapError(
            f"the marked vertex has no overlap with the principal eigenvector "
            f"(eps = {eps:.3e}); the search cannot find it")
    if s1 == 0.0:
        raise ZeroOverlapError("the marked vertex is the principal eigenvector: S_k = 0")
    gap = float(spec.values[0] - spec.values[1])
    cond = math.sqrt(eps) < SEARCH_CONDITION_CONST * min(s1 * s2 / s3, gap * math.sqrt(s2))
    predicted_t = (1.0 / math.sqrt(eps)) * math.sqrt(s2) / s1
    return SearchStats(eps=eps, s1=s1, s2=s2, s3=s3, gap=gap, condition_holds=cond,
                       predicted_t=predicted_t, caption_gamma=s1 / (1.0 - eps))


@dataclass(frozen=True)
class SearchRun:
    probs: np.ndarray
    argmax_t: float
    p_max: float


def run_search(spec: SearchSpectrum, w: int, gamma: float, times) -> SearchRun:
    """Success probability |<w| exp(-i(gamma H_G + |w><w|) t) |v_1>|^2 from
    the principal eigenvector v_1 of H_G, signed so that its entries sum to
    at least 0.

    In the eigenbasis V of H_G the search matrix is gamma Lambda + a a^H
    with a = V^H e_w, and the start is e_1. Moving the phases of a into the
    start x leaves the amplitude |a|^T exp(-i M t) x for the real
    M = diag(gamma lambda) + |a| |a|^T, which `numkernel.rank_one_eig`
    expands over M's eigenvalues in O(n^2). w must pass graphs.check_vertex,
    gamma must be finite and times must pass numkernel.check_times, the
    grid rule of expm_apply. Raises NumericalError
    when the t = 0 amplitude misses <w|v_1> by more than TOL_AMP, or a
    probability is not finite or exceeds 1 by more than rounding.
    """
    graphs.check_vertex(w, spec.values.size)
    if not math.isfinite(gamma):
        raise ParameterRangeError(f"gamma must be finite, got {gamma}")
    times = numkernel.check_times(times)
    row = spec.vectors[w, :]   # <w|v_j>
    sign = -1.0 if spec.vectors[:, 0].real.sum() < 0 else 1.0
    xhat = np.zeros(spec.values.size)   # the start +-v_1 has coordinates +-e_1
    xhat[0] = sign
    x_w = sign * row[0]       # <w|+-v_1>
    values, weights = numkernel.rank_one_eig(gamma * spec.values, np.abs(row), row * xhat)
    amp0 = complex(weights.sum())
    if not abs(amp0 - x_w) <= TOL_AMP:
        raise NumericalError(f"search amplitude at t = 0 is {amp0!r}, not "
                             f"<w|v_1> = {complex(x_w)!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.exp(-1j * np.outer(times, values)) @ weights
    probs = np.abs(amps) ** 2  # NaN for a phase t mu beyond the float range
    bad = ~(probs <= 1.0 + TOL_PROB)  # NaN fails the comparison too
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"success probability at t = {times[i]:.6g} is "
                             f"{float(probs[i])!r}, not in [0, 1]")
    probs = np.minimum(probs, 1.0)
    k = int(np.argmax(probs))
    return SearchRun(probs=probs, argmax_t=float(times[k]), p_max=float(probs[k]))


# ---------------------------------------------------------------------------
# Classical baseline

def classical_mfpt(g: graphs.Graph, w: int) -> float:
    """Mean first passage time to w of the discrete uniform walk started
    from the stationary distribution: (2|E|/deg(w)) * S1 over I minus the
    normalized Laplacian."""
    _, s1, _, _ = _overlap_sums(search_spectrum(g, "normalized_laplacian"), w)
    return 2.0 * len(g.edges) / g.degrees()[w] * s1


# ---------------------------------------------------------------------------
# Lambert bound

# W = sum_k mu_k p^k about the branch point -1/e, with p = sqrt(2(1 + e x))
# on W0 and -sqrt(2(1 + e x)) on W-1, to ten terms (Corless et al.,
# Adv. Comput. Math. 5 (1996), eq. 4.22)
_BRANCH_POINT_SERIES = (-1.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280, -221 / 8505,
                        680863 / 43545600, -1963 / 204120, 226287557 / 37623398400)
LAMBERT_SERIES_P0 = 1e3


def lambert_bound(p0: float) -> float:
    """Success-probability bound W0(x)/W-1(x) with x = (1-p0)/(e*p0) for a
    finite p0 > 1.

    Since 1 + e x = 1/p0 exactly, from p0 = LAMBERT_SERIES_P0 on both
    branches come from the series about -1/e in p = +-sqrt(2/p0), which
    matched 50-digit mpmath to 2.2e-16 relative from there to 1e16; below
    it, from scipy's lambertw, within 1.2e-14 of mpmath. scipy's W-1 loses
    digits near the branch point (1.4e-6 relative at p0 = 1e12) and is NaN
    from p0 = 1e16 on."""
    if not (math.isfinite(p0) and p0 > 1.0):
        raise ParameterRangeError(f"p0 must be finite and exceed 1, got {p0}")
    if p0 >= LAMBERT_SERIES_P0:
        p = math.sqrt(2.0 / p0)
        w0, wm1 = (float(np.polyval(_BRANCH_POINT_SERIES[::-1], q)) for q in (p, -p))
        return w0 / wm1
    # imported here, not at module level: only this branch uses
    # scipy.special, and only the er_p0 sweep reaches it
    from scipy.special import lambertw

    x = (1.0 - p0) / (math.e * p0)
    return float(lambertw(x, 0).real) / float(lambertw(x, -1).real)

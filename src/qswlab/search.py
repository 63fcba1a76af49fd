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
from scipy.special import lambertw

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
    """Raise DegenerateTopError unless the gap between the two largest of
    values, sorted descending, exceeds TOL_TOP_GAP * max(1, max |lambda|)."""
    scale = max(1.0, float(np.abs(values).max()))
    # written so that a NaN gap is rejected too
    if not values[0] - values[1] > TOL_TOP_GAP * scale:
        raise DegenerateTopError("top eigenvalue of the search matrix is not simple")


@dataclass(frozen=True, eq=False)
class SearchSpectrum:
    """The eigensystem of a search matrix H_G, decomposed once.

    `values` are sorted descending and `vectors` holds the matching
    orthonormal eigenvectors as columns. The spectral sums assume the top
    eigenvalue is 1, which `search_spectrum` guarantees; `of` takes any
    Hermitian matrix as given. At least two vertices and a simple top
    eigenvalue are required.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise DimensionError(f"search needs at least 2 vertices, got {self.n}")
        _require_simple_top(self.values)

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def of(cls, h: np.ndarray) -> SearchSpectrum:
        """Spectrum of a Hermitian matrix used as H_G without normalizing it."""
        es = numkernel.eig_hermitian(np.asarray(h))
        return cls(values=es.values, vectors=es.vectors)


def search_spectrum(g: graphs.Graph, kind: str) -> SearchSpectrum:
    """The spectrum of H_G, top eigenvalue 1, from one decomposition of the
    graph matrix.

    adjacency: A / lambda_max(A); laplacian: I - L / lambda_max(L);
    normalized_laplacian: I - L_norm. The affine maps keep the eigenvectors,
    so only the eigenvalues are transformed.
    """
    m = _base_matrix(g, kind)
    es = numkernel.eig_hermitian(m)
    top = float(es.values[0])
    if kind == "normalized_laplacian" or top <= 0.0:
        # L_norm needs no scale; the zero matrix of an edgeless graph keeps
        # scale 1 and is then rejected for its degenerate top eigenvalue
        top = 1.0
    if kind == "adjacency":
        return SearchSpectrum(values=es.values / top, vectors=es.vectors)
    return SearchSpectrum(values=1.0 - es.values[::-1] / top, vectors=es.vectors[:, ::-1])


def shift_rescale(h: np.ndarray) -> np.ndarray:
    """Affine map to top eigenvalue 1 with |lambda_2| = |lambda_n|.

    Balancing the second and bottom eigenvalues maximizes the worst-case
    success bound over shifts; eigenvectors are untouched. The top
    eigenvalue must be simple by the rule of SearchSpectrum.
    """
    h = np.asarray(h)
    w = np.linalg.eigvalsh(h)[::-1]
    _require_simple_top(w)
    lam1, lam2, lamn = w[0], w[1], w[-1]
    a = -(lam2 + lamn) / 2.0
    return (h + a * np.eye(h.shape[0])) / (lam1 + a)


def _overlap_sums(spec: SearchSpectrum, w: int) -> tuple[float, float, float, float]:
    """eps = |<v_1|w>|^2 and S_k = sum_{j>1} |<v_j|w>|^2 / (1 - lambda_j)^k, k = 1..3."""
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


def search_stats(spec: SearchSpectrum, w: int) -> SearchStats:
    eps, s1, s2, s3 = _overlap_sums(spec, w)
    # an overlap amplitude at the eigensolver's rounding level is no overlap
    if math.sqrt(eps) <= spec.n * np.finfo(float).eps:
        raise ZeroOverlapError(
            f"the marked vertex has no overlap with the principal eigenvector "
            f"(eps = {eps:.3e}); the search cannot find it")
    gap = float(spec.values[0] - spec.values[1])
    cond = math.sqrt(eps) < SEARCH_CONDITION_CONST * min(s1 * s2 / s3, gap * math.sqrt(s2))
    predicted_t = (1.0 / math.sqrt(eps)) * math.sqrt(s2) / s1
    return SearchStats(eps=eps, s1=s1, s2=s2, s3=s3, gap=gap,
                       condition_holds=cond, predicted_t=predicted_t)


def caption_gamma(spec: SearchSpectrum, w: int) -> float:
    """Transition rate S1 / (1 - eps), the spectral-average variant."""
    st = search_stats(spec, w)
    return st.s1 / (1.0 - st.eps)


@dataclass(frozen=True)
class SearchRun:
    times: np.ndarray
    probs: np.ndarray
    argmax_t: float
    p_max: float


def run_search(spec: SearchSpectrum, w: int, gamma: float, times) -> SearchRun:
    """Success probability |<w| exp(-i(gamma H_G + |w><w|) t) |v_1>|^2 from
    the principal eigenvector v_1 of H_G, signed so that its entries sum to
    at least 0.

    In the eigenbasis V of H_G the search matrix is gamma Lambda + a a^H
    with a = V^H e_w, and the start is e_1. Moving the phases of a into the
    start leaves the real diag(gamma lambda) + |a| |a|^T, whose eigensystem
    `numkernel.rank_one_eig` finds in O(n^2) from the secular equation.
    Raises NumericalError when the t = 0 amplitude misses <w|v_1> by more
    than TOL_AMP, or a probability is not finite or exceeds 1 by more than
    rounding.
    """
    row = spec.vectors[w, :]   # <w|v_j>
    sign = -1.0 if spec.vectors[:, 0].real.sum() < 0 else 1.0
    xhat = np.zeros(spec.n)   # the start +-v_1 has coordinates +-e_1
    xhat[0] = sign
    x_w = sign * row[0]       # <w|+-v_1>
    times = np.asarray(times, dtype=float)
    r1 = numkernel.rank_one_eig(gamma * spec.values, np.abs(row))
    # <w|u_i> and <u_i|v_1> for the eigenvectors u_i that overlap w
    weights = (r1.weights @ r1.vectors) * (r1.fold(row * xhat) @ r1.vectors)
    amp0 = complex(weights.sum())
    if not abs(amp0 - x_w) <= TOL_AMP:
        raise NumericalError(f"search amplitude at t = 0 is {amp0!r}, not "
                             f"<w|v_1> = {complex(x_w)!r}")
    amps = np.exp(-1j * np.outer(times, r1.values)) @ weights
    probs = np.abs(amps) ** 2
    bad = ~(probs <= 1.0 + TOL_PROB)  # NaN fails the comparison too
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"success probability at t = {times[i]:.6g} is "
                             f"{float(probs[i])!r}, not in [0, 1]")
    probs = np.minimum(probs, 1.0)
    k = int(np.argmax(probs))
    return SearchRun(times=times, probs=probs, argmax_t=float(times[k]),
                     p_max=float(probs[k]))


# ---------------------------------------------------------------------------
# Classical baseline

def classical_mfpt(g: graphs.Graph, w: int) -> float:
    """Mean first passage time to w of the discrete uniform walk started
    from the stationary distribution: (2|E|/deg(w)) * S1 over I minus the
    normalized Laplacian."""
    _, s1, _, _ = _overlap_sums(search_spectrum(g, "normalized_laplacian"), w)
    return 2.0 * len(g.edges) / g.degrees()[w] * s1


def classical_mfpt_lower_bound(g: graphs.Graph, w: int) -> float:
    return len(g.edges) / g.degrees()[w] - 0.5


def _hitting_steps(indptr, indices, starts, target, max_steps, raw):
    """Steps of a simple random walk from each start until it hits target.

    Row v of the CSR arrays lists v's neighbours. raw supplies one
    uniform(0,1) row per walk, and step k moves to neighbour
    floor(raw[w, k] * deg). A walk still short of the target after
    max_steps steps is censored and reported as -1; a walk that starts on
    the target takes 0 steps. Every unfinished walk advances in lockstep.
    """
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


def classical_mfpt_mc(g: graphs.Graph, w: int, walks: int, seed: int,
                      max_steps: int | None = None) -> float:
    """Monte Carlo estimate: walks start from the stationary distribution
    (degree / 2|E|); a start on w counts as 0 steps. Raises NumericalError
    when a walk has not reached w after max_steps steps, since counting
    the censored walks at any length would bias the mean."""
    graphs.require_connected(g)
    arcs = graphs.arc_matrix(g)
    deg = g.degrees().astype(float)
    rng = np.random.default_rng(seed)
    starts = rng.choice(g.n, size=walks, p=deg / deg.sum()).astype(np.int64)
    if max_steps is None:
        max_steps = max(100, int(100 * len(g.edges) / deg[w]))
    chunk = max(1, int(2e7) // max_steps)
    total = 0.0
    censored = 0
    for lo in range(0, walks, chunk):
        batch = starts[lo:lo + chunk]
        raw = rng.random((batch.size, max_steps))
        steps = _hitting_steps(arcs.indptr, arcs.indices, batch, w, max_steps, raw)
        censored += int(np.count_nonzero(steps < 0))
        total += steps.sum()
    if censored:
        raise NumericalError(f"{censored} of {walks} walks did not reach vertex {w} "
                             f"within max_steps = {max_steps}")
    return total / walks


# ---------------------------------------------------------------------------
# Lambert bound

def _lambert_branch(x: float, branch: int) -> float:
    w = float(np.real(lambertw(x, branch)))
    # one Halley polish keeps the defining residual at the 1e-12 scale
    for _ in range(3):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * max(1.0, abs(x)):
            break
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w -= f / denom
    return w


def lambert_bound(p0: float) -> float:
    """Success-probability bound W0(x)/W-1(x) with x = (1-p0)/(e*p0)."""
    if p0 <= 1.0:
        raise ParameterRangeError("p0 must exceed 1")
    x = (1.0 - p0) / (math.e * p0)
    return _lambert_branch(x, 0) / _lambert_branch(x, -1)

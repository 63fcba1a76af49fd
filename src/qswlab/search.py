"""Continuous-time quantum spatial search and its classical baseline.

A marked vertex w is searched by evolving under gamma*H_G + |w><w| where
H_G is a normalized graph matrix with top eigenvalue 1. Spectral overlap
sums S_k drive the choice of gamma, the predicted measurement time, and
the applicability condition. The classical comparison is the mean first
passage time of the discrete uniform random walk.

Nothing here decomposes H_G densely. One `SearchSpectrum` per graph holds
the sparse H_G, its principal eigenvector v_1 and its spectral gap, found
by ARPACK; the sums of a marked vertex come from MINRES solves with
I - H_G on the complement of v_1, and p(t) from Lanczos steps on the
search matrix, so each solver step costs one sparse matvec.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
MINRES_RTOL = 1e-15   # MINRES stops at ||r|| <= MINRES_RTOL (||A|| ||x|| + ||b||)
MINRES_BACKWARD_TOL = 1e-12   # largest backward error accepted from a MINRES solve
LANCZOS_TAIL = 1e-16  # Bessel tail bound at which the Lanczos steps stop

_log = logging.getLogger(__name__)


def _arpack_top(op, n: int, matvecs: list) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the real symmetric n x n operator op, a
    callable x -> op x, and a unit eigenvector, from one ARPACK call at full
    precision (tol = 0). The start vector is fixed, so a run repeats
    exactly: ARPACK's own start is random. matvecs[0] counts the calls of
    op; an ARPACK failure raises NumericalError."""
    def counted(x):
        matvecs[0] += 1
        return op(x)

    start = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = spla.eigsh(spla.LinearOperator((n, n), matvec=counted, dtype=float),
                                     k=1, which="LA", v0=start, tol=0)
    except spla.ArpackError as exc:   # ArpackNoConvergence included
        raise NumericalError(f"ARPACK failed on a search matrix: {exc}") from exc
    return float(values[0]), vectors[:, 0]


def _search_matrix(g: graphs.Graph, kind: str, matvecs: list) -> tuple[sp.csr_matrix, np.ndarray]:
    """H_G in CSR form with its top eigenvalue 1 and a unit eigenvector v_1
    of it: A / lambda_max(A), I - L / lambda_max(L) or I - L_norm. v_1 is
    1/sqrt(n) or sqrt(d)/||sqrt(d)|| for the Laplacian kinds; ARPACK finds
    lambda_max(A) with v_1, and lambda_max(L)."""
    if g.n < 2:
        raise DimensionError(f"search needs at least 2 vertices, got {g.n}")
    if kind not in GRAPH_MATRIX_KINDS:
        raise ParameterRangeError(f"unknown graph matrix kind {kind!r}")
    if kind == "adjacency":
        a = graphs.adjacency(g)
        if not a.nnz:
            raise DegenerateTopError("the top eigenvalue 0 of an edgeless graph is not simple")
        top, v1 = _arpack_top(lambda x: a @ x, g.n, matvecs)
        return a / top, v1
    graphs.require_connected(g)
    identity = sp.identity(g.n, format="csr")
    if kind == "laplacian":
        lap = graphs.laplacian(g)
        top, _ = _arpack_top(lambda x: lap @ x, g.n, matvecs)
        return identity - lap / top, np.full(g.n, 1.0 / math.sqrt(g.n))
    sqrt_d = np.sqrt(g.degrees())
    return identity - graphs.normalized_laplacian(g), sqrt_d / np.linalg.norm(sqrt_d)


def _require_simple_top(gap: float, radius: float) -> None:
    """DegenerateTopError unless the gap between the two largest eigenvalues
    exceeds TOL_TOP_GAP * max(1, radius) for a bound radius on |lambda|."""
    # written so that a NaN gap is rejected too
    if not gap > TOL_TOP_GAP * max(1.0, radius):
        raise DegenerateTopError("top eigenvalue of the search matrix is not simple")


@dataclass(frozen=True, eq=False)
class SearchSpectrum:
    """A search matrix H_G with its principal eigenvector and spectral gap.

    `matrix` is H_G, a sparse Hermitian matrix, `principal` a unit
    eigenvector v_1 of its top eigenvalue lambda_1, `gap` lambda_1 - lambda_2
    and `radius` a bound on |lambda| over the spectrum of H_G, 1 for every
    H_G of search_spectrum. The spectral sums assume lambda_1 = 1, which
    search_spectrum guarantees. At least two vertices and a simple top
    eigenvalue, a gap above TOL_TOP_GAP * max(1, radius), are required.
    """

    matrix: sp.csr_matrix
    principal: np.ndarray
    gap: float
    radius: float = 1.0

    def __post_init__(self):
        if self.principal.size < 2:
            raise DimensionError(f"search needs at least 2 vertices, got {self.principal.size}")
        _require_simple_top(self.gap, self.radius)


def search_spectrum(g: graphs.Graph, kind: str) -> SearchSpectrum:
    """H_G, top eigenvalue 1, with v_1 and the gap 1 - lambda_2.

    adjacency: A / lambda_max(A); laplacian: I - L / lambda_max(L);
    normalized_laplacian: I - L_norm. lambda_2 is the top eigenvalue of
    H_G - 3 v_1 v_1^T, whose spectrum is that of H_G with 1 moved to -2,
    below every other eigenvalue, by one more ARPACK call; a degenerate top
    reads as lambda_2 = 1 and raises DegenerateTopError. Fewer than 2
    vertices raise DimensionError before any solve. One DEBUG record per
    call gives the ARPACK matvec count and the gap."""
    matvecs = [0]
    h, v1 = _search_matrix(g, kind, matvecs)
    lam2, _ = _arpack_top(lambda x: h @ x - 3.0 * (v1 @ x) * v1, g.n, matvecs)
    _log.debug("search_spectrum: %s of %d vertices, %d ARPACK matvecs, gap %.6e",
               kind, g.n, matvecs[0], 1.0 - lam2)
    return SearchSpectrum(matrix=h, principal=v1, gap=1.0 - lam2)


def _resolvent_solve(h, v1: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, int, float]:
    """x = (I - H_G)^+ b for b orthogonal to v_1, by MINRES at MINRES_RTOL
    on B = I - H_G + v_1 v_1^H, which is I - H_G on the complement of v_1,
    positive definite when lambda_1 = 1 is simple, and of norm at most
    1 + radius. MINRES runs on b / ||b||: its breakdown test after the first
    step compares a norm of unit scale with ||b||, so a large b that is
    nearly an eigenvector would stop it there, far from the solution. A
    complex B is solved in its real form [[Re B, -Im B], [Im B, Re B]] on
    (Re x, Im x), since MINRES takes only real symmetric operators.

    Returns x, the MINRES iterations and the relative residual
    ||b - B x|| / ||b|| (x = 0 and 0 for b = 0). NumericalError when MINRES
    stops short of its tolerance, or when its backward error
    ||b - B x|| / ((1 + radius) ||x|| + ||b||) exceeds MINRES_BACKWARD_TOL."""
    def apply(x):
        return x - h @ x + np.vdot(v1, x) * v1

    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    n = b.size
    if np.iscomplexobj(h) or np.iscomplexobj(v1):
        def real_apply(z):
            y = apply(z[:n] + 1j * z[n:])
            return np.concatenate([y.real, y.imag])

        op = spla.LinearOperator((2 * n, 2 * n), real_apply, dtype=float)
        rhs = np.concatenate([b.real, b.imag])
    else:
        op, rhs = spla.LinearOperator((n, n), apply, dtype=float), b
    iterations = [0]

    def count(_):
        iterations[0] += 1

    z, info = spla.minres(op, rhs / norm_b, rtol=MINRES_RTOL, callback=count)
    if info != 0:
        raise NumericalError(f"MINRES on I - H_G stopped after {info} iterations "
                             f"short of its tolerance {MINRES_RTOL:.0e}")
    x = norm_b * (z if z.size == n else z[:n] + 1j * z[n:])
    residual = float(np.linalg.norm(b - apply(x)))
    if not residual <= MINRES_BACKWARD_TOL * ((1.0 + radius) * np.linalg.norm(x) + norm_b):
        raise NumericalError(f"MINRES on I - H_G left a relative residual of "
                             f"{residual / norm_b:.3e}, a backward error above "
                             f"{MINRES_BACKWARD_TOL:.0e}")
    return x, iterations[0], residual / norm_b


def _complement(v1: np.ndarray, w: int) -> np.ndarray:
    """w_perp = |w> - v_1 <v_1|w>, the part of the marked vertex orthogonal to v_1."""
    w_perp = -np.conj(v1[w]) * v1
    w_perp[w] += 1.0
    return w_perp


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
    """eps = |<v_1|w>|^2 and S_k = sum_{j>1} |<v_j|w>|^2 / (1 - lambda_j)^k,
    k = 1..3, with the rules built on them.

    With x = (I - H_G)^+ w_perp from one MINRES solve, S1 = <w_perp|x> and
    S2 = ||x||^2; S3 = <x|(I - H_G)^+ x> takes a second solve. One DEBUG
    record per call gives both solves' iterations and relative residuals.
    ZeroOverlapError when the overlap amplitude |<w|v_1>| is at rounding
    level or w is v_1 itself."""
    n = spec.principal.size
    graphs.check_vertex(w, n)
    eps = float(abs(spec.principal[w]) ** 2)
    # an overlap amplitude at the eigensolver's rounding level is no overlap
    if math.sqrt(eps) <= n * np.finfo(float).eps:
        raise ZeroOverlapError(
            f"the marked vertex has no overlap with the principal eigenvector "
            f"(eps = {eps:.3e}); the search cannot find it")
    w_perp = _complement(spec.principal, w)
    x, iter1, res1 = _resolvent_solve(spec.matrix, spec.principal, w_perp, spec.radius)
    y, iter2, res2 = _resolvent_solve(spec.matrix, spec.principal, x, spec.radius)
    _log.debug("search_stats: MINRES %d and %d iterations, relative residuals %.3e and %.3e",
               iter1, iter2, res1, res2)
    s1, s2, s3 = (float(np.vdot(a, b).real) for a, b in ((w_perp, x), (x, x), (x, y)))
    if s1 == 0.0:
        raise ZeroOverlapError("the marked vertex is the principal eigenvector: S_k = 0")
    cond = math.sqrt(eps) < SEARCH_CONDITION_CONST * min(s1 * s2 / s3, spec.gap * math.sqrt(s2))
    predicted_t = (1.0 / math.sqrt(eps)) * math.sqrt(s2) / s1
    return SearchStats(eps=eps, s1=s1, s2=s2, s3=s3, gap=spec.gap, condition_holds=cond,
                       predicted_t=predicted_t, caption_gamma=s1 / (1.0 - eps))


@dataclass(frozen=True)
class SearchRun:
    probs: np.ndarray
    argmax_t: float
    p_max: float


def _lanczos_length(at: float, n: int) -> tuple[int, float]:
    """(K, tail): the fewest Lanczos steps K > at whose Bessel tail
    (at/2)^K / K! is below LANCZOS_TAIL, and that tail, for the product at
    of the spectral half-width and the last time; (n, 0.0) when K would
    reach n."""
    if not at < n:   # also an at that overflowed to inf
        return n, 0.0
    if at == 0.0:
        return 1, 0.0
    for k in range(math.floor(at) + 1, n):
        log_tail = k * math.log(at / 2.0) - math.lgamma(k + 1)
        if log_tail < math.log(LANCZOS_TAIL):
            return k, math.exp(log_tail)
    return n, 0.0


def _lanczos(h, w: int, gamma: float, x: np.ndarray, steps: int, t_last: float):
    """At most `steps` plain three-term Lanczos steps on H = gamma H_G + |w><w|
    from the unit vector x. Returns the diagonal alpha and off-diagonal beta of
    the projected tridiagonal matrix, the w-entry of each Lanczos vector and
    whether the steps stopped early at an invariant space, where
    beta * t_last <= LANCZOS_TAIL. Only three vectors are kept."""
    dtype = np.result_type(h.dtype, x.dtype)
    alpha, beta = np.empty(steps), np.empty(steps - 1)
    entries = np.empty(steps, dtype=dtype)
    q_prev, q, b = np.zeros(x.size, dtype=dtype), x.astype(dtype), 0.0
    for k in range(steps):
        y = h @ q
        y *= gamma
        y[w] += q[w]
        entries[k] = q[w]
        alpha[k] = np.vdot(q, y).real
        if k + 1 == steps:
            break
        y -= alpha[k] * q
        y -= b * q_prev
        b = float(np.linalg.norm(y))
        if b * t_last <= LANCZOS_TAIL:
            return alpha[:k + 1], beta[:k], entries[:k + 1], True
        beta[k] = b
        q_prev, q = q, y / b
    return alpha, beta, entries, False


def run_search(spec: SearchSpectrum, w: int, gamma: float, times) -> SearchRun:
    """Success probability |<w| exp(-i(gamma H_G + |w><w|) t) |v_1>|^2 from
    the principal eigenvector v_1 of H_G, signed so that its entries sum to
    at least 0.

    H = gamma H_G + |w><w| has its spectrum in [-a + 1/2, a + 1/2] for
    a = |gamma| radius + 1/2. K Lanczos steps from v_1 give the amplitude on
    the whole grid through the eigensystem of the K x K tridiagonal
    projection, from `numkernel.eig_hermitian`, to within about eight times
    the Bessel tail (a t_last / 2)^K / K! of the Chebyshev series: K is the
    fewest steps above a t_last with that tail below LANCZOS_TAIL, or fewer
    at an invariant space. When K would reach n the eigensystem is that of
    H itself, in the standard basis. The steps keep three vectors and the
    w-entries, so memory is O(n) apart from that case.

    w must pass graphs.check_vertex, gamma must be finite and times must
    pass numkernel.check_times, the grid rule of expm_apply. Raises
    NumericalError when the t = 0 amplitude misses <w|v_1> by more than
    TOL_AMP, or a probability is not finite or exceeds 1 by more than
    rounding. One DEBUG record per call gives K, its tail bound and
    whether the invariant stop fired.
    """
    n = spec.principal.size
    graphs.check_vertex(w, n)
    if not math.isfinite(gamma):
        raise ParameterRangeError(f"gamma must be finite, got {gamma}")
    times = numkernel.check_times(times)
    v1 = spec.principal
    x = -v1 if v1.real.sum() < 0 else v1
    t_last = float(times[-1])   # a Python float: inf on overflow, not a warning
    steps, tail = _lanczos_length((abs(gamma) * spec.radius + 0.5) * t_last, n)
    invariant = False
    if steps == n:
        h = gamma * spec.matrix.toarray()
        h[w, w] += 1.0
        values, vectors = numkernel.eig_hermitian(h)
        weights = vectors[w, :] * (vectors.conj().T @ x)
    else:
        alpha, beta, entries, invariant = _lanczos(spec.matrix, w, gamma, x, steps, t_last)
        values, vectors = numkernel.eig_hermitian(
            np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        weights = (entries @ vectors) * vectors[0, :]
        steps = alpha.size
    _log.debug("run_search: K = %d of n = %d, tail bound %.3e, invariant stop %s",
               steps, n, tail, invariant)
    amp0 = complex(weights.sum())
    if not abs(amp0 - x[w]) <= TOL_AMP:
        raise NumericalError(f"search amplitude at t = 0 is {amp0!r}, not "
                             f"<w|v_1> = {complex(x[w])!r}")
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
    from the stationary distribution: (2|E|/deg(w)) * S1 over H_G = I minus
    the normalized Laplacian, from one MINRES solve. One DEBUG record per
    call gives its iterations and relative residual."""
    graphs.check_vertex(w, g.n)
    h, v1 = _search_matrix(g, "normalized_laplacian", [0])
    w_perp = _complement(v1, w)
    x, iterations, residual = _resolvent_solve(h, v1, w_perp, 1.0)
    _log.debug("classical_mfpt: MINRES %d iterations, relative residual %.3e",
               iterations, residual)
    return 2.0 * len(g.edges) / g.degrees()[w] * float(w_perp @ x)


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

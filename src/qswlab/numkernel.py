"""Dense complex linear algebra: eigendecompositions, the eigensystem of a
diagonal plus rank-one matrix, matrix-exponential action, vectorization and
the real Hermitian basis for superoperators.

The matrix-exponential action expm_apply is a restarted Arnoldi integrator:
one Krylov space of dimension KRYLOV_DIM per step, each step as long as
Expokit's a-posteriori error estimate allows at EXPM_RTOL. It runs only on
the weak components of the matrix's pattern that the start vector touches.

Vectorization is row-major: vec(B) = sum_xy b_xy |xy>, so
vec(A B C) = (A kron C^T) vec(B).
"""
from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg import cython_lapack

from .exceptions import DimensionError, NumericalError, TimeGridError

TOL_HERM = 1e-12


def vec(b: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec(|x><y|) = |x> kron |y>."""
    return np.asarray(b).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v).reshape(-1)
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise DimensionError(f"cannot unvec a vector of length {v.size}")
    return v.reshape(n, n)


def check_hermitian(h, tol: float = TOL_HERM):
    """Return h, a dense array or a scipy sparse matrix, unchanged if it is
    square, finite and Hermitian to tol relative to its largest entry (at
    least 1); raise DimensionError or NumericalError otherwise."""
    sparse = scipy.sparse.issparse(h)
    h = h if sparse else np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {h.shape}")

    def stored(m):
        return m.data if sparse else m

    if not np.all(np.isfinite(stored(h))):
        raise NumericalError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(stored(h)).max(initial=0.0)))
    dev = float(np.abs(stored(h - h.conj().T)).max(initial=0.0))
    if dev > tol * scale:
        raise NumericalError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted descending, orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(h: np.ndarray) -> EigenSystem:
    h = check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return EigenSystem(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def _lapack_routine(name: str, nargs: int):
    """A LAPACK routine from scipy's Cython table, called through ctypes.

    Every argument of a Fortran routine is a pointer. The capsule's name
    carries the C signature and is also the key that unlocks the pointer."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__[name]
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


# DLAED9(K, KSTART, KSTOP, N, D, Q, LDQ, RHO, DLAMDA, W, S, LDS, INFO): the
# secular-equation roots by dlaed4 (Gu and Eisenstat's scheme) and the
# eigenvectors from the recomputed updating vector, orthogonal to working
# precision.
_DLAED9 = _lapack_routine("dlaed9", 13)


@dataclass(frozen=True)
class RankOneEigenSystem:
    """Eigensystem of diag(d) + z z^T restricted to where z has weight.

    Deflation leaves K merged poles. `index` lists the surviving entries
    of d in ascending order and group g spans index[starts[g]:starts[g+1]];
    its direction is z_group / weights[g] with weights[g] = ||z_group||.
    `values` holds the K eigenvalues ascending and the columns of `vectors`
    (K x K, orthogonal) their eigenvectors in the basis of group directions.
    Every deflated eigenvector is orthogonal to z to within the tolerance.
    """

    values: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    index: np.ndarray
    starts: np.ndarray

    def fold(self, c: np.ndarray) -> np.ndarray:
        """Sum of c over each group, divided by the group weight; with
        c = z * x these are the coordinates of x along the group directions."""
        return np.add.reduceat(np.asarray(c)[self.index], self.starts) / self.weights


def rank_one_eig(d: np.ndarray, z: np.ndarray) -> RankOneEigenSystem:
    """Eigenvalues and eigenvectors of diag(d) + z z^T in O(n^2).

    Deflation follows LAPACK dlaed2 with tol = 8 eps max(|d|, |z|): weights
    |z_j| <= tol are dropped, and sorted poles whose gap is at most tol merge
    into one pole at their z^2-weighted mean with weight ||z_group||. The K
    remaining poles are strictly increasing and go to one dlaed9 call with
    w = zeta / ||zeta|| and rho = ||zeta||^2. Raises NumericalError when an
    input is not finite or the root finder fails.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    if d.ndim != 1 or z.shape != d.shape:
        raise DimensionError(f"shape mismatch: d {d.shape} vs z {z.shape}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z))):
        raise NumericalError("rank-one update has non-finite entries")
    tol = 8.0 * np.finfo(float).eps * max(np.abs(d).max(initial=0.0),
                                          np.abs(z).max(initial=0.0))
    order = np.argsort(d, kind="stable")
    index = order[np.abs(z[order]) > tol]
    poles = d[index]
    starts = np.flatnonzero(np.diff(poles, prepend=-np.inf) > tol)
    k = starts.size
    if k == 0:
        empty = np.zeros(0)
        return RankOneEigenSystem(values=empty, vectors=np.zeros((0, 0)),
                                  weights=empty, index=index, starts=starts)
    sq = z[index] ** 2
    weights = np.sqrt(np.add.reduceat(sq, starts))
    merged = np.add.reduceat(sq * poles, starts) / weights**2
    rho = float(weights @ weights)
    w = weights / math.sqrt(rho)
    values = np.empty(k)
    work = np.empty((k, k), order="F")
    vectors = np.empty((k, k), order="F")
    k_c, one, info = ctypes.c_int(k), ctypes.c_int(1), ctypes.c_int(0)
    rho_c = ctypes.c_double(rho)
    ref = ctypes.byref
    # K serves as KSTOP, N, LDQ and LDS
    _DLAED9(ref(k_c), ref(one), ref(k_c), ref(k_c), values.ctypes.data,
            work.ctypes.data, ref(k_c), ref(rho_c),
            merged.ctypes.data, w.ctypes.data, vectors.ctypes.data, ref(k_c),
            ref(info))
    if info.value != 0:
        raise NumericalError(f"secular equation solver dlaed9 failed (INFO = {info.value})")
    return RankOneEigenSystem(values=values, vectors=vectors, weights=weights,
                              index=index, starts=starts)


def eig_general(m) -> np.ndarray:
    """Complex eigenvalues of a general square matrix."""
    if scipy.sparse.issparse(m):
        m = m.toarray()
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def hermitian_basis(n: int) -> scipy.sparse.csr_matrix:
    """Sparse unitary T (n^2 x n^2) whose columns are vec of an orthonormal
    basis of the Hermitian n x n matrices: |x><x|, then
    (|x><y| + |y><x|)/sqrt2 and then i(|x><y| - |y><x|)/sqrt2 over x < y.

    For a superoperator S that maps Hermitian matrices to Hermitian
    matrices, T^H S T has entries Tr(B_c S(B_d)) over basis matrices B, so it
    is real, and it is similar to S."""
    if n < 1:
        raise DimensionError(f"basis size must be positive, got {n}")
    x, y = np.triu_indices(n, 1)
    p = x.size
    r = 1.0 / math.sqrt(2.0)
    diag = np.arange(n)
    rows = np.concatenate([diag * (n + 1), x * n + y, y * n + x, x * n + y, y * n + x])
    cols = np.concatenate([diag, n + np.arange(p), n + np.arange(p),
                           n + p + np.arange(p), n + p + np.arange(p)])
    vals = np.concatenate([np.ones(n), np.full(2 * p, r), np.full(p, 1j * r),
                           np.full(p, -1j * r)])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


HERMITIAN_BASIS_TOL = 1e-12


@dataclass(frozen=True)
class RealForm:
    """A superoperator S on n x n matrices in the Hermitian basis T:
    `matrix` is the real CSR matrix R = T^H S T, `basis` is T and `leak`
    is the largest |Im| entry of T^H S T that was dropped."""

    matrix: scipy.sparse.csr_matrix
    basis: scipy.sparse.csr_matrix
    leak: float


def real_form(s, n: int) -> RealForm:
    """R = T^H S T for the sparse n^2 x n^2 superoperator S, with T from
    hermitian_basis(n). S preserves Hermiticity exactly when R is real;
    NumericalError is raised when an imaginary entry of T^H S T exceeds
    HERMITIAN_BASIS_TOL times max(1, largest |entry|)."""
    if s.shape != (n * n, n * n):
        raise DimensionError(f"superoperator shape {s.shape} does not act on {n} x {n} matrices")
    basis = hermitian_basis(n)
    r = (basis.conj().T @ scipy.sparse.csr_matrix(s) @ basis).tocsr()
    scale = max(1.0, float(np.abs(r.data).max(initial=0.0)))
    leak = float(np.abs(r.data.imag).max(initial=0.0))
    if leak > HERMITIAN_BASIS_TOL * scale:
        raise NumericalError(
            f"superoperator does not preserve Hermiticity: its real-basis form has "
            f"imaginary entries up to {leak:.3e}")
    matrix = r.real.tocsr()
    matrix.eliminate_zeros()
    return RealForm(matrix=matrix, basis=basis, leak=leak)


KRYLOV_DIM = 30
EXPM_RTOL = 1e-13
_BREAKDOWN_RTOL = 1e-12  # h_{j+1,j} <= this times ||m||_1: the space is invariant
_REFINE_TRIALS = 4       # geometric bisections after the first passing halving

_log = logging.getLogger(__name__)


def _expokit_error(f: np.ndarray, k: int, beta: float, avnorm: float) -> float:
    """Sidje's a-posteriori estimate of the local error of the corrected
    Krylov step, read from f = expm(tau * Hbar) on the augmented Hessenberg."""
    phi1 = beta * abs(f[k, 0])
    phi2 = beta * abs(f[k + 1, 0]) * avnorm
    if phi1 > 10 * phi2:
        return phi2
    if phi1 > phi2:
        return phi1 * phi2 / (phi1 - phi2)
    return phi1


@dataclass
class _Arnoldi:
    """Restarted Arnoldi steps of exp(tau m) for one expm_apply call, and
    the counts its DEBUG record reports."""

    m: object
    budget: float     # error allowed per unit time
    breakdown: float  # h_{j+1,j} at or below this: the space is invariant
    matvecs: int = 0
    steps: int = 0
    rejected: int = 0
    largest_error: float = 0.0

    def step(self, x: np.ndarray, rem: float, floor: float) -> tuple[np.ndarray, float]:
        """Advance x by one Krylov space: returns exp(tau m) x and tau <= rem.

        tau is rem when the space is invariant or the estimate of the whole
        interval is at most budget * rem; otherwise the largest tau found by
        halving and then geometric bisection whose estimate is at most
        budget * tau. NumericalError when the halving passes below floor."""
        m = self.m
        w = m @ x
        self.matvecs += 1
        if not w.any():
            return x, rem
        self.steps += 1
        beta = float(np.linalg.norm(x))
        n = x.size
        k = min(KRYLOV_DIM, n)
        basis = np.empty((k + 1, n), dtype=x.dtype)
        hess = np.zeros((k + 2, k + 2), dtype=x.dtype)
        basis[0] = x / beta
        w /= beta
        for j in range(k):
            if j:
                w = m @ basis[j]
                self.matvecs += 1
            for _ in range(2):  # classical Gram-Schmidt with a second pass
                c = basis[:j + 1].conj() @ w
                w -= c @ basis[:j + 1]
                hess[:j + 1, j] += c
            s = float(np.linalg.norm(w))
            if s <= self.breakdown or j + 1 == n:
                f = scipy.linalg.expm(rem * hess[:j + 1, :j + 1])
                return (beta * f[:, 0]) @ basis[:j + 1], rem
            hess[j + 1, j] = s
            basis[j + 1] = w / s
        hess[k + 1, k] = 1.0
        avnorm = float(np.linalg.norm(m @ basis[k]))
        self.matvecs += 1

        def trial(tau):
            f = scipy.linalg.expm(tau * hess)
            err = _expokit_error(f, k, beta, avnorm)
            if not err <= self.budget * tau:  # a NaN estimate fails too
                self.rejected += 1
                return None
            return f, err

        tau, hi = rem, None
        found = trial(tau)
        while found is None:
            tau, hi = tau / 2, tau
            if tau < floor:
                raise NumericalError(
                    f"no Krylov step of at least {floor:.3e} meets the error estimate")
            found = trial(tau)
        if hi is not None:
            for _ in range(_REFINE_TRIALS):
                mid = math.sqrt(tau * hi)
                better = trial(mid)
                if better is None:
                    hi = mid
                else:
                    tau, found = mid, better
        f, err = found
        self.largest_error = max(self.largest_error, err)
        return (beta * f[:k + 1, 0]) @ basis, tau


def _touched_coordinates(m, v: np.ndarray):
    """The coordinates of the weak components of m's nonzero pattern that
    v's support touches, ascending, or None when that is every coordinate.

    m is block diagonal over those components, so exp(t m) v is exactly 0
    outside them. The pattern is m != 0: csgraph would cast a complex m's
    values to real and lose purely imaginary couplings."""
    count, label = scipy.sparse.csgraph.connected_components(m != 0, directed=False)
    if count == 1:
        return None
    touched = np.zeros(count, dtype=bool)
    touched[label[np.flatnonzero(v)]] = True
    keep = touched[label]
    return None if keep.all() else np.flatnonzero(keep)


def expm_apply(m, v: np.ndarray, t) -> np.ndarray:
    """exp(t*m) @ v for a vector v and a square m, dense or sparse, which is
    converted to CSR once; exact passthrough at t = 0.

    t is a scalar, giving one vector, or a nonempty 1-D grid of strictly
    ascending times, giving one row per time; every time must be finite and
    nonnegative, or TimeGridError is raised. Steps may be uneven. The state
    is carried from grid time to grid time by a restarted Arnoldi
    integrator (Saad 1992; Sidje's Expokit 1998): each step builds one
    Krylov space of dimension min(KRYLOV_DIM, n) by classical Gram-Schmidt
    with a second pass, and uses it for the largest step tau whose Expokit
    estimate (phi1/phi2 on the (KRYLOV_DIM + 2)-augmented Hessenberg) is at
    most EXPM_RTOL * ||v|| * tau / t_last. That is the whole remaining interval
    to the next grid time when it passes; otherwise it is found by halving
    and geometric bisection over small dense expm evaluations. A space that
    is invariant (h_{j+1,j} <= 1e-12 ||m||_1, or all of C^n) is exact and
    takes the rest of the interval, and a state with m @ x exactly 0 is
    returned unchanged. Real input stays real.

    The integrator runs on m and v restricted to the weak components of the
    pattern of m (its nonzeros, taken as an undirected graph) that the
    support of v touches; every other entry of the result is exactly 0, as
    it is in exact arithmetic, since m is block diagonal over those
    components. A v that is exactly 0 evolves nothing and gives zeros. When
    v touches every component, m is used as it is, without a copy.

    Raises NumericalError when m or v is not finite or when no step meets
    the estimate. One DEBUG record per call gives the matvec count, the
    Krylov steps, the rejected step trials, the largest accepted error
    estimate and how many of the n coordinates were evolved.
    """
    m = scipy.sparse.csr_matrix(m)
    v = np.asarray(v)
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or v.shape != (n,):
        raise DimensionError(f"shape mismatch: m {m.shape} vs v {v.shape}")
    scalar = np.ndim(t) == 0
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise TimeGridError(f"expected a scalar or a nonempty 1-D time grid, got shape "
                            f"{times.shape}")
    if not (np.all(np.isfinite(times)) and times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise TimeGridError("times must be finite, nonnegative and strictly ascending")
    if not (np.all(np.isfinite(m.data)) and np.all(np.isfinite(v))):
        raise NumericalError("expm_apply needs a finite matrix and vector")
    x = v.astype(np.result_type(m.dtype, v.dtype, float))
    keep = _touched_coordinates(m, x)
    if keep is None:
        keep = slice(None)
    else:
        m = m[keep][:, keep]
        x = x[keep]
    # a v that is exactly 0 keeps no coordinate when m has several components
    norm1 = scipy.sparse.linalg.norm(m, 1) if x.size else 0.0
    budget = EXPM_RTOL * float(np.linalg.norm(x)) / times[-1] if times[-1] else 0.0
    arnoldi = _Arnoldi(m, budget, _BREAKDOWN_RTOL * norm1)
    out = np.zeros((times.size, n), dtype=x.dtype)
    now = 0.0
    for i, target in enumerate(times):
        while now < target:
            # a step of at least eps * target always advances now
            x, tau = arnoldi.step(x, target - now, np.finfo(float).eps * target)
            now = target if tau == target - now else now + tau
        out[i, keep] = x
    _log.debug("expm_apply: %d matvecs, %d Krylov steps, %d rejected step trials, "
               "largest accepted error estimate %.3e, %d of %d coordinates evolved",
               arnoldi.matvecs, arnoldi.steps, arnoldi.rejected, arnoldi.largest_error,
               x.size, n)
    return out[0] if scalar else out

"""Dense complex linear algebra: eigendecompositions, the spectral weights
of a diagonal plus rank-one matrix, matrix-exponential action,
vectorization, and the real Hermitian basis for superoperators.

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
from scipy.linalg import cython_lapack

from .exceptions import DimensionError, NumericalError, TimeGridError

TOL_HERM = 1e-12


def _beyond_rounding(dev: float, entries) -> bool:
    """True when a deviation from Hermiticity dev exceeds TOL_HERM times
    max(1, largest |entry|) of the array entries: the one rounding rule of
    check_hermitian, real_form and gksl.evolve."""
    return dev > TOL_HERM * max(1.0, float(np.abs(entries).max(initial=0.0)))


def vec(b: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec(|x><y|) = |x> kron |y>."""
    return np.asarray(b).reshape(-1)


def check_hermitian(h):
    """Return h, a dense array or a scipy sparse matrix, unchanged if it is
    square, finite and Hermitian to TOL_HERM relative to its largest entry
    (at least 1); raise DimensionError or NumericalError otherwise."""
    sparse = scipy.sparse.issparse(h)
    h = h if sparse else np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {h.shape}")

    def stored(m):
        return m.data if sparse else m

    if not np.all(np.isfinite(stored(h))):
        raise NumericalError("matrix has non-finite entries")
    dev = float(np.abs(stored(h - h.conj().T)).max(initial=0.0))
    if _beyond_rounding(dev, stored(h)):
        raise NumericalError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return h


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and orthonormal eigenvectors as columns, as
    np.linalg.eigh returns them."""
    return np.linalg.eigh(check_hermitian(h))


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


def rank_one_eig(d: np.ndarray, z: np.ndarray, zx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, weights): the eigenvalues mu_i of M = diag(d) + z z^T that
    deflation keeps, ascending, and c_i = (z^T u_i)(u_i^T x) for their
    eigenvectors u_i, so that sum_i c_i f(mu_i) = z^T f(M) x, in O(n^2). The
    start x, complex allowed, is given as zx = z * x. Every eigenvector that
    deflation drops is orthogonal to z to within its tolerance.

    Deflation follows LAPACK dlaed2 with tol = 8 eps max(|d|, |z|): weights
    |z_j| <= tol are dropped, and sorted poles whose gap is at most tol merge
    into one pole at their z^2-weighted mean with weight ||z_group||. The K
    remaining poles are strictly increasing and go to one dlaed9 call with
    w = zeta / ||zeta|| and rho = ||zeta||^2. Raises DimensionError or
    NumericalError for bad input, and NumericalError when dlaed9 fails.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    zx = np.asarray(zx)   # complex allowed
    if d.ndim != 1 or z.shape != d.shape or zx.shape != d.shape:
        raise DimensionError(f"shape mismatch: d {d.shape}, z {z.shape}, zx {zx.shape}")
    if not all(np.all(np.isfinite(a)) for a in (d, z, zx)):
        raise NumericalError("rank-one update has non-finite entries")
    tol = 8.0 * np.finfo(float).eps * max(np.abs(d).max(initial=0.0),
                                          np.abs(z).max(initial=0.0))
    order = np.argsort(d, kind="stable")
    index = order[np.abs(z[order]) > tol]
    poles = d[index]
    # group g spans index[starts[g]:starts[g + 1]]
    starts = np.flatnonzero(np.diff(poles, prepend=-np.inf) > tol)
    k = starts.size
    if k == 0:
        return np.zeros(0), np.zeros(0)
    sq = z[index] ** 2
    norms = np.sqrt(np.add.reduceat(sq, starts))   # ||z_group||
    merged = np.add.reduceat(sq * poles, starts) / norms**2
    rho = float(norms @ norms)
    w = norms / math.sqrt(rho)
    values = np.empty(k)
    work = np.empty((k, k), order="F")
    vectors = np.empty((k, k), order="F")   # in the basis of group directions z_group / ||z_group||
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
    # the coordinates of x along the group directions
    x_groups = np.add.reduceat(zx[index], starts) / norms
    return values, (norms @ vectors) * (x_groups @ vectors)


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
    TOL_HERM times max(1, largest |entry|)."""
    if s.shape != (n * n, n * n):
        raise DimensionError(f"superoperator shape {s.shape} does not act on {n} x {n} matrices")
    basis = hermitian_basis(n)
    r = (basis.conj().T @ scipy.sparse.csr_matrix(s) @ basis).tocsr()
    leak = float(np.abs(r.data.imag).max(initial=0.0))
    if _beyond_rounding(leak, r.data):
        raise NumericalError(
            f"superoperator does not preserve Hermiticity: its real-basis form has "
            f"imaginary entries up to {leak:.3e}")
    matrix = r.real.tocsr()
    matrix.eliminate_zeros()
    return RealForm(matrix=matrix, basis=basis, leak=leak)


def check_times(times) -> np.ndarray:
    """times as a float array if it is a nonempty 1-D grid of finite,
    nonnegative, strictly ascending times, the one time rule of the
    package; TimeGridError otherwise. A single time t is the grid (t,)."""
    t = np.asarray(times, dtype=float)
    # written so that NaN fails too
    if not (t.ndim == 1 and t.size and np.all(np.isfinite(t)) and t[0] >= 0
            and np.all(np.diff(t) > 0)):
        got = f"values from {t.min():g} to {t.max():g}" if t.size else "no values"
        raise TimeGridError(f"times must form a nonempty 1-D grid of finite, nonnegative, "
                            f"strictly ascending values, got shape {t.shape}, {got}")
    return t


KRYLOV_DIM = 30
EXPM_RTOL = 1e-13

_log = logging.getLogger(__name__)


def _norm(x: np.ndarray) -> float:
    """||x||_2 by BLAS nrm2, which scales, so it overflows or underflows only
    where ||x|| itself does; 0.0 for an empty x, which nrm2 refuses."""
    return float(scipy.linalg.get_blas_funcs("nrm2", (x,))(x)) if x.size else 0.0


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
    allowance: float  # EXPM_RTOL * ||v||
    t_last: float
    matvecs: int = 0
    steps: int = 0
    rejected: int = 0
    largest_error: float = 0.0

    def step(self, x: np.ndarray, rem: float) -> tuple[np.ndarray, float]:
        """Advance x by one Krylov space: returns exp(tau m) x and tau <= rem.

        The one accuracy rule: a step of length tau may add an error of
        allowance * (tau / t_last). tau is rem when the space is invariant
        (all of C^n, or beta * h_{j+1,j} * t_last <= allowance for
        beta = ||x||, since stopping there errs by about beta * h_{j+1,j} * tau)
        or when the Expokit estimate err for rem passes. Otherwise each failed
        trial shrinks tau by Expokit's s = 0.9 (allowance * (tau / t_last) /
        err)^(1/k), or halves it when s is not in (0, 1). NumericalError when
        tau falls below ulp(t_last), the shortest step that always advances,
        or when beta is 0 or not finite."""
        m = self.m
        w = m @ x
        self.matvecs += 1
        if not w.any():
            return x, rem
        self.steps += 1
        beta = _norm(x)
        if not 0 < beta < math.inf:
            raise NumericalError(f"the Krylov state's norm {beta:.3e} is outside the float range")
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
            s = _norm(w)
            if beta * s * self.t_last <= self.allowance or j + 1 == n:
                f = scipy.linalg.expm(rem * hess[:j + 1, :j + 1])
                return (beta * f[:, 0]) @ basis[:j + 1], rem
            hess[j + 1, j] = s
            basis[j + 1] = w / s
        hess[k + 1, k] = 1.0
        avnorm = _norm(m @ basis[k])
        self.matvecs += 1

        tau = rem
        while True:
            f = scipy.linalg.expm(tau * hess)
            err = _expokit_error(f, k, beta, avnorm)
            allowed = self.allowance * (tau / self.t_last)
            if err <= allowed:
                break
            self.rejected += 1
            # Expokit's shrink; NaN or infinite estimates give no s in (0, 1)
            shrink = 0.9 * (allowed / err) ** (1 / k)
            tau = tau * shrink if 0 < shrink < 1 else tau / 2
            if tau < math.ulp(self.t_last):
                raise NumericalError(f"no Krylov step of at least {math.ulp(self.t_last):.3e} "
                                     "meets the error estimate")
        self.largest_error = max(self.largest_error, err)
        return (beta * f[:k + 1, 0]) @ basis, tau


def expm_apply(m, v: np.ndarray, times) -> np.ndarray:
    """exp(t*m) @ v at each time t of a grid, one row per time, for a vector
    v and a square m, dense or sparse, which is converted to CSR once; exact
    passthrough at t = 0.

    times must pass check_times. Steps may be uneven. The state
    is carried from grid time to grid time by a restarted Arnoldi
    integrator (Saad 1992; Sidje's Expokit 1998): each step builds one
    Krylov space of dimension min(KRYLOV_DIM, n) by classical Gram-Schmidt
    with a second pass. One accuracy rule decides every step: an error
    of at most EXPM_RTOL * ||v|| over [0, t_last], of which a step of length
    tau may use EXPM_RTOL * ||v|| * (tau / t_last). A step takes the whole
    remaining interval to the next grid time when its Expokit estimate
    (phi1/phi2 on the (KRYLOV_DIM + 2)-augmented Hessenberg) for it passes;
    otherwise each failed trial, one small dense expm with estimate err,
    multiplies tau by Expokit's
    s = 0.9 (EXPM_RTOL * ||v|| * (tau / t_last) / err)^(1/k) for the Krylov
    dimension k, or by 1/2 when s is not in (0, 1), until a trial passes;
    no tau is carried to the next step. A space is invariant, exact for the
    rest of the interval, when it is all of C^n or when
    beta * h_{j+1,j} * t_last <= EXPM_RTOL * ||v|| for the step's start norm
    beta, since the error of stopping there grows like beta * h_{j+1,j} * tau.
    A state with m @ x exactly 0 is returned unchanged. Real input stays
    real.

    The integrator runs on m and v restricted to the weak components of the
    pattern of m (its nonzeros, taken as an undirected graph) that the
    support of v touches; every other entry of the result is exactly 0, as
    it is in exact arithmetic, since m is block diagonal over those
    components. A v that is exactly 0 evolves nothing and gives zeros.

    Raises NumericalError when m or v is not finite, when no step of at
    least one ulp of t_last meets the estimate, or when the state leaves the
    float range: a norm beyond the largest float (norms come from BLAS nrm2,
    which scales), or a non-finite result. One DEBUG record per call gives
    the matvec count, the Krylov steps, the rejected step trials, the
    largest accepted error estimate and how many of the n coordinates
    were evolved.
    """
    m = scipy.sparse.csr_matrix(m)
    v = np.asarray(v)
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or v.shape != (n,):
        raise DimensionError(f"shape mismatch: m {m.shape} vs v {v.shape}")
    times = check_times(times)
    if not (np.all(np.isfinite(m.data)) and np.all(np.isfinite(v))):
        raise NumericalError("expm_apply needs a finite matrix and vector")
    x = v.astype(np.result_type(m.dtype, v.dtype, float))
    # m is block diagonal over the weak components of its pattern, m != 0 (csgraph
    # would cast a complex m to real and lose purely imaginary couplings)
    count, label = scipy.sparse.csgraph.connected_components(m != 0, directed=False)
    touched = np.zeros(count, dtype=bool)
    touched[label[np.flatnonzero(x)]] = True
    keep = np.flatnonzero(touched[label])
    m, x = m[keep][:, keep], x[keep]
    out = np.zeros((times.size, n), dtype=x.dtype)
    now = 0.0
    # an overflow shows as a non-finite norm or state, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        arnoldi = _Arnoldi(m, EXPM_RTOL * _norm(x), times[-1])
        for i, target in enumerate(times):
            while now < target:
                x, tau = arnoldi.step(x, target - now)
                now = target if tau == target - now else now + tau
            out[i, keep] = x
    if not np.all(np.isfinite(out)):
        raise NumericalError("exp(t m) v leaves the float range on the grid")
    _log.debug("expm_apply: %d matvecs, %d Krylov steps, %d rejected step trials, "
               "largest accepted error estimate %.3e, %d of %d coordinates evolved",
               arnoldi.matvecs, arnoldi.steps, arnoldi.rejected, arnoldi.largest_error,
               x.size, n)
    return out

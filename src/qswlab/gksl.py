"""GKSL evolution generators for continuous-time walks.

Covers the coherent walk (CTQW), the classical walk (CTRW), local and
global environment-interaction stochastic walks (LQSW, GQSW) and their
omega-interpolations. Generators act on row-major vectorized density
matrices and are stored sparse so that enlarged-space models stay
tractable.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import graphs, numkernel
from .exceptions import (
    DensityInvariantViolated,
    DimensionError,
    NumericalError,
    ParameterRangeError,
)

HERM_TOL = 1e-10
DRIFT_TOL = 1e-7
# About 0.9 GB peak RSS while S and its real form are assembled: the
# length-301 ngqsw path has a bound of 1.65e7 and peaked at 749 MB.
GENERATOR_NNZ_CAP = 20_000_000


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix to DRIFT_TOL: Hermitian, unit trace, and
    no eigenvalue below -DRIFT_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > DRIFT_TOL:
        raise DensityInvariantViolated("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > DRIFT_TOL:
        raise DensityInvariantViolated(f"trace {np.trace(rho)} deviates from 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -DRIFT_TOL:
        raise DensityInvariantViolated(f"negative eigenvalue {w.min()}")
    return rho


def pure_state(n: int, k: int) -> np.ndarray:
    rho = np.zeros((n, n), dtype=complex)
    rho[k, k] = 1.0
    return rho


@dataclass(frozen=True)
class EvolutionGenerator:
    """Sparse superoperator S with vec(rho(t)) = exp(S t) vec(rho(0))."""

    s: sp.csr_matrix
    dim: int  # state dimension n; S is n^2 x n^2

    @functools.cached_property
    def real(self) -> numkernel.RealForm:
        """S in the Hermitian basis (numkernel.real_form), formed on first
        use and kept: evolve and analysis.classify_convergence work on it."""
        return numkernel.real_form(self.s, self.dim)


@dataclass(frozen=True)
class WalkSpec:
    """Hamiltonian, Lindblad family and weights that define one walk, for
    every model from CTQW to the nonmoralizing walk; the operators are
    scipy sparse matrices."""

    hamiltonian: sp.csr_matrix
    lindblads: tuple
    ham_weight: float
    diss_weight: float


def _from_entries(entries, shape) -> sp.csr_matrix:
    """CSR matrix from (rows, cols, values) triples; repeated positions add.
    A single triple is not copied, which keeps the peak memory down."""
    rows, cols, vals = (x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def build_generator(spec: WalkSpec) -> EvolutionGenerator:
    """S = G x I + I x conj(G) + w_d * sum_L L x conj(L) with the effective
    generator G = -i w_h H - 1/2 w_d K and K = sum_L L'L, row-major vec
    convention. Since H and K are Hermitian, G rho + rho G' is
    -i w_h [H, rho] - 1/2 w_d {K, rho}, and its vec is (G x I + I x conj(G))
    vec(rho), so the coherent part and the anticommutator cost two
    Kronecker products whatever the number of Lindblads.

    Each L x conj(L) is built from the products of L's nonzeros, and
    K = B'B for the Lindblads stacked into one tall matrix B. H and each L
    of the spec may be dense arrays or scipy sparse matrices. Each weight
    must be finite and nonnegative, or ParameterRangeError is raised. H must
    be Hermitian (numkernel.check_hermitian), or NumericalError is raised:
    S would not preserve the trace.

    Before anything n^2 x n^2 is assembled, nnz(S) is bounded by
    2n nnz(H) + sum_L nnz(L)^2 + 2n nnz(K), and DimensionError is raised
    when that bound exceeds GENERATOR_NNZ_CAP."""
    ham_weight, diss_weight = spec.ham_weight, spec.diss_weight
    for name, weight in (("ham_weight", ham_weight), ("diss_weight", diss_weight)):
        if not (np.isfinite(weight) and weight >= 0):
            raise ParameterRangeError(f"{name} must be finite and nonnegative, got {weight}")
    h = numkernel.check_hermitian(sp.csr_matrix(spec.hamiltonian, dtype=complex))
    n = h.shape[0]
    lindblads = [sp.coo_matrix(l, dtype=complex) for l in spec.lindblads] if diss_weight > 0 else []
    if any(l.shape != (n, n) for l in lindblads):
        raise DimensionError("Lindblad dimension mismatch")
    bound = 2 * n * h.nnz + sum(l.nnz ** 2 for l in lindblads)
    g = ham_weight * (-1j) * h
    if lindblads:
        b = _from_entries([(l.row.astype(np.int64) + j * n, l.col.astype(np.int64), l.data)
                           for j, l in enumerate(lindblads)], (len(lindblads) * n, n))
        k = (b.conj().T @ b).tocsr()
        bound += 2 * n * k.nnz
        g = g - 0.5 * diss_weight * k
    if bound > GENERATOR_NNZ_CAP:
        raise DimensionError(f"the generator could hold {bound:.3g} nonzeros, above the "
                             f"cap {GENERATOR_NNZ_CAP:.3g}")
    eye = sp.identity(n, dtype=complex, format="csr")
    s = sp.kron(g, eye, format="csr") + sp.kron(eye, g.conj(), format="csr")
    jumps, pending = [], 0
    for j, l in enumerate(lindblads):
        r, c, v = l.row.astype(np.int64), l.col.astype(np.int64), l.data
        jumps.append(((r[:, None] * n + r).ravel(), (c[:, None] * n + c).ravel(),
                      diss_weight * np.outer(v, v.conj()).ravel()))
        pending += v.size ** 2
        # Fold the buffered jump terms into s once they outnumber its
        # entries, and after the last Lindblad: few sparse additions, and
        # a buffer no larger than s. The buffer is dropped before the
        # addition allocates.
        if pending >= s.nnz or j == len(lindblads) - 1:
            flushed, jumps, pending = _from_entries(jumps, s.shape), [], 0
            s = s + flushed
    s.eliminate_zeros()
    return EvolutionGenerator(s=s, dim=n)


def _arc_lindblads(g: graphs.DiGraph) -> tuple:
    """One single-entry |w><v| per arc v -> w, in sorted arc order."""
    return tuple(sp.coo_matrix(([1.0 + 0j], ([w], [v])), shape=(g.n, g.n))
                 for v, w in sorted(g.arcs))


def check_omega(omega: float) -> None:
    """Raise ParameterRangeError unless the interpolation weight lies in [0, 1]."""
    if not 0.0 <= omega <= 1.0:
        raise ParameterRangeError(f"omega must lie in [0, 1], got {omega}")


def lqsw_spec(g: graphs.DiGraph, omega: float) -> WalkSpec:
    """One Lindblad |w><v| per arc; Hamiltonian from the underlying graph."""
    check_omega(omega)
    h = graphs.arc_matrix(graphs.underlying(g)).astype(complex)
    return WalkSpec(h, _arc_lindblads(g), 1.0 - omega, omega)


def gqsw_spec(g: graphs.DiGraph, omega: float) -> WalkSpec:
    """Single whole-matrix Lindblad equal to the digraph adjacency."""
    check_omega(omega)
    h = graphs.arc_matrix(graphs.underlying(g)).astype(complex)
    l = graphs.arc_matrix(g).T.tocsr().astype(complex)
    return WalkSpec(h, (l,), 1.0 - omega, omega)


def evolve(gen: EvolutionGenerator, rho0: np.ndarray, t) -> np.ndarray:
    """exp(S t) applied to rho0: one state for a scalar t, or a stack with
    one state per time for a grid of strictly ascending times (see
    numkernel.expm_apply).

    The evolution runs in real arithmetic: the coordinates x = T^H vec(rho0)
    in the Hermitian basis T go through exp(R t) with the real R = T^H S T
    of gen.real, and each state is rebuilt as vec(rho) = T x straight into
    the returned array, so it is Hermitian by construction. rho0 must be
    Hermitian to HERM_TOL, or DensityInvariantViolated is raised. Every
    returned state must pass check_density at DRIFT_TOL; no state is
    symmetrised or renormalised."""
    v = numkernel.vec(np.asarray(rho0, dtype=complex))
    if v.size != gen.dim * gen.dim:
        raise DimensionError("state dimension does not match generator")
    form = gen.real
    x = form.basis.conj().T @ v
    if np.abs(x.imag).max() > HERM_TOL:
        raise DensityInvariantViolated("initial state is not Hermitian")
    xs = np.atleast_2d(numkernel.expm_apply(form.matrix, x.real, t))
    rhos = np.empty((len(xs), gen.dim, gen.dim), dtype=complex)
    for rho, xk in zip(rhos, xs):
        rho[...] = (form.basis @ xk).reshape(gen.dim, gen.dim)
        check_density(rho)
    return rhos[0] if np.ndim(t) == 0 else rhos


def check_probabilities(p: np.ndarray) -> np.ndarray:
    """Return p unchanged if it is a probability vector to within DRIFT_TOL,
    the tolerance `evolve` enforces: no entry below -DRIFT_TOL and a sum
    within DRIFT_TOL of 1. Otherwise raise NumericalError; nothing is
    clipped or renormalised."""
    total = p.sum()
    # written so that NaN fails too
    if not (p.min() >= -DRIFT_TOL and abs(total - 1.0) <= DRIFT_TOL):
        raise NumericalError(f"measurement probabilities are not a distribution: "
                             f"smallest {p.min()!r}, sum {total!r}")
    return p


def measure(rho: np.ndarray) -> np.ndarray:
    """Canonical-basis measurement probabilities, the real diagonal of rho;
    see check_probabilities."""
    return check_probabilities(np.diagonal(rho).real)

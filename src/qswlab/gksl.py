"""GKSL evolution generators for continuous-time walks.

Covers the coherent walk (CTQW), the classical walk (CTRW), local and
global environment-interaction stochastic walks (LQSW, GQSW) and their
omega-interpolations. Generators act on row-major vectorized density
matrices and are stored sparse so that enlarged-space models stay
tractable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import graphs, numkernel
from .exceptions import DensityInvariantViolated, DimensionError

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
DRIFT_TOL = 1e-7


def check_density(rho: np.ndarray, herm_tol=HERM_TOL, trace_tol=TRACE_TOL,
                  eig_floor=EIG_FLOOR) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, near-positive."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise DensityInvariantViolated("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise DensityInvariantViolated(f"trace {np.trace(rho)} deviates from 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < eig_floor:
        raise DensityInvariantViolated(f"negative eigenvalue {w.min()}")
    return rho


def pure_state(n: int, k: int) -> np.ndarray:
    rho = np.zeros((n, n), dtype=complex)
    rho[k, k] = 1.0
    return rho


def maximally_mixed(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex) / n


@dataclass(frozen=True)
class EvolutionGenerator:
    """Sparse superoperator S with vec(rho(t)) = exp(S t) vec(rho(0))."""

    s: sp.csr_matrix
    dim: int  # state dimension n; S is n^2 x n^2


@dataclass(frozen=True)
class WalkSpec:
    """Hamiltonian, Lindblad family and weights that define one walk."""

    model: str
    hamiltonian: np.ndarray
    lindblads: tuple
    ham_weight: float
    diss_weight: float


def build_generator(h, lindblads, ham_weight: float, diss_weight: float) -> EvolutionGenerator:
    """S = w_h * (-i)(H x I - I x conj(H)) + w_d * sum_L (L x conj(L)
    - 1/2 L'L x I - 1/2 I x L^T conj(L)), row-major vec convention."""
    if ham_weight < 0 or diss_weight < 0:
        raise ValueError("weights must be nonnegative")
    h = sp.csr_matrix(np.asarray(h, dtype=complex))
    n = h.shape[0]
    if h.shape != (n, n):
        raise DimensionError("Hamiltonian must be square")
    eye = sp.identity(n, dtype=complex, format="csr")
    s = sp.csr_matrix((n * n, n * n), dtype=complex)
    if ham_weight > 0:
        s = s + ham_weight * (-1j) * (sp.kron(h, eye) - sp.kron(eye, h.conj()))
    if diss_weight > 0:
        for l in lindblads:
            l = sp.csr_matrix(np.asarray(l, dtype=complex))
            if l.shape != (n, n):
                raise DimensionError("Lindblad dimension mismatch")
            ldl = (l.conj().T @ l).tocsr()
            s = s + diss_weight * (
                sp.kron(l, l.conj())
                - 0.5 * sp.kron(ldl, eye)
                - 0.5 * sp.kron(eye, ldl.T)
            )
    return EvolutionGenerator(s=sp.csr_matrix(s), dim=n)


def generator_from_spec(spec: WalkSpec) -> EvolutionGenerator:
    return build_generator(spec.hamiltonian, spec.lindblads, spec.ham_weight, spec.diss_weight)


def _arc_lindblads(g: graphs.DiGraph) -> tuple:
    out = []
    for v, w in sorted(g.arcs):
        l = np.zeros((g.n, g.n), dtype=complex)
        l[w, v] = 1.0
        out.append(l)
    return tuple(out)


def ctqw_spec(g: graphs.Graph) -> WalkSpec:
    return WalkSpec("CTQW", graphs.adjacency(g).astype(complex), (), 1.0, 0.0)


def ctrw_rate_matrix(g: graphs.Graph) -> np.ndarray:
    """Classical master-equation generator dp/dt = M p, i.e. minus the Laplacian."""
    return -graphs.laplacian(g)


def lqsw_spec(g: graphs.DiGraph, omega: float) -> WalkSpec:
    """One Lindblad |w><v| per arc; Hamiltonian from the underlying graph."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    h = graphs.adjacency(graphs.underlying(g)).astype(complex)
    return WalkSpec("LQSW", h, _arc_lindblads(g), 1.0 - omega, omega)


def gqsw_spec(g: graphs.DiGraph, omega: float) -> WalkSpec:
    """Single whole-matrix Lindblad equal to the digraph adjacency."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    h = graphs.adjacency(graphs.underlying(g)).astype(complex)
    l = graphs.adjacency(g).astype(complex)
    return WalkSpec("GQSW", h, (l,), 1.0 - omega, omega)


def evolve(gen: EvolutionGenerator, rho0: np.ndarray, t,
           validate: bool = True) -> np.ndarray:
    """exp(S t) applied to rho0: one state for a scalar t, or a stack with
    one state per time for an ascending grid with a constant step (see
    numkernel.expm_apply). With validate, every returned state must pass
    check_density at DRIFT_TOL; no state is symmetrised or renormalised."""
    v = numkernel.vec(np.asarray(rho0, dtype=complex))
    if v.size != gen.dim * gen.dim:
        raise DimensionError("state dimension does not match generator")
    rhos = numkernel.expm_apply(gen.s, v, t).reshape(-1, gen.dim, gen.dim)
    if validate:
        for rho in rhos:
            check_density(rho, herm_tol=DRIFT_TOL, trace_tol=DRIFT_TOL,
                          eig_floor=-DRIFT_TOL)
    return rhos[0] if np.ndim(t) == 0 else rhos


def measure(rho: np.ndarray) -> np.ndarray:
    """Canonical-basis measurement probabilities."""
    p = np.clip(np.diagonal(rho).real, 0.0, None)
    return p / p.sum()


def gqsw_spectrum_commuting(g: graphs.Graph, omega: float) -> np.ndarray:
    """Generator eigenvalues for an undirected GQSW, where H and L commute:
    lambda_ij = -i(1-omega)(d_i - d_j) - (omega/2)(d_i - d_j)^2 over the
    adjacency eigenvalues d."""
    d = np.linalg.eigvalsh(graphs.adjacency(g))
    diff = d[:, None] - d[None, :]
    lam = -1j * (1.0 - omega) * diff - 0.5 * omega * diff * diff
    return lam.ravel()

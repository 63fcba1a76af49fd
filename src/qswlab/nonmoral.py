"""Nonmoralizing quantum stochastic walks.

A digraph is enlarged so that every vertex v becomes a block of
max(indeg(v), 1) copies; Lindblad operators built from orthogonal-column
matrices on these blocks make amplitudes from distinct parents land on
orthogonal states, which removes the spurious transfer between parents
(the moralization effect) that the plain global-interaction walk exhibits.

Basis order for the enlarged space is copy-major: all 0th copies in vertex
order, then all 1st copies, and so on.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gksl, graphs
from .exceptions import DimensionError, NonOrthogonalColumnsError, NumericalError, WrongTopologyError

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class DemoralizedGraph:
    base: graphs.DiGraph
    block_sizes: tuple          # per base vertex
    index: tuple                # index[v][k] -> enlarged basis position
    dim: int

    @functools.cached_property
    def copies(self) -> sp.csr_matrix:
        """The dim x n copy-membership matrix E: E[i, v] = 1 iff basis
        position i is a copy of v."""
        rows = np.concatenate(self.index)
        cols = np.repeat(np.arange(self.base.n), self.block_sizes)
        return sp.csr_matrix((np.ones(self.dim), (rows, cols)),
                             shape=(self.dim, self.base.n))


def _parents(g: graphs.DiGraph):
    """indptr and indices of the transposed arc matrix: the in-neighbours
    of v, ascending, are indices[indptr[v]:indptr[v + 1]]."""
    inc = graphs.arc_matrix(g).tocsc()
    inc.sort_indices()
    return inc.indptr, inc.indices


def demoralize(g: graphs.DiGraph) -> DemoralizedGraph:
    if g.n < 1:
        raise DimensionError("a digraph with no vertex has nothing to demoralize")
    indptr, _ = _parents(g)
    sizes = tuple(int(d) for d in np.maximum(np.diff(indptr), 1))
    labels = [(v, k) for k in range(max(sizes)) for v in range(g.n) if k < sizes[v]]
    pos = {lab: i for i, lab in enumerate(labels)}
    index = tuple(tuple(pos[(v, k)] for k in range(sizes[v])) for v in range(g.n))
    return DemoralizedGraph(base=g, block_sizes=sizes, index=index, dim=len(labels))


def fourier_matrix(n: int) -> np.ndarray:
    if n < 1:
        raise DimensionError("n must be positive")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def fourier_family(dg: DemoralizedGraph):
    """The default orthogonal-column family: a Fourier matrix per block."""
    def family(v: int) -> np.ndarray:
        return fourier_matrix(dg.block_sizes[v])
    return family


def build_nonmoral_lindblad(dg: DemoralizedGraph, family) -> sp.csr_matrix:
    """Assemble one enlarged Lindblad operator from a per-vertex family.

    family(v) must be a |block(v)| x indeg(v) matrix with pairwise
    orthogonal columns; column j feeds the arc from the j-th smallest
    in-neighbor of v. The entry into copy k of v does not depend on which
    copy of the source vertex the amplitude leaves from, so the operator is
    F E^T, with F[copy k of v, w] = family(v)[k, j] for w the j-th parent.
    """
    g = dg.base
    indptr, indices = _parents(g)
    rows, cols, vals = [], [], []
    for v in range(g.n):
        parents = indices[indptr[v]:indptr[v + 1]]
        if not parents.size:
            continue
        lv = np.asarray(family(v), dtype=complex)
        if lv.shape != (dg.block_sizes[v], len(parents)):
            raise DimensionError(
                f"family({v}) must be {dg.block_sizes[v]}x{len(parents)}, got {lv.shape}"
            )
        gram = lv.conj().T @ lv
        if np.abs(gram - np.diag(np.diagonal(gram))).max() > ORTHO_TOL:
            raise NonOrthogonalColumnsError(f"family({v}) columns are not orthogonal")
        rows.append(np.repeat(dg.index[v], parents.size))
        cols.append(np.tile(parents, lv.shape[0]))
        vals.append(lv.ravel())
    if not vals:
        return sp.csr_matrix((dg.dim, dg.dim), dtype=complex)
    f = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dg.dim, g.n))
    return (f @ dg.copies.T).sorted_indices()


def standard_hamiltonian(dg: DemoralizedGraph) -> sp.csr_matrix:
    """All-ones coupling between blocks of adjacent base vertices:
    E A E^T with A the underlying graph's adjacency."""
    a = graphs.arc_matrix(graphs.underlying(dg.base))
    return (dg.copies @ a @ dg.copies.T).sorted_indices().astype(complex)


def _block_diagonal(dg: DemoralizedGraph, b) -> sp.csr_matrix:
    """The operator that acts as block v of b on the copies of each vertex
    v, for b block diagonal in the vertex-major copy order (the order of
    np.concatenate(dg.index))."""
    b = sp.coo_matrix(b, dtype=complex)
    pos = np.concatenate(dg.index)
    return sp.csr_matrix((b.data, (pos[b.row], pos[b.col])), shape=(dg.dim, dg.dim))


def standard_rotating_hamiltonian(dg: DemoralizedGraph) -> sp.csr_matrix:
    """Blocks are the open-chain generators i(N - N^T) with N the shift by
    one copy: +i on the superdiagonal, -i on the subdiagonal, no wraparound.
    Size-1 blocks are zero."""
    up = np.full(dg.dim - 1, 1j)
    up[np.cumsum(dg.block_sizes)[:-1] - 1] = 0  # no coupling between blocks
    return _block_diagonal(dg, sp.diags([up, -up], [1, -1], shape=(dg.dim, dg.dim)))


def ngqsw_spec(dg: DemoralizedGraph, omega: float, lindblads=None) -> gksl.WalkSpec:
    """Coherent part (1-omega) H + omega H_rot with the standard and rotating
    Hamiltonians; dissipator weight omega over the given Lindblads, by
    default the single Fourier-family Lindblad."""
    gksl.check_omega(omega)
    if lindblads is None:
        lindblads = (build_nonmoral_lindblad(dg, fourier_family(dg)),)
    lindblads = tuple(lindblads)
    h = (1.0 - omega) * standard_hamiltonian(dg) + omega * standard_rotating_hamiltonian(dg)
    return gksl.WalkSpec(h, lindblads, 1.0, omega)


def _is_bidirected_path(g: graphs.DiGraph) -> bool:
    und = graphs.underlying(g)
    return (g.n >= 2 and sorted(und.degrees()) == [1, 1] + [2] * (g.n - 2)
            and graphs.is_connected(und) and len(g.arcs) == 2 * len(und.edges))


def reflection_basis(dg: DemoralizedGraph) -> sp.csr_matrix:
    """Real orthogonal U, symmetric and its own inverse, that diagonalises
    the reflection P: copy k of v -> copy k of n-1-v. Row x is e_x for a
    copy of the centre vertex, which P fixes, and for each mirror pair
    x < Px rows x and Px are (e_x + e_Px)/sqrt2 and (e_x - e_Px)/sqrt2.
    An operator that P maps onto itself, such as the path walk's H, has no
    entry in U H U^T between the rows with a minus sign and the others, and
    U rho U^T evolves under the walk's operators conjugated by U.
    WrongTopologyError when the block sizes are not mirror-symmetric."""
    if dg.block_sizes != dg.block_sizes[::-1]:
        raise WrongTopologyError("the copy blocks do not read the same from both ends")
    perm = np.empty(dg.dim, dtype=np.int64)
    perm[np.concatenate(dg.index)] = np.concatenate(dg.index[::-1])
    x = np.arange(dg.dim)
    moved = perm != x
    r = 1.0 / np.sqrt(2.0)
    rows = np.concatenate([x, x[moved]])
    cols = np.concatenate([x, perm[moved]])
    vals = np.concatenate([np.where(moved, np.sign(perm - x) * r, 1.0), np.full(moved.sum(), r)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dg.dim, dg.dim))


def symmetrized_path_lindblads(dg: DemoralizedGraph) -> tuple:
    """Two Lindblads whose joint action propagates symmetrically on a
    bidirected path; a single Fourier Lindblad drifts to one side."""
    if not _is_bidirected_path(dg.base):
        raise WrongTopologyError("base graph must be a bidirected path")
    l1 = np.array([[1, 1], [1, -1]], dtype=complex)
    l2 = np.array([[1, 1], [-1, 1]], dtype=complex)
    end = np.array([[1]], dtype=complex)

    def fam(block):
        return lambda v: block if dg.block_sizes[v] == 2 else end

    return (
        build_nonmoral_lindblad(dg, fam(l1)),
        build_nonmoral_lindblad(dg, fam(l2)),
    )


def natural_measure(rhos: np.ndarray, dg: DemoralizedGraph) -> np.ndarray:
    """Probability per base vertex, the sum of the canonical probabilities
    over its block, for each state of a (T, dim, dim) stack such as
    gksl.evolve returns: one row per state. Each diagonal must be a
    distribution to gksl.DRIFT_TOL, the tolerance evolve enforces: no entry
    below -DRIFT_TOL and a sum within DRIFT_TOL of 1. Otherwise
    NumericalError is raised; nothing is clipped or renormalised."""
    rhos = np.asarray(rhos)
    if rhos.shape[1:] != (dg.dim, dg.dim):
        raise DimensionError("need a stack of states of the enlarged space's dimension")
    diag = np.diagonal(rhos, axis1=1, axis2=2).real
    low, total = diag.min(axis=1), diag.sum(axis=1)
    # written so that NaN fails too
    if not np.all((low >= -gksl.DRIFT_TOL) & (np.abs(total - 1.0) <= gksl.DRIFT_TOL)):
        raise NumericalError(f"measurement probabilities are not a distribution: smallest "
                             f"{float(low.min())}, sums {float(total.min())} to "
                             f"{float(total.max())}")
    return np.ascontiguousarray(diag @ dg.copies)  # rows sum as contiguous profiles


def block_mixed_state(dg: DemoralizedGraph, v: int) -> np.ndarray:
    """Even mixture of the copies of the base vertex v, which must pass
    graphs.check_vertex."""
    graphs.check_vertex(v, dg.base.n)
    rho = np.zeros((dg.dim, dg.dim), dtype=complex)
    rho[dg.index[v], dg.index[v]] = 1.0 / dg.block_sizes[v]
    return rho

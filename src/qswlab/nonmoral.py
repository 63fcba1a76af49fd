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

from dataclasses import dataclass

import numpy as np

from . import gksl, graphs
from .exceptions import DimensionError, NonOrthogonalColumnsError, WrongTopologyError

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class DemoralizedGraph:
    base: graphs.DiGraph
    block_sizes: tuple          # per base vertex
    index: tuple                # index[v][k] -> enlarged basis position
    labels: tuple               # labels[i] = (v, k)
    dim: int

    def block(self, v: int) -> tuple:
        return self.index[v]


def _parents(g: graphs.DiGraph):
    """indptr and indices of the transposed arc matrix: the in-neighbours
    of v, ascending, are indices[indptr[v]:indptr[v + 1]]."""
    inc = graphs.arc_matrix(g).tocsc()
    inc.sort_indices()
    return inc.indptr, inc.indices


def demoralize(g: graphs.DiGraph) -> DemoralizedGraph:
    indptr, _ = _parents(g)
    sizes = tuple(int(d) for d in np.maximum(np.diff(indptr), 1))
    labels = []
    for k in range(max(sizes)):
        for v in range(g.n):
            if k < sizes[v]:
                labels.append((v, k))
    pos = {lab: i for i, lab in enumerate(labels)}
    index = tuple(tuple(pos[(v, k)] for k in range(sizes[v])) for v in range(g.n))
    return DemoralizedGraph(base=g, block_sizes=sizes, index=index,
                            labels=tuple(labels), dim=len(labels))


def fourier_matrix(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def fourier_family(dg: DemoralizedGraph):
    """The default orthogonal-column family: a Fourier matrix per block."""
    def family(v: int) -> np.ndarray:
        return fourier_matrix(dg.block_sizes[v])
    return family


def build_nonmoral_lindblad(dg: DemoralizedGraph, family) -> np.ndarray:
    """Assemble one enlarged Lindblad operator from a per-vertex family.

    family(v) must be a |block(v)| x indeg(v) matrix with pairwise
    orthogonal columns; column j feeds the arc from the j-th smallest
    in-neighbor of v. The entry into copy k of v does not depend on which
    copy of the source vertex the amplitude leaves from.
    """
    g = dg.base
    indptr, indices = _parents(g)
    lb = np.zeros((dg.dim, dg.dim), dtype=complex)
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
        for j, w in enumerate(parents):
            lb[np.ix_(dg.index[v], dg.index[w])] = lv[:, j, None]
    return lb


def standard_hamiltonian(dg: DemoralizedGraph) -> np.ndarray:
    """All-ones coupling between blocks of adjacent base vertices."""
    und = graphs.underlying(dg.base)
    h = np.zeros((dg.dim, dg.dim), dtype=complex)
    for u, v in und.edges:
        for i in dg.index[u]:
            for j in dg.index[v]:
                h[i, j] = 1.0
                h[j, i] = 1.0
    return h


def _place_block(h: np.ndarray, idx: tuple, block: np.ndarray):
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            h[i, j] = block[a, b]


def standard_rotating_hamiltonian(dg: DemoralizedGraph) -> np.ndarray:
    """Blocks are the open-chain generators i(N - N^T) with N the shift by
    one copy: +i on the superdiagonal, -i on the subdiagonal, no wraparound.
    Size-1 blocks are zero."""
    h = np.zeros((dg.dim, dg.dim), dtype=complex)
    for v in range(dg.base.n):
        d = dg.block_sizes[v]
        block = np.zeros((d, d), dtype=complex)
        for k in range(d - 1):
            block[k, k + 1] = 1j
            block[k + 1, k] = -1j
        _place_block(h, dg.index[v], block)
    return h


def random_rotating_hamiltonian(dg: DemoralizedGraph, ensemble: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h = np.zeros((dg.dim, dg.dim), dtype=complex)
    for v in range(dg.base.n):
        d = dg.block_sizes[v]
        if ensemble == "GOE":
            x = rng.standard_normal((d, d))
            block = (x + x.T).astype(complex)
        elif ensemble == "GUE":
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            block = x + x.conj().T
        elif ensemble == "XY":
            x = rng.random((d, d))
            y = rng.random((d, d))
            block = x + x.T + 1j * (y - y.T)
        else:
            raise ValueError(f"unknown ensemble {ensemble!r}")
        _place_block(h, dg.index[v], block)
    return h


@dataclass(frozen=True)
class NonmoralOperators:
    hamiltonian: np.ndarray
    rotating: np.ndarray
    lindblads: tuple


def standard_operators(dg: DemoralizedGraph, lindblads=None) -> NonmoralOperators:
    """The standard and rotating Hamiltonians with the given Lindblads; by
    default the single Fourier-family Lindblad."""
    if lindblads is None:
        lindblads = (build_nonmoral_lindblad(dg, fourier_family(dg)),)
    return NonmoralOperators(
        hamiltonian=standard_hamiltonian(dg),
        rotating=standard_rotating_hamiltonian(dg),
        lindblads=tuple(lindblads),
    )


def ngqsw_generator(dg: DemoralizedGraph, ops: NonmoralOperators,
                    omega: float) -> gksl.EvolutionGenerator:
    """Coherent part (1-omega) H + omega H_rot; dissipator weight omega."""
    gksl.check_omega(omega)
    h = (1.0 - omega) * ops.hamiltonian + omega * ops.rotating
    return gksl.build_generator(h, ops.lindblads, 1.0, omega)


def symmetrized_path_lindblads(dg: DemoralizedGraph) -> tuple:
    """Two Lindblads whose joint action propagates symmetrically on a
    bidirected path; a single Fourier Lindblad drifts to one side."""
    g = dg.base
    und = graphs.underlying(g)
    degs = und.degrees()
    is_path = (
        sorted(degs) == [1, 1] + [2] * (g.n - 2)
        and graphs.is_connected(und)
        and len(g.arcs) == 2 * len(und.edges)
    )
    if g.n < 2 or not is_path:
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


def natural_measure(rho: np.ndarray, dg: DemoralizedGraph) -> np.ndarray:
    """Probability per base vertex: sum of canonical probabilities over its
    block; see gksl.check_probabilities."""
    if rho.shape != (dg.dim, dg.dim):
        raise DimensionError("state dimension does not match enlarged space")
    diag = gksl.check_probabilities(np.diagonal(rho).real)
    vertex = np.fromiter((v for v, _ in dg.labels), dtype=np.int64, count=dg.dim)
    return np.bincount(vertex, weights=diag, minlength=dg.base.n)


def uniform_block_state(dg: DemoralizedGraph) -> np.ndarray:
    w = np.zeros(dg.dim)
    for v in range(dg.base.n):
        for i in dg.index[v]:
            w[i] = 1.0 / (dg.base.n * dg.block_sizes[v])
    return np.diag(w).astype(complex)


def block_mixed_state(dg: DemoralizedGraph, v: int) -> np.ndarray:
    """Even mixture of the copies of a single base vertex."""
    rho = np.zeros((dg.dim, dg.dim), dtype=complex)
    for i in dg.index[v]:
        rho[i, i] = 1.0 / dg.block_sizes[v]
    return rho

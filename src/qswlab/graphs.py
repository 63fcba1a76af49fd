"""Graphs, digraphs, graph matrices, structural algorithms, samplers, and
the path, complete and star families that CLI graph specs name.

Adjacency convention: <w|A|v> = 1 iff (v, w) is an arc (column indexes the
source vertex, row the target).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .exceptions import (
    DimensionError,
    DisconnectedGraphError,
    IsolatedVertexError,
    MalformedGraphError,
    ParameterRangeError,
    ProbabilityOverflowError,
)


def _check_size(n) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise DimensionError(f"a graph size is an integer >= 0, got {n!r}")


def check_vertex(v, n: int) -> None:
    """Raise ParameterRangeError unless v is an integer vertex label in
    0..n-1, the one vertex rule of the package: as an index, a negative
    label would wrap round to another vertex."""
    if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
        raise ParameterRangeError(f"vertex must be an integer in 0..{n - 1}, got {v!r}")


def _check_pairs(n: int, pairs):
    """Reject a size that is not an integer >= 0, a pair with a vertex
    outside 0..n-1, or a self-loop. The pairs arrive as a frozenset already
    normalized, so none repeats."""
    _check_size(n)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedGraphError(f"vertex out of range in pair ({u}, {v})")
        if u == v:
            raise MalformedGraphError(f"self-loop at vertex {u}")


@dataclass(frozen=True)
class DiGraph:
    """Simple directed graph on vertices 0..n-1."""

    n: int
    arcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        _check_pairs(self.n, arcs)
        object.__setattr__(self, "arcs", arcs)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        edges = frozenset((min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges)
        _check_pairs(self.n, edges)
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> np.ndarray:
        return np.diff(arc_matrix(self).indptr)


def adjacency(g) -> np.ndarray:
    """A[w, v] = 1 iff (v, w) is an arc; symmetric for undirected input.
    The dense transpose of arc_matrix."""
    return arc_matrix(g).T.toarray()


def laplacian(g: Graph) -> np.ndarray:
    a = adjacency(g)
    return np.diag(a.sum(axis=0)) - a


def normalized_laplacian(g: Graph) -> np.ndarray:
    d = g.degrees().astype(float)
    if np.any(d == 0):
        raise IsolatedVertexError("normalized Laplacian undefined with isolated vertices")
    inv_sqrt = 1.0 / np.sqrt(d)
    a = adjacency(g)
    return np.eye(g.n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


def underlying(g: DiGraph) -> Graph:
    return Graph(g.n, frozenset((min(u, v), max(u, v)) for u, v in g.arcs))


def to_digraph(g: Graph) -> DiGraph:
    """Replace every edge by the pair of opposite arcs."""
    arcs = set()
    for u, v in g.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return DiGraph(g.n, frozenset(arcs))


def arc_matrix(g) -> sp.csr_matrix:
    """Sparse arc matrix with [u, v] = 1 iff u -> v (both directions for a
    Graph). It is in canonical CSR form: row u lists u's out-neighbours in
    ascending order, with no duplicates. The order is part of the contract:
    a random walk that picks a neighbour by its position in a row depends
    on it."""
    pairs = np.array(list(g.arcs if isinstance(g, DiGraph) else g.edges),
                     dtype=np.int64).reshape(-1, 2)
    u, v = pairs.T
    if isinstance(g, Graph):
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
    return sp.csr_matrix((np.ones(u.size), (u, v)), shape=(g.n, g.n))


def is_connected(g: Graph) -> bool:
    return csgraph.connected_components(arc_matrix(g), return_labels=False) <= 1


def giant_component(g: Graph) -> Graph:
    """Largest connected component, relabeled to 0..k-1; of components of
    equal size, the one with the smallest vertex. A graph with no vertex
    is its own giant component."""
    if g.n == 0:
        return g
    _, labels = csgraph.connected_components(arc_matrix(g))
    sizes = np.bincount(labels)[labels]
    # argmax finds the smallest vertex of a largest component
    keep = labels == labels[np.argmax(sizes)]
    relabel = (np.cumsum(keep) - 1).tolist()
    keep = keep.tolist()
    edges = frozenset((relabel[u], relabel[v]) for u, v in g.edges if keep[u])
    return Graph(sum(keep), edges)


# ---------------------------------------------------------------------------
# Random graph samplers (deterministic per seed)

def _seeded_rng(seed) -> np.random.Generator:
    """The sampler's generator for seed, an integer >= 0, or
    ParameterRangeError: numpy rejects a negative seed with a bare
    ValueError."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterRangeError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def gen_er(n: int, p: float, seed: int, directed: bool = False):
    _check_size(n)
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"p must lie in [0, 1], got {p}")
    rng = _seeded_rng(seed)
    if directed:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        arcs = frozenset(zip(*np.nonzero(mask)))
        return DiGraph(n, frozenset((int(u), int(v)) for u, v in arcs))
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = frozenset((int(u), int(v)) for u, v in zip(iu[keep], iv[keep]))
    return Graph(n, edges)


def cl_powerlaw_omega(n: int, a: float, b: float) -> np.ndarray:
    """Expected-degree vector omega_i = n^(a + (i/n) b), i = 1..n."""
    if not (0 < a < a + b <= 1):
        raise ParameterRangeError(f"require 0 < a < a+b <= 1, got a={a}, b={b}")
    i = np.arange(1, n + 1)
    return np.power(float(n), a + (i / n) * b)


def gen_cl(n: int, omega: np.ndarray, seed: int) -> Graph:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (n,):
        raise DimensionError("omega must have one entry per vertex")
    # written so that NaN fails too
    if not np.all((omega >= 0) & (omega <= n - 1)):
        raise ParameterRangeError("omega entries must lie in [0, n-1]")
    total = omega.sum()
    if total > 0 and omega.max() ** 2 > total:
        raise ProbabilityOverflowError("some pair probability omega_i*omega_j/||omega||_1 exceeds 1")
    rng = _seeded_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    if total == 0:
        return Graph(n, frozenset())
    probs = omega[iu] * omega[iv] / total
    keep = rng.random(iu.size) < probs
    edges = frozenset((int(u), int(v)) for u, v in zip(iu[keep], iv[keep]))
    return Graph(n, edges)


def gen_ba(n: int, m0: int, seed: int, directed: bool = False):
    """Preferential attachment: seed clique K_m0, then each new vertex picks
    m0 distinct existing targets with probability proportional to degree."""
    if not 1 <= m0 <= n:
        raise ParameterRangeError(f"require 1 <= m0 <= n, got m0={m0}, n={n}")
    rng = _seeded_rng(seed)
    deg = np.zeros(n, dtype=np.int64)
    pairs = []
    for u in range(m0):
        for v in range(u + 1, m0):
            pairs.append((u, v))
            deg[u] += 1
            deg[v] += 1
    for w in range(m0, n):
        weights = deg[:w].astype(float)
        k = min(m0, w)
        if weights.sum() == 0:
            targets = rng.choice(w, size=k, replace=False)
        else:
            targets = rng.choice(w, size=k, replace=False, p=weights / weights.sum())
        for v in targets:
            pairs.append((int(v), w))
            deg[v] += 1
            deg[w] += 1
    if directed:
        # arc from the pre-existing vertex to the newly added one
        return DiGraph(n, frozenset(pairs))
    return Graph(n, frozenset(pairs))


# ---------------------------------------------------------------------------
# Graph families of the CLI graph specs

def path(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def star(n: int) -> Graph:
    """Hub at vertex 0 connected to n-1 leaves."""
    return Graph(n, frozenset((0, v) for v in range(1, n)))


# ---------------------------------------------------------------------------
# JSON interchange: {"n": int, "directed": bool, "edges": [[u, v], ...]}, 1-based

def to_json(g) -> str:
    directed = isinstance(g, DiGraph)
    pairs = sorted(g.arcs if directed else g.edges)
    doc = {
        "n": g.n,
        "directed": directed,
        "edges": [[u + 1, v + 1] for u, v in pairs],
    }
    return json.dumps(doc, indent=1)


def from_json(text: str):
    """The graph described by the JSON text, exactly: MalformedGraphError for
    a document that is not an object with n, directed and edges, an n that
    is not a non-negative integer, a vertex label that is not an integer, a
    directed flag that is not a bool, an edge that is not a pair, or an edge
    given twice ([1, 2] and [2, 1] are the same undirected edge). Range and
    self-loop checks are the constructor's."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"n", "directed", "edges"} <= doc.keys()):
        raise MalformedGraphError("a graph document is an object with n, directed and edges")
    n, directed, edges = doc["n"], doc["directed"], doc["edges"]
    # `type(x) is int` is a JSON integer: it excludes bools and floats such as 3.0
    if not (type(n) is int and n >= 0):
        raise MalformedGraphError(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(directed, bool):
        raise MalformedGraphError(f"directed must be true or false, got {directed!r}")
    if not isinstance(edges, list):
        raise MalformedGraphError("edges must be a list of vertex pairs")
    pairs = set()
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise MalformedGraphError(f"an edge is a pair of integer vertex labels, got {e!r}")
        u, v = e[0] - 1, e[1] - 1
        pair = (u, v) if directed or u <= v else (v, u)
        if pair in pairs:
            raise MalformedGraphError(f"repeated {'arc' if directed else 'edge'} {e!r}")
        pairs.add(pair)
    return (DiGraph if directed else Graph)(n, frozenset(pairs))


def require_connected(g: Graph):
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")

"""Reference helpers that only the tests use as oracles, and the
hypothesis strategy for random walk generators that several tests share."""
import numpy as np
import scipy.sparse.linalg
from hypothesis import strategies as st

from qswlab import gksl, graphs, nonmoral, numkernel


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def unitary_apply(h: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) @ psi via the eigendecomposition of Hermitian H."""
    psi = np.asarray(psi, dtype=complex)
    values, vectors = np.linalg.eigh(np.asarray(h))
    phases = np.exp(-1j * t * values)
    return vectors @ (phases * (vectors.conj().T @ psi))


def search_matrix(g, kind: str) -> np.ndarray:
    """Dense H_G with top eigenvalue 1: A / lambda_max(A), I - L / lambda_max(L)
    or I - L_norm."""
    if kind == "adjacency":
        a = graphs.adjacency(g)
        return a / np.linalg.eigvalsh(a)[-1]
    if kind == "laplacian":
        lap = graphs.laplacian(g)
        return np.eye(g.n) - lap / np.linalg.eigvalsh(lap)[-1]
    return np.eye(g.n) - graphs.normalized_laplacian(g)


def hitting_steps_loop(indptr, indices, starts, target, max_steps, raw):
    """One walk at a time: the reference for search's lockstep kernel."""
    out = np.empty(starts.shape[0], dtype=np.int64)
    for w, v in enumerate(starts):
        steps = 0
        while v != target and steps < max_steps:
            lo = indptr[v]
            v = indices[lo + int(raw[w, steps] * (indptr[v + 1] - lo))]
            steps += 1
        out[w] = steps if v == target else -1
    return out


def reachability(g) -> np.ndarray:
    """R[u, v] iff v can be reached from u (every vertex reaches itself),
    by squaring the boolean matrix I + A until it stops changing."""
    r = np.eye(g.n, dtype=bool)
    pairs = g.arcs if isinstance(g, graphs.DiGraph) else g.edges | {(v, u) for u, v in g.edges}
    for u, v in pairs:
        r[u, v] = True
    while True:
        nxt = (r.astype(np.int64) @ r.astype(np.int64)) > 0
        if np.array_equal(nxt, r):
            return r
        r = nxt


def gqsw_spectrum_commuting(g, omega: float) -> np.ndarray:
    """Generator eigenvalues for an undirected GQSW, where H and L commute:
    lambda_ij = -i(1-omega)(d_i - d_j) - (omega/2)(d_i - d_j)^2 over the
    adjacency eigenvalues d."""
    d = np.linalg.eigvalsh(graphs.adjacency(g))
    diff = d[:, None] - d[None, :]
    lam = -1j * (1.0 - omega) * diff - 0.5 * omega * diff * diff
    return lam.ravel()


def evolve_complex(gen, rho0, t) -> np.ndarray:
    """exp(S t) vec(rho0) with the complex generator S itself, reshaped to
    one state (scalar t) or one state per time: the reference for
    gksl.evolve, which works in the real Hermitian basis with the Krylov
    integrator of numkernel.expm_apply. Each time is one call of scipy's
    Taylor expm_multiply, nothing chained."""
    v = numkernel.vec(np.asarray(rho0, dtype=complex))
    # scipy's 1-norm estimator divides each entry by its modulus, which
    # overflows for entries near the float minimum, such as omega * H_rot
    # at omega = 1e-300; the estimate only sets the Taylor degree and step
    # count, and the results still agree with gksl.evolve to 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([scipy.sparse.linalg.expm_multiply(gen.s * tk, v) for tk in np.ravel(t)])
    return out.reshape(np.shape(t) + (gen.dim, gen.dim))


def demoralize_scan(g) -> nonmoral.DemoralizedGraph:
    """nonmoral.demoralize with each in-degree counted by a scan of every arc."""
    sizes = tuple(max(sum(1 for _, w in g.arcs if w == v), 1) for v in range(g.n))
    labels = [(v, k) for k in range(max(sizes)) for v in range(g.n) if k < sizes[v]]
    pos = {lab: i for i, lab in enumerate(labels)}
    index = tuple(tuple(pos[(v, k)] for k in range(sizes[v])) for v in range(g.n))
    return nonmoral.DemoralizedGraph(base=g, block_sizes=sizes, index=index, dim=len(labels))


def nonmoral_lindblad_scan(dg, family) -> np.ndarray:
    """nonmoral.build_nonmoral_lindblad entry by entry, with each sorted
    parent list taken from a scan of every arc."""
    lb = np.zeros((dg.dim, dg.dim), dtype=complex)
    for v in range(dg.base.n):
        parents = sorted(u for u, w in dg.base.arcs if w == v)
        if not parents:
            continue
        lv = np.asarray(family(v), dtype=complex)
        for j, w in enumerate(parents):
            for k in range(dg.block_sizes[v]):
                for l in range(dg.block_sizes[w]):
                    lb[dg.index[v][k], dg.index[w][l]] = lv[k, j]
    return lb


def standard_hamiltonian(dg) -> np.ndarray:
    """nonmoral.standard_hamiltonian entry by entry: a one between every
    copy of u and every copy of v for each edge uv of the underlying graph."""
    h = np.zeros((dg.dim, dg.dim), dtype=complex)
    for u, v in graphs.underlying(dg.base).edges:
        for i in dg.index[u]:
            for j in dg.index[v]:
                h[i, j] = 1.0
                h[j, i] = 1.0
    return h


def standard_rotating_hamiltonian(dg) -> np.ndarray:
    """nonmoral.standard_rotating_hamiltonian entry by entry: +i from copy
    k + 1 to copy k of each vertex and -i back."""
    h = np.zeros((dg.dim, dg.dim), dtype=complex)
    for idx in dg.index:
        for k in range(len(idx) - 1):
            h[idx[k], idx[k + 1]] = 1j
            h[idx[k + 1], idx[k]] = -1j
    return h


def block_mixed_state(dg, v) -> np.ndarray:
    """nonmoral.block_mixed_state copy by copy."""
    rho = np.zeros((dg.dim, dg.dim), dtype=complex)
    for i in dg.index[v]:
        rho[i, i] = 1.0 / dg.block_sizes[v]
    return rho


@st.composite
def walk_generators(draw):
    """An lqsw, gqsw or ngqsw generator on a random digraph of 1 to 6 vertices."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graphs.DiGraph(n, frozenset(p for p, k in zip(pairs, keep) if k))
    omega = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    model = draw(st.sampled_from(["lqsw", "gqsw", "ngqsw"]))
    if model == "lqsw":
        return gksl.build_generator(gksl.lqsw_spec(g, omega))
    if model == "gqsw":
        return gksl.build_generator(gksl.gqsw_spec(g, omega))
    dg = nonmoral.demoralize(g)
    return gksl.build_generator(nonmoral.ngqsw_spec(dg, omega))

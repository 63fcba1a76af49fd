"""Reference helpers that only the tests use as oracles."""
import numpy as np

from qswlab import graphs


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

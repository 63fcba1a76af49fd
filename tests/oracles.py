"""Reference helpers that only the tests use as oracles: closed forms,
dense and loop references (the dense search route with its secular-equation
solver among them), the Monte Carlo hitting-time estimator, the named
fixture graphs and pure states, and the hypothesis strategy for random walk
generators that several tests share."""
import ctypes
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import cython_lapack
from scipy.sparse import csgraph

from qswlab import gksl, graphs, nonmoral, numkernel, search
from qswlab.exceptions import (
    DimensionError,
    IsolatedVertexError,
    NumericalError,
    ParameterRangeError,
    WrongTopologyError,
)


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
        a = graphs.adjacency(g).toarray()
        return a / np.linalg.eigvalsh(a)[-1]
    if kind == "laplacian":
        lap = graphs.laplacian(g).toarray()
        return np.eye(g.n) - lap / np.linalg.eigvalsh(lap)[-1]
    return np.eye(g.n) - graphs.normalized_laplacian(g).toarray()


def lambert_w_bisect(x: float, branch: int) -> float:
    """The real Lambert W of x in (-1/e, 0) by bisection on w e^w = x:
    branch 0 lies in [-1, 0], where w e^w increases, and branch -1 below
    -1, where it decreases, until the bracket stops shrinking."""
    if branch == 0:
        lo, hi = -1.0, 0.0
    else:
        lo, hi = -2.0, -1.0
        while lo * math.exp(lo) < x:  # widen until w e^w at lo is nearer 0 than x
            lo *= 2.0
    rising = branch == 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (mid * math.exp(mid) < x) == rising:
            lo = mid
        else:
            hi = mid


def assert_spectral_weights(d, z, x, values, weights):
    """The weights of rank_one_eig expand z^T f(M) x over its
    eigenvalues: sum_i c_i f(mu_i) = z^T f(M) x for M = diag(d) + z z^T from
    a dense eigh and f = 1, mu, mu^2 and exp(-1.7 i mu), to 1e-12 relative
    to the same sum with every term in modulus."""
    mu, u = np.linalg.eigh(np.diag(d) + np.outer(z, z))
    zu, ux = z @ u, u.T @ x
    for f in (np.ones_like, lambda m: m, np.square, lambda m: np.exp(-1.7j * m)):
        want = (zu * f(mu)) @ ux
        scale = np.abs(zu * f(mu)) @ np.abs(ux)
        assert abs(weights @ f(values) - want) <= 1e-12 * scale


def hitting_steps_loop(indptr, indices, starts, target, max_steps, raw):
    """One walk at a time: the reference for the lockstep _hitting_steps."""
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
    d = np.linalg.eigvalsh(graphs.adjacency(g).toarray())
    diff = d[:, None] - d[None, :]
    lam = -1j * (1.0 - omega) * diff - 0.5 * omega * diff * diff
    return lam.ravel()


def evolve_complex(gen, rho0, times) -> np.ndarray:
    """exp(S t) vec(rho0) with the complex generator S itself, one state per
    time of the grid times: the reference for
    gksl.evolve, which works in the real Hermitian basis with the Krylov
    integrator of numkernel.expm_apply. Each time is one call of scipy's
    Taylor expm_multiply, nothing chained."""
    v = numkernel.vec(np.asarray(rho0, dtype=complex))
    # scipy's 1-norm estimator divides each entry by its modulus, which
    # overflows for entries near the float minimum, such as omega * H_rot
    # at omega = 1e-300; the estimate only sets the Taylor degree and step
    # count, and the results still agree with gksl.evolve to 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([scipy.sparse.linalg.expm_multiply(gen.s * t, v) for t in times])
    return out.reshape(len(times), gen.dim, gen.dim)


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


# ---------------------------------------------------------------------------
# Fixture graphs

def is_strongly_connected(g: graphs.DiGraph) -> bool:
    return csgraph.connected_components(graphs.arc_matrix(g), connection="strong",
                                        return_labels=False) <= 1


def complete_plus_leaf(n: int) -> graphs.Graph:
    """K_{n-1} on vertices 0..n-2 plus a leaf (vertex n-1) attached to 0."""
    edges = set((u, v) for u in range(n - 1) for v in range(u + 1, n - 1))
    edges.add((0, n - 1))
    return graphs.Graph(n, frozenset(edges))


def broom(length: int, leaves: int, both_ends: bool = False) -> graphs.Graph:
    """A path of `length` vertices with `leaves` leaves on its last vertex,
    and as many on its first vertex too when both_ends."""
    edges = {(v, v + 1) for v in range(length - 1)}
    hubs = (length - 1, 0) if both_ends else (length - 1,)
    for k in range(leaves * len(hubs)):
        edges.add((hubs[k % len(hubs)], length + k))
    return graphs.Graph(length + leaves * len(hubs), frozenset(edges))


def circulant_jump2(n: int) -> graphs.DiGraph:
    """Bidirected ring plus an arc from i+2 to i at every vertex; n = 4k, k > 1."""
    if n % 4 != 0 or n < 8:
        raise WrongTopologyError(f"size must be 4k with k > 1, got {n}")
    arcs = set()
    for i in range(n):
        arcs.add((i, (i + 1) % n))
        arcs.add(((i + 1) % n, i))
        arcs.add(((i + 2) % n, i))
    return graphs.DiGraph(n, frozenset(arcs))


def moral_triangle() -> graphs.DiGraph:
    """Two parents v1, v2 sharing the child v3 (vertices 0, 1, 2)."""
    return graphs.DiGraph(3, frozenset({(0, 2), (1, 2)}))


def premature_graph() -> graphs.DiGraph:
    """Undirected triangle v1 v2 v3 plus the arc v1 -> v4 (vertices 0..3)."""
    arcs = {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3)}
    return graphs.DiGraph(4, frozenset(arcs))


def ngqsw_period_graph() -> graphs.DiGraph:
    """Undirected star v0 - {v1..v5} plus the edge v5 - v4, bidirected."""
    edges = [(0, i) for i in range(1, 6)] + [(4, 5)]
    return graphs.to_digraph(graphs.Graph(6, frozenset(edges)))


# ---------------------------------------------------------------------------
# States and measurement

def pure_state(n: int, k: int) -> np.ndarray:
    """|k><k| on n vertices; k must pass graphs.check_vertex."""
    graphs.check_vertex(k, n)
    rho = np.zeros((n, n), dtype=complex)
    rho[k, k] = 1.0
    return rho


def reflected_evolution(dg, spec, rho0, times) -> np.ndarray:
    """The states of the walk spec on dg from rho0, evolved as propagate
    evolves a centred path walk and rotated back: for U of
    nonmoral.reflection_basis(dg), gksl.evolve runs the generator of
    U H U^T and the U L U^T from U rho0 U^T, and each state rho becomes
    U^T rho U."""
    u = nonmoral.reflection_basis(dg)
    rotated = gksl.WalkSpec(u @ spec.hamiltonian @ u.T,
                            tuple(u @ l @ u.T for l in spec.lindblads),
                            spec.ham_weight, spec.diss_weight)
    rhos = gksl.evolve(gksl.build_generator(rotated), u @ rho0 @ u.T, times)
    return np.array([u.T @ rho @ u for rho in rhos])


def measure(rho: np.ndarray) -> np.ndarray:
    """Canonical-basis measurement probabilities, the real diagonal of rho,
    if they form a distribution to gksl.DRIFT_TOL, the tolerance `evolve`
    enforces: no entry below -DRIFT_TOL and a sum within DRIFT_TOL of 1.
    Otherwise NumericalError is raised; nothing is clipped or renormalised."""
    p = np.diagonal(rho).real
    # written so that NaN fails too
    if not (p.min() >= -gksl.DRIFT_TOL and abs(p.sum() - 1.0) <= gksl.DRIFT_TOL):
        raise NumericalError(f"measurement probabilities are not a distribution: "
                             f"smallest {float(p.min())}, sum {float(p.sum())}")
    return p


# ---------------------------------------------------------------------------
# Closed forms for the interpolated global walk on the infinite path

INFINITE_PATH_TOL = 1e-12
INFINITE_PATH_AGREE = INFINITE_PATH_TOL / 100
INFINITE_PATH_MAX_NODES = 2 ** 15


def moment_mu2(omega: float, t: float) -> float:
    """mu2(t) = 2 omega t + 2 (1 - omega)^2 t^2, the second moment of the
    interpolated global walk on the infinite path, for omega in [0, 1] and
    t that passes numkernel.check_times as the grid (t,); NumericalError
    past the float range."""
    gksl.check_omega(omega)
    numkernel.check_times((t,))
    t = float(t)
    mu2 = 2.0 * omega * t + 2.0 * (1.0 - omega) ** 2 * t * t
    if not math.isfinite(mu2):
        raise NumericalError(f"mu2({t}) is beyond the float range")
    return mu2


def infinite_path_probability(k: int, t: float, omega: float) -> float:
    """Occupation probability of site k (start at 0) on the infinite path,
    to within INFINITE_PATH_TOL (absolute), or NumericalError.

    The walk's generator averages the coherent walk over Gaussian noise:
    p_k(t) = E[J_k(2(1-omega)t + u)^2] with u ~ N(0, 4 omega t). The mean is
    taken by Gauss-Hermite quadrature, doubling the node count from 32 until
    two successive estimates agree to INFINITE_PATH_AGREE, a hundredth of
    the tolerance. Before the quadrature settles, the estimates scatter by
    about the oscillating part of J_k^2, which at large t is close to the
    tolerance itself: at (0, 1e10, 0.5) the estimates with 2^9 to 2^11
    nodes agree to 8e-13 and all miss the settled 3.1831e-11 by about
    3e-12. Of 1,185 unsettled estimates at t from 1e2 to 1e13, 23 agreed
    with the one before to 1e-12 and none to 1e-14; settled ones agree to
    rounding. NumericalError when no two agree within
    INFINITE_PATH_MAX_NODES nodes."""
    numkernel.check_times((t,))
    gksl.check_omega(omega)
    centre, sigma = 2.0 * (1.0 - omega) * t, 2.0 * math.sqrt(omega * t)
    prev, nodes = math.nan, 32
    while nodes <= INFINITE_PATH_MAX_NODES:
        x, w = special.roots_hermite(nodes)
        est = float(w @ special.jv(k, centre + math.sqrt(2.0) * sigma * x) ** 2) / math.sqrt(math.pi)
        if abs(est - prev) <= INFINITE_PATH_AGREE:
            return est
        prev, nodes = est, 2 * nodes
    raise NumericalError(f"Gauss-Hermite estimates did not settle within "
                         f"{INFINITE_PATH_MAX_NODES} nodes")


def taylor_B(n: int, k: int, omega: float) -> tuple[float, float]:
    """Taylor coefficient of p_k(t), omega in [0, 1], and the same sum with
    every term in modulus, the scale of its rounding error: B_{n,k} =
    (-1)^(n+k) 2^(-n) sum_l (-1)^l C(n,2l) C(2n-2l,n-l) C(2n-2l,n-l+k) 4^l
    omega^(n-2l) (1-omega)^(2l), zero for n < |k|. At omega = 1 only l = 0
    is left, one rounding of an integer. NumericalError past the float range."""
    gksl.check_omega(omega)
    k = abs(k)
    acc = size = 0.0
    try:
        for l in range(min(n // 2, n - k) + 1):  # empty for n < k
            c = (math.comb(n, 2 * l) * math.comb(2 * n - 2 * l, n - l)
                 * math.comb(2 * n - 2 * l, n - l + k))
            # the powers of omega first: a zero one makes the term exactly 0
            x = float(c) * (omega ** (n - 2 * l) * (1.0 - omega) ** (2 * l)) * 4.0 ** l
            acc += -x if l % 2 else x
            size += x
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise NumericalError(f"Taylor coefficient B_{n},{k} is beyond the float range")
    return (-1.0 if (n + k) % 2 else 1.0) * math.ldexp(acc, -n), math.ldexp(size, -n)


SERIES_TOL = 1e-10
SERIES_ROUNDING = 4.0
SERIES_MAX_TERMS = 300


def series_probability(k: int, t: float, omega: float) -> float:
    """p_k(t) on the infinite path, sum_n B_{n,k}(omega) t^n / n!, when its
    error estimate, SERIES_ROUNDING * eps times the series of moduli of both
    alternating sums (over l in B_{n,k} and over n), is at most SERIES_TOL
    (absolute); the error was at most 0.83 eps times those moduli against
    120-digit sums at 302 points. Otherwise NumericalError, which double
    precision forces past small t (about 1 at omega = 1, 2 at 0.5, 3 at 0.2).
    The sum stops once 2 (a t)^(n+1) / (n+1)!, a = 4 (1 + omega), which
    bounds the rest for n + 2 >= 2 a t, is below eps * max(moduli, SERIES_TOL).
    t must pass numkernel.check_times as the grid (t,); omega must lie in
    [0, 1]."""
    numkernel.check_times((t,))
    gksl.check_omega(omega)
    eps = float(np.finfo(float).eps)
    at = 4.0 * (1.0 + omega) * t
    total = size = 0.0
    tn = bound = 1.0  # t^n / n! and (a t)^n / n!
    for n in range(SERIES_MAX_TERMS):
        b, b_size = taylor_B(n, k, omega)
        total += b * tn
        size += b_size * tn
        if not SERIES_ROUNDING * eps * size <= SERIES_TOL:  # a NaN estimate fails too
            break
        tn *= t / (n + 1)
        bound *= at / (n + 1)
        if n + 2 >= 2.0 * at and 2.0 * bound <= eps * max(size, SERIES_TOL):
            return total
    raise NumericalError(f"the Taylor series of p_{k}({t}) at omega = {omega} cannot reach "
                         f"{SERIES_TOL:.0e} in double precision within {SERIES_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# Search references

def spectrum_of(h: np.ndarray) -> search.SearchSpectrum:
    """A Hermitian matrix used as H_G without normalizing it, with its
    principal vector, gap and spectral radius from one dense eigh."""
    h = np.asarray(h)
    values, vectors = numkernel.eig_hermitian(h)
    return search.SearchSpectrum(matrix=scipy.sparse.csr_matrix(h), principal=vectors[:, -1],
                                 gap=float(values[-1] - values[-2]) if h.shape[0] > 1 else 0.0,
                                 radius=float(np.abs(values).max(initial=0.0)))


def shift_rescale(h: np.ndarray) -> np.ndarray:
    """Affine map to top eigenvalue 1 with |lambda_2| = |lambda_n|.

    Balancing the second and bottom eigenvalues maximizes the worst-case
    success bound over shifts; eigenvectors are untouched. h must be
    Hermitian (numkernel.check_hermitian) with at least two rows and a
    simple top eigenvalue by the rule of SearchSpectrum.
    """
    h = numkernel.check_hermitian(np.asarray(h))
    w = np.linalg.eigvalsh(h)[::-1]
    if w.size < 2:
        raise DimensionError(f"search needs at least 2 vertices, got {w.size}")
    search._require_simple_top(w[0] - w[1], float(np.abs(w).max()))
    lam1, lam2, lamn = w[0], w[1], w[-1]
    a = -(lam2 + lamn) / 2.0
    return (h + a * np.eye(h.shape[0])) / (lam1 + a)


def dense_search_stats(h_g: np.ndarray, w: int) -> search.SearchStats:
    """SearchStats from the dense eigensystem of H_G (top eigenvalue 1):
    eps = |<v_1|w>|^2 and S_k = sum_{j>1} |<v_j|w>|^2 / (1 - lambda_j)^k."""
    values, vectors = np.linalg.eigh(h_g)
    overlaps = np.abs(vectors[w, ::-1]) ** 2
    denom = 1.0 - values[::-1][1:]
    eps = float(overlaps[0])
    s1, s2, s3 = (float(np.sum(overlaps[1:] / denom**k)) for k in (1, 2, 3))
    gap = float(values[-1] - values[-2])
    cond = math.sqrt(eps) < search.SEARCH_CONDITION_CONST * min(s1 * s2 / s3, gap * math.sqrt(s2))
    return search.SearchStats(eps=eps, s1=s1, s2=s2, s3=s3, gap=gap, condition_holds=cond,
                              predicted_t=math.sqrt(s2 / eps) / s1,
                              caption_gamma=s1 / (1.0 - eps))


def principal_state(h_g: np.ndarray) -> np.ndarray:
    """The top eigenvector of H_G from a dense eigh, signed so that the real
    part of its entry sum is at least 0: the start of the search."""
    v = np.linalg.eigh(h_g)[1][:, -1]
    return -v if v.real.sum() < 0 else v


def dense_search_probs(h_g: np.ndarray, w: int, gamma: float, x: np.ndarray, times) -> np.ndarray:
    """p(t) = |<w|exp(-i(gamma H_G + |w><w|)t)|x>|^2 from a dense
    eigendecomposition of the search matrix."""
    h = gamma * np.asarray(h_g, dtype=np.result_type(h_g, float))
    h[w, w] += 1.0
    values, vectors = np.linalg.eigh(h)
    weights = vectors[w, :] * (vectors.conj().T @ x)
    return np.abs(np.exp(-1j * np.outer(times, values)) @ weights) ** 2


def secular_search_probs(h_g: np.ndarray, w: int, gamma: float, times) -> np.ndarray:
    """p(t) from the principal vector of H_G by the secular equation in H_G's
    eigenbasis V, in O(n^2) after one dense eigh of H_G: the search matrix is
    gamma Lambda + a a^H there, with a = V^H e_w, and moving the phases of a
    into the start leaves the amplitude |a|^T exp(-i M t) x for the real
    M = diag(gamma lambda) + |a| |a|^T, which rank_one_eig expands."""
    values, vectors = np.linalg.eigh(h_g)
    values, vectors = values[::-1], vectors[:, ::-1]
    row = vectors[w, :]
    xhat = np.zeros(values.size)
    xhat[0] = -1.0 if vectors[:, 0].real.sum() < 0 else 1.0
    mu, weights = rank_one_eig(gamma * values, np.abs(row), row * xhat)
    return np.abs(np.exp(-1j * np.outer(times, mu)) @ weights) ** 2


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


# ---------------------------------------------------------------------------
# Classical hitting times

def _walk_degrees(g: graphs.Graph, w: int) -> np.ndarray:
    """Vertex degrees, once w is a vertex and g is connected with an edge."""
    graphs.check_vertex(w, g.n)
    graphs.require_connected(g)
    if not g.edges:
        raise IsolatedVertexError("a random walk needs at least one edge")
    return g.degrees()


def classical_mfpt_lower_bound(g: graphs.Graph, w: int) -> float:
    return len(g.edges) / _walk_degrees(g, w)[w] - 0.5


def _hitting_steps(indptr, indices, starts, target, max_steps, raw):
    """Steps of a simple random walk from each start until it hits target.

    Row v of the CSR arrays lists v's neighbours. raw supplies one
    uniform(0,1) row per walk, and step k moves to neighbour
    floor(raw[w, k] * deg). A walk still short of the target after
    max_steps steps is censored and reported as -1; a walk that starts on
    the target takes 0 steps. Every unfinished walk advances in lockstep.
    """
    n_walks = starts.shape[0]
    pos = starts.copy()
    steps = np.zeros(n_walks, dtype=np.int64)
    active = pos != target
    k = 0
    while active.any() and k < max_steps:
        idx = np.nonzero(active)[0]
        v = pos[idx]
        lo = indptr[v]
        deg = indptr[v + 1] - lo
        pos[idx] = indices[lo + (raw[idx, k] * deg).astype(np.int64)]
        steps[idx] += 1
        active[idx] = pos[idx] != target
        k += 1
    steps[active] = -1
    return steps


def classical_mfpt_mc(g: graphs.Graph, w: int, walks: int, seed: int,
                      max_steps: int | None = None) -> float:
    """Monte Carlo estimate: walks start from the stationary distribution
    (degree / 2|E|); a start on w counts as 0 steps. Raises NumericalError
    when a walk has not reached w after max_steps steps, since counting
    the censored walks at any length would bias the mean. max_steps, when
    given, must be an integer >= 1."""
    deg = _walk_degrees(g, w).astype(float)
    if walks < 1:
        raise ParameterRangeError(f"need at least one walk, got {walks}")
    if max_steps is not None and not (isinstance(max_steps, (int, np.integer))
                                      and max_steps >= 1):
        raise ParameterRangeError(f"max_steps must be an integer >= 1, got {max_steps!r}")
    arcs = graphs.arc_matrix(g)
    rng = np.random.default_rng(seed)
    starts = rng.choice(g.n, size=walks, p=deg / deg.sum()).astype(np.int64)
    if max_steps is None:
        max_steps = max(100, int(100 * len(g.edges) / deg[w]))
    chunk = max(1, int(2e7) // max_steps)
    total = 0.0
    censored = 0
    for lo in range(0, walks, chunk):
        batch = starts[lo:lo + chunk]
        raw = rng.random((batch.size, max_steps))
        steps = _hitting_steps(arcs.indptr, arcs.indices, batch, w, max_steps, raw)
        censored += int(np.count_nonzero(steps < 0))
        total += steps.sum()
    if censored:
        raise NumericalError(f"{censored} of {walks} walks did not reach vertex {w} "
                             f"within max_steps = {max_steps}")
    return total / walks


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

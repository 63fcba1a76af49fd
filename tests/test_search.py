import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from qswlab import graphs, numkernel, search
from qswlab.exceptions import (
    DegenerateTopError,
    DimensionError,
    DisconnectedGraphError,
    IsolatedVertexError,
    NumericalError,
    ParameterRangeError,
    TimeGridError,
    ZeroOverlapError,
)


def test_search_spectrum_top_eigenvalue_one():
    """The sparse H_G is the dense one, v_1 is its unit top eigenvector for
    eigenvalue 1 and the ARPACK gap is the dense 1 - lambda_2."""
    g = graphs.gen_er(30, 0.3, seed=2)
    g = graphs.giant_component(g)
    for kind in search.GRAPH_MATRIX_KINDS:
        spec = search.search_spectrum(g, kind)
        h = oracles.search_matrix(g, kind)
        values = np.linalg.eigvalsh(h)
        assert abs(values[-1] - 1.0) < 1e-10
        assert spec.matrix.format == "csr" and spec.radius == 1.0
        assert np.abs(spec.matrix.toarray() - h).max() < 1e-12
        v1 = spec.principal
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-14
        assert np.abs(h @ v1 - v1).max() < 1e-12
        assert abs(spec.gap - (values[-1] - values[-2])) < 1e-12 * spec.gap


def test_search_spectrum_disconnected():
    g = graphs.Graph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(DisconnectedGraphError):
        search.search_spectrum(g, "laplacian")
    # two disjoint K2: the adjacency top eigenvalue 1 is double
    with pytest.raises(DegenerateTopError):
        search.search_spectrum(g, "adjacency")


def test_search_spectrum_rejects_small_and_edgeless():
    with pytest.raises(DimensionError):
        search.search_spectrum(graphs.path(1), "adjacency")
    with pytest.raises(DimensionError):
        search.search_spectrum(graphs.path(1), "laplacian")
    with pytest.raises(DegenerateTopError):
        search.search_spectrum(graphs.Graph(3, frozenset()), "adjacency")
    with pytest.raises(DegenerateTopError):
        oracles.spectrum_of(np.eye(3))


def test_laplacian_kind_top_eigenvector_uniform():
    g = graphs.gen_ba(40, 2, seed=8)
    h = oracles.search_matrix(g, "laplacian")
    w, v = np.linalg.eigh(h)
    vec = np.abs(v[:, -1])
    assert np.abs(vec - 1 / math.sqrt(40)).max() < 1e-10


def test_normalized_laplacian_top_eigenvector_sqrt_degrees():
    g = graphs.gen_ba(40, 2, seed=8)
    h = oracles.search_matrix(g, "normalized_laplacian")
    w, v = np.linalg.eigh(h)
    want = np.sqrt(g.degrees() / (2 * len(g.edges)))
    assert np.abs(np.abs(v[:, -1]) - want).max() < 1e-10


def test_shift_rescale_balances_spectrum():
    g = graphs.star(100)
    h = oracles.shift_rescale(graphs.adjacency(g).toarray())
    w = np.linalg.eigvalsh(h)
    assert abs(w[-1] - 1.0) < 1e-10
    assert abs(abs(w[-2]) - abs(w[0])) < 1e-10
    assert abs(w[-2] - 1 / 3) < 1e-9  # the star balance point


def test_shift_rescale_idempotent_and_degenerate():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    h = oracles.shift_rescale(m + m.T)
    assert np.abs(oracles.shift_rescale(h) - h).max() < 1e-12
    with pytest.raises(DegenerateTopError):
        oracles.shift_rescale(np.eye(4))


def test_shift_rescale_and_spectrum_share_the_simple_top_rule():
    """A gap of 1e-7 under eigenvalues of size 1e6 is below the relative
    TOL_TOP_GAP; neither the map nor the spectrum accepts it."""
    h = np.diag([1e6, 1e6 - 1e-7, -1e6])
    with pytest.raises(DegenerateTopError):
        oracles.shift_rescale(h)
    with pytest.raises(DegenerateTopError):
        oracles.spectrum_of(h)


def test_search_spectrum_rejects_unknown_kind():
    with pytest.raises(ParameterRangeError):
        search.search_spectrum(graphs.complete(4), "incidence")


def test_search_stats_examples():
    n = 50
    hg = search.search_spectrum(graphs.complete(n), "adjacency")
    st = search.search_stats(hg, 7)
    assert abs(st.eps - 1 / n) < 1e-10

    star = graphs.star(n)
    hub = search.search_stats(search.search_spectrum(star, "adjacency"), 0)
    assert abs(hub.eps - 0.5) < 1e-10

    g = graphs.gen_ba(30, 2, seed=1)
    hnl = search.search_spectrum(g, "normalized_laplacian")
    for w in (0, 15):
        st = search.search_stats(hnl, w)
        assert abs(st.eps - g.degrees()[w] / (2 * len(g.edges))) < 1e-10


def test_search_stats_vertex_transitive_independent_of_w():
    hg = search.search_spectrum(graphs.complete(12), "adjacency")
    stats = [search.search_stats(hg, w) for w in range(12)]
    for st in stats[1:]:
        assert abs(st.s1 - stats[0].s1) < 1e-10
        assert abs(st.predicted_t - stats[0].predicted_t) < 1e-10


def test_run_search_complete_graph():
    n = 64
    a = oracles.spectrum_of(graphs.adjacency(graphs.complete(n)).toarray())
    # the principal eigenvector of K_n is the uniform state
    good = search.run_search(a, 0, 1 / (n - 2), np.array([math.pi * math.sqrt(n) / 2]))
    assert good.probs[0] >= 0.9
    late = search.run_search(a, 0, 1 / (n - 2), np.array([math.pi * math.sqrt(n)]))
    assert late.probs[0] < 5.0 / n


def test_run_search_sign_flip_invariance():
    """The eigensolver's choice of the sign of v_1 does not change p(t): the
    start is signed by its entry sum."""
    g = graphs.gen_er(12, 0.5, seed=3)
    g = graphs.giant_component(g)
    spec = search.search_spectrum(g, "adjacency")
    flipped = dataclasses.replace(spec, principal=-spec.principal)
    times = np.linspace(0, 10, 21)
    for gamma in (0.0, 0.7):
        direct = search.run_search(flipped, 2, gamma, times)
        ref = search.run_search(spec, 2, gamma, times)
        assert np.abs(direct.probs - ref.probs).max() < 1e-12


def test_run_search_p0_is_eps_from_principal_start():
    g = graphs.gen_ba(20, 2, seed=9)
    hg = search.search_spectrum(g, "normalized_laplacian")
    st = search.search_stats(hg, 5)
    run = search.run_search(hg, 5, st.s1, np.array([0.0]))
    assert abs(run.probs[0] - st.eps) < 1e-10


def test_run_search_matches_dense_expm():
    """p(t) from one shared spectrum per graph against expm of the search
    Hamiltonian, for several marked vertices and both gamma rules."""
    er = graphs.giant_component(graphs.gen_er(80, 0.08, seed=41))
    ba = graphs.gen_ba(90, 3, seed=42)
    times = np.array([0.0, 0.7, 3.1, 11.5, 40.0])
    for g, kind in ((er, "laplacian"), (ba, "normalized_laplacian")):
        spec = search.search_spectrum(g, kind)
        h_g = oracles.search_matrix(g, kind)
        for w, rule in ((0, "s1"), (g.n // 2, "caption"), (g.n - 1, "s1")):
            gamma = gamma_of(spec, w, rule)
            run = search.run_search(spec, w, gamma, times)
            h = gamma * h_g
            h[w, w] += 1.0
            psi = spec.principal
            want = [abs(scipy.linalg.expm(-1j * t * h)[w] @ psi) ** 2 for t in times]
            assert np.abs(run.probs - want).max() < 1e-12


def gamma_of(spec, w, rule):
    """gamma for a rule name as `qswlab search --gamma-rule` resolves it, or
    the number itself."""
    if rule == "s1":
        return search.search_stats(spec, w).s1
    if rule == "caption":
        return search.search_stats(spec, w).caption_gamma
    return rule


SECULAR_CASES = {
    # star, complete and complete-plus-leaf have degenerate poles
    "star": (graphs.star(9), "adjacency", (0, 4)),
    "complete": (graphs.complete(8), "adjacency", (0, 5)),
    "complete_plus_leaf": (oracles.complete_plus_leaf(12), "normalized_laplacian", (0, 5, 11)),
    "complete_plus_leaf_laplacian": (oracles.complete_plus_leaf(10), "laplacian", (9,)),
    "path": (graphs.path(15), "laplacian", (0, 7)),
    "er": (graphs.giant_component(graphs.gen_er(80, 0.08, seed=41)), "laplacian", (0, 33)),
    "ba": (graphs.gen_ba(90, 3, seed=42), "normalized_laplacian", (1, 89)),
}


@pytest.mark.parametrize("case", sorted(SECULAR_CASES))
def test_run_search_secular_matches_dense_eigh(case):
    """run_search against the two dense oracles: the secular equation in
    H_G's eigenbasis, which run_search used to be, and eigh of the whole
    search matrix. A grid to t = 60 needs K = n on the small graphs, and
    Lanczos steps on er and ba at small gamma."""
    g, kind, marked = SECULAR_CASES[case]
    spec = search.search_spectrum(g, kind)
    h_g = oracles.search_matrix(g, kind)
    times = np.linspace(0.0, 60.0, 121)
    x = oracles.principal_state(h_g)
    for w in marked:
        for rule in ("s1", "caption", 0.0, -0.8, 2.5):
            gamma = gamma_of(spec, w, rule)
            run = search.run_search(spec, w, gamma, times)
            want = oracles.dense_search_probs(h_g, w, gamma, x, times)
            assert np.abs(run.probs - want).max() < 1e-12, (w, rule)
            secular = oracles.secular_search_probs(h_g, w, gamma, times)
            assert np.abs(run.probs - secular).max() < 1e-12, (w, rule)


def test_run_search_deflation_counts():
    """The secular oracle merges degenerate poles, and with gamma = 0 every
    pole is one."""
    def pole_count(g, w, gamma):
        values, vectors = np.linalg.eigh(oracles.search_matrix(g, "adjacency"))
        row = np.abs(vectors[w, :])
        return oracles.rank_one_eig(gamma * values, row, row)[0].size

    assert pole_count(graphs.star(9), 4, 0.5) == 3
    assert pole_count(graphs.star(9), 4, 0.0) == 1
    assert pole_count(graphs.complete(8), 0, 0.3) == 2


def test_run_search_secular_complex_hermitian():
    """Complex eigenvectors: the phases of <w|v_j> move into the start state,
    and the start v_1 is signed by the real part of its entry sum."""
    rng = np.random.default_rng(12)
    n = 30
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h_g = (a + a.conj().T) / 10.0
    spec = oracles.spectrum_of(h_g)
    assert np.iscomplexobj(spec.principal)
    x = oracles.principal_state(h_g)
    # t = 25 needs K = n; t = 2 leaves room for Lanczos steps on a complex H_G
    for t_last in (25.0, 2.0):
        times = np.linspace(0.0, t_last, 51)
        for w, gamma in ((0, 0.7), (7, -1.3), (19, 0.0)):
            run = search.run_search(spec, w, gamma, times)
            want = oracles.dense_search_probs(h_g, w, gamma, x, times)
            assert np.abs(run.probs - want).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 14), st.floats(0.15, 0.9), st.integers(0, 2**32 - 1),
       st.sampled_from(search.GRAPH_MATRIX_KINDS), st.floats(-4.0, 4.0), st.data())
def test_run_search_invariants_random_graphs(n, p, seed, kind, gamma, data):
    g = graphs.gen_er(n, p, seed)
    assume(graphs.is_connected(g))
    spec = search.search_spectrum(g, kind)
    w = data.draw(st.integers(0, n - 1))
    times = np.linspace(0.0, 30.0, 31)
    run = search.run_search(spec, w, gamma, times)
    assert run.probs[0] == pytest.approx(abs(spec.principal[w]) ** 2, abs=1e-12)
    assert np.all((run.probs >= 0.0) & (run.probs <= 1.0))
    # the secular oracle's weights expand |a|^T f(M) x over the kept
    # eigenvalues of M = diag(gamma lambda) + |a| |a|^T, for x the start with
    # the phases of a = V^H e_w moved into it
    values, vectors = np.linalg.eigh(oracles.search_matrix(g, kind))
    values, vectors = values[::-1], vectors[:, ::-1]
    z = np.abs(vectors[w, :])
    x = np.zeros(n)
    x[0] = np.sign(vectors[w, 0]) * np.sign(vectors[:, 0].sum() or 1.0)
    mu, weights = oracles.rank_one_eig(gamma * values, z, z * x)
    oracles.assert_spectral_weights(gamma * values, z, x, mu, weights)


@st.composite
def connected_marked(draw):
    """A connected graph of 2 to 40 vertices, a random spanning tree with ER
    edges on top, and a marked vertex of it."""
    n = draw(st.integers(2, 40))
    tree = frozenset((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    extra = graphs.gen_er(n, draw(st.floats(0.0, 0.5)), draw(st.integers(0, 2**32 - 1))).edges
    return graphs.Graph(n, tree | extra), draw(st.integers(0, n - 1))


def _oracle_tolerances(want, half_width, t_last):
    """The relative tolerance of each SearchStats field and the absolute
    tolerance of p against the dense oracle: 1e-12, plus what rounding
    leaves undetermined. A backward error of eps in a symmetric eigensolve
    moves each eigenvalue by about eps and v_1 by about eps / gap, so
    1 / (1 - lambda_2)^k and p are fixed only to about eps / gap,
    eps = |v_1[w]|^2 and predicted_t only to about eps / sqrt(eps)
    relative, and a phase t mu only to eps * a * t for the spectral
    half-width a of the search matrix."""
    eps = np.finfo(float).eps
    rtol = 1e-12 + 30.0 * eps / want.gap
    rtols = {field.name: rtol for field in dataclasses.fields(search.SearchStats)}
    rtols["eps"] = rtols["predicted_t"] = rtol + 10.0 * eps / math.sqrt(want.eps)
    return rtols, rtol + 10.0 * eps * half_width * t_last


@settings(deadline=None, max_examples=60)
@given(connected_marked(), st.sampled_from(search.GRAPH_MATRIX_KINDS),
       st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.none())
@example((graphs.path(2), 0), "adjacency", 0.0, None)
@example((graphs.complete(8), 3), "adjacency", -0.7, None)   # lambda_2 = ... = lambda_n
@example((graphs.star(9), 4), "normalized_laplacian", 1.3, None)
@example((graphs.path(31), 5), "laplacian", 0.4, 2000.0)     # K = n
def test_search_matches_dense_oracle(case, kind, gamma, t_last):
    """Every SearchStats field to 1e-12 relative, and p(t) to 1e-12 on the
    automatic grid of `qswlab search` or on a grid to t_last, against the
    dense eigensystems of H_G and of the search matrix; the tolerances grow
    only where rounding leaves the oracle itself less well determined."""
    g, w = case
    h_g = oracles.search_matrix(g, kind)
    spec = search.search_spectrum(g, kind)
    stats = search.search_stats(spec, w)
    want = oracles.dense_search_stats(h_g, w)
    times = np.linspace(0.0, t_last or 3.0 * want.predicted_t, 301)
    rtols, atol_p = _oracle_tolerances(want, abs(gamma) + 0.5, times[-1])
    for name, rtol in rtols.items():
        got, ref = getattr(stats, name), getattr(want, name)
        if isinstance(ref, bool):
            assert got == ref, name
        else:
            assert abs(got - ref) <= rtol * abs(ref), (name, got, ref)
    run = search.run_search(spec, w, gamma, times)
    p = oracles.dense_search_probs(h_g, w, gamma, oracles.principal_state(h_g), times)
    assert np.abs(run.probs - p).max() <= atol_p


@pytest.mark.parametrize("g, kind", [
    # the Perron vector decays along the path: |v_1[0]| = 9e-15
    (oracles.broom(30, 10), "adjacency"),
    # two hubs 19 steps apart: a top gap of 6.8e-10, yet simple
    (oracles.broom(20, 10, both_ends=True), "adjacency"),
    (oracles.broom(20, 10, both_ends=True), "laplacian"),
])
def test_search_matches_dense_oracle_when_ill_conditioned(g, kind):
    """Tiny overlaps and a nearly degenerate top eigenvalue: every vertex
    within the oracle's own rounding. The second MINRES solve of the double
    broom has a right-hand side of norm 7e8 that is nearly an eigenvector."""
    h_g = oracles.search_matrix(g, kind)
    spec = search.search_spectrum(g, kind)
    for w in range(g.n):
        stats, want = search.search_stats(spec, w), oracles.dense_search_stats(h_g, w)
        rtols, _ = _oracle_tolerances(want, 0.5, 0.0)
        for name in ("eps", "s1", "s2", "s3", "gap", "predicted_t", "caption_gamma"):
            got, ref = getattr(stats, name), getattr(want, name)
            assert abs(got - ref) <= rtols[name] * abs(ref), (w, name, got, ref)


def test_search_stats_complex_hermitian():
    """A complex H_G is solved in the real form of I - H_G + v_1 v_1^H."""
    rng = np.random.default_rng(12)
    n = 30
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h_g = (a + a.conj().T) / 10.0
    h_g -= (np.linalg.eigvalsh(h_g)[-1] - 1.0) * np.eye(n)   # top eigenvalue 1
    spec = oracles.spectrum_of(h_g)
    for w in (0, 7, 19):
        stats, want = search.search_stats(spec, w), oracles.dense_search_stats(h_g, w)
        for name in ("eps", "s1", "s2", "s3", "predicted_t"):
            assert getattr(stats, name) == pytest.approx(getattr(want, name), rel=1e-12)


def _lanczos_steps(at):
    """The fewest K > at with (at/2)^K / K! below 1e-16, by plain search."""
    k = math.floor(at) + 1
    while (at / 2.0) ** k / math.factorial(k) >= 1e-16:
        k += 1
    return k


def test_search_logs_its_solver_work(caplog):
    """One DEBUG record per call: search_spectrum gives its ARPACK matvec
    count, search_stats and classical_mfpt the MINRES iterations and
    relative residuals, run_search the Lanczos K, its tail bound and whether
    the invariant stop fired."""
    g = graphs.gen_ba(60, 2, seed=3)

    def record(call, *args):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qswlab.search"):
            out = call(*args)
        (rec,) = caplog.records
        assert rec.levelno == logging.DEBUG
        return out, rec.args

    spec, (kind, n, matvecs, gap) = record(search.search_spectrum, g, "laplacian")
    assert (kind, n, gap) == ("laplacian", 60, spec.gap) and matvecs > 0
    stats, (iter1, iter2, res1, res2) = record(search.search_stats, spec, 5)
    assert iter1 > 0 and iter2 > 0 and max(res1, res2) < 1e-12
    _, (iterations, residual) = record(search.classical_mfpt, g, 5)
    assert iterations > 0 and residual < 1e-12

    # Lanczos steps to the Bessel tail: a = |gamma| + 1/2 bounds the spectrum
    t_last = 4.0
    _, (k, n, tail, invariant) = record(search.run_search, spec, 5, stats.s1,
                                        np.linspace(0.0, t_last, 11))
    at = (abs(stats.s1) + 0.5) * t_last
    assert (k, n, invariant) == (_lanczos_steps(at), 60, False)
    assert tail == pytest.approx((at / 2.0) ** k / math.factorial(k), rel=1e-9)
    assert tail < search.LANCZOS_TAIL
    # from the uniform state on K_64, span{v_1, |w>} is invariant: the steps
    # stop at K = 2, before the tail rule's 6, since beta * t_last, a
    # rounding residue times t_last, is below LANCZOS_TAIL
    complete = search.search_spectrum(graphs.complete(64), "adjacency")
    _, (k, n, _, invariant) = record(search.run_search, complete, 0, 1 / 62, np.array([0.01]))
    assert (k, n, invariant) == (2, 64, True) and _lanczos_steps(0.01 * (1 / 62 + 0.5)) == 6
    # a grid to t = 2,000 on path:31 needs K = n: H itself, exactly
    path = search.search_spectrum(graphs.path(31), "laplacian")
    _, (k, n, tail, invariant) = record(search.run_search, path, 5, 0.4, np.array([2000.0]))
    assert (k, n, tail, invariant) == (31, 31, 0.0, False)


def test_run_search_rejects_bad_probabilities(monkeypatch):
    spec = search.search_spectrum(graphs.complete(8), "adjacency")
    times = np.linspace(0.0, 5.0, 11)
    # a start on the marked vertex keeps p = 1 and never exceeds it
    diag = oracles.spectrum_of(np.diag([1.0, 0.5, 0.2, -0.3]))
    run = search.run_search(diag, 0, 1.0, times)
    assert run.probs.max() <= 1.0
    assert run.probs[0] == pytest.approx(1.0, abs=1e-12)

    real = numkernel.eig_hermitian
    # eigenvectors that are not orthonormal miss the t = 0 amplitude <w|v_1>
    monkeypatch.setattr(numkernel, "eig_hermitian", lambda h: (real(h)[0], 2.0 * real(h)[1]))
    with pytest.raises(NumericalError, match="amplitude at t = 0"):
        search.run_search(spec, 0, 1.0, times)
    # a NaN eigenvalue gives NaN probabilities, which are refused
    monkeypatch.setattr(numkernel, "eig_hermitian",
                        lambda h: (np.full(h.shape[0], np.nan), real(h)[1]))
    with pytest.raises(NumericalError, match=r"not in \[0, 1\]"):
        search.run_search(spec, 0, 1.0, times)


def test_search_stats_rejects_zero_overlap():
    # vertex 4 lies outside the component that carries the top eigenvector
    g = graphs.Graph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
    spec = search.search_spectrum(g, "adjacency")
    with pytest.raises(ZeroOverlapError):
        search.search_stats(spec, 4)
    assert search.search_stats(spec, 1).eps == pytest.approx(0.5)


def test_caption_gamma_value():
    """On K_10, A/9 has eigenvalues 1 and -1/9, and eps = 1/10, so
    S1 = (9/10) / (10/9) = 0.81 and the caption rate S1 / (1 - eps) = 0.9."""
    hg = search.search_spectrum(graphs.complete(10), "adjacency")
    st = search.search_stats(hg, 0)
    assert st.caption_gamma == st.s1 / (1 - st.eps)
    assert abs(st.caption_gamma - 0.9) < 1e-12


def test_classical_mfpt_closed_values():
    # complete graph: (n-1)^2 / n
    assert search.classical_mfpt(graphs.complete(5), 0) == pytest.approx(16 / 5)
    # star hub: 1/2 regardless of size
    assert search.classical_mfpt(graphs.star(20), 0) == pytest.approx(0.5)


def test_classical_mfpt_vs_monte_carlo():
    for g, w in ((graphs.complete(5), 0), (graphs.star(12), 3)):
        exact = search.classical_mfpt(g, w)
        est = oracles.classical_mfpt_mc(g, w, walks=40000, seed=17)
        assert abs(est - exact) / exact < 0.05


def test_classical_mfpt_mc_pinned_value():
    """The walks for a fixed seed are fixed: neighbour order and the draws."""
    g = graphs.giant_component(graphs.gen_er(80, 0.08, seed=41))
    assert oracles.classical_mfpt_mc(g, 7, walks=3000, seed=11) == 261.85633333333334


def test_classical_mfpt_lower_bound_random_graphs():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        g = graphs.gen_er(rng.integers(5, 15), 0.4, int(rng.integers(2**32)))
        if not graphs.is_connected(g):
            continue
        w = int(rng.integers(g.n))
        assert search.classical_mfpt(g, w) >= oracles.classical_mfpt_lower_bound(g, w) - 1e-9
        checked += 1


def test_search_layer_edges_raise_typed_errors():
    spec = search.search_spectrum(graphs.path(6), "adjacency")
    times = np.linspace(0.0, 5.0, 6)
    # a negative index would wrap around to another vertex
    for w in (-1, 6, 100):
        with pytest.raises(ParameterRangeError):
            search.search_stats(spec, w)
        with pytest.raises(ParameterRangeError):
            search.run_search(spec, w, 0.5, times)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ParameterRangeError):
            search.run_search(spec, 0, gamma, times)
    # the grid rule of expm_apply: p(-t) = p(t) for a real H_G, so a
    # negative grid would report mirror values
    for bad in (np.array([]), np.array([0.0, math.nan]), np.zeros((2, 2)), np.array(1.0),
                np.array([-3.0, 0.0, 3.0]), np.array([0.0, 2.0, 1.0]), np.array([1.0, 1.0])):
        with pytest.raises(TimeGridError):
            search.run_search(spec, 0, 0.5, bad)
    for kind in search.GRAPH_MATRIX_KINDS:
        with pytest.raises(DimensionError):
            search.search_spectrum(graphs.Graph(0), kind)
    for h in (np.zeros((0, 0)), np.ones((1, 1)), np.ones((2, 3))):
        with pytest.raises(DimensionError):
            oracles.shift_rescale(h)
    for p0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterRangeError):
            search.lambert_bound(p0)
    # x = (1 - p0) / (e p0) rounds to the branch point, where scipy gives NaN;
    # the branch-point series gives (1 - p) / (1 + p) to first order
    assert search.lambert_bound(1e300) == 1.0
    # the walks are undefined without an edge or at a vertex off the graph
    for g, w in ((graphs.Graph(1), 0), (graphs.Graph(2), 0)):
        with pytest.raises((IsolatedVertexError, DisconnectedGraphError)):
            oracles.classical_mfpt_mc(g, w, walks=10, seed=0)
        with pytest.raises((IsolatedVertexError, DisconnectedGraphError)):
            oracles.classical_mfpt_lower_bound(g, w)
    with pytest.raises(ParameterRangeError):
        oracles.classical_mfpt_lower_bound(graphs.path(3), -1)
    with pytest.raises(ParameterRangeError):
        oracles.classical_mfpt_mc(graphs.path(3), 0, walks=0, seed=0)
    # max_steps = 0 divided by zero and -5 reached numpy's ValueError
    for max_steps in (0, -5, 2.5):
        with pytest.raises(ParameterRangeError, match="max_steps"):
            oracles.classical_mfpt_mc(graphs.path(3), 0, walks=10, seed=0, max_steps=max_steps)
    # the marked vertex is the whole principal eigenvector: every S_k is 0
    with pytest.raises(ZeroOverlapError):
        search.search_stats(oracles.spectrum_of(np.diag([1.0, 0.5])), 0)


def test_classical_mfpt_mc_rejects_censored_walks():
    # on a path of 8 no walk from the far half reaches vertex 0 in 3 steps
    g = graphs.path(8)
    with pytest.raises(NumericalError, match="did not reach"):
        oracles.classical_mfpt_mc(g, 0, walks=200, seed=3, max_steps=3)
    arcs = graphs.arc_matrix(g)
    starts = np.array([0, 1, 7], dtype=np.int64)
    raw = np.zeros((3, 3))   # every step goes to the lower neighbour
    for kernel in (oracles.hitting_steps_loop, oracles._hitting_steps):
        steps = kernel(arcs.indptr, arcs.indices, starts, 0, 3, raw)
        assert steps.tolist() == [0, 1, -1]


def test_kernel_backends_agree():
    """The lockstep kernel walks the same paths as the one-walk-at-a-time loop."""
    g = graphs.gen_er(40, 0.2, seed=31)
    g = graphs.giant_component(g)
    arcs = graphs.arc_matrix(g)
    rng = np.random.default_rng(0)
    starts = rng.integers(0, g.n, size=500).astype(np.int64)
    raw = rng.random((500, 2000))
    args = (arcs.indptr, arcs.indices, starts, 0, 2000, raw)
    a = oracles._hitting_steps(*args)
    b = oracles.hitting_steps_loop(*args)
    assert np.array_equal(a, b)


def test_lambert_bound():
    assert search.lambert_bound(1.0 + 1e-9) < 1e-3
    assert search.lambert_bound(1e6) > 0.99
    for p0 in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(ParameterRangeError):
            search.lambert_bound(p0)
    # against both branches found by bisection on w e^w = x
    for p0 in (1.0 + 1e-9, 1.5, 2.0, 10.0, 1e6):
        x = (1 - p0) / (math.e * p0)
        want = oracles.lambert_w_bisect(x, 0) / oracles.lambert_w_bisect(x, -1)
        assert search.lambert_bound(p0) == pytest.approx(want, rel=1e-12, abs=0)


def test_lambert_bound_matches_mpmath_across_the_series_switch():
    """Against 50-digit mpmath: scipy's lambertw below LAMBERT_SERIES_P0, the
    branch-point series from there to 1e16, where scipy's W-1 was off by
    1.4e-5 relative at 1e10 and NaN at 1e16."""
    mpmath = pytest.importorskip("mpmath")
    p0s = np.concatenate([np.geomspace(1.0 + 1e-9, 1e16, 200),
                          [search.LAMBERT_SERIES_P0 * (1 - 1e-15), search.LAMBERT_SERIES_P0]])
    with mpmath.workdps(50):
        for p0 in p0s:
            x = (1 - mpmath.mpf(p0)) / (mpmath.e * mpmath.mpf(p0))
            want = mpmath.lambertw(x, 0) / mpmath.lambertw(x, -1)
            rel = float(abs((search.lambert_bound(float(p0)) - want) / want))
            assert rel <= (4.4e-16 if p0 >= search.LAMBERT_SERIES_P0 else 2e-14), p0


def test_complete_plus_leaf_eps_scaling():
    """Leaf overlap falls like 1/n^2, interior overlap like 1/n."""
    eps_leaf, eps_int = [], []
    for n in (40, 80, 160):
        g = oracles.complete_plus_leaf(n)
        h = search.search_spectrum(g, "normalized_laplacian")
        eps_leaf.append(search.search_stats(h, n - 1).eps)
        eps_int.append(search.search_stats(h, 2).eps)
    slope = np.polyfit(np.log([40, 80, 160]), np.log(eps_leaf), 1)[0]
    assert -2.4 < slope < -1.6
    slope_i = np.polyfit(np.log([40, 80, 160]), np.log(eps_int), 1)[0]
    assert -1.4 < slope_i < -0.6

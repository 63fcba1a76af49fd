import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qswlab import gksl, graphs, nonmoral, numkernel
from qswlab.exceptions import (DimensionError, NonOrthogonalColumnsError, NumericalError,
                               ParameterRangeError, WrongTopologyError)


def _indegrees(g):
    """Column sums of the arc matrix: the arcs into each vertex."""
    return np.asarray(graphs.arc_matrix(g).sum(axis=0)).ravel().astype(int)


def test_demoralize_rejects_the_empty_digraph():
    with pytest.raises(DimensionError):
        nonmoral.demoralize(graphs.DiGraph(0))


def test_demoralize_moral_triangle():
    dg = nonmoral.demoralize(oracles.moral_triangle())
    assert dg.block_sizes == (1, 1, 2)
    assert dg.dim == 4


def test_demoralize_premature_order():
    """Copy-major basis: all 0th copies in vertex order, then 1st copies."""
    dg = nonmoral.demoralize(oracles.premature_graph())
    assert dg.dim == 7
    assert dg.index == ((0, 4), (1, 5), (2, 6), (3,))


def test_demoralize_isolated_vertex():
    dg = nonmoral.demoralize(graphs.DiGraph(1, frozenset()))
    assert dg.dim == 1 and dg.block_sizes == (1,)


def test_demoralize_dimension_formula():
    for seed in range(8):
        g = graphs.gen_er(7, 0.4, seed, directed=True)
        dg = nonmoral.demoralize(g)
        want = len(g.arcs) + np.count_nonzero(_indegrees(g) == 0)
        assert dg.dim == want


def _assert_matches_arc_scan(g):
    dg = nonmoral.demoralize(g)
    assert dg == oracles.demoralize_scan(g)
    family = nonmoral.fourier_family(dg)
    pairs = [
        (nonmoral.build_nonmoral_lindblad(dg, family), oracles.nonmoral_lindblad_scan(dg, family)),
        (nonmoral.standard_hamiltonian(dg), oracles.standard_hamiltonian(dg)),
        (nonmoral.standard_rotating_hamiltonian(dg), oracles.standard_rotating_hamiltonian(dg)),
    ]
    for got, want in pairs:
        assert got.format == "csr" and got.dtype == complex
        assert np.array_equal(got.toarray(), want)
    for v in range(g.n):
        assert np.array_equal(nonmoral.block_mixed_state(dg, v), oracles.block_mixed_state(dg, v))


@pytest.mark.parametrize("v", [-1, 4, 2.0])
def test_block_mixed_state_rejects_a_label_off_the_graph(v):
    """On the 4-vertex premature graph, -1 would wrap round to vertex 3 and 4
    raised IndexError."""
    dg = nonmoral.demoralize(oracles.premature_graph())
    with pytest.raises(ParameterRangeError, match="vertex must be an integer"):
        nonmoral.block_mixed_state(dg, v)


@pytest.mark.parametrize("g", [
    oracles.moral_triangle(), oracles.premature_graph(), oracles.ngqsw_period_graph(),
    oracles.circulant_jump2(8), graphs.to_digraph(graphs.path(6)),
    graphs.to_digraph(graphs.star(5)), graphs.DiGraph(3),
], ids=["moral_triangle", "premature", "ngqsw_period", "circulant8", "path6", "star5",
        "no_arcs"])
def test_demoralize_and_lindblad_match_arc_scan_on_fixtures(g):
    _assert_matches_arc_scan(g)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_demoralize_and_lindblad_match_arc_scan_on_random_digraphs(n, p, seed):
    _assert_matches_arc_scan(graphs.gen_er(n, p, seed, directed=True))


def test_fourier_matrix():
    assert np.array_equal(nonmoral.fourier_matrix(1), [[1]])
    assert np.allclose(nonmoral.fourier_matrix(2), [[1, 1], [1, -1]])
    f5 = nonmoral.fourier_matrix(5)
    assert np.abs(f5.conj().T @ f5 - 5 * np.eye(5)).max() < 1e-12
    with pytest.raises(DimensionError):
        nonmoral.fourier_matrix(0)


def test_lindblad_moral_triangle_display():
    dg = nonmoral.demoralize(oracles.moral_triangle())
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg)).toarray()
    want = np.zeros((4, 4))
    want[2, 0] = want[3, 0] = want[2, 1] = 1
    want[3, 1] = -1
    assert np.abs(lb - want).max() < 1e-12


def test_lindblad_premature_display():
    dg = nonmoral.demoralize(oracles.premature_graph())
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg)).toarray()
    want = np.array([
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 1, 0, 0],
        [0, 1, -1, 0, 0, 1, -1],
        [1, 0, -1, 0, 1, 0, -1],
        [1, -1, 0, 0, 1, -1, 0],
    ], dtype=float)
    assert np.abs(lb - want).max() < 1e-12


def test_lindblad_no_arcs_zero():
    dg = nonmoral.demoralize(graphs.DiGraph(3, frozenset()))
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    assert np.abs(lb.toarray()).max() == 0


def test_lindblad_rejects_non_orthogonal_columns():
    dg = nonmoral.demoralize(oracles.moral_triangle())

    def bad(v):
        return np.ones((dg.block_sizes[v], _indegrees(dg.base)[v] or 1))

    with pytest.raises(NonOrthogonalColumnsError):
        nonmoral.build_nonmoral_lindblad(dg, bad)


def test_lindblad_cross_vertex_blocks_vanish():
    """L'L stays block diagonal for random digraphs and random orthogonal
    column families."""
    rng = np.random.default_rng(99)
    for trial in range(50):
        g = graphs.gen_er(rng.integers(2, 9), 0.5, int(rng.integers(2**32)),
                          directed=True)
        dg = nonmoral.demoralize(g)

        def family(v, rng=rng, dg=dg, g=g):
            d = dg.block_sizes[v]
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(x)
            scales = 0.5 + rng.random(d)
            return (q * scales)[:, :max(_indegrees(g)[v], 1)]

        lb = nonmoral.build_nonmoral_lindblad(dg, family).toarray()
        ldl = lb.conj().T @ lb
        for v in range(g.n):
            for w in range(g.n):
                if v == w:
                    continue
                blk = ldl[np.ix_(dg.index[v], dg.index[w])]
                assert np.abs(blk).max() < 1e-12


def test_standard_hamiltonian_support():
    g = oracles.moral_triangle()
    dg = nonmoral.demoralize(g)
    h = nonmoral.standard_hamiltonian(dg).toarray()
    # v1 and v2 are not adjacent in the underlying graph
    assert h[0, 1] == 0
    assert h[dg.index[0][0], dg.index[2][0]] == 1
    assert h[dg.index[0][0], dg.index[2][1]] == 1
    numkernel.check_hermitian(h)


def test_rotating_hamiltonian_blocks():
    g = graphs.DiGraph(4, frozenset({(1, 0), (2, 0), (3, 0)}))
    dg = nonmoral.demoralize(g)  # one block of size 3, three of size 1
    h = nonmoral.standard_rotating_hamiltonian(dg).toarray()
    blk = h[np.ix_(dg.index[0], dg.index[0])]
    want = np.array([[0, 1j, 0], [-1j, 0, 1j], [0, -1j, 0]])
    assert np.abs(blk - want).max() == 0
    for v in (1, 2, 3):
        assert h[dg.index[v][0], dg.index[v][0]] == 0
    numkernel.check_hermitian(h)


def test_ngqsw_moral_triangle_closed_form():
    """Without a rotating Hamiltonian the state has an explicit closed form;
    the rotating Hamiltonian redistributes within the v3 block but never
    leaks probability back to the parent v2."""
    g = oracles.moral_triangle()
    dg = nonmoral.demoralize(g)
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    zero = np.zeros((4, 4))
    gen = gksl.build_generator(gksl.WalkSpec(zero, (lb,), 1.0, 1.0))
    gen_rot = gksl.build_generator(
        gksl.WalkSpec(nonmoral.standard_rotating_hamiltonian(dg), (lb,), 1.0, 1.0))
    times = [0.5, 2.0, 20.0]
    rhos, rhos_rot = (gksl.evolve(g_, oracles.pure_state(4, 0), times) for g_ in (gen, gen_rot))
    for t, rho in zip(times, rhos):
        v3 = np.zeros(4)
        v3[2] = v3[3] = 1.0
        want = np.exp(-2 * t) * np.diag([1.0, 0, 0, 0]) \
            + 0.5 * (1 - np.exp(-2 * t)) * np.outer(v3, v3)
        assert np.abs(rho - want).max() < 1e-9
    for r in (rhos, rhos_rot):
        p = nonmoral.natural_measure(r, dg)
        assert np.all(p[:, 1] < 1e-10)
        assert np.abs(p[:, 2] - (1 - np.exp(-2 * np.array(times)))).max() < 1e-9


def test_premature_zero_rotation_stationary():
    dg = nonmoral.demoralize(oracles.premature_graph())
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    gen = gksl.build_generator(gksl.WalkSpec(np.zeros((7, 7)), (lb,), 1.0, 1.0))
    rho = gksl.evolve(gen, oracles.pure_state(7, 0), [200.0])[0]
    want = np.array([
        [5, 1, 1, 0, -5, -1, -1],
        [1, 1, 1, 0, -1, -1, -1],
        [1, 1, 1, 0, -1, -1, -1],
        [0, 0, 0, 2, 0, 0, 0],
        [-5, -1, -1, 0, 5, 1, 1],
        [-1, -1, -1, 0, 1, 1, 1],
        [-1, -1, -1, 0, 1, 1, 1],
    ]) / 16
    assert np.abs(rho - want).max() < 1e-6


def test_premature_standard_rotation_localizes():
    dg = nonmoral.demoralize(oracles.premature_graph())
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    spec = gksl.WalkSpec(nonmoral.standard_rotating_hamiltonian(dg), (lb,), 1.0, 1.0)
    gen = gksl.build_generator(spec)
    rho = gksl.evolve(gen, oracles.pure_state(7, 0), [500.0])[0]
    want = np.zeros((7, 7))
    want[3, 3] = 1.0
    assert np.abs(rho - want).max() < 1e-6


def test_periodicity_witness_spectrum():
    dg = nonmoral.demoralize(oracles.ngqsw_period_graph())
    for omega in (0.25, 1.0):
        gen = gksl.build_generator(nonmoral.ngqsw_spec(dg, omega))
        lam = numkernel.eig_general(gen.s)
        tgt = 2j * np.sqrt(3) * omega
        assert np.abs(lam - tgt).min() < 1e-8
        assert np.abs(lam + tgt).min() < 1e-8


def test_symmetrized_segment_profiles():
    n = 21
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(n)))
    lbs = nonmoral.symmetrized_path_lindblads(dg)
    hrot = nonmoral.standard_rotating_hamiltonian(dg)
    rho0 = nonmoral.block_mixed_state(dg, (n - 1) // 2)

    gen = gksl.build_generator(gksl.WalkSpec(hrot, lbs, 1.0, 1.0))
    p = nonmoral.natural_measure(gksl.evolve(gen, rho0, [10.0]), dg)[0]
    assert max(abs(p[k] - p[n - 1 - k]) for k in range(n)) < 1e-8

    single = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    gen1 = gksl.build_generator(gksl.WalkSpec(hrot, (single,), 1.0, 1.0))
    p1 = nonmoral.natural_measure(gksl.evolve(gen1, rho0, [10.0]), dg)[0]
    assert max(abs(p1[k] - p1[n - 1 - k]) for k in range(n)) > 1e-3


def _reflection(dg):
    """The permutation copy k of v -> copy k of n-1-v of the enlarged basis."""
    perm = np.empty(dg.dim, dtype=np.int64)
    perm[np.concatenate(dg.index)] = np.concatenate(dg.index[::-1])
    return perm


@pytest.mark.parametrize("length", [7, 61])
def test_path_reflection_is_exact(length):
    """P maps H = (1 - w) H_std + w H_rot onto itself and swaps the two
    symmetrized Lindblads, with no rounding at all."""
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(length)))
    l1, l2 = nonmoral.symmetrized_path_lindblads(dg)
    spec = nonmoral.ngqsw_spec(dg, 0.3, (l1, l2))
    perm = _reflection(dg)
    assert np.array_equal(perm[[dg.index[v][-1] for v in range(length)]],
                          [dg.index[length - 1 - v][-1] for v in range(length)])

    def conj(m):
        p = np.eye(dg.dim)[:, perm]
        return p @ m.toarray() @ p.T

    assert np.array_equal(conj(spec.hamiltonian), spec.hamiltonian.toarray())
    assert np.array_equal(conj(l1), l2.toarray())
    assert np.array_equal(conj(l2), l1.toarray())


@pytest.mark.parametrize("length", [2, 3, 7, 60, 61])
def test_reflection_basis_is_orthogonal_and_diagonalises_the_reflection(length):
    """U is symmetric, U^T U = I within 1e-15, and U P U^T is diagonal with
    -1 on the rows of the mirror pairs' differences and +1 elsewhere: a row
    is e_x for a copy of the centre vertex, or (e_x +- e_Px)/sqrt2."""
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(length)))
    u = nonmoral.reflection_basis(dg).toarray()
    assert np.array_equal(u, u.T)
    assert np.abs(u.T @ u - np.eye(dg.dim)).max() <= 1e-15
    perm = _reflection(dg)
    p = np.eye(dg.dim)[:, perm]
    odd = (u < 0).any(axis=1)
    assert np.abs(u @ p @ u.T - np.diag(np.where(odd, -1.0, 1.0))).max() <= 1e-15
    assert np.count_nonzero(u, axis=1).max() <= 2
    fixed = np.flatnonzero(perm == np.arange(dg.dim))
    assert np.array_equal(u[fixed], np.eye(dg.dim)[fixed])
    assert len(fixed) == (dg.block_sizes[length // 2] if length % 2 else 0)


def _crossings(m, odd):
    """The stored entries of m between the rows that odd marks and the rest."""
    c = m.tocoo()
    return int(np.count_nonzero(odd[c.row] != odd[c.col]))


@pytest.mark.parametrize("length", [3, 7, 61])
@pytest.mark.parametrize("omega", [0.0, 0.3, 0.5, 0.8, 1.0])
def test_reflection_basis_splits_the_path_walk_by_parity(length, omega):
    """In the reflection's basis, the path walk's H, its generator S and the
    real form of S store no entry between the two parity classes: each
    such entry is a float plus its exact negative, which rounds to 0.0 and
    is dropped. The parity of a matrix coordinate (x, y) is that of x
    plus that of y."""
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(length)))
    u = nonmoral.reflection_basis(dg)
    odd = (u < 0).toarray().any(axis=1)
    spec = nonmoral.ngqsw_spec(dg, omega, nonmoral.symmetrized_path_lindblads(dg))
    h = u @ spec.hamiltonian @ u.T
    gen = gksl.build_generator(gksl.WalkSpec(h, tuple(u @ l @ u.T for l in spec.lindblads),
                                             spec.ham_weight, spec.diss_weight))
    assert _crossings(h, odd) == 0
    pairs = odd[:, None] != odd[None, :]
    assert _crossings(gen.s, pairs.ravel()) == 0
    x, y = np.triu_indices(dg.dim, 1)
    assert _crossings(gen.real.matrix, np.concatenate([np.zeros(dg.dim, bool),
                                                       pairs[x, y], pairs[x, y]])) == 0


def test_reflection_basis_rejects_blocks_that_are_not_mirror_symmetric():
    star = nonmoral.demoralize(graphs.to_digraph(graphs.star(5)))
    assert star.block_sizes != star.block_sizes[::-1]
    with pytest.raises(WrongTopologyError):
        nonmoral.reflection_basis(star)


def test_reflection_basis_needs_no_symmetry_of_the_walk():
    """U is orthogonal, so evolving in its basis gives the same states to
    1e-13 whether or not the reflection maps the walk onto itself: it does
    not for the Fourier Lindblad on a path (P L P^T - L has entries of size
    2), nor on the path 0-2-1-3-4, whose block sizes read the same from
    both ends but for which v -> 4 - v is no automorphism."""
    path = nonmoral.demoralize(graphs.to_digraph(graphs.path(7)))
    fourier = nonmoral.ngqsw_spec(path, 0.5)
    (l,), perm = fourier.lindblads, _reflection(path)
    assert np.abs(l[perm][:, perm] - l).max() == 2
    shuffled = nonmoral.demoralize(graphs.to_digraph(
        graphs.Graph(5, frozenset({(0, 2), (1, 2), (1, 3), (3, 4)}))))
    assert shuffled.block_sizes == shuffled.block_sizes[::-1]
    times = np.arange(1.0, 4.0)
    for dg, spec in ((path, fourier), (shuffled, nonmoral.ngqsw_spec(
            shuffled, 0.5, nonmoral.symmetrized_path_lindblads(shuffled)))):
        rho0 = nonmoral.block_mixed_state(dg, 2)
        want = gksl.evolve(gksl.build_generator(spec), rho0, times)
        assert np.abs(oracles.reflected_evolution(dg, spec, rho0, times) - want).max() <= 1e-13


def test_symmetrized_lindblads_reject_non_path():
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.star(5)))
    with pytest.raises(WrongTopologyError):
        nonmoral.symmetrized_path_lindblads(dg)


def test_natural_measure_block_indicator():
    dg = nonmoral.demoralize(oracles.moral_triangle())
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    assert np.allclose(nonmoral.natural_measure([np.eye(4) / 4, rho], dg),
                       [[0.25, 0.25, 0.5], [0, 0, 1]])
    with pytest.raises(DimensionError):   # a state, not a stack of them
        nonmoral.natural_measure(rho, dg)


@pytest.mark.parametrize("diag", [[0.0, 0.0, 1.001, -1e-3], [0.3, 0.3, 0.15, 0.15]])
def test_natural_measure_rejects_non_distribution(diag):
    """A negative copy, even inside a block with a positive total, and a
    trace of 0.9 are errors, not clipped or renormalised away. The message
    gives plain floats, such as "smallest 0.15, sums 0.9 to 1.0"."""
    dg = nonmoral.demoralize(oracles.moral_triangle())
    with pytest.raises(NumericalError, match=re.escape(f"smallest {min(diag)}, sums ")):
        nonmoral.natural_measure([np.eye(4) / 4, np.diag(diag)], dg)   # one state off is enough


def test_sink_block_state_is_stationary():
    """Mass parked on a sink vertex block keeps its natural distribution."""
    g = oracles.premature_graph()
    dg = nonmoral.demoralize(g)
    gen = gksl.build_generator(nonmoral.ngqsw_spec(dg, 1.0))
    rho = nonmoral.block_mixed_state(dg, 3)
    p0 = nonmoral.natural_measure([rho], dg)
    pt = nonmoral.natural_measure(gksl.evolve(gen, rho, [1.0, 10.0]), dg)
    assert np.abs(pt - p0).max() < 1e-9

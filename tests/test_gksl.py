import dataclasses
import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qswlab import cli, gksl, graphs, nonmoral, numkernel
from qswlab.exceptions import (DensityInvariantViolated, DimensionError, NumericalError,
                               ParameterRangeError, TimeGridError)


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_zero_inputs_give_zero_generator():
    gen = gksl.build_generator(gksl.WalkSpec(np.zeros((3, 3)), (), 1.0, 1.0))
    assert gen.s.nnz == 0


def test_generator_matches_direct_rhs():
    """S vec(rho) equals the commutator/dissipator form computed directly."""
    rng = np.random.default_rng(12)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = h + h.conj().T
    l = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = random_density(3, 5)
    gen = gksl.build_generator(gksl.WalkSpec(h, (l,), 1.0, 1.0))
    lhs = (gen.s @ numkernel.vec(rho)).reshape(3, 3)
    ldl = l.conj().T @ l
    rhs = -1j * (h @ rho - rho @ h) + l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_trace_functional_annihilated():
    rng = np.random.default_rng(2)
    l = rng.standard_normal((4, 4))
    gen = gksl.build_generator(gksl.WalkSpec(np.diag([1.0, 2, 3, 4]), (l,), 0.7, 0.3))
    tr = numkernel.vec(np.eye(4))
    assert np.abs(tr @ gen.s.toarray()).max() < 1e-9


def _per_lindblad_generator(h, lindblads, ham_weight, diss_weight):
    """Reference assembly: three Kronecker products per Lindblad, added one
    term at a time."""
    h = sp.csr_matrix(h, dtype=complex)
    n = h.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    s = sp.csr_matrix((n * n, n * n), dtype=complex)
    if ham_weight > 0:
        s = s + ham_weight * (-1j) * (sp.kron(h, eye) - sp.kron(eye, h.conj()))
    if diss_weight > 0:
        for l in lindblads:
            l = sp.csr_matrix(l, dtype=complex)
            ldl = (l.conj().T @ l).tocsr()
            s = s + diss_weight * (sp.kron(l, l.conj()) - 0.5 * sp.kron(ldl, eye)
                                   - 0.5 * sp.kron(eye, ldl.T))
    return sp.csr_matrix(s)


def _generator_fixtures():
    tri = graphs.DiGraph(5, frozenset({(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)}))
    yield pytest.param(gksl.lqsw_spec(tri, 0.4), id="LQSW")
    yield pytest.param(gksl.gqsw_spec(graphs.to_digraph(graphs.star(5)), 0.7), id="GQSW")
    for g in (oracles.premature_graph(), graphs.to_digraph(graphs.path(5))):
        yield pytest.param(nonmoral.ngqsw_spec(nonmoral.demoralize(g), 0.4), id="NGQSW")
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(5)))
    yield pytest.param(gksl.WalkSpec(nonmoral.standard_hamiltonian(dg),
                                     nonmoral.symmetrized_path_lindblads(dg), 1.0, 0.5),
                       id="NGQSW")
    yield pytest.param(gksl.lqsw_spec(tri, 0.0), id="no-dissipation")
    yield pytest.param(gksl.lqsw_spec(tri, 1.0), id="no-hamiltonian")
    yield pytest.param(gksl.WalkSpec(nonmoral.standard_hamiltonian(dg), (), 0.8, 0.5),
                       id="no-lindblads")
    rng = np.random.default_rng(21)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ls = [(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
          * (rng.random((6, 6)) < 0.5) / 2 for _ in range(3)]
    yield pytest.param(gksl.WalkSpec((x + x.conj().T) / 2, tuple(ls), 0.6, 0.9),
                       id="random-complex")


@pytest.mark.parametrize("spec", list(_generator_fixtures()))
def test_build_generator_matches_per_lindblad_assembly(spec):
    got = gksl.build_generator(spec).s
    want = _per_lindblad_generator(spec.hamiltonian, spec.lindblads,
                                   spec.ham_weight, spec.diss_weight)
    assert abs(got - want).max() <= 1e-14
    assert got.nnz <= want.nnz


def test_build_generator_folds_large_jump_terms_one_lindblad_at_a_time(monkeypatch):
    """Each of the two symmetrized Lindblads of the length-61 walk has 472
    entries, and its 472^2 jump terms outnumber the entries of S before
    them, so each is folded into S on its own: one buffer of both raised
    the peak memory of the build by about 10 MB."""
    folds = []
    real = gksl._from_entries
    monkeypatch.setattr(gksl, "_from_entries", lambda entries, shape: folds.append(
        (shape, [rows.size for rows, _, _ in entries])) or real(entries, shape))
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(61)))
    gksl.build_generator(nonmoral.ngqsw_spec(dg, 0.5, nonmoral.symmetrized_path_lindblads(dg)))
    assert [sizes for shape, sizes in folds if shape == (14400, 14400)] == [[472 ** 2]] * 2


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("field", ["ham_weight", "diss_weight"])
def test_build_generator_rejects_bad_weights(field, weight):
    spec = dataclasses.replace(gksl.lqsw_spec(graphs.to_digraph(graphs.path(3)), 0.5),
                               **{field: weight})
    with pytest.raises(ParameterRangeError, match=field):
        gksl.build_generator(spec)


@pytest.mark.parametrize("omega", [np.nan, -0.1, 1.5, np.inf])
def test_walk_specs_reject_omega_outside_unit_interval(omega):
    g = graphs.to_digraph(graphs.path(3))
    dg = nonmoral.demoralize(g)
    for make in (lambda: gksl.lqsw_spec(g, omega), lambda: gksl.gqsw_spec(g, omega),
                 lambda: nonmoral.ngqsw_spec(dg, omega)):
        with pytest.raises(ParameterRangeError):
            make()


def test_generator_spectrum_left_half_plane():
    g = graphs.to_digraph(graphs.path(4))
    for omega in (0.0, 0.4, 1.0):
        gen = gksl.build_generator(gksl.lqsw_spec(g, omega))
        lam = numkernel.eig_general(gen.s)
        assert lam.real.max() <= 1e-9


def test_lqsw_directed_p2_stationary():
    g = graphs.DiGraph(2, frozenset({(0, 1)}))
    gen = gksl.build_generator(gksl.lqsw_spec(g, 1.0))
    rho = gksl.evolve(gen, oracles.pure_state(2, 0), [60.0])[0]
    assert np.abs(rho - np.diag([0.0, 1.0])).max() < 1e-9


def test_lqsw_omega1_matches_classical_rates():
    """Fully dissipative local walk moves probability like the rate matrix."""
    g = graphs.path(5)
    gen = gksl.build_generator(gksl.lqsw_spec(graphs.to_digraph(g), 1.0))
    p0 = np.zeros(5)
    p0[2] = 1.0
    t = 1.3
    rho = gksl.evolve(gen, np.diag(p0).astype(complex), [t])[0]
    want = scipy.linalg.expm(-t * graphs.laplacian(g)) @ p0
    assert np.abs(oracles.measure(rho) - want).max() < 1e-9


def test_evolve_t0_identity():
    rho = random_density(4, 8)
    gen = gksl.build_generator(gksl.WalkSpec(np.eye(4), (), 1.0, 0.0))
    assert np.abs(gksl.evolve(gen, rho, [0.0])[0] - rho).max() < 1e-12


def test_evolve_rejects_bad_dimension():
    gen = gksl.build_generator(gksl.WalkSpec(np.eye(3), (), 1.0, 0.0))
    with pytest.raises(DimensionError):
        gksl.evolve(gen, random_density(4, 0), [1.0])


def test_moral_triangle_closed_form():
    gen = gksl.build_generator(gksl.gqsw_spec(oracles.moral_triangle(), 1.0))
    times = [0.5, 1.0, 3.0]
    for t, rho in zip(times, gksl.evolve(gen, oracles.pure_state(3, 0), times)):
        want = np.array([
            [0.25 * (np.exp(-t) + 1) ** 2, 0.25 * (np.exp(-2 * t) - 1), 0],
            [0.25 * (np.exp(-2 * t) - 1), 0.25 * (np.exp(-t) - 1) ** 2, 0],
            [0, 0, np.exp(-t) * np.sinh(t)],
        ])
        assert np.abs(rho - want).max() < 1e-9


def test_ctqw_pure_state_consistency():
    g = graphs.path(6)
    gen = gksl.build_generator(gksl.WalkSpec(graphs.arc_matrix(g), (), 1.0, 0.0))
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    t = 2.7
    psi = oracles.unitary_apply(graphs.adjacency(g), psi0, t)
    rho = gksl.evolve(gen, np.outer(psi0, psi0.conj()), [t])[0]
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-9


def test_semigroup_property():
    g = graphs.to_digraph(graphs.star(4))
    gen = gksl.build_generator(gksl.gqsw_spec(g, 0.3))
    rho = random_density(4, 3)
    one = gksl.evolve(gen, rho, [2.5])[0]
    two = gksl.evolve(gen, gksl.evolve(gen, rho, [1.0])[0], [1.5])[0]
    assert np.abs(one - two).max() < 1e-8


def _grid_fixture(model):
    if model == "lqsw":
        g = graphs.DiGraph(5, frozenset({(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)}))
        return gksl.build_generator(gksl.lqsw_spec(g, 0.4)), random_density(5, 3)
    if model == "gqsw":
        g = graphs.to_digraph(graphs.path(8))
        return gksl.build_generator(gksl.gqsw_spec(g, 0.5)), oracles.pure_state(8, 3)
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(7)))
    spec = nonmoral.ngqsw_spec(dg, 0.5, nonmoral.symmetrized_path_lindblads(dg))
    return gksl.build_generator(spec), nonmoral.block_mixed_state(dg, 3)


GRID_SHAPES = [
    [0.5, 1.0, 1.5, 2.0],      # aligned: multiples of the step
    [0.7, 1.2, 1.7],           # unaligned first time
    [200.0, 200.5, 201.0],     # late short grid, where scipy's start > 0 fails
    [0.0, 1.0, 3.0],           # uneven steps
    [0.7, 0.8, 5.0],           # uneven steps, off 0
]


@pytest.mark.parametrize("model", ["lqsw", "gqsw", "ngqsw"])
@pytest.mark.parametrize("times", GRID_SHAPES)
def test_evolve_grid_matches_single_calls(model, times):
    gen, rho0 = _grid_fixture(model)
    rhos = gksl.evolve(gen, rho0, np.array(times))
    assert rhos.shape == (len(times), gen.dim, gen.dim)
    for rho, t in zip(rhos, times):
        assert np.abs(rho - gksl.evolve(gen, rho0, [t])[0]).max() < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-10


def test_evolve_returns_unrenormalised_states():
    """evolve is exactly T exp(R t) x0 in the Hermitian basis, with nothing
    symmetrised or renormalised, and it agrees with the complex S."""
    gen, rho0 = _grid_fixture("lqsw")
    form = gen.real
    x0 = (form.basis.conj().T @ numkernel.vec(rho0)).real
    times = np.array([1.0, 2.0, 3.0])
    raw = numkernel.expm_apply(form.matrix, x0, times)
    rhos = gksl.evolve(gen, rho0, times)
    assert np.array_equal(rhos, (form.basis @ raw.T).T.reshape(3, 5, 5))
    assert np.abs(rhos - oracles.evolve_complex(gen, rho0, times)).max() < 1e-13
    one = numkernel.expm_apply(form.matrix, x0, [2.0])
    rho = gksl.evolve(gen, rho0, [2.0])
    assert np.array_equal(rho, (form.basis @ one.T).T.reshape(1, 5, 5))
    assert np.abs(rho - oracles.evolve_complex(gen, rho0, [2.0])).max() < 1e-13


@pytest.mark.parametrize("model", ["lqsw", "gqsw", "ngqsw"])
@pytest.mark.parametrize("times", GRID_SHAPES)
def test_evolve_matches_complex_oracle(model, times):
    gen, rho0 = _grid_fixture(model)
    want = oracles.evolve_complex(gen, rho0, np.array(times))
    got = gksl.evolve(gen, rho0, np.array(times))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(deadline=None, max_examples=30)
@given(oracles.walk_generators(), st.integers(0, 10**6),
       st.sampled_from([0.0, 0.3, 1.0, 7.0]))
# entries near the float minimum in S, which overflowed scipy's 1-norm estimate
@example(gksl.build_generator(nonmoral.ngqsw_spec(
    nonmoral.demoralize(graphs.to_digraph(graphs.complete(4))), 1e-300)), 0, 7.0)
def test_evolve_matches_complex_oracle_on_random_walks(gen, seed, t):
    rho0 = random_density(gen.dim, seed)
    want = oracles.evolve_complex(gen, rho0, [t])[0]
    got = gksl.evolve(gen, rho0, [t])[0]
    assert np.array_equal(got, got.conj().T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_evolve_rejects_non_hermitian_initial_state():
    gen, rho0 = _grid_fixture("lqsw")
    rho0 = rho0.copy()
    rho0[0, 1] += 1e-6
    with pytest.raises(ParameterRangeError, match="not Hermitian") as info:
        gksl.evolve(gen, rho0, [1.0])
    assert not isinstance(info.value, NumericalError)


def test_non_hermitian_hamiltonian_is_rejected():
    """build_generator refuses H != H^H, and evolve refuses the generator of
    -i[H, rho] for such an H, which does not preserve Hermiticity."""
    h = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(NumericalError, match="not Hermitian"):
        gksl.build_generator(gksl.WalkSpec(h, (), 1.0, 0.0))
    eye = np.eye(3)
    s = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gen = gksl.EvolutionGenerator(s=sp.csr_matrix(s), dim=3)
    with pytest.raises(NumericalError, match="Hermiticity"):
        gksl.evolve(gen, oracles.pure_state(3, 0), [1.0])


def _path_walk(length, omega, lindblads="symmetrized"):
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(length)))
    lbs = nonmoral.symmetrized_path_lindblads(dg) if lindblads == "symmetrized" else None
    return dg, nonmoral.ngqsw_spec(dg, omega, lbs)


def _expm_logged(caplog, run, *args):
    """run(*args), and the evolved coordinates and the coordinate count n
    of the one expm_apply call it makes, read from that call's DEBUG
    record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qswlab.numkernel"):
        got = run(*args)
    (record,) = caplog.records
    return got, record.args[-2:]


@pytest.mark.parametrize("length", [7, 31, 61])
@pytest.mark.parametrize("omega", [0.3, 0.5, 0.8])
def test_evolve_on_the_reflection_sector_matches_the_unreduced_evolution(caplog, length,
                                                                          omega):
    """From the centre of an odd path, the walk evolved in the reflection's
    basis (oracles.reflected_evolution) agrees with the plain evolution to
    1e-13 in every state, and so do the profiles of propagate's route,
    cli._ngqsw_path_profiles. expm_apply evolves only the start's part of
    the split real form: 3,661 of the 14,400 coordinates at length 61."""
    dg, spec = _path_walk(length, omega)
    rho0 = nonmoral.block_mixed_state(dg, (length - 1) // 2)
    times = np.arange(5.0, 31.0, 5.0)
    got, (evolved, n) = _expm_logged(caplog, oracles.reflected_evolution, dg, spec, rho0, times)
    assert n == dg.dim ** 2 and 2 * evolved < n
    if length == 61:
        assert (evolved, n) == (3661, 14400)
    want = gksl.evolve(gksl.build_generator(spec), rho0, times)
    assert np.abs(got - want).max() <= 1e-13
    profiles, _ = cli._ngqsw_path_profiles(length, (length - 1) // 2, omega, times)
    assert np.abs(profiles - nonmoral.natural_measure(want, dg)).max() <= 1e-13


@pytest.mark.parametrize("length", [2, 3])
def test_evolve_of_short_centred_path_walks_matches_dense_expm(length):
    """Centred ngqsw walks on paths of length 2 and 3 stay within
    1e-13 ||rho0||_F of a dense expm(t S), in the Frobenius norm, over
    t = 1...40. Their Krylov spaces become invariant to rounding within a
    few vectors, and taking such a space as exact must cost no more than
    the error allowance over the grid, whatever the step."""
    dg, spec = _path_walk(length, 0.5)
    gen = gksl.build_generator(spec)
    rho0 = nonmoral.block_mixed_state(dg, (length - 1) // 2)
    times = np.arange(1.0, 41.0)
    got = gksl.evolve(gen, rho0, times)
    s = gen.s.toarray()
    for t, rho in zip(times, got):
        ref = (scipy.linalg.expm(t * s) @ numkernel.vec(rho0)).reshape(rho.shape)
        assert np.linalg.norm(rho - ref) <= 1e-13 * np.linalg.norm(rho0), t


@pytest.mark.parametrize("length, start, lindblads", [
    (60, 29, "symmetrized"),   # even: no vertex is the centre
    (31, 10, "symmetrized"),   # off-centre start
    (31, 15, "fourier"),       # the Fourier Lindblad drifts to one side
])
def test_evolve_runs_unreduced_when_the_start_is_not_fixed(caplog, length, start, lindblads):
    """evolve hands expm_apply the whole real form: all dim^2 coordinates."""
    dg, spec = _path_walk(length, 0.5, lindblads)
    gen = gksl.build_generator(spec)
    rho0 = nonmoral.block_mixed_state(dg, start)
    _, (_, n) = _expm_logged(caplog, gksl.evolve, gen, rho0, np.arange(5.0, 31.0, 5.0))
    assert n == gen.dim ** 2


def test_evolve_rejects_bad_grids():
    gen, rho0 = _grid_fixture("gqsw")
    for times in ([1.0, 1.0], [2.0, 1.0], [-1.0], [np.inf], [], 1.0):
        with pytest.raises(TimeGridError):
            gksl.evolve(gen, rho0, np.array(times))


def test_measure_examples():
    assert np.array_equal(oracles.measure(oracles.pure_state(4, 2)), np.eye(4)[2])
    assert np.allclose(oracles.measure(np.eye(5, dtype=complex) / 5), 0.2)


@pytest.mark.parametrize("diag", [[0.5, 0.501, -1e-3], [0.3, 0.3, 0.3]])
def test_measure_rejects_non_distribution(diag):
    """A negative diagonal entry or a trace of 0.9 is an error, not clipped
    or renormalised away."""
    with pytest.raises(NumericalError):
        oracles.measure(np.diag(diag).astype(complex))


def test_check_density_rejects():
    with pytest.raises(DensityInvariantViolated):
        gksl.check_density(np.diag([0.6, 0.6]))
    with pytest.raises(DensityInvariantViolated):
        gksl.check_density(np.array([[1.0, 0.5], [0.0, 0.0]]))
    # NaN fails every comparison, so each check is written to fail on it
    for bad in (np.diag([np.nan, 1.0]), np.diag([0.5, 0.5]) + np.nan * np.eye(2)[::-1]):
        with pytest.raises(DensityInvariantViolated):
            gksl.check_density(bad)


@pytest.mark.parametrize("n, k", [(3, -1), (3, 3), (3, 1.0), (0, 0)])
def test_pure_state_rejects_a_label_off_the_graph(n, k):
    """-1 would wrap round to the last vertex and 3 raised IndexError."""
    with pytest.raises(ParameterRangeError, match="vertex must be an integer"):
        oracles.pure_state(n, k)


def test_gqsw_spectrum_formula_cross_check():
    g = graphs.path(5)
    for omega in (0.3, 1.0):
        lam_f = oracles.gqsw_spectrum_commuting(g, omega)
        gen = gksl.build_generator(gksl.gqsw_spec(graphs.to_digraph(g), omega))
        lam_d = numkernel.eig_general(gen.s)
        dev = max(np.abs(lam_d - x).min() for x in lam_f)
        assert dev < 1e-7
    assert np.abs(oracles.gqsw_spectrum_commuting(g, 1.0).imag).max() < 1e-12


def test_gqsw_spectrum_has_stationary_directions():
    """lambda_ii = 0 in the closed form, so the generator has at least n
    zero eigenvalues, one stationary direction per adjacency eigenvector."""
    g = graphs.complete(4)
    lam = oracles.gqsw_spectrum_commuting(g, 0.5)
    assert np.abs(np.diagonal(lam.reshape(4, 4))).max() < 1e-12
    gen = gksl.build_generator(gksl.gqsw_spec(graphs.to_digraph(g), 0.5))
    zeros = np.count_nonzero(np.abs(numkernel.eig_general(gen.s)) < 1e-9)
    assert zeros == np.count_nonzero(np.abs(lam) < 1e-9) >= 4


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(0, 10**6),
       st.sampled_from([0.1, 1.0, 10.0]), st.floats(0.0, 1.0))
def test_trace_and_positivity_preserved(n, seed, t, omega):
    g = graphs.gen_er(n, 0.6, seed, directed=True)
    gen = gksl.build_generator(gksl.lqsw_spec(g, omega))
    rho = gksl.evolve(gen, random_density(n, seed), [t])[0]
    assert abs(np.trace(rho) - 1.0) < 1e-9
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-7

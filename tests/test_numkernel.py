import ctypes
import logging
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qswlab import cli, gksl, graphs, nonmoral, numkernel
from qswlab.exceptions import DimensionError, NumericalError, TimeGridError


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.conj().T


def test_vec_is_row_major():
    b = np.array([[1, 2], [3, 4]])
    assert np.array_equal(numkernel.vec(b), [1, 2, 3, 4])


def test_vec_of_product_identity():
    """vec(A B C) = (A kron C^T) vec(B) under the row-major convention."""
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
    lhs = numkernel.vec(a @ b @ c)
    rhs = oracles.kron(a, c.T) @ numkernel.vec(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_check_hermitian_accepts_and_rejects():
    bad = random_hermitian(5, 0)
    bad[0, 1] += 1e-6
    for form in (np.asarray, sp.csr_matrix):
        good = form(random_hermitian(5, 0))
        assert numkernel.check_hermitian(good) is good
        with pytest.raises(NumericalError):
            numkernel.check_hermitian(form(bad))
        with pytest.raises(DimensionError):
            numkernel.check_hermitian(form(np.zeros((2, 3))))


def test_eig_hermitian_ascending_and_reconstructs():
    h = random_hermitian(6, 1)
    values, vectors = numkernel.eig_hermitian(h)
    assert np.all(np.diff(values) >= 0)
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-10


def test_eig_general_known_spectrum():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lam = np.sort_complex(numkernel.eig_general(m))
    assert np.allclose(lam, [-1j, 1j])


def test_eig_general_accepts_sparse():
    m = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(numkernel.eig_general(m).real), [1, 2, 3])


def _expm_cases():
    """name -> (m, v, t) for the dense-expm comparisons."""
    rng = np.random.default_rng(7)
    random = (rng.standard_normal((8, 8)), rng.standard_normal(8), 1.7)
    upper = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    sparse = sp.random(80, 80, density=0.05, random_state=11, format="csr")
    return {
        "random": random,
        "complex non-normal": (upper / 3 - 2 * np.eye(12), rng.standard_normal(12) + 1j, 1.5),
        "jordan": (-np.eye(4) + np.eye(4, k=1), np.ones(4), 2.0),
        "stiff diagonal": (np.diag(-np.geomspace(1e-3, 1e3, 40)), rng.standard_normal(40), 50.0),
        # n = 80 > KRYLOV_DIM, so the space restarts
        "sparse n=80": ((sparse - sparse.T + 0.3 * sparse).toarray() - 0.5 * np.eye(80),
                        rng.standard_normal(80), 3.0),
    }


def test_expm_apply_matches_dense_expm():
    for name, (m, v, t) in _expm_cases().items():
        want = scipy.linalg.expm(t * m) @ v
        got = numkernel.expm_apply(m, v, [t])[0]
        assert np.abs(got - want).max() < 1e-9, name
        got_sp = numkernel.expm_apply(sp.csr_matrix(m), v, [t])[0]
        assert np.abs(got_sp - want).max() < 1e-9, name
        assert got.dtype == got_sp.dtype == np.result_type(m, v), name


def test_expm_apply_ngqsw_long_grid_matches_taylor():
    """The length-31 ngqsw generator over 20 grid times, against scipy's
    Taylor expm_multiply over the same grid anchored at 0."""
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(31)))
    gen = gksl.build_generator(nonmoral.ngqsw_spec(dg, 0.5, nonmoral.symmetrized_path_lindblads(dg)))
    form = gen.real
    x0 = (form.basis.conj().T @ nonmoral.block_mixed_state(dg, 15).reshape(-1)).real
    times = np.arange(30.0, 601.0, 30.0)
    got = numkernel.expm_apply(form.matrix, x0, times)
    assert got.shape == (20, x0.size) and got.dtype == np.float64
    taylor = scipy.sparse.linalg.expm_multiply(form.matrix, x0, start=0.0, stop=600.0,
                                               num=21, endpoint=True)[1:]
    for row, want in zip(got, taylor):
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("where", ["matrix", "sparse matrix", "vector"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_expm_apply_rejects_non_finite_input(where, value):
    m, v = -np.eye(3) + np.eye(3, k=1), np.ones(3)
    if where == "vector":
        v[1] = value
    else:
        m[0, 2] = value
    if where == "sparse matrix":
        m = sp.csr_matrix(m)
    with pytest.raises(NumericalError, match="finite"):
        numkernel.expm_apply(m, v, [1.0])


@pytest.mark.parametrize("m, v, t", [
    ([[1000.0]], [1.0], 10.0),                           # exp(10^4) overflows
    ([[0.0, -1.0], [1.0, 0.0]], [1.5e308, 1.5e308], 1.0),  # ||v|| overflows
], ids=["exp", "norm"])
def test_expm_apply_raises_when_the_state_leaves_the_float_range(m, v, t):
    with pytest.raises(NumericalError, match="float range"):
        numkernel.expm_apply(np.array(m), np.array(v), [t])


@pytest.mark.parametrize("scale", [1e300, 1e-170], ids=["overflow", "underflow"])
def test_expm_apply_rotates_a_vector_whose_squares_leave_the_float_range(scale):
    """||v||^2 of these vectors overflows or underflows to 0, but ||v||
    is a float, so the rotation by 1 radian returns (cos 1, sin 1) v0."""
    got = numkernel.expm_apply(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([scale, 0.0]),
                               [1.0])[0]
    assert np.allclose(got, scale * np.array([np.cos(1.0), np.sin(1.0)]), rtol=1e-15, atol=0.0)


def test_expm_apply_takes_a_subnormal_grid():
    """t_last = 5e-324 sizes every step by tau / t_last, a ratio that cannot
    overflow, with no RuntimeWarning under the suite's warnings-as-errors."""
    for name, (m, v, _) in _expm_cases().items():
        got = numkernel.expm_apply(m, v, [5e-324])[0]
        assert np.allclose(got, v, rtol=1e-15, atol=0.0), name


def test_expm_apply_raises_when_no_step_meets_the_estimate():
    m = sp.random(40, 40, density=0.2, random_state=4, format="csr") * 1e150
    with pytest.raises(NumericalError, match="no Krylov step"):
        numkernel.expm_apply(m, np.ones(40), [1.0])


def test_expm_apply_halves_when_the_estimate_is_nan(monkeypatch):
    """A NaN estimate gives no Expokit shrink factor, so each failed trial
    halves tau: from 1 down to 2^-52 = eps, 53 trials, and then the step
    falls below its floor ulp(1) = eps and raises instead of looping."""
    calls = []

    def nan_error(*args):
        calls.append(args)
        assert len(calls) <= 1000, "the step loops on a NaN estimate"
        return float("nan")

    monkeypatch.setattr(numkernel, "_expokit_error", nan_error)
    m, v, _ = _expm_cases()["sparse n=80"]
    with pytest.raises(NumericalError, match="no Krylov step"):
        numkernel.expm_apply(sp.csr_matrix(m), v, [1.0])
    assert len(calls) == 53


def test_expm_apply_shrinks_rejected_steps_in_few_trials(monkeypatch):
    """The length-61 ngqsw walk over t = 30, 60, ..., 600 takes at most 500
    small dense expm trials, where halving plus four geometric bisections
    took 657."""
    calls = []
    real = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or real(a))
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(61)))
    gen = gksl.build_generator(nonmoral.ngqsw_spec(dg, 0.5, nonmoral.symmetrized_path_lindblads(dg)))
    gksl.evolve(gen, nonmoral.block_mixed_state(dg, 30), np.arange(30.0, 601.0, 30.0))
    assert 0 < len(calls) <= 500


def test_expm_apply_logs_one_debug_record(caplog):
    m, v, _ = _expm_cases()["sparse n=80"]
    with caplog.at_level(logging.DEBUG, logger="qswlab.numkernel"):
        numkernel.expm_apply(sp.csr_matrix(m), v, [1.0, 2.0, 3.0])
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    matvecs, steps, rejected, largest, evolved, n = record.args
    assert steps >= 3 and matvecs == steps * (numkernel.KRYLOV_DIM + 1)
    assert rejected >= 0 and 0.0 <= largest <= numkernel.EXPM_RTOL * np.linalg.norm(v)
    assert evolved == n == 80


def _centred_walk_record(caplog, length, times, rotated):
    """The DEBUG record of expm_apply for the ngqsw walk on a path from the
    vertex (length - 1) // 2, evolved by propagate's route
    (cli._ngqsw_path_profiles) or, if not rotated, by gksl.evolve in the
    basis of copies."""
    start = (length - 1) // 2
    with caplog.at_level(logging.DEBUG, logger="qswlab.numkernel"):
        if rotated:
            cli._ngqsw_path_profiles(length, start, 0.5, times)
        else:
            dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(length)))
            spec = nonmoral.ngqsw_spec(dg, 0.5, nonmoral.symmetrized_path_lindblads(dg))
            gksl.evolve(gksl.build_generator(spec), nonmoral.block_mixed_state(dg, start), times)
    (record,) = caplog.records
    return record.args


BENCHMARK_GRID = np.arange(5.0, 31.0, 5.0)


def test_expm_apply_evolves_one_block_of_the_ngqsw_benchmark_walk(caplog):
    """propagate evolves the length-61 walk from its centre in the
    reflection's basis, where the real form splits by parity and again
    within the start's class: only the start's 3,661 of the 14,400
    coordinates are evolved, in 310 matvecs over t = 5...30."""
    matvecs, steps, _, _, evolved, n = _centred_walk_record(caplog, 61, BENCHMARK_GRID, True)
    assert (evolved, n) == (3661, 14400)
    assert (matvecs, steps) == (310, 10)


def test_expm_apply_evolves_one_block_of_the_unreduced_ngqsw_benchmark_walk(caplog):
    """In the basis of copies, the real form of the same generator splits
    into two blocks that share no nonzero, and the start lies in the first:
    only its 7,260 of the 14,400 coordinates are evolved, in 310 matvecs."""
    matvecs, steps, _, _, evolved, n = _centred_walk_record(caplog, 61, BENCHMARK_GRID, False)
    assert (evolved, n) == (7260, 14400)
    assert (matvecs, steps) == (310, 10)


@pytest.mark.parametrize("length, evolved, n", [
    (60, 7021, 13924),    # even: not rotated, the path's sublattices stay apart
    (121, 14521, 57600),  # propagate's default length
])
def test_propagate_route_evolves_the_start_block(caplog, length, evolved, n):
    """An even length is evolved in the basis of copies, since the
    reflection would mix the path's two sublattices, which the walk keeps
    apart; the default odd length is rotated. The evolved block does not
    depend on the grid."""
    assert _centred_walk_record(caplog, length, [1.0], True)[-2:] == (evolved, n)


def _interleaved_blocks():
    """A 15 x 15 complex m that is block diagonal over three blocks of 5, 6
    and 4 coordinates, interleaved by a permutation, and the blocks'
    coordinates. The first block couples only through purely imaginary
    entries, so a pattern read from the real part of m would split it."""
    rng = np.random.default_rng(12)
    imaginary = 1j * rng.standard_normal((5, 5)) - np.eye(5)
    real = rng.standard_normal((6, 6))
    general = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = scipy.linalg.block_diag(imaginary, real, general)
    perm = rng.permutation(15)
    inv = np.argsort(perm)
    return m[np.ix_(perm, perm)], [inv[:5], inv[5:11], inv[11:]]


@pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
@pytest.mark.parametrize("touched", [[0], [0, 2]])
def test_expm_apply_evolves_each_touched_block_alone(form, touched):
    """v holds one nonzero in each touched block. Each touched block
    evolves as its own dense expm; every entry of an untouched block is
    exactly 0."""
    m, blocks = _interleaved_blocks()
    v = np.zeros(15, dtype=complex)
    for b in touched:
        v[blocks[b][0]] = 1.0 - 0.5j
    times = [0.5, 1.0, 1.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a cast of m
        grid = numkernel.expm_apply(form(m), v, times)
        one = numkernel.expm_apply(form(m), v, times[-1:])
    assert grid.shape == (3, 15) and one.shape == (1, 15)
    for row, t in zip([*grid, *one], [*times, times[-1]]):
        for b, idx in enumerate(blocks):
            if b in touched:
                want = scipy.linalg.expm(t * m[np.ix_(idx, idx)]) @ v[idx]
                assert np.abs(row[idx] - want).max() < 1e-9
            else:
                assert np.all(row[idx] == 0.0)


@pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
def test_expm_apply_zero_vector_gives_zeros(form):
    connected = _expm_cases()["random"][0]
    for m in (_interleaved_blocks()[0], connected):
        n = m.shape[0]
        v = np.zeros(n)
        assert np.array_equal(numkernel.expm_apply(form(m), v, [2.0]), np.zeros((1, n)))
        assert np.array_equal(numkernel.expm_apply(form(m), v, [1.0, 2.0]), np.zeros((2, n)))


def test_expm_apply_t_zero_copies():
    v = np.ones(4)
    out = numkernel.expm_apply(np.eye(4), v, [0.0])
    assert np.array_equal(out, [v]) and not np.shares_memory(out, v)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_check_hermitian_rejects_non_finite(value):
    bad = random_hermitian(4, 1)
    bad[2, 2] = value
    for form in (np.asarray, sp.csr_matrix):
        with pytest.raises(NumericalError, match="non-finite"):
            numkernel.check_hermitian(form(bad))
    with pytest.raises(NumericalError):
        numkernel.eig_hermitian(bad)


@pytest.mark.parametrize("times", [
    [0.0, 0.5, 1.0, 1.5],     # from 0
    [1.0, 1.5, 2.0],          # first time a multiple of the step
    [0.7, 1.2, 1.7],          # first time off the step lattice
    [200.0, 200.5, 201.0],    # late and short: scipy's start > 0 fails here
    [0.0, 1.0, 3.0],          # uneven steps
    [0.7, 0.8, 5.0],          # uneven steps, off 0
])
def test_expm_apply_grid_matches_dense_expm(times):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 6))
    m = (x - x.T) / 2        # exp(t m) is orthogonal, so late states stay O(1)
    v = rng.standard_normal(6)
    for a in (m, sp.csr_matrix(m)):
        got = numkernel.expm_apply(a, v, np.array(times))
        assert got.shape == (len(times), 6)
        for row, t in zip(got, times):
            want = scipy.linalg.expm(t * m) @ v
            assert np.abs(row - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_expm_apply_one_point_grid_has_one_row():
    """There is no scalar form: a single time is the grid [t], and a bare
    scalar is refused."""
    rng = np.random.default_rng(9)
    m, v = rng.standard_normal((5, 5)), rng.standard_normal(5)
    grid = numkernel.expm_apply(m, v, [1.3])
    assert grid.shape == (1, 5)
    assert np.abs(grid[0] - scipy.linalg.expm(1.3 * m) @ v).max() < 1e-10
    with pytest.raises(TimeGridError):
        numkernel.expm_apply(m, v, 1.3)


@pytest.mark.parametrize("times", [
    [1.0, 0.5],                # descending
    [0.0, 2.0, 1.0],           # ascends, then descends
    [1.0, 1.0],                # zero step
    [-1.0, 0.0],               # negative
    [0.0, np.nan],             # non-finite
    [],                        # empty
    [[0.0, 1.0]],              # not 1-D
    1.0,                       # a scalar
])
def test_expm_apply_rejects_bad_grids(times):
    with pytest.raises(TimeGridError):
        numkernel.expm_apply(np.eye(3), np.ones(3), np.array(times))


def test_check_times_is_the_one_grid_rule():
    assert numkernel.check_times([0, 1, 2.5]).dtype == np.float64
    assert np.array_equal(numkernel.check_times((3.0,)), [3.0])
    for bad in (2.0, [], [[0.0, 1.0]], [-1.0, 0.0], [0.0, np.nan], [0.0, np.inf],
                [1.0, 1.0], [2.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(TimeGridError, match="strictly ascending"):
            numkernel.check_times(bad)


@pytest.mark.parametrize("start, step", [(30.0, 30.0), (0.0, 0.1), (1e6, 1e-6)])
def test_expm_apply_accepts_rounded_arange_grids(start, step):
    times = np.arange(start, start + 52.5 * step, step)
    out = numkernel.expm_apply(np.zeros((2, 2)), np.ones(2), times)
    assert np.array_equal(out, np.ones((times.size, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_basis_is_unitary_onto_hermitian_matrices(n):
    t = numkernel.hermitian_basis(n)
    assert t.shape == (n * n, n * n)
    dense = t.toarray()
    assert np.abs(dense.conj().T @ dense - np.eye(n * n)).max() < 1e-15
    for col in dense.T:
        b = col.reshape(n, n)
        assert np.array_equal(b, b.conj().T)
    # Hermitian input has real coordinates in the basis
    h = random_hermitian(n, n)
    coords = t.conj().T @ numkernel.vec(h)
    assert np.abs(coords.imag).max() < 1e-14
    assert np.abs(t @ coords.real - numkernel.vec(h)).max() < 1e-13


RANK_ONE_CASES = [
    (np.array([3.0]), np.array([0.5])),
    (np.array([0.2, -1.0]), np.array([0.6, -0.8])),
    (np.random.default_rng(1).standard_normal(40), np.random.default_rng(2).standard_normal(40)),
    # repeated poles, a zero weight and an all-equal block
    (np.array([1.0, 1.0, 1.0, -2.0, 0.5, 0.5, 4.0]),
     np.array([0.3, -0.4, 0.2, 0.0, 0.5, 0.1, -0.6])),
    (np.zeros(6), np.full(6, 1 / np.sqrt(6))),
]


@pytest.mark.parametrize("d, z", RANK_ONE_CASES)
def test_rank_one_eig_matches_dense(d, z):
    m = np.diag(d) + np.outer(z, z)
    full, scale = np.linalg.eigvalsh(m), np.abs(m).max()
    rng = np.random.default_rng(3)
    real = rng.standard_normal(d.size)
    for x in (real, real + 1j * rng.standard_normal(d.size)):
        values, weights = numkernel.rank_one_eig(d, z, z * x)
        assert np.all(np.diff(values) > 0)
        assert weights.shape == values.shape
        # each kept eigenvalue is an eigenvalue of M
        assert all(np.abs(full - mu).min() < 1e-13 * scale for mu in values)
        oracles.assert_spectral_weights(d, z, x, values, weights)


def test_rank_one_eig_deflates():
    d = np.array([2.0, 1.0, 2.0 + 1e-17, 0.0, 1.0])
    z = np.array([0.5, 0.5, 0.5, 1e-18, 0.5])
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    values, weights = numkernel.rank_one_eig(d, z, z * x)
    # the weightless pole is dropped and each pair of equal poles merges
    assert values.size == 2
    oracles.assert_spectral_weights(d, z, x, values, weights)
    # against poles of 1e20 every weight of a unit z is rounding: nothing is left
    values, weights = numkernel.rank_one_eig(np.array([0.0, 1e20, -1e20]),
                                             np.full(3, 1 / np.sqrt(3)), x[:3])
    assert values.size == 0 and weights.size == 0


def test_rank_one_eig_keeps_close_but_distinct_poles():
    # gaps and a weight of 1e-13, well above tol = 8 eps max(|d|, |z|)
    d = np.array([0.0, 1e-13, 1.0, 1.0 + 1e-13, 2.0])
    z = np.array([0.5, 0.5, 0.5, 1e-13, 0.5])
    x = np.array([1.0, -2.0, 0.5j, 4.0, 1.0 + 1.0j])
    values, weights = numkernel.rank_one_eig(d, z, z * x)
    assert values.size == 5
    oracles.assert_spectral_weights(d, z, x, values, weights)


def test_rank_one_eig_rejects_bad_input():
    with pytest.raises(DimensionError):
        numkernel.rank_one_eig(np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionError):
        numkernel.rank_one_eig(np.zeros(3), np.zeros(3), np.zeros(2))
    with pytest.raises(NumericalError):
        numkernel.rank_one_eig(np.array([0.0, np.nan]), np.array([0.6, 0.8]), np.ones(2))
    with pytest.raises(NumericalError):
        numkernel.rank_one_eig(np.array([0.0, 1.0]), np.array([0.6, 0.8]),
                               np.array([1.0, np.inf]))


def test_rank_one_eig_solver_failure_raises(monkeypatch):
    @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)
    def failing(*args):
        ctypes.c_int.from_address(args[12]).value = 7   # INFO

    monkeypatch.setattr(numkernel, "_DLAED9", failing)
    with pytest.raises(NumericalError, match="INFO = 7"):
        numkernel.rank_one_eig(np.arange(4.0), np.full(4, 0.5), np.ones(4))


def test_hermitian_basis_rejects_empty():
    with pytest.raises(DimensionError):
        numkernel.hermitian_basis(0)


def test_unitary_apply_matches_expm():
    h = random_hermitian(5, 2)
    psi = np.random.default_rng(4).standard_normal(5).astype(complex)
    psi /= np.linalg.norm(psi)
    want = scipy.linalg.expm(-1j * 2.3 * h) @ psi
    assert np.abs(oracles.unitary_apply(h, psi, 2.3) - want).max() < 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 10**6), st.floats(0.0, 5.0))
def test_unitary_apply_preserves_norm(n, seed, t):
    h = random_hermitian(n, seed)
    psi = np.random.default_rng(seed + 1).standard_normal(n).astype(complex)
    psi /= np.linalg.norm(psi)
    out = oracles.unitary_apply(h, psi, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10

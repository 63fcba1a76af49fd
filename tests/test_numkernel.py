import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qswlab import numkernel
from qswlab.exceptions import DimensionError, NumericalError, TimeGridError


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.conj().T


def test_vec_is_row_major():
    b = np.array([[1, 2], [3, 4]])
    assert np.array_equal(numkernel.vec(b), [1, 2, 3, 4])


def test_unvec_roundtrip():
    b = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(numkernel.unvec(numkernel.vec(b)), b)


def test_unvec_rejects_non_square_length():
    with pytest.raises(DimensionError):
        numkernel.unvec(np.zeros(5))


def test_vec_of_product_identity():
    """vec(A B C) = (A kron C^T) vec(B) under the row-major convention."""
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
    lhs = numkernel.vec(a @ b @ c)
    rhs = numkernel.kron(a, c.T) @ numkernel.vec(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_check_hermitian_accepts_and_rejects():
    numkernel.check_hermitian(random_hermitian(5, 0))
    bad = random_hermitian(5, 0)
    bad[0, 1] += 1e-6
    with pytest.raises(NumericalError):
        numkernel.check_hermitian(bad)
    with pytest.raises(DimensionError):
        numkernel.check_hermitian(np.zeros((2, 3)))


def test_eig_hermitian_descending_and_reconstructs():
    h = random_hermitian(6, 1)
    es = numkernel.eig_hermitian(h)
    assert np.all(np.diff(es.values) <= 1e-12)
    rebuilt = (es.vectors * es.values) @ es.vectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-10


def test_eig_general_known_spectrum():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lam = np.sort_complex(numkernel.eig_general(m))
    assert np.allclose(lam, [-1j, 1j])


def test_eig_general_accepts_sparse():
    m = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(numkernel.eig_general(m).real), [1, 2, 3])


def test_expm_apply_matches_dense_expm():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    v = rng.standard_normal(8)
    want = scipy.linalg.expm(1.7 * m) @ v
    got = numkernel.expm_apply(m, v, 1.7)
    assert np.abs(got - want).max() < 1e-9
    got_sp = numkernel.expm_apply(sp.csr_matrix(m), v, 1.7)
    assert np.abs(got_sp - want).max() < 1e-9


def test_expm_apply_t_zero_copies():
    v = np.ones(4)
    out = numkernel.expm_apply(np.eye(4), v, 0.0)
    assert np.array_equal(out, v) and out is not v


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_check_hermitian_rejects_non_finite(value):
    bad = random_hermitian(4, 1)
    bad[2, 2] = value
    with pytest.raises(NumericalError, match="non-finite"):
        numkernel.check_hermitian(bad)
    with pytest.raises(NumericalError):
        numkernel.eig_hermitian(bad)


@pytest.mark.parametrize("times", [
    [0.0, 0.5, 1.0, 1.5],     # from 0
    [1.0, 1.5, 2.0],          # first time a multiple of the step
    [0.7, 1.2, 1.7],          # first time off the step lattice
    [200.0, 200.5, 201.0],    # late and short: scipy's start > 0 fails here
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


def test_expm_apply_one_point_grid_is_scalar_form():
    rng = np.random.default_rng(9)
    m, v = rng.standard_normal((5, 5)), rng.standard_normal(5)
    grid = numkernel.expm_apply(m, v, [1.3])
    assert grid.shape == (1, 5)
    assert np.array_equal(grid[0], numkernel.expm_apply(m, v, 1.3))


@pytest.mark.parametrize("times", [
    [1.0, 0.5],                # descending
    [0.0, 1.0, 3.0],           # uneven steps
    [1.0, 1.0],                # zero step
    [-1.0, 0.0],               # negative
    [0.0, np.nan],             # non-finite
    [],                        # empty
    [[0.0, 1.0]],              # not 1-D
])
def test_expm_apply_rejects_bad_grids(times):
    with pytest.raises(TimeGridError):
        numkernel.expm_apply(np.eye(3), np.ones(3), np.array(times))


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
        b = numkernel.unvec(col)
        assert np.array_equal(b, b.conj().T)
    # Hermitian input has real coordinates in the basis
    h = random_hermitian(n, n)
    coords = t.conj().T @ numkernel.vec(h)
    assert np.abs(coords.imag).max() < 1e-14
    assert np.abs(t @ coords.real - numkernel.vec(h)).max() < 1e-13


def test_hermitian_basis_rejects_empty():
    with pytest.raises(DimensionError):
        numkernel.hermitian_basis(0)


def test_unitary_apply_matches_expm():
    h = random_hermitian(5, 2)
    psi = np.random.default_rng(4).standard_normal(5).astype(complex)
    psi /= np.linalg.norm(psi)
    want = scipy.linalg.expm(-1j * 2.3 * h) @ psi
    assert np.abs(numkernel.unitary_apply(h, psi, 2.3) - want).max() < 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 10**6), st.floats(0.0, 5.0))
def test_unitary_apply_preserves_norm(n, seed, t):
    h = random_hermitian(n, seed)
    psi = np.random.default_rng(seed + 1).standard_normal(n).astype(complex)
    psi /= np.linalg.norm(psi)
    out = numkernel.unitary_apply(h, psi, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10

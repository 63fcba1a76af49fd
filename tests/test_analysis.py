import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from scipy import integrate
from scipy.sparse.csgraph import connected_components

import oracles
from qswlab import analysis, gksl, graphs, nonmoral, numkernel
from qswlab.exceptions import (DimensionError, NonPositiveDataError, NumericalError,
                               ParameterRangeError, TimeGridError)


def test_second_moment_basics():
    assert np.array_equal(analysis.second_moment([[1.0]], [0]), [0.0])
    assert np.array_equal(analysis.second_moment([[0.5, 0.5], [0.0, 1.0]], [-1, 1]), [1.0, 1.0])
    with pytest.raises(ParameterRangeError):   # one row off is enough
        analysis.second_moment([[0.5, 0.5], [0.4, 0.4]], [0, 1])
    with pytest.raises(DimensionError):        # a profile, not a stack of them
        analysis.second_moment([0.5, 0.5], [-1, 1])


@pytest.mark.parametrize("p, positions, error", [
    ([np.nan, 1.0], [0, 1], ParameterRangeError),     # returned nan
    ([-1.0, 2.0], [0, 1], ParameterRangeError),       # sums to 1, was accepted
    ([0.5, 0.5], [0, np.inf], ParameterRangeError),
    ([0.5, 0.5], [0, 1, 2], DimensionError),          # numpy's ValueError
    ([], [], DimensionError),
    ([0.5, 0.5], [0, 1e300], NumericalError),         # x^2 overflows
])
def test_second_moment_rejects_bad_input(p, positions, error):
    with pytest.raises(error):
        analysis.second_moment([p], positions)


def test_scaling_exponents_exact_power():
    t = np.linspace(1, 50, 30)
    tr = analysis.scaling_exponents(t, t**2, batch=5)
    assert np.abs(tr.alphas - 2.0).max() < 1e-10
    assert tr.alphas.size == 30 - 5 + 1
    assert tr.alpha_times[0] == (t[0] + t[4]) / 2
    flat = analysis.scaling_exponents(t, np.full(30, 3.0), batch=5)
    assert np.abs(flat.alphas).max() < 1e-10


def test_scaling_exponents_rejects_nonpositive():
    """The message names the first bad point in plain floats."""
    with pytest.raises(NonPositiveDataError, match=r"got -1\.0 at t = 2\.0$"):
        analysis.scaling_exponents([1, 2, 3], [1.0, -1.0, 2.0], batch=2)
    with pytest.raises(NonPositiveDataError, match=r"got 1\.0 at t = 0\.0$"):
        analysis.scaling_exponents([0, 2, 3], [1.0, 1.0, 2.0], batch=2)


@pytest.mark.parametrize("times, values, error", [
    ([3.0, 1.0, 2.0], [9.0, 1.0, 4.0], TimeGridError),   # unsorted: gave wrong slopes
    ([1.0, 1.0, 2.0], [1.0, 1.0, 4.0], TimeGridError),
    ([-1.0, 1.0, 2.0], [1.0, 1.0, 4.0], TimeGridError),
    ([1.0, 2.0, 3.0], [1.0, np.nan, 9.0], NumericalError),  # gave nan slopes
    ([1.0, 2.0, 3.0], [1.0, np.inf, 9.0], NumericalError),
    ([1e300, np.nextafter(1e300, np.inf)], [1.0, 2.0], NumericalError),  # one log t: no slope
])
def test_scaling_exponents_rejects_bad_grids_and_values(times, values, error):
    with pytest.raises(error):
        analysis.scaling_exponents(times, values, batch=2)


@pytest.mark.parametrize("times, values, batch", [
    ([1, 2, 3], [1.0, 2.0], 2),         # one value short
    ([1, 2, 3], [1.0, 2.0, 3.0], 4),    # fewer points than the window
    ([1, 2, 3], [1.0, 2.0, 3.0], 1),    # a window of one point has no slope
])
def test_scaling_exponents_rejects_short_input(times, values, batch):
    with pytest.raises(DimensionError):
        analysis.scaling_exponents(times, values, batch=batch)


def test_scaling_exponents_match_40_digit_least_squares():
    """Every slope of the default gqsw propagate series (length 121,
    t = 30...1590, batch 5) lies within 1e-14 of the least-squares slope
    taken in 40-digit arithmetic from the same float times and moments.
    Centring only log t gave 3.1e-14; centring both logs gives 5.9e-15."""
    mpmath = pytest.importorskip("mpmath")
    times = np.arange(30.0, 1590.0 + 1e-9, 30.0)
    pos = np.arange(121) - 60
    mu2 = analysis.second_moment(analysis.path_probability_profile(121, 60, times, 0.5), pos)
    alphas = analysis.scaling_exponents(times, mu2, 5).alphas
    with mpmath.workdps(40):
        for i, alpha in enumerate(alphas):
            x = [mpmath.log(mpmath.mpf(v)) for v in times[i:i + 5]]
            y = [mpmath.log(mpmath.mpf(v)) for v in mu2[i:i + 5]]
            xm, ym = sum(x) / 5, sum(y) / 5
            want = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
                    / sum((a - xm) ** 2 for a in x))
            assert abs(float(want - mpmath.mpf(alpha))) <= 1e-14, (times[i], alpha)


def test_path_closed_form_t0_delta():
    for k in (0, 2, 6):
        want = 1.0 if k == 2 else 0.0
        assert abs(analysis.path_probability_profile(7, 2, [0.0], 0.5)[0, k] - want) < 1e-12


def test_path_closed_form_omega0_is_ctqw():
    n, start, t = 9, 4, 1.7
    a = graphs.adjacency(graphs.path(n)).toarray()
    psi0 = np.zeros(n, dtype=complex)
    psi0[start] = 1.0
    p = np.abs(oracles.unitary_apply(a, psi0, t)) ** 2
    assert np.abs(analysis.path_probability_profile(n, start, [t], 0.0)[0] - p).max() < 1e-10


def test_path_closed_form_matches_evolve():
    n, t, omega = 21, 3.0, 0.6
    gen = gksl.build_generator(gksl.gqsw_spec(graphs.to_digraph(graphs.path(n)), omega))
    p = oracles.measure(gksl.evolve(gen, oracles.pure_state(n, 10), [t])[0])
    prof = analysis.path_probability_profile(n, 10, [t], omega)[0]
    assert np.abs(p - prof).max() < 1e-8


def _einsum_profile(n, start, t, omega):
    """Reference profile: the kernel cos(t(1-omega)(lam_i - lam_j)) built
    entry by entry and contracted by einsum."""
    theta = np.pi / (n + 1)
    i = np.arange(1, n + 1)
    lam = 2.0 * np.cos(i * theta)
    sines = np.sin(np.outer(i, i) * theta)
    d = lam[:, None] - lam[None, :]
    w = np.exp(-0.5 * t * omega * d * d) * np.cos(t * (1.0 - omega) * d)
    m = sines * sines[start]
    return (2.0 / (n + 1)) ** 2 * np.einsum("ki,ij,kj->k", m, w, m)


@pytest.mark.parametrize("omega", [0.0, 0.35, 1.0])
def test_path_profile_grid_rows_equal_scalar_calls(omega):
    n, start = 41, 16
    times = np.array([0.0, 0.5, 3.0, 17.25, 90.0])
    grid = analysis.path_probability_profile(n, start, times, omega)
    assert grid.shape == (times.size, n)
    for row, t in zip(grid, times):
        one = analysis.path_probability_profile(n, start, [t], omega)
        assert one.shape == (1, n)
        assert np.abs(row - one[0]).max() <= 1e-14
        assert np.abs(row - _einsum_profile(n, start, t, omega)).max() <= 1e-13
        assert abs(row.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("args, error", [
    ((9, -1, [1.0], 0.5), ParameterRangeError),     # start vertex outside 0..n-1
    ((9, 9, [1.0], 0.5), ParameterRangeError),
    ((9, 4, [1.0], 1.5), ParameterRangeError),
    ((9, 4, [1.0], np.nan), ParameterRangeError),
    ((9, 4, [-1.0], 0.5), TimeGridError),
    ((9, 4, np.array([1.0, np.inf]), 0.5), TimeGridError),
    ((9, 4, np.ones((2, 2)), 0.5), TimeGridError),
    ((9, 4, np.array([]), 0.5), TimeGridError),
    ((9, 4.0, [1.0], 0.5), ParameterRangeError),
    ((9, 4, 1.0, 0.5), TimeGridError),              # a scalar time is not a grid
    ((9, 4, [2.0, 1.0], 0.5), TimeGridError),
    ((9, 4, [1.0, 1.0], 0.5), TimeGridError),
])
def test_path_profile_rejects_bad_input(args, error):
    with pytest.raises(error):
        analysis.path_probability_profile(*args)


def _dblquad_infinite_path(k, t, omega):
    """Reference: 2-D quadrature over the momentum torus."""
    def integrand(y, x):
        d = np.cos(x) - np.cos(y)
        return (np.cos(k * x) * np.cos(k * y) * np.exp(-2.0 * omega * t * d * d)
                * np.cos(2.0 * t * (1.0 - omega) * d))

    val, err = integrate.dblquad(integrand, -np.pi, np.pi, -np.pi, np.pi,
                                 epsabs=1e-9, epsrel=1e-9)
    assert err < 1e-6
    return val / (4.0 * np.pi * np.pi)


@pytest.mark.parametrize("k, t, omega", [(0, 1.0, 0.5), (3, 5.0, 0.4), (2, 0.5, 1.0),
                                         (1, 2.0, 0.0), (7, 20.0, 0.9)])
def test_infinite_path_matches_dblquad(k, t, omega):
    want = _dblquad_infinite_path(k, t, omega)
    assert abs(oracles.infinite_path_probability(k, t, omega) - want) < 1e-10


@pytest.mark.parametrize("t, omega, error", [(-1.0, 0.5, TimeGridError),
                                              (np.nan, 0.5, TimeGridError),
                                              (1.0, 1.5, ParameterRangeError)])
def test_infinite_path_rejects_bad_input(t, omega, error):
    with pytest.raises(error):
        oracles.infinite_path_probability(0, t, omega)


def test_infinite_path_raises_when_nodes_do_not_settle(monkeypatch):
    monkeypatch.setattr(oracles, "INFINITE_PATH_MAX_NODES", 64)
    with pytest.raises(NumericalError):
        oracles.infinite_path_probability(3, 1000.0, 0.5)


@pytest.mark.parametrize("k", [0, 1, 3, 10])
def test_infinite_path_is_within_tolerance_at_large_t(k):
    """At t = 1e10 and omega = 0.5 the Gauss-Hermite estimates with 2^9 to
    2^11 nodes agree to 1e-12 while about 3e-12 off. The settled value is
    the mean of J_k^2 over its oscillation, 1/(pi * 2 (1 - omega) t), to
    about 1e-20 here."""
    t, omega = 1e10, 0.5
    want = 1.0 / (math.pi * 2.0 * (1.0 - omega) * t)
    got = oracles.infinite_path_probability(k, t, omega)
    assert abs(got - want) <= oracles.INFINITE_PATH_TOL


def test_infinite_path_trivial_and_normalized():
    assert abs(oracles.infinite_path_probability(0, 0.0, 0.5) - 1.0) < 1e-8
    total = sum(oracles.infinite_path_probability(k, 1.0, 0.5)
                for k in range(-40, 41))
    assert abs(total - 1.0) < 1e-6


def test_infinite_path_matches_finite_truncation():
    n = 201
    start = 100
    for k, t in ((0, 2.0), (3, 5.0)):
        fin = analysis.path_probability_profile(n, start, [t], 0.4)[0, start + k]
        inf = oracles.infinite_path_probability(k, t, 0.4)
        assert abs(fin - inf) < 1e-5


def test_taylor_coefficients_known_values():
    """At omega = 1, B_{n,k} is the closed form A_{n,k} =
    (-1)^(n+k) 2^(-n) C(2n,n) C(2n,n+k), zero for n < |k|: taken exactly
    with Fractions, it is within 1 ulp up to n = 40."""
    for n in range(41):
        for k in range(-n - 2, n + 3):
            if n < abs(k):
                assert oracles.taylor_B(n, k, 1.0)[0] == 0.0
                continue
            exact = Fraction((-1) ** (n + k) * math.comb(2 * n, n) * math.comb(2 * n, n + abs(k)),
                             2 ** n)
            got, size = oracles.taylor_B(n, k, 1.0)
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact))), (n, k)
            assert size == abs(got)   # one term: nothing cancels
    assert oracles.taylor_B(1, 0, 1.0)[0] == -2.0
    om = 0.37
    assert oracles.taylor_B(1, 0, om)[0] == pytest.approx(-2 * om)
    assert oracles.taylor_B(1, 1, om)[0] == pytest.approx(om)
    # second moment of the n=2 coefficients reproduces the ballistic term
    s = sum(k * k * oracles.taylor_B(2, k, om)[0] for k in range(-2, 3))
    assert s == pytest.approx(4 * (1 - om) ** 2)
    # B_{2,0} = 9 omega^2 - 4 (1 - omega)^2 adds terms of opposite sign
    b, size = oracles.taylor_B(2, 0, om)
    assert b == pytest.approx(9 * om**2 - 4 * (1 - om) ** 2)
    assert size == pytest.approx(9 * om**2 + 4 * (1 - om) ** 2)


def test_series_matches_quadrature():
    """Each point of the grid either returns a value within SERIES_TOL of
    Gauss-Hermite quadrature or raises NumericalError; every point with
    t <= 1 returns, and t = 5 and 10 are beyond double precision."""
    for om in (0.2, 0.5, 1.0):
        for t in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
            for k in range(4):
                try:
                    s = oracles.series_probability(k, t, om)
                except NumericalError:
                    assert t > 1.0, (k, t, om)
                    continue
                assert t < 5.0, (k, t, om)
                q = oracles.infinite_path_probability(k, t, om)
                assert abs(s - q) <= oracles.SERIES_TOL, (k, t, om)


@pytest.mark.parametrize("k, t, omega, error", [
    (0, 5.0, 1.0, NumericalError),        # once 20.18 against 0.2396
    (0, 10.0, 0.5, NumericalError),       # once 1.08e6
    (0, 25.0, 0.5, NumericalError),       # once an OverflowError
    (0, 1e300, 0.5, NumericalError),
    (0, math.nan, 0.5, TimeGridError),
    (0, math.inf, 0.5, TimeGridError),
    (0, -1.0, 0.5, TimeGridError),
    (0, 1.0, math.nan, ParameterRangeError),
    (0, 1.0, 2.0, ParameterRangeError),
])
def test_series_probability_refuses(k, t, omega, error):
    with pytest.raises(error):
        oracles.series_probability(k, t, omega)


def test_series_probability_at_the_start_and_far_out():
    assert oracles.series_probability(0, 0.0, 0.5) == 1.0
    assert oracles.series_probability(3, 0.0, 0.5) == 0.0
    # B_{n,k} = 0 for n < k: the sum is 0 to well within SERIES_TOL
    assert oracles.series_probability(1000, 1.0, 0.5) == 0.0
    assert oracles.series_probability(-2, 1.0, 0.3) == oracles.series_probability(2, 1.0, 0.3)


def test_moment_mu2_formula_on_path():
    n, start = 121, 60
    pos = np.arange(n) - start
    for om in (0.25, 0.75):
        p = analysis.path_probability_profile(n, start, [8.0], om)
        mu = analysis.second_moment(p / p.sum(axis=1, keepdims=True), pos)[0]
        ref = oracles.moment_mu2(om, 8.0)
        assert abs(mu - ref) / ref < 1e-3


@pytest.mark.parametrize("omega, t, error", [
    (math.nan, 1.0, ParameterRangeError),   # gave nan
    (1.5, 1.0, ParameterRangeError),
    (0.5, -1.0, TimeGridError),             # omega = 2, t = -1 gave -2
    (0.5, math.nan, TimeGridError),
    (0.5, 1e300, NumericalError),
])
def test_moment_mu2_rejects_bad_input(omega, t, error):
    with pytest.raises(error):
        oracles.moment_mu2(omega, t)


@pytest.mark.parametrize("omega", [math.nan, -0.1, 1.5])
def test_taylor_coefficient_rejects_omega_outside_unit_interval(omega):
    """taylor_B(3, 1, nan) gave (nan, nan)."""
    with pytest.raises(ParameterRangeError):
        oracles.taylor_B(3, 1, omega)


def test_classifier_lqsw_strongly_connected_relaxing():
    g = graphs.DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)}))
    assert oracles.is_strongly_connected(g)
    gen = gksl.build_generator(gksl.lqsw_spec(g, 0.5))
    rep = analysis.classify_convergence(gen)
    assert rep.classification == "Relaxing"
    assert rep.zero_multiplicity == 1


def test_classifier_gqsw_undirected_not_relaxing():
    for g in (graphs.path(3), graphs.complete(4)):
        gen = gksl.build_generator(gksl.gqsw_spec(graphs.to_digraph(g), 0.5))
        rep = analysis.classify_convergence(gen)
        assert rep.classification != "Relaxing"
        assert rep.zero_multiplicity >= 2


def test_classifier_circulant_periodic():
    gen = gksl.build_generator(gksl.gqsw_spec(oracles.circulant_jump2(8), 0.5))
    rep = analysis.classify_convergence(gen)
    assert rep.classification == "PossiblyPeriodic"
    lam = numkernel.eig_general(gen.s)
    assert np.abs(lam - 2 * (1 - 0.5) * 1j).min() < 1e-8


def _reference_classification(lam, tol=1e-10):
    """The classifier's rules applied to eigenvalues of the complex S."""
    mods = np.abs(lam)
    zero = int(np.sum(mods < tol))
    imag = int(np.sum((np.abs(lam.real) < tol) & (np.abs(lam.imag) > tol)))
    cls = "PossiblyPeriodic" if imag else ("Relaxing" if zero == 1 else "ConvergentNonRelaxing")
    return cls, zero, imag


def _assert_same_spectrum(a, b, tol, spread):
    """Compare two spectra of one matrix cluster by cluster. Eigenvalues of
    a and b together chain into one cluster when they lie within spread of
    each other. A cluster may be a perturbed Jordan block, whose eigenvalues
    each solver scatters its own way by up to eps^(1/k) ||S|| while their
    mean stays well conditioned; an isolated eigenvalue of a and its match
    in b form a cluster of two. Each cluster must hold as many eigenvalues
    of a as of b, and their means must agree to tol."""
    both = np.concatenate([a, b])
    ncl, label = connected_components(
        sp.csr_matrix(np.abs(both[:, None] - both[None, :]) <= spread))
    for c in range(ncl):
        in_a, in_b = a[label[:a.size] == c], b[label[a.size:] == c]
        assert in_a.size == in_b.size, (in_a, in_b)
        assert abs(in_a.mean() - in_b.mean()) <= tol, (in_a, in_b)


# At omega = 1 each generator has a Jordan block of size 4 (at -2 and at -4).
# The two solvers scatter its eigenvalues by up to 2.2e-4, so a chaining
# radius of 1e-4 within one spectrum leaves some of them alone, to be
# matched one by one, though only their mean is accurate.
_JORDAN_NGQSW = gksl.build_generator(nonmoral.ngqsw_spec(nonmoral.demoralize(
    graphs.DiGraph(5, frozenset({(0, 4), (1, 0), (3, 0), (3, 4), (4, 2)}))), 1.0))
_JORDAN_LQSW = gksl.build_generator(gksl.lqsw_spec(graphs.DiGraph(6, frozenset({
    (0, 1), (0, 2), (0, 4), (0, 5), (1, 0), (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 5), (4, 0), (4, 1), (4, 3), (4, 5), (5, 1), (5, 2), (5, 3)})), 1.0))


@settings(deadline=None, max_examples=40)
@given(oracles.walk_generators())
@example(_JORDAN_NGQSW)
@example(_JORDAN_LQSW)
def test_hermitian_basis_spectrum_matches_complex_generator(gen):
    t = numkernel.hermitian_basis(gen.dim)
    assert abs(t.conj().T @ t - sp.identity(gen.dim ** 2)).max() < 1e-15
    r = (t.conj().T @ gen.s @ t).toarray()
    scale = max(1.0, np.abs(r).max())
    assert np.abs(r.imag).max() <= 1e-13 * scale
    lam = numkernel.eig_general(gen.s)
    # twice the scatter of a size-4 Jordan block, eps^(1/4) ||S||_1, for one
    # scattered copy in each spectrum
    spread = 2 * np.finfo(float).eps ** 0.25 * scipy.sparse.linalg.norm(gen.s, 1)
    _assert_same_spectrum(numkernel.eig_general(r.real), lam, 1e-10 * scale, spread)
    rep = analysis.classify_convergence(gen)
    assert (rep.classification, rep.zero_multiplicity, rep.imaginary_count) == \
        _reference_classification(lam)


def test_classifier_rejects_non_hermiticity_preserving_generator():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    with pytest.raises(NumericalError, match="Hermiticity"):
        analysis.classify_convergence(gksl.EvolutionGenerator(s=sp.csr_matrix(s), dim=3))


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_classifier_rejects_bad_tolerance(tol):
    """On a relaxing walk, NaN, -1 and 0 gave ConvergentNonRelaxing with
    zero multiplicity 0, and inf gave zero multiplicity 16."""
    g = graphs.DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    gen = gksl.build_generator(gksl.lqsw_spec(g, 0.5))
    assert analysis.classify_convergence(gen).classification == "Relaxing"
    with pytest.raises(ParameterRangeError, match="tol must be finite and positive"):
        analysis.classify_convergence(gen, tol)


def test_classifier_dimension_cap():
    gen = gksl.build_generator(
        gksl.gqsw_spec(graphs.to_digraph(graphs.path(51)), 0.5))
    with pytest.raises(DimensionError):
        analysis.classify_convergence(gen)


def test_structure_measures_lqsw_gap_below_one():
    """A partially coherent local walk on a directed path leaves visible
    probability outside the sink component even at long times; vertex 5 is
    the sink."""
    g = graphs.DiGraph(6, frozenset((i, i + 1) for i in range(5)))
    for omega, expect_full in ((1.0, True), (0.5, False)):
        gen = gksl.build_generator(gksl.lqsw_spec(g, omega))
        rho = gksl.evolve(gen, oracles.pure_state(6, 0), [2000.0])[0]
        p_sink = oracles.measure(rho)[-1]
        if expect_full:
            assert p_sink > 1 - 1e-6
        else:
            assert p_sink < 1 - 1e-3


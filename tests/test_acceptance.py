"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line with the measured quantity so the
pytest -v report gives one pass/fail line per criterion.
"""
import math

import numpy as np

from qswlab import analysis, gksl, graphs, nonmoral, numkernel, search


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_acceptance_01_closed_form_evolution():
    """Evolved GQSW diagonals on the 21-path match the double-sine formula."""
    n = 21
    dig = graphs.to_digraph(graphs.path(n))
    worst = 0.0
    for omega in (0.0, 0.3, 0.7, 1.0):
        gen = gksl.build_generator(gksl.gqsw_spec(dig, omega))
        for t in (0.5, 2.0, 5.0):
            diag = np.diagonal(gksl.evolve(gen, gksl.pure_state(n, 10), t)).real
            ref = analysis.path_probability_profile(n, 11, t, omega)
            worst = max(worst, np.abs(diag - ref).max())
    report("acceptance 01 closed-form evolution", worst <= 1e-8,
           f"max dev {worst:.2e}")


def test_acceptance_02_moment_law():
    n, center = 121, 61
    pos = np.arange(1, n + 1) - center
    worst = 0.0
    for omega in (0.25, 0.5, 0.75):
        for t in (1.0, 4.0, 7.0, 10.0):
            p = analysis.path_probability_profile(n, center, t, omega)
            mu = analysis.second_moment(p / p.sum(), pos)
            ref = analysis.moment_mu2(omega, t)
            worst = max(worst, abs(mu - ref) / ref)
    report("acceptance 02 moment law", worst <= 1e-3, f"max rel err {worst:.2e}")


def test_acceptance_03_scaling_exponents():
    times = np.arange(6.0, 301.0, 6.0)

    # ballistic: coherent walk on a path long enough to contain the light cone
    n = 1301
    es = numkernel.eig_hermitian(graphs.adjacency(graphs.path(n)))
    psi0 = np.zeros(n)
    psi0[n // 2] = 1.0
    coeff = es.vectors.conj().T @ psi0
    pos = np.arange(n) - n // 2
    mu_q = [float(pos**2 @ np.abs(es.vectors @ (np.exp(-1j * t * es.values) * coeff))**2)
            for t in times]
    alpha_q = analysis.scaling_exponents(times, mu_q, 5).alphas[-1]

    # diffusive: fully dissipative walk
    n2, c = 201, 101
    pos2 = np.arange(1, n2 + 1) - c
    mu_c = []
    for t in times:
        p = analysis.path_probability_profile(n2, c, t, 1.0)
        mu_c.append(analysis.second_moment(p / p.sum(), pos2))
    alpha_c = analysis.scaling_exponents(times, mu_c, 5).alphas[-1]

    ok = abs(alpha_q - 2.0) <= 0.05 and abs(alpha_c - 1.0) <= 0.05
    report("acceptance 03 scaling exponents", ok,
           f"coherent {alpha_q:.4f}, dissipative {alpha_c:.4f}")


def test_acceptance_04_moralization_removed():
    g = graphs.moral_triangle()
    gen = gksl.build_generator(gksl.gqsw_spec(g, 1.0))
    p2 = gksl.measure(gksl.evolve(gen, gksl.pure_state(3, 0), 20.0))[1]

    dg = nonmoral.demoralize(g)
    gen_n = gksl.build_generator(nonmoral.ngqsw_spec(dg, 1.0))
    worst = 0.0
    for t in np.arange(0.5, 20.5, 0.5):
        rho = gksl.evolve(gen_n, gksl.pure_state(4, 0), t)
        worst = max(worst, nonmoral.natural_measure(rho, dg)[1])
    ok = abs(p2 - 0.25) <= 1e-6 and worst <= 1e-10
    report("acceptance 04 moralization", ok,
           f"GQSW p(v2;20)={p2:.8f}, NGQSW max p(v2)={worst:.2e}")


def test_acceptance_05_premature_localization():
    dg = nonmoral.demoralize(graphs.premature_graph())
    lb = nonmoral.build_nonmoral_lindblad(dg, nonmoral.fourier_family(dg))
    zero = np.zeros((7, 7))

    gen0 = gksl.build_generator(gksl.WalkSpec(zero, (lb,), 1.0, 1.0))
    rho0 = gksl.evolve(gen0, gksl.pure_state(7, 0), 200.0)
    printed = np.array([
        [5, 1, 1, 0, -5, -1, -1], [1, 1, 1, 0, -1, -1, -1],
        [1, 1, 1, 0, -1, -1, -1], [0, 0, 0, 2, 0, 0, 0],
        [-5, -1, -1, 0, 5, 1, 1], [-1, -1, -1, 0, 1, 1, 1],
        [-1, -1, -1, 0, 1, 1, 1]]) / 16
    dev0 = np.abs(rho0 - printed).max()

    spec = gksl.WalkSpec(nonmoral.standard_rotating_hamiltonian(dg), (lb,), 1.0, 1.0)
    gen1 = gksl.build_generator(spec)
    rho1 = gksl.evolve(gen1, gksl.pure_state(7, 0), 500.0)
    target = np.zeros((7, 7))
    target[3, 3] = 1.0
    dev1 = np.abs(rho1 - target).max()

    ok = dev0 <= 1e-6 and dev1 <= 1e-6
    report("acceptance 05 premature localization", ok,
           f"no-rotation dev {dev0:.2e}, rotation dev {dev1:.2e}")


def test_acceptance_06_symmetrization():
    n = 61
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(n)))
    lbs = nonmoral.symmetrized_path_lindblads(dg)
    gen = gksl.build_generator(gksl.WalkSpec(nonmoral.standard_rotating_hamiltonian(dg), lbs, 1.0, 1.0))
    rho = gksl.evolve(gen, nonmoral.block_mixed_state(dg, (n - 1) // 2), 100.0)
    p = nonmoral.natural_measure(rho, dg)
    asym = max(abs(p[k] - p[n - 1 - k]) for k in range(n))
    report("acceptance 06 symmetrization", asym <= 1e-8, f"max asymmetry {asym:.2e}")


def test_acceptance_07_convergence_classifier():
    rng = np.random.default_rng(2024)
    relaxing = 0
    trials = 0
    while trials < 20:
        g = graphs.gen_er(int(rng.integers(3, 9)), 0.5,
                          int(rng.integers(2**32)), directed=True)
        if not graphs.is_strongly_connected(g):
            continue
        trials += 1
        gen = gksl.build_generator(gksl.lqsw_spec(g, 0.5))
        if analysis.classify_convergence(gen).classification == "Relaxing":
            relaxing += 1

    gen_c = gksl.build_generator(gksl.gqsw_spec(graphs.circulant_jump2(8), 0.5))
    rep_c = analysis.classify_convergence(gen_c)
    dev_c = np.abs(numkernel.eig_general(gen_c.s) - 2 * (1 - 0.5) * 1j).min()

    dg = nonmoral.demoralize(graphs.ngqsw_period_graph())
    gen_p = gksl.build_generator(nonmoral.ngqsw_spec(dg, 0.5))
    rep_p = analysis.classify_convergence(gen_p)
    lam_p = numkernel.eig_general(gen_p.s)
    tgt = 2j * math.sqrt(3) * 0.5
    dev_p = max(np.abs(lam_p - tgt).min(), np.abs(lam_p + tgt).min())

    ok = (relaxing == 20
          and rep_c.classification == "PossiblyPeriodic" and dev_c <= 1e-8
          and rep_p.classification == "PossiblyPeriodic" and dev_p <= 1e-8)
    report("acceptance 07 convergence classifier", ok,
           f"relaxing {relaxing}/20, circulant dev {dev_c:.2e}, period dev {dev_p:.2e}")


def test_acceptance_08_complete_graph_search():
    sizes = [64, 256, 1024]
    probs, argmaxes = [], []
    for n in sizes:
        # the search starts from the principal eigenvector of K_n, the uniform state
        a = search.SearchSpectrum.of(graphs.adjacency(graphs.complete(n)))
        gamma = 1.0 / (n - 2)
        p = search.run_search(a, 0, gamma, np.array([math.pi * math.sqrt(n) / 2])).probs[0]
        probs.append(p)
        grid = np.linspace(0.0, 1.3 * math.pi * math.sqrt(n) / 2, 400)
        argmaxes.append(search.run_search(a, 0, gamma, grid).argmax_t)
    slope = np.polyfit(np.log(sizes), np.log(argmaxes), 1)[0]
    ok = min(probs) >= 0.9 and abs(slope - 0.5) <= 0.05
    report("acceptance 08 complete-graph search", ok,
           f"min p {min(probs):.4f}, argmax slope {slope:.4f}")


def test_acceptance_09_star_graph():
    g = graphs.star(100)
    h = search.shift_rescale(graphs.adjacency(g))
    c = np.linalg.eigvalsh(h)[-2]
    ok_c = abs(c - 1.0 / 3.0) <= 1e-9

    worst = 1.0
    for n in (64, 256):
        hp = search.SearchSpectrum.of(search.shift_rescale(graphs.adjacency(graphs.star(n))))
        st = search.search_stats(hp, 1)
        grid = np.linspace(0.0, 6.0 * st.predicted_t, 900)
        run = search.run_search(hp, 1, st.s1, grid)
        worst = min(worst, run.p_max)
    ok = ok_c and worst >= 0.45
    report("acceptance 09 star graph", ok, f"c dev {abs(c - 1/3):.2e}, min leaf p {worst:.4f}")


def test_acceptance_10_classical_mfpt():
    cases = [
        (graphs.complete(5), 0),
        (graphs.star(20), 0),
        (graphs.giant_component(graphs.gen_er(50, 0.2, seed=123)), 7),
    ]
    worst_rel = 0.0
    bound_ok = True
    for g, w in cases:
        exact = search.classical_mfpt(g, w)
        est = search.classical_mfpt_mc(g, w, walks=100000, seed=31)
        worst_rel = max(worst_rel, abs(est - exact) / exact)
        bound_ok &= exact >= search.classical_mfpt_lower_bound(g, w) - 1e-9
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 30:
        g = graphs.gen_er(int(rng.integers(5, 20)), 0.4, int(rng.integers(2**32)))
        if not graphs.is_connected(g):
            continue
        w = int(rng.integers(g.n))
        bound_ok &= search.classical_mfpt(g, w) >= search.classical_mfpt_lower_bound(g, w) - 1e-9
        checked += 1
    ok = worst_rel <= 0.05 and bound_ok
    report("acceptance 10 classical MFPT", ok,
           f"max rel err {worst_rel:.4f}, lower bound ok {bound_ok}")


def test_acceptance_11_er_p0_sweep():
    n = 500
    rng = np.random.default_rng(777)
    results = []
    for p0 in (1.5, 2.0):
        probs = []
        for _ in range(20):
            g = graphs.gen_er(n, p0 * math.log(n) / n, int(rng.integers(2**32)))
            gc = graphs.giant_component(g)
            hg = search.search_spectrum(gc, "laplacian")
            t = math.pi * math.sqrt(gc.n) / 2.0
            for w in rng.choice(gc.n, 5, replace=False):
                gamma = search.caption_gamma(hg, int(w))
                probs.append(search.run_search(hg, int(w), gamma, np.array([t])).probs[0])
        results.append((p0, float(np.mean(probs)), search.lambert_bound(p0)))
    ok = all(mean >= bound - 0.05 for _, mean, bound in results)
    report("acceptance 11 ER p0 sweep", ok,
           "; ".join(f"p0={p0}: mean {m:.3f} vs bound {b:.3f}" for p0, m, b in results))


def test_acceptance_12_ba_speedup_exponent():
    rng = np.random.default_rng(555)
    rows = []
    for n in (100, 250, 500, 1000):
        for _ in range(5):
            g = graphs.gen_ba(n, 3, seed=int(rng.integers(2**31)))
            w = n - 1
            hg = search.search_spectrum(g, "normalized_laplacian")
            st = search.search_stats(hg, w)
            p = search.run_search(hg, w, st.s1, np.array([st.predicted_t])).probs[0]
            rows.append((n, st.predicted_t / p))
    rows = np.array(rows)
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
    report("acceptance 12 BA speedup", 0.4 <= slope <= 0.7,
           f"T/p(T) exponent {slope:.4f} over 20 trajectories")


def test_acceptance_13_taylor_series():
    worst = 0.0
    for omega in (0.5, 1.0):
        for k in range(4):
            for t in (0.5, 1.0):
                s = analysis.series_probability(k, t, omega)
                q = analysis.infinite_path_probability(k, t, omega)
                worst = max(worst, abs(s - q))
    report("acceptance 13 Taylor series", worst <= 1e-6, f"max dev {worst:.2e}")

"""The three workloads: their inputs, their ops and the oracles on their outputs.

An op is one or two `qswlab` CLI invocations, run in-process. The workload
seed is the only source of randomness: every graph seed and sweep seed is
derived from it, and the program sees only the generated files and configs.

Oracles run after the timed loop. Each returns the ops whose outputs miss,
with the reason; a miss that belongs to the whole run marks every op.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.special import lambertw

GRAPH_FILES = 3  # distinct input graphs per run; op i uses file i % GRAPH_FILES


class OracleMiss(Exception):
    pass


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and a tag path."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def strict_json(text: str) -> dict:
    """Parse a report, rejecting NaN and Infinity."""
    def reject(token):
        raise OracleMiss(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise OracleMiss("CSV has no data rows")
    data = np.array([[float(x) if x != "" else math.nan for x in r] for r in rows[1:]])
    return rows[0], data


def column(text: str, name: str) -> np.ndarray:
    header, data = read_csv(text)
    if name not in header:
        raise OracleMiss(f"CSV lacks column {name!r}")
    col = data[:, header.index(name)]
    if not np.all(np.isfinite(col)):
        raise OracleMiss(f"CSV column {name!r} is not finite")
    return col


def probabilities(text: str, name: str) -> np.ndarray:
    p = column(text, name)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise OracleMiss(f"probability column {name!r} leaves [0, 1]")
    return p


def lambert_bound(p0: float) -> float:
    x = (1.0 - p0) / (math.e * p0)
    return float(np.real(lambertw(x, 0)) / np.real(lambertw(x, -1)))


def load_graph_matrix(path: str) -> np.ndarray:
    """Dense adjacency from qswlab's graph JSON (1-based edge list)."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    a = np.zeros((n, n))
    for u, v in doc["edges"]:
        a[u - 1, v - 1] = 1.0
        if not doc["directed"]:
            a[v - 1, u - 1] = 1.0
    return a


class Workload:
    name = ""
    dominant: tuple = ()     # function spans that make up the dominant layer
    outputs: tuple = ()      # file names an op writes in the work directory
    sizes: dict = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, cli) -> None:
        """Write the run's input files; `cli(args)` runs one invocation."""

    def invocations(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, results: dict[int, dict[str, str]]) -> dict[int, str]:
        """Oracle misses by op index; `results` maps op index to outputs."""
        misses = {}
        for i, out in results.items():
            try:
                self.check_op(i, out)
            except (OracleMiss, ValueError, KeyError, TypeError) as exc:
                misses[i] = f"{type(exc).__name__}: {exc}"
        return misses

    def check_op(self, i: int, out: dict[str, str]) -> None:
        raise NotImplementedError


class Search(Workload):
    """ER p0 sweep (five marked vertices on one graph) then a BA search."""

    name = "search"
    dominant = ("numkernel.eig_hermitian",)
    sweep = {"kind": "er_p0", "n": 500, "p0": [2.0], "samples": 1,
             "marked_per_graph": 5}
    ba = {"n": 800, "m0": 3}
    marked = 800
    check_points = (100, 200, 300)   # grid indices checked against dense expm
    outputs = ("sweep/er_p0_2.0.csv", "sweep/aggregate.csv", "sweep/sweep.json",
               "search.csv", "search.json")
    sizes = {"sweep": sweep,
             "search": {"graph": "ba", **ba, "kind": "normalized_laplacian",
                        "marked": marked, "gamma_rule": "s1", "grid_points": 301},
             "graph_files": GRAPH_FILES}

    def setup(self, cli):
        for j in range(GRAPH_FILES):
            cli(["graphgen", "--model", "ba", "--n", str(self.ba["n"]),
                 "--m0", str(self.ba["m0"]), "--seed", str(derive(self.seed, 1, j)),
                 "--out", self.path(f"ba{j}.json")])

    def invocations(self, i):
        cfg = dict(self.sweep, seed=derive(self.seed, 2, i),
                   outdir=self.path("sweep"))
        with open(self.path("sweep_config.json"), "w") as fh:
            json.dump(cfg, fh)
        return [
            ["sweep", "--config", self.path("sweep_config.json")],
            ["search", "--graph", f"file:{self.path(f'ba{i % GRAPH_FILES}.json')}",
             "--kind", "normalized_laplacian", "--marked", str(self.marked),
             "--gamma-rule", "s1", "--out-csv", self.path("search.csv"),
             "--out-json", self.path("search.json")],
        ]

    def check_op(self, i, out):
        strict_json(out["sweep/sweep.json"])
        probabilities(out["sweep/er_p0_2.0.csv"], "p")
        probabilities(out["sweep/aggregate.csv"], "minP")
        probabilities(out["sweep/aggregate.csv"], "meanP")
        report = strict_json(out["search.json"])
        p = probabilities(out["search.csv"], "p")
        if p.size != 301:
            raise OracleMiss(f"search grid has {p.size} points, expected 301")
        if i == 0:
            self._check_dense(out["search.csv"], report["stats"]["gamma"])

    def _check_dense(self, csv_text, gamma):
        """p(t) of the first BA graph against a dense expm of
        gamma*H_G + |w><w|, H_G = D^-1/2 A D^-1/2 with principal vector ~ sqrt(d)."""
        a = load_graph_matrix(self.path("ba0.json"))
        d = a.sum(axis=1)
        s = 1.0 / np.sqrt(d)
        h = gamma * (s[:, None] * a * s[None, :])
        w = self.marked - 1
        h[w, w] += 1.0
        psi = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
        t, p = column(csv_text, "t"), column(csv_text, "p")
        # The checked grid points are 1, 2 and 3 times the first, so one
        # propagator over that step reaches all three.
        k1 = self.check_points[0]
        u = scipy.linalg.expm(-1j * t[k1] * h)
        for m, k in enumerate(self.check_points, start=1):
            if abs(t[k] - m * t[k1]) > 1e-12 * t[k]:
                raise OracleMiss(f"grid point {k} is not {m} x t[{k1}]")
            psi = u @ psi
            if abs(abs(psi[w]) ** 2 - p[k]) > 1e-8:
                raise OracleMiss(f"p({t[k]:.6g}) = {float(p[k])!r} differs from dense "
                                 f"expm {float(abs(psi[w]) ** 2)!r} by more than 1e-8")

    def check(self, results):
        misses = super().check(results)
        probs = []
        for i, out in results.items():
            if i not in misses:
                probs.extend(column(out["sweep/er_p0_2.0.csv"], "p"))
        floor = lambert_bound(2.0) - 0.05
        if probs and np.mean(probs) < floor:
            reason = f"mean ER success {np.mean(probs):.4f} below {floor:.4f}"
            return {i: reason for i in results}
        return misses


class NgqswPropagate(Workload):
    """Nonmoralizing walk on a path: a chained sparse GKSL evolution."""

    name = "ngqsw_propagate"
    dominant = ("numkernel.expm_apply",)
    omega, length = 0.5, 61
    grid = (5.0, 30.0, 5.0)
    outputs = ("ngqsw.csv", "ngqsw.json")
    sizes = {"model": "ngqsw", "omega": omega, "length": length,
             "t_start": grid[0], "t_stop": grid[1], "t_step": grid[2]}

    def invocations(self, i):
        t0, t1, dt = self.grid
        return [["propagate", "--model", "ngqsw", "--omega", str(self.omega),
                 "--length", str(self.length), "--t-start", str(t0),
                 "--t-stop", str(t1), "--t-step", str(dt),
                 "--out-csv", self.path("ngqsw.csv"),
                 "--out-json", self.path("ngqsw.json")]]

    def reference_mu2(self, times) -> np.ndarray:
        """mu2 from exp(S t) applied to rho(0) for each t, without chaining.

        The enlarged-space operators come from qswlab.nonmoral; the GKSL
        superoperator (row-major vec) and its action are assembled here."""
        from qswlab import graphs, nonmoral

        n, w = self.length, self.omega
        dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(n)))
        h = sp.csr_matrix((1.0 - w) * nonmoral.standard_hamiltonian(dg)
                          + w * nonmoral.standard_rotating_hamiltonian(dg))
        eye = sp.identity(dg.dim, dtype=complex, format="csr")
        s = -1j * (sp.kron(h, eye) - sp.kron(eye, h.conj()))
        for lb in nonmoral.symmetrized_path_lindblads(dg):
            lb = sp.csr_matrix(lb)
            ldl = (lb.conj().T @ lb).tocsr()
            s = s + w * (sp.kron(lb, lb.conj()) - 0.5 * sp.kron(ldl, eye)
                         - 0.5 * sp.kron(eye, ldl.T))
        s = sp.csr_matrix(s)
        rho0 = nonmoral.block_mixed_state(dg, (n - 1) // 2).reshape(-1)
        pos = np.arange(1, n + 1) - (n + 1) // 2
        out = np.empty(len(times))
        for k, t in enumerate(times):
            diag = scipy.sparse.linalg.expm_multiply(s * t, rho0)
            diag = diag.reshape(dg.dim, dg.dim).diagonal().real
            p = np.array([diag[list(dg.index[v])].sum() for v in range(n)])
            out[k] = float(np.sum(pos * pos * p / p.sum()))
        return out

    def check(self, results):
        self._ref = None
        return super().check(results)

    def check_op(self, i, out):
        strict_json(out["ngqsw.json"])
        t, mu2 = column(out["ngqsw.csv"], "t"), column(out["ngqsw.csv"], "mu2")
        if np.any(np.diff(mu2) <= 0):
            raise OracleMiss("mu2 does not rise strictly")
        if self._ref is None:
            self._ref = (t, self.reference_mu2(t))
        if not np.array_equal(t, self._ref[0]):
            raise OracleMiss("time grid differs between ops")
        rel = np.abs(mu2 - self._ref[1]) / np.abs(self._ref[1])
        if rel.max() > 1e-6:
            raise OracleMiss(f"mu2 differs from the unchained reference by "
                             f"{rel.max():.3e} relative")


class Spectra(Workload):
    """Dense spectral classification of an LQSW on a strongly connected ER
    digraph, then the closed-form GQSW path profile."""

    name = "spectra"
    dominant = ("analysis.path_probability_profile", "numkernel.eig_general")
    er = {"n": 30, "p": 0.12}
    omega = 0.5
    grid = (2.0, 90.0, 2.0)
    length = 301
    max_draws = 500
    outputs = ("converge.json", "gqsw.csv", "gqsw.json")
    sizes = {"converge": {"model": "lqsw", "omega": omega, "graph": "er",
                          "directed": True, **er},
             "propagate": {"model": "gqsw", "omega": omega, "length": length,
                           "t_start": grid[0], "t_stop": grid[1], "t_step": grid[2]},
             "graph_files": GRAPH_FILES}

    def setup(self, cli):
        for j in range(GRAPH_FILES):
            out = self.path(f"digraph{j}.json")
            for k in range(self.max_draws):
                cli(["graphgen", "--model", "er", "--directed",
                     "--n", str(self.er["n"]), "--p", str(self.er["p"]),
                     "--seed", str(derive(self.seed, 3, j, k)), "--out", out])
                a = sp.csr_matrix(load_graph_matrix(out))
                ncomp, _ = scipy.sparse.csgraph.connected_components(
                    a, directed=True, connection="strong")
                if ncomp == 1:
                    break
            else:
                raise RuntimeError(f"no strongly connected digraph in {self.max_draws} draws")

    def invocations(self, i):
        t0, t1, dt = self.grid
        return [
            ["converge", "--model", "lqsw", "--omega", str(self.omega),
             "--graph", f"file:{self.path(f'digraph{i % GRAPH_FILES}.json')}",
             "--out", self.path("converge.json")],
            ["propagate", "--model", "gqsw", "--omega", str(self.omega),
             "--length", str(self.length), "--t-start", str(t0), "--t-stop", str(t1),
             "--t-step", str(dt), "--out-csv", self.path("gqsw.csv"),
             "--out-json", self.path("gqsw.json")],
        ]

    def check_op(self, i, out):
        rep = strict_json(out["converge.json"])
        if rep["classification"] != "Relaxing" or rep["zero_multiplicity"] != 1:
            raise OracleMiss(f"digraph classified {rep['classification']} with zero "
                             f"multiplicity {rep['zero_multiplicity']}")
        strict_json(out["gqsw.json"])
        t, mu2 = column(out["gqsw.csv"], "t"), column(out["gqsw.csv"], "mu2")
        w = self.omega
        law = 2.0 * w * t + 2.0 * (1.0 - w) ** 2 * t * t
        rel = np.abs(mu2 - law) / law
        if rel.max() > 1e-3:
            raise OracleMiss(f"gqsw mu2 off the moment law by {rel.max():.3e} relative")


WORKLOADS = {w.name: w for w in (Search, NgqswPropagate, Spectra)}

"""Command line experiment runner.

Subcommands generate graphs, run propagation sweeps, classify convergence,
scan search probabilities, and drive multi-sample sweeps. Outputs are CSV
(data columns, header always present) and JSON (full config echo, seed,
library version, wall-clock seconds) so runs can be reproduced exactly.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
import time

import click
import numpy as np

from . import __version__, analysis, gksl, graphs, nonmoral, search
from .exceptions import NumericalError, QswlabError


def parse_graph_spec(spec: str):
    """`path:61`, `complete:256`, `star:100`, or `file:<path>`."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise click.UsageError(f"malformed graph spec {spec!r}")
    if kind == "file":
        try:
            with open(arg) as fh:
                g = graphs.from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot load graph file {arg}: {exc}")
        if g.n < 1:
            raise click.UsageError("graph size must be positive")
        return g
    try:
        n = int(arg)
    except ValueError:
        raise click.UsageError(f"graph size must be an integer in {spec!r}")
    if n < 1:
        raise click.UsageError("graph size must be positive")
    if kind == "path":
        return graphs.path(n)
    if kind == "complete":
        return graphs.complete(n)
    if kind == "star":
        return graphs.star(n)
    raise click.UsageError(f"unknown graph family {kind!r}")


def _write_text(path, text):
    """Overwrite path with text in place, the one way the CLI writes a file.

    The file is opened without truncation, written and flushed; a regular
    file is then cut at the end of the new text, and a device such as
    /dev/null is left uncut. An existing output keeps its inode, so hard
    links, mode and owner survive, and a read-only output fails. Nothing
    is fsynced: a power loss within the kernel's writeback window can leave
    the old bytes or a mix of old and new. An OSError at any step becomes a
    UsageError that names the path, so an unwritable report exits 2."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode())
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _report_config():
    """The running command's name and the values of its declared options,
    output paths left out, in declaration order."""
    ctx = click.get_current_context()
    return {"command": ctx.info_name, **{p.name: ctx.params[p.name] for p in ctx.command.params
                                         if not isinstance(p.type, click.Path)}}


def _write_json(path, payload, config, seed, wallclock):
    doc = {"config": config, "seed": seed, "version": __version__, "wallclock_sec": wallclock,
           **payload}
    try:
        text = json.dumps(doc, indent=1, default=float, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report {path} would hold a non-finite value: {exc}") from exc
    _write_text(path, text + "\n")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write_text(path, buf.getvalue())


def numerical_guard(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except QswlabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"error: not enough memory: {exc}", err=True)
            sys.exit(2)
    return wrapper


@click.group()
def main():
    """Continuous-time walk and quantum search experiments."""


@main.command("graphgen")
@click.option("--model", type=click.Choice(["er", "ba", "cl"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None, help="edge probability (er)")
@click.option("--m0", type=int, default=None, help="attachment count (ba)")
@click.option("--a", type=float, default=None, help="power family offset (cl)")
@click.option("--b", type=float, default=None, help="power family slope (cl)")
@click.option("--directed", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@numerical_guard
def cmd_graphgen(model, n, p, m0, a, b, directed, seed, out):
    """Sample a random graph and write it as JSON."""
    if n < 1:
        raise click.UsageError("--n must be positive")
    if model == "er":
        if p is None:
            raise click.UsageError("er requires --p")
        g = graphs.gen_er(n, p, seed, directed=directed)
    elif model == "ba":
        if m0 is None:
            raise click.UsageError("ba requires --m0")
        g = graphs.gen_ba(n, m0, seed, directed=directed)
    else:
        if a is None or b is None:
            raise click.UsageError("cl requires --a and --b")
        if directed:
            raise click.UsageError("cl model is undirected")
        g = graphs.gen_cl(n, graphs.cl_powerlaw_omega(n, a, b), seed)
    _write_text(out, graphs.to_json(g))


MAX_GRID_POINTS = 100_000


def _time_grid(t_start, t_stop, t_step):
    if not all(map(math.isfinite, (t_start, t_stop, t_step))):
        raise click.UsageError("--t-start/--t-stop/--t-step must be finite")
    if t_step <= 0 or t_stop < t_start:
        raise click.UsageError("need t_step > 0 and t_stop >= t_start")
    # written so that an overflowing span counts as too long
    if not (t_stop - t_start) / t_step < MAX_GRID_POINTS:
        raise click.UsageError(f"the time grid would have more than {MAX_GRID_POINTS} points")
    grid = np.arange(t_start, t_stop + 1e-9 * t_step, t_step)
    if grid.size == 0:
        raise click.UsageError("empty time grid")
    return grid


def _ngqsw_path_profiles(n, start, omega, times):
    """Natural-measurement profiles of the symmetrized walk on a path from
    the vertex start, the largest trace drift over the evolved states, and
    the Hermiticity leak of the evolved generator: the largest imaginary
    entry dropped from its real form (the states are Hermitian by
    construction). A centred start (odd n) evolves in the reflection's
    basis U, where expm_apply evolves only the start's parity class, and
    each state is rotated back in place. An even n is not rotated: the
    reflection would mix the path's two sublattices, which the walk keeps
    apart."""
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(n)))
    spec = nonmoral.ngqsw_spec(dg, omega, nonmoral.symmetrized_path_lindblads(dg))
    rho0 = nonmoral.block_mixed_state(dg, start)
    u = nonmoral.reflection_basis(dg) if 2 * start == n - 1 else None
    if u is not None:
        spec = gksl.WalkSpec(u @ spec.hamiltonian @ u.T,
                             tuple(u @ l @ u.T for l in spec.lindblads),
                             spec.ham_weight, spec.diss_weight)
        rho0 = u @ rho0 @ u.T
    gen = gksl.build_generator(spec)
    rhos = gksl.evolve(gen, rho0, times)
    if u is not None:
        for rho in rhos:
            rho[...] = u.T @ rho @ u
    profiles = nonmoral.natural_measure(rhos, dg)
    drift = {
        "max_trace_drift": np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max(),
        "hermiticity_leak": gen.real.leak,
    }
    return profiles, drift


@main.command("propagate")
@click.option("--model", type=click.Choice(["gqsw", "ngqsw"]), required=True)
@click.option("--omega", type=float, required=True)
@click.option("--length", type=int, default=121, show_default=True,
              help="path length")
@click.option("--t-start", type=float, default=30.0, show_default=True)
@click.option("--t-stop", type=float, default=1590.0, show_default=True)
@click.option("--t-step", type=float, default=30.0, show_default=True)
@click.option("--batch", type=int, default=5, show_default=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
@numerical_guard
def cmd_propagate(model, omega, length, t_start, t_stop, t_step, batch,
                  out_csv, out_json):
    """Second-moment propagation sweep on a path, with scaling exponents."""
    t0 = time.time()
    times = _time_grid(t_start, t_stop, t_step)
    if times[0] <= 0:
        raise click.UsageError("--t-start must be positive: the exponents are log-log slopes")
    if batch < 2 or times.size < batch:
        raise click.UsageError(f"need --batch >= 2 and at least --batch time points, "
                               f"got batch {batch} and {times.size} points")
    gksl.check_omega(omega)
    if length < 2:
        raise click.UsageError("--length must be at least 2")
    n = length
    start = (n - 1) // 2
    positions = np.arange(n) - start
    diagnostics = None
    if model == "gqsw":
        profiles = analysis.path_probability_profile(n, start, times, omega)
    else:
        profiles, diagnostics = _ngqsw_path_profiles(n, start, omega, times)
    mu2 = analysis.second_moment(profiles, positions)
    trace = analysis.scaling_exponents(times, mu2, batch)
    rows = itertools.zip_longest(times, mu2, trace.alpha_times, trace.alphas, fillvalue="")
    _write_csv(out_csv, ["t", "mu2", "alpha_mid", "alpha"], rows)
    payload = {"final_alpha": float(trace.alphas[-1])}
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    _write_json(out_json, payload, _report_config(), None, time.time() - t0)


@main.command("converge")
@click.option("--model", type=click.Choice(["lqsw", "gqsw", "ngqsw"]), required=True)
@click.option("--graph", required=True)
@click.option("--omega", type=float, default=0.5, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@numerical_guard
def cmd_converge(model, graph, omega, tol, out):
    """Classify the generator spectrum of a walk on the given graph."""
    t0 = time.time()
    g = parse_graph_spec(graph)
    dig = g if isinstance(g, graphs.DiGraph) else graphs.to_digraph(g)
    # the size check runs before any operator is built
    if model == "ngqsw":
        dg = nonmoral.demoralize(dig)
        analysis.check_generator_dim(dg.dim)
        spec = nonmoral.ngqsw_spec(dg, omega)
    else:
        analysis.check_generator_dim(dig.n)
        spec = (gksl.lqsw_spec if model == "lqsw" else gksl.gqsw_spec)(dig, omega)
    gen = gksl.build_generator(spec)
    report = analysis.classify_convergence(gen, tol=tol)
    payload = {
        "classification": report.classification,
        "zero_multiplicity": report.zero_multiplicity,
        "second_smallest_abs": report.second_smallest_abs,
        "imaginary_count": report.imaginary_count,
        "tol": report.tol,
    }
    _write_json(out, payload, _report_config(), None, time.time() - t0)


@main.command("search")
@click.option("--graph", required=True)
@click.option("--kind", type=click.Choice(list(search.GRAPH_MATRIX_KINDS)),
              default="adjacency", show_default=True)
@click.option("--marked", type=int, required=True, help="1-based vertex")
@click.option("--gamma-rule", type=click.Choice(["s1", "caption"]), default="s1",
              show_default=True)
@click.option("--gamma", type=float, default=None,
              help="explicit transition rate, overrides the rule")
@click.option("--t-start", type=float, default=None)
@click.option("--t-stop", type=float, default=None)
@click.option("--t-step", type=float, default=None)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
@numerical_guard
def cmd_search(graph, kind, marked, gamma_rule, gamma, t_start, t_stop,
               t_step, out_csv, out_json):
    """Success-probability scan of the spatial search; auto grid when no
    time options are given."""
    t0 = time.time()
    g = parse_graph_spec(graph)
    if isinstance(g, graphs.DiGraph):
        raise click.UsageError("search requires an undirected graph")
    if not 1 <= marked <= g.n:
        raise click.UsageError(f"--marked must lie in 1..{g.n}")
    if gamma is not None and not math.isfinite(gamma):
        raise click.UsageError("--gamma must be finite")
    w = marked - 1
    spec = search.search_spectrum(g, kind)
    stats = search.search_stats(spec, w)
    if t_start is None and t_stop is None and t_step is None:
        times = np.linspace(0.0, 3.0 * stats.predicted_t, 301)
    else:
        if None in (t_start, t_stop, t_step):
            raise click.UsageError("give all of --t-start/--t-stop/--t-step or none")
        times = _time_grid(t_start, t_stop, t_step)
    # config.gamma keeps the --gamma given, null for a rule
    rate = gamma if gamma is not None else (
        stats.s1 if gamma_rule == "s1" else stats.caption_gamma)
    run = search.run_search(spec, w, rate, times)
    _write_csv(out_csv, ["t", "p"], list(zip(times, run.probs)))
    payload = {
        "stats": {
            "eps": stats.eps, "S1": stats.s1, "S2": stats.s2, "S3": stats.s3,
            "gap": stats.gap, "condition_holds": stats.condition_holds,
            "predicted_t": stats.predicted_t, "gamma": rate,
        },
        "argmax_t": run.argmax_t,
        "p_max": run.p_max,
    }
    _write_json(out_json, payload, _report_config(), None, time.time() - t0)


def _sweep_er_p0(outdir, seed, samples, p0_list, n, marked_per_graph):
    rows = []
    root = np.random.SeedSequence(seed)
    for p0 in p0_list:
        probs = []
        children = root.spawn(samples)
        for s in range(samples):
            rng = np.random.default_rng(children[s])
            g = graphs.gen_er(n, min(1.0, p0 * math.log(n) / n),
                              int(rng.integers(2**32)))
            gc = graphs.giant_component(g)
            spec = search.search_spectrum(gc, "laplacian")
            t_meas = math.pi * math.sqrt(gc.n) / 2.0
            marked = rng.choice(gc.n, size=min(marked_per_graph, gc.n),
                                replace=False)
            for w in marked.tolist():
                gamma = search.search_stats(spec, w).caption_gamma
                run = search.run_search(spec, w, gamma, np.array([t_meas]))
                probs.append(run.probs[0])
        bound = search.lambert_bound(p0) if p0 > 1 else 0.0
        rows.append([p0, n, float(np.min(probs)), float(np.mean(probs)), bound])
        _write_csv(os.path.join(outdir, f"er_p0_{p0}.csv"), ["p"],
                   [[p] for p in probs])
    _write_csv(os.path.join(outdir, "aggregate.csv"),
               ["p0", "n", "minP", "meanP", "bound"], rows)


def _sweep_ba_search(outdir, seed, samples, n_list, m0):
    rows = []
    root = np.random.SeedSequence(seed)
    for n in n_list:
        children = root.spawn(samples)
        for s in range(samples):
            rng = np.random.default_rng(children[s])
            g = graphs.gen_ba(n, m0, int(rng.integers(2**32)))
            w = n - 1
            spec = search.search_spectrum(g, "normalized_laplacian")
            stats = search.search_stats(spec, w)
            run = search.run_search(spec, w, stats.s1, np.array([stats.predicted_t]))
            rows.append([n, stats.predicted_t, run.probs[0]])
    _write_csv(os.path.join(outdir, "aggregate.csv"), ["n", "T", "pT"], rows)


def _config_number(key, value, low, kind=int):
    """The config field `key` as given; UsageError unless it is a JSON
    integer (kind int) or a JSON number that is not a bool (kind float),
    finite and at least low."""
    # `type(x) is int` is a JSON integer: it excludes bools and floats such as 3.0
    try:
        ok = type(value) is int if kind is int else (
            type(value) in (int, float) and math.isfinite(float(value)))
    except OverflowError:   # an integer beyond the float range
        ok = False
    if not (ok and value >= low):
        what = "an integer" if kind is int else "a number"
        raise click.UsageError(f"config field {key!r} must be {what} >= {low}, got {value!r}")
    return value


def _config_list(key, values, low, kind=int):
    """The config field `key` as given: a nonempty list, each entry of
    which _config_number accepts."""
    if not (isinstance(values, list) and values):
        raise click.UsageError(f"config field {key!r} must be a nonempty list")
    for v in values:
        _config_number(key, v, low, kind)
    return values


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@numerical_guard
def cmd_sweep(config_path):
    """Run a multi-sample experiment described by a JSON config file."""
    t0 = time.time()
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read config {config_path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config must be a JSON object")
    samples = _config_number("samples", cfg.get("samples", 0), 1)
    seed = _config_number("seed", cfg.get("seed", 0), 0)
    kind = cfg.get("kind")
    if kind == "er_p0":
        run = functools.partial(
            _sweep_er_p0, p0_list=_config_list("p0", cfg.get("p0", [2.0, 4.0, 8.0]), 0.0, float),
            n=_config_number("n", cfg.get("n", 200), 1),
            marked_per_graph=_config_number("marked_per_graph", cfg.get("marked_per_graph", 5), 1))
    elif kind == "ba_search":
        m0 = _config_number("m0", cfg.get("m0", 3), 1)
        run = functools.partial(_sweep_ba_search, m0=m0,
                                n_list=_config_list("n", cfg.get("n", [100, 200, 400]), m0))
    else:
        raise click.UsageError(f"unknown sweep kind {kind!r}")
    outdir = cfg.get("outdir", ".")
    if not isinstance(outdir, str):
        raise click.UsageError("config field 'outdir' must be a string")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create output directory {outdir}: {exc.strerror or exc}")
    run(outdir, seed, samples)
    _write_json(os.path.join(outdir, "sweep.json"), {}, cfg, seed, time.time() - t0)


if __name__ == "__main__":
    main()

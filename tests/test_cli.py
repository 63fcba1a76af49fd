import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg
from click.testing import CliRunner

import oracles
from qswlab import analysis, cli, gksl, graphs, nonmoral, numkernel, search
from qswlab.exceptions import NumericalError


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_graph_spec():
    assert cli.parse_graph_spec("path:5") == graphs.path(5)
    assert cli.parse_graph_spec("complete:4") == graphs.complete(4)
    assert cli.parse_graph_spec("star:6") == graphs.star(6)


def test_parse_graph_spec_errors(tmp_path):
    import click
    for bad in ("path", "path:x", "ring:5", "path:0"):
        with pytest.raises(click.UsageError):
            cli.parse_graph_spec(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 0, "directed": True, "edges": []}))
    with pytest.raises(click.UsageError, match="graph size must be positive"):
        cli.parse_graph_spec(f"file:{empty}")


def test_graphgen_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        r = runner.invoke(cli.main, ["graphgen", "--model", "er", "--n", "100",
                                     "--p", "0.05", "--seed", "42",
                                     "--out", str(out)])
        assert r.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = graphs.from_json(out1.read_text())
    assert g.n == 100


def test_graphgen_ba_bounds(runner, tmp_path):
    out = tmp_path / "ba.json"
    r = runner.invoke(cli.main, ["graphgen", "--model", "ba", "--n", "50",
                                 "--m0", "3", "--seed", "1", "--out", str(out)])
    assert r.exit_code == 0
    g = graphs.from_json(out.read_text())
    assert graphs.is_connected(g)
    assert len(g.edges) <= 150


def test_graphgen_usage_errors(runner, tmp_path):
    """A missing model parameter or one outside its domain exits 2 with no
    traceback and writes no graph."""
    out = tmp_path / "x.json"
    for args in (["--model", "er"],                     # missing --p
                 ["--model", "er", "--p", "2.0"],
                 ["--model", "er", "--p", "nan"],
                 ["--model", "er", "--p", "-0.1"],
                 ["--model", "ba", "--m0", "0"],
                 ["--model", "ba", "--m0", "11"],          # m0 > n
                 ["--model", "cl", "--a", "0.5", "--b", "0.6"]):
        r = runner.invoke(cli.main, ["graphgen", "--n", "10", *args, "--out", str(out)])
        assert r.exit_code == 2, (args, r.output)
        assert isinstance(r.exception, SystemExit), (args, r.exception)
        assert not out.exists()


@pytest.mark.parametrize("model_args", [["er", "--p", "0.5"], ["ba", "--m0", "2"],
                                        ["cl", "--a", "0.2", "--b", "0.3"]],
                         ids=["er", "ba", "cl"])
def test_graphgen_negative_seed_exits_2(runner, tmp_path, model_args):
    """numpy refuses a negative seed with a bare ValueError, which exited 1."""
    out = tmp_path / "x.json"
    r = runner.invoke(cli.main, ["graphgen", "--model", *model_args, "--n", "10",
                                 "--seed", "-1", "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit), r.exception
    assert "seed must be an integer >= 0, got -1" in r.output
    assert not out.exists()


def test_propagate_gqsw(runner, tmp_path):
    csv_p, json_p = tmp_path / "p.csv", tmp_path / "p.json"
    r = runner.invoke(cli.main, [
        "propagate", "--model", "gqsw", "--omega", "1.0", "--length", "201",
        "--t-start", "30", "--t-stop", "300", "--t-step", "30",
        "--batch", "5", "--out-csv", str(csv_p), "--out-json", str(json_p)])
    assert r.exit_code == 0, r.output
    doc = json.loads(json_p.read_text())
    assert abs(doc["final_alpha"] - 1.0) < 0.05
    assert doc["config"]["model"] == "gqsw"
    with open(csv_p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mu2", "alpha_mid", "alpha"]
    assert len(rows) == 11
    assert "diagnostics" not in doc   # the closed form evolves no density matrix


@pytest.mark.parametrize("args, message", [
    (["graphgen", "--model", "er", "--n", "10000000", "--p", "0.1", "--directed",
      "--out", "g.json"], "error: not enough memory: "),
    (["propagate", "--model", "gqsw", "--omega", "0.5", "--length", "10000000",
      "--out-csv", "p.csv", "--out-json", "p.json"],
     f"is above the cap {analysis.PROFILE_LENGTH_CAP}"),
], ids=["graphgen", "propagate"])
def test_input_too_large_to_allocate_exits_2(runner, tmp_path, monkeypatch, args, message):
    """Each run would need an n x n array of 8-byte entries, n = 10^7: 728 TiB,
    beyond the 128 TiB a 64-bit Linux process can address. graphgen asks
    for it, and the allocation fails at once whatever the memory policy;
    propagate refuses the length at analysis.PROFILE_LENGTH_CAP first."""
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(cli.main, args)
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit), r.exception
    assert message in r.output and "Traceback" not in r.output
    assert not any(tmp_path.iterdir())


def test_propagate_gqsw_above_the_length_cap_exits_2(runner, tmp_path, monkeypatch):
    """One vertex past the cap is refused before any n x n array exists;
    the run at the cap itself, about 0.93 GB, is left out."""
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(cli.main, [
        "propagate", "--model", "gqsw", "--omega", "0.5", "--length", "4001",
        "--t-start", "1", "--t-stop", "2", "--t-step", "1", "--batch", "2",
        "--out-csv", "p.csv", "--out-json", "p.json"])
    assert r.exit_code == 2, r.output
    assert "error: path length 4001 is above the cap 4000" in r.output
    assert not any(tmp_path.iterdir())


def test_propagate_empty_grid_exits_2(runner, tmp_path):
    r = runner.invoke(cli.main, [
        "propagate", "--model", "gqsw", "--omega", "0.5",
        "--t-start", "10", "--t-stop", "5", "--t-step", "1",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")])
    assert r.exit_code == 2


def test_converge_fixture_classifications(runner, tmp_path):
    g_file = tmp_path / "circ.json"
    g_file.write_text(graphs.to_json(oracles.circulant_jump2(8)))
    out = tmp_path / "rep.json"
    r = runner.invoke(cli.main, ["converge", "--model", "gqsw",
                                 "--graph", f"file:{g_file}", "--out", str(out)])
    assert r.exit_code == 0, r.output
    doc = json.loads(out.read_text())
    assert doc["classification"] == "PossiblyPeriodic"
    assert doc["tol"] == 1e-10

    cyc = tmp_path / "cycle.json"
    cyc.write_text(graphs.to_json(
        graphs.DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))))
    r = runner.invoke(cli.main, ["converge", "--model", "lqsw",
                                 "--graph", f"file:{cyc}", "--tol", "1e-9",
                                 "--out", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "Relaxing"
    assert doc["tol"] == 1e-9


def test_search_complete_auto_grid(runner, tmp_path):
    csv_p, json_p = tmp_path / "s.csv", tmp_path / "s.json"
    r = runner.invoke(cli.main, ["search", "--graph", "complete:64",
                                 "--marked", "1",
                                 "--out-csv", str(csv_p), "--out-json", str(json_p)])
    assert r.exit_code == 0, r.output
    doc = json.loads(json_p.read_text())
    t_opt = math.pi * 8 / 2
    assert abs(doc["argmax_t"] - t_opt) / t_opt < 0.1
    assert doc["p_max"] > 0.9


def test_search_marked_out_of_range(runner, tmp_path):
    r = runner.invoke(cli.main, ["search", "--graph", "complete:8",
                                 "--marked", "9",
                                 "--out-csv", str(tmp_path / "s.csv"),
                                 "--out-json", str(tmp_path / "s.json")])
    assert r.exit_code == 2


def test_sweep_requires_samples(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "er_p0", "samples": 0}))
    r = runner.invoke(cli.main, ["sweep", "--config", str(cfg)])
    assert r.exit_code == 2


@pytest.mark.parametrize("text, message", [
    (json.dumps({"kind": "er_p0", "samples": "x"}), "'samples'"),
    (json.dumps([{"kind": "er_p0", "samples": 1}]), "JSON object"),
    ('{"kind": "er_p0", "samples": 1', "cannot read config"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 0}), "'n'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [2]}), "'n'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "marked_per_graph": 0}),
     "'marked_per_graph'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "p0": [-1.0]}), "'p0'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "p0": 2.0}), "'p0'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": 30}), "'n'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [30], "seed": -1}), "'seed'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [30], "outdir": 3}), "'outdir'"),
    # every count, size and seed is a JSON integer, never truncated
    (json.dumps({"kind": "ba_search", "samples": 1.9, "n": [30]}), "'samples'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [30], "seed": True}), "'seed'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [30], "seed": 1.0}), "'seed'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [100.7], "m0": 3}), "'n'"),
    (json.dumps({"kind": "ba_search", "samples": 1, "n": [30], "m0": 3.0}), "'m0'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 60.5}), "'n'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "marked_per_graph": 2.5}),
     "'marked_per_graph'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "p0": [True]}), "'p0'"),
    (json.dumps({"kind": "er_p0", "samples": 1, "n": 20, "p0": ["2"]}), "'p0'"),
    ('{"kind": "er_p0", "samples": 1, "n": 20, "p0": [1e400]}', "'p0'"),
    ('{"kind": "er_p0", "samples": 1, "n": 20, "p0": [1%s]}' % ("0" * 400), "'p0'"),
], ids=["samples_not_a_number", "list", "malformed", "er_n0", "ba_n_below_m0",
        "zero_marked", "negative_p0", "p0_not_a_list", "ba_n_not_a_list", "negative_seed",
        "outdir_not_a_string", "samples_float", "seed_bool", "seed_float", "ba_n_float",
        "m0_float", "er_n_float", "marked_float", "p0_bool", "p0_string", "p0_infinite",
        "p0_beyond_float"])
def test_sweep_bad_config_exits_2(runner, tmp_path, text, message):
    """A malformed config is refused with exit 2 before the sweep runs, and
    the message names the field."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    r = runner.invoke(cli.main, ["sweep", "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert message in r.output


def test_sweep_ba_search_small(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    outdir = tmp_path / "out"
    cfg.write_text(json.dumps({"kind": "ba_search", "samples": 2,
                               "n": [30], "m0": 2, "seed": 5,
                               "outdir": str(outdir)}))
    r = runner.invoke(cli.main, ["sweep", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    with open(outdir / "aggregate.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "T", "pT"]
    assert len(rows) == 3
    doc = json.loads((outdir / "sweep.json").read_text())
    assert doc["config"]["kind"] == "ba_search"
    assert doc["version"]


def _unwritable_report(tmp_path, case):
    """A command line whose report path cannot be written, and that path."""
    missing = tmp_path / "missing"
    if case == "converge":
        bad = missing / "c.json"
        return ["converge", "--model", "lqsw", "--graph", "path:3", "--out", str(bad)], bad
    if case == "graphgen":
        bad = missing / "g.json"
        return ["graphgen", "--model", "er", "--n", "5", "--p", "0.5",
                "--out", str(bad)], bad
    if case == "search":
        return ["search", "--graph", "complete:4", "--marked", "1", "--out-csv",
                str(tmp_path), "--out-json", str(tmp_path / "s.json")], tmp_path
    if case == "propagate":
        bad = missing / "p.csv"
        return ["propagate", "--model", "gqsw", "--omega", "0.5", "--length", "5",
                "--t-start", "1", "--t-stop", "3", "--t-step", "1", "--batch", "2",
                "--out-csv", str(bad), "--out-json", str(missing / "p.json")], bad
    if case == "devfull":
        return ["graphgen", "--model", "er", "--n", "5", "--p", "0.5",
                "--out", "/dev/full"], "/dev/full"
    bad = tmp_path / "taken"
    bad.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ba_search", "samples": 1, "n": [10], "m0": 2,
                               "outdir": str(bad)}))
    return ["sweep", "--config", str(cfg)], bad


@pytest.mark.parametrize("case", [
    "converge", "graphgen", "search", "propagate", "sweep",
    pytest.param("devfull", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
])
def test_unwritable_report_path_exits_2(runner, tmp_path, case):
    """A report path in a missing directory, a report path that is a
    directory, a sweep outdir that is a file, and a device whose every
    write fails (/dev/full) all exit 2 and name the path."""
    args, bad = _unwritable_report(tmp_path, case)
    r = runner.invoke(cli.main, args)
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert str(bad) in r.output


def _graphgen(runner, out, n):
    r = runner.invoke(cli.main, ["graphgen", "--model", "er", "--n", str(n),
                                 "--p", "0.5", "--seed", "3", "--out", str(out)])
    assert r.exit_code == 0, r.output


def test_rewrite_with_shorter_text_leaves_no_stale_tail(runner, tmp_path):
    """An output is overwritten in place and cut at the end of the new
    text: a short graph written over a long one, and a report written
    over a longer file, read back as written to a fresh path."""
    out, fresh = tmp_path / "g.json", tmp_path / "fresh.json"
    _graphgen(runner, out, 40)
    long_size = out.stat().st_size
    _graphgen(runner, out, 4)
    _graphgen(runner, fresh, 4)
    assert out.stat().st_size < long_size
    assert out.read_bytes() == fresh.read_bytes()
    assert graphs.from_json(out.read_text()).n == 4

    report = tmp_path / "c.json"
    report.write_text("x" * 100_000)
    args = ["converge", "--model", "lqsw", "--graph", "path:4", "--out", str(report)]
    r = runner.invoke(cli.main, args)
    assert r.exit_code == 0, r.output
    doc = json.loads(report.read_text())
    assert doc["classification"] and doc["config"]["graph"] == "path:4"


def test_rewrite_keeps_hard_links_and_mode(runner, tmp_path):
    out, link = tmp_path / "g.json", tmp_path / "link.json"
    _graphgen(runner, out, 30)
    os.link(out, link)
    os.chmod(out, 0o640)
    _graphgen(runner, out, 5)
    assert link.read_bytes() == out.read_bytes()
    assert graphs.from_json(link.read_text()).n == 5
    assert os.stat(out).st_mode & 0o777 == 0o640
    assert os.stat(out).st_nlink == 2


def test_output_to_a_device_is_written_uncut(runner):
    """A character device takes the text and is not truncated, which it
    would refuse."""
    r = runner.invoke(cli.main, ["graphgen", "--model", "er", "--n", "5",
                                 "--p", "0.5", "--out", os.devnull])
    assert r.exit_code == 0, r.output


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes to a read-only file")
def test_read_only_report_exits_2_and_is_kept(runner, tmp_path):
    out = tmp_path / "g.json"
    _graphgen(runner, out, 30)
    before = out.read_bytes()
    os.chmod(out, 0o444)
    r = runner.invoke(cli.main, ["graphgen", "--model", "er", "--n", "5",
                                 "--p", "0.5", "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert str(out) in r.output
    assert out.read_bytes() == before


def test_search_report_echoes_its_grid(runner, tmp_path):
    """The config of a search report holds the time grid it ran on, null
    for the auto grid, and the --gamma given, null for a rule, so the run
    can be repeated from the report; stats.gamma is the rate the search ran
    with: S1, S1 / (1 - eps) or the --gamma given."""
    args = _search_args(tmp_path, "complete:8", 1)
    r = runner.invoke(cli.main, args + ["--t-start", "0", "--t-stop", "2", "--t-step", "0.5"])
    assert r.exit_code == 0, r.output
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert (config["t_start"], config["t_stop"], config["t_step"]) == (0.0, 2.0, 0.5)
    r = runner.invoke(cli.main, args)
    assert r.exit_code == 0, r.output
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert (config["t_start"], config["t_stop"], config["t_step"]) == (None, None, None)
    args = _search_args(tmp_path, "star:12", 3)
    for extra in ([], ["--gamma-rule", "s1"], ["--gamma-rule", "caption"],
                  ["--gamma", "0.37"], ["--gamma-rule", "caption", "--gamma", "-0.2"]):
        r = runner.invoke(cli.main, args + extra)
        assert r.exit_code == 0, r.output
        doc = json.loads((tmp_path / "s.json").read_text())
        given = float(extra[-1]) if "--gamma" in extra else None
        assert doc["config"]["gamma"] == given
        st = doc["stats"]
        if given is not None:
            assert st["gamma"] == given
        elif "caption" in extra:
            assert st["gamma"] == pytest.approx(st["S1"] / (1.0 - st["eps"]), rel=1e-15)
        else:
            assert st["gamma"] == st["S1"]


def _search_args(tmp_path, graph, marked):
    return ["search", "--graph", graph, "--marked", str(marked),
            "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")]


@pytest.mark.parametrize("edges, n, marked, message", [
    ([], 1, 1, "at least 2 vertices"),                     # path:1
    ([[1, 2], [3, 4]], 4, 1, "not simple"),                # two disjoint K2
    ([[1, 2], [2, 3], [4, 5]], 5, 5, "no overlap"),        # eps = 0
    ([[1.9, 2]], 3.7, 1, "cannot load graph file"),         # malformed file
    ([[1, 2], [2, 1], [1, 2]], 3, 1, "cannot load graph file"),
])
def test_search_domain_errors_exit_2(runner, tmp_path, edges, n, marked, message):
    g_file = tmp_path / "g.json"
    g_file.write_text(json.dumps({"n": n, "directed": False, "edges": edges}))
    spec = "path:1" if n == 1 else f"file:{g_file}"
    r = runner.invoke(cli.main, _search_args(tmp_path, spec, marked))
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert message in r.output
    assert not (tmp_path / "s.json").exists()


def test_write_json_rejects_non_finite(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(NumericalError):
        cli._write_json(out, {"x": math.inf}, {}, None, 0.25)
    assert not out.exists()
    cli._write_json(out, {"x": 1.5}, {}, None, 0.25)
    assert list(json.loads(out.read_text()).items()) == [
        ("config", {}), ("seed", None), ("version", cli.__version__), ("wallclock_sec", 0.25),
        ("x", 1.5)]


def test_search_non_finite_report_exits_3(runner, tmp_path, monkeypatch):
    real = search.search_stats

    def nan_gap(spec, w):
        return dataclasses.replace(real(spec, w), gap=math.nan)

    monkeypatch.setattr(search, "search_stats", nan_gap)
    r = runner.invoke(cli.main, _search_args(tmp_path, "complete:16", 1))
    assert r.exit_code == 3, r.output
    assert "non-finite" in r.output
    assert not (tmp_path / "s.json").exists()


def _arpack_no_convergence(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))


def _arpack_error(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackError(-9999)


def _minres_short(a, b, **kwargs):
    return np.zeros_like(b), 17   # info = iterations run without meeting rtol


def _minres_wrong(a, b, **kwargs):
    return np.ones_like(b), 0     # reported as converged, but no solution


@pytest.mark.parametrize("name, fake, message", [
    ("eigsh", _arpack_no_convergence, "ARPACK"),
    ("eigsh", _arpack_error, "ARPACK"),
    ("minres", _minres_short, "short of its tolerance"),
    ("minres", _minres_wrong, "backward error"),
], ids=["arpack-no-convergence", "arpack-error", "minres-short", "minres-wrong"])
def test_search_solver_failure_exits_3(runner, tmp_path, monkeypatch, name, fake, message):
    """An ARPACK failure in search_spectrum, and a MINRES solve in
    search_stats that stops short or returns a solution its residual
    refutes, are numerical failures: exit 3, no traceback and no report."""
    monkeypatch.setattr(scipy.sparse.linalg, name, fake)
    r = runner.invoke(cli.main, _search_args(tmp_path, "star:9", 2))
    assert r.exit_code == 3, r.output
    assert message in r.output and "Traceback" not in r.output
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "s.csv").exists()


def test_search_repeats_byte_for_byte_in_fresh_processes(tmp_path):
    """ARPACK starts from a fixed vector, not its random default, so two
    runs in fresh interpreters write the same CSV and the same JSON apart
    from wallclock_sec."""
    graph = tmp_path / "ba.json"
    graph.write_text(graphs.to_json(graphs.gen_ba(120, 3, seed=4)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for run in (1, 2):
        csv_path, json_path = tmp_path / f"s{run}.csv", tmp_path / f"s{run}.json"
        args = ["search", "--graph", f"file:{graph}", "--kind", "adjacency", "--marked", "120",
                "--out-csv", str(csv_path), "--out-json", str(json_path)]
        subprocess.run([sys.executable, "-c", f"import qswlab.cli; qswlab.cli.main({args!r})"],
                       env=env, check=True, timeout=120)
        doc = json.loads(json_path.read_text())
        doc.pop("wallclock_sec")
        outputs.append((csv_path.read_bytes(), json.dumps(doc, sort_keys=True)))
    assert outputs[0] == outputs[1]


def test_one_graph_decomposition_shared_by_marked_vertices(runner, tmp_path, monkeypatch):
    """The ARPACK work (lambda_max and the gap) runs once per graph, not once
    per marked vertex, and no eigensolve is dense in the graph size."""
    arpack_calls = []
    real_eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda a, **kw: arpack_calls.append(a.shape) or real_eigsh(a, **kw))
    eig_spy = []   # the input of every dense Hermitian eigensolve
    real = numkernel.eig_hermitian
    monkeypatch.setattr(numkernel, "eig_hermitian",
                        lambda h: eig_spy.append(np.asarray(h)) or real(h))
    marked, samples, n = 3, 2, 200
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "er_p0", "n": n, "p0": [2.0],
                               "samples": samples, "marked_per_graph": marked,
                               "seed": 4, "outdir": str(tmp_path / "er")}))
    r = runner.invoke(cli.main, ["sweep", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    # lambda_max(L) and lambda_2 per graph, none per marked vertex
    assert len(arpack_calls) == 2 * samples
    # one projected matrix per marked vertex, far smaller than the graph
    assert len(eig_spy) == samples * marked
    assert all(h.shape[0] < 0.6 * n for h in eig_spy), [h.shape for h in eig_spy]

    r = runner.invoke(cli.main, _search_args(tmp_path, "star:20", 2))
    assert r.exit_code == 0, r.output
    assert len(arpack_calls) == 2 * samples + 2
    assert len(eig_spy) == samples * marked + 1
    assert not any(np.iscomplexobj(h) for h in eig_spy)


def _propagate_args(tmp_path, model, length, grid, batch=5):
    return ["propagate", "--model", model, "--omega", "0.5", "--length", str(length),
            "--t-start", grid[0], "--t-stop", grid[1], "--t-step", grid[2],
            "--batch", str(batch),
            "--out-csv", str(tmp_path / "p.csv"), "--out-json", str(tmp_path / "p.json")]


def _assert_usage_error(r, tmp_path):
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert not (tmp_path / "p.json").exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("grid", [("0", "inf", "1"), ("0", "5", "nan"),
                                  ("nan", "5", "1"), ("-inf", "5", "1")])
def test_search_non_finite_grid_exits_2(runner, tmp_path, grid):
    args = _search_args(tmp_path, "complete:8", 1) + [
        "--t-start", grid[0], "--t-stop", grid[1], "--t-step", grid[2]]
    r = runner.invoke(cli.main, args)
    _assert_usage_error(r, tmp_path)
    assert "finite" in r.output


@pytest.mark.parametrize("grid", [("-3", "3", "1"), ("-1e-9", "1", "0.5")])
def test_search_negative_times_exit_2(runner, tmp_path, grid):
    """p(-t) = p(t) for a real H_G, so a negative grid wrote mirror values
    and exited 0; run_search now keeps the grid rule of expm_apply."""
    args = _search_args(tmp_path, "star:6", 2) + [
        "--t-start", grid[0], "--t-stop", grid[1], "--t-step", grid[2]]
    r = runner.invoke(cli.main, args)
    _assert_usage_error(r, tmp_path)
    assert "nonnegative" in r.output
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("model", ["gqsw", "ngqsw"])
@pytest.mark.parametrize("grid, batch, message", [
    (("1", "inf", "1"), 5, "finite"),
    (("1", "5", "nan"), 5, "finite"),
    (("0", "8", "2"), 5, "positive"),           # log-log slopes need t > 0
    (("1", "3", "1"), 5, "at least --batch"),   # 3 points, batch 5
    (("1", "5", "1"), 1, "--batch >= 2"),
])
def test_propagate_bad_grid_exits_2(runner, tmp_path, model, grid, batch, message):
    r = runner.invoke(cli.main, _propagate_args(tmp_path, model, 9, grid, batch))
    _assert_usage_error(r, tmp_path)
    assert message in r.output


def test_propagate_zero_second_moment_exits_2(runner, tmp_path):
    """At t = 5e-324 the ngqsw walker has not left the centre: mu2 is
    exactly 0 and has no log-log slope."""
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", 2, ("5e-324", "0.5", "0.25"), 2))
    _assert_usage_error(r, tmp_path)
    assert "log-log slopes need positive data, got 0.0 at t = 5e-324" in r.output


@pytest.mark.parametrize("grid", [("0", "1", "5e-324"), ("-1e308", "1e308", "1"),
                                  ("0", "100000", "1")])
def test_search_oversized_grid_exits_2(runner, tmp_path, grid):
    args = _search_args(tmp_path, "complete:8", 1) + [
        "--t-start", grid[0], "--t-stop", grid[1], "--t-step", grid[2]]
    r = runner.invoke(cli.main, args)
    _assert_usage_error(r, tmp_path)
    assert "more than 100000 points" in r.output


@pytest.mark.parametrize("model", ["gqsw", "ngqsw"])
@pytest.mark.parametrize("length", [-3, 0, 1])
def test_propagate_short_path_exits_2(runner, tmp_path, model, length):
    r = runner.invoke(cli.main, _propagate_args(tmp_path, model, length, ("1", "5", "1")))
    _assert_usage_error(r, tmp_path)
    assert "--length must be at least 2" in r.output


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_search_non_finite_gamma_exits_2(runner, tmp_path, gamma):
    r = runner.invoke(cli.main, _search_args(tmp_path, "complete:8", 1) + ["--gamma", gamma])
    _assert_usage_error(r, tmp_path)
    assert "--gamma must be finite" in r.output


def test_propagate_ngqsw_matches_dense_expm(runner, tmp_path):
    n = 21
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", n, ("1", "2", "1"), 2))
    assert r.exit_code == 0, r.output
    with open(tmp_path / "p.csv") as fh:
        rows = list(csv.DictReader(fh))
    times = np.array([float(row["t"]) for row in rows])
    mu2 = np.array([float(row["mu2"]) for row in rows])
    assert np.array_equal(times, [1.0, 2.0])

    # independent oracle: scipy's Taylor expm_multiply on the complex S for
    # each time, nothing chained (expm_apply is a Krylov method on the real
    # form R); it agrees with a dense expm of S to 5e-16 here
    dg = nonmoral.demoralize(graphs.to_digraph(graphs.path(n)))
    h = 0.5 * nonmoral.standard_hamiltonian(dg) + 0.5 * nonmoral.standard_rotating_hamiltonian(dg)
    s = gksl.build_generator(
        gksl.WalkSpec(h, nonmoral.symmetrized_path_lindblads(dg), 1.0, 0.5)).s
    rho0 = nonmoral.block_mixed_state(dg, (n - 1) // 2).reshape(-1)
    positions = np.arange(1, n + 1) - (n + 1) // 2
    for t, got in zip(times, mu2):
        diag = scipy.sparse.linalg.expm_multiply(s * t, rho0)
        diag = diag.reshape(dg.dim, dg.dim).diagonal().real
        p = np.array([diag[list(dg.index[v])].sum() for v in range(n)])
        want = float(np.sum(positions ** 2 * p))
        assert abs(got - want) <= 1e-8 * want

    diagnostics = json.loads((tmp_path / "p.json").read_text())["diagnostics"]
    assert set(diagnostics) == {"max_trace_drift", "hermiticity_leak"}
    for value in diagnostics.values():
        assert math.isfinite(value) and 0.0 <= value < gksl.DRIFT_TOL


def test_propagate_ngqsw_one_expm_call(runner, tmp_path, monkeypatch):
    calls = []
    real = numkernel.expm_apply
    monkeypatch.setattr(numkernel, "expm_apply",
                        lambda m, v, t: calls.append((m, np.asarray(t))) or real(m, v, t))
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", 9, ("2", "12", "2")))
    assert r.exit_code == 0, r.output
    assert len(calls) == 1
    m, times = calls[0]
    assert np.array_equal(times, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    assert m.dtype == np.float64


def test_propagate_ngqsw_drifted_state_exits_3(runner, tmp_path, monkeypatch):
    """A state that fails check_density is a numerical failure."""
    monkeypatch.setattr(gksl, "DRIFT_TOL", -1.0)
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", 7, ("1", "5", "1")))
    assert r.exit_code == 3, r.output
    assert "numerical failure:" in r.output and "Traceback" not in r.output


@pytest.mark.parametrize("args, keys", [
    (["propagate", "--model", "gqsw", "--omega", "0.5", "--length", "9", "--t-start", "1",
      "--t-stop", "5", "--t-step", "1", "--batch", "3"],
     ["model", "omega", "length", "t_start", "t_stop", "t_step", "batch"]),
    (["converge", "--model", "gqsw", "--graph", "path:4", "--omega", "0.5", "--tol", "1e-9"],
     ["model", "graph", "omega", "tol"]),
    (["search", "--graph", "complete:8", "--kind", "laplacian", "--marked", "1",
      "--gamma-rule", "caption", "--gamma", "0.5", "--t-start", "0", "--t-stop", "2",
      "--t-step", "1"],
     ["graph", "kind", "marked", "gamma_rule", "gamma", "t_start", "t_stop", "t_step"]),
])
def test_report_config_lists_the_options_in_declaration_order(runner, tmp_path, args, keys):
    """The config is the command and its non-output options, in the order
    the command declares them, whatever order the command line gives."""
    command, options = args[0], list(zip(args[1::2], args[2::2]))
    outputs = (["--out", str(tmp_path / "r.json")] if command == "converge" else
               ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
    for order in (options, options[::-1]):
        r = runner.invoke(cli.main, [command, *outputs, *(x for pair in order for x in pair)])
        assert r.exit_code == 0, r.output
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert list(config) == ["command", *keys]
        assert config["command"] == command


def test_console_script_target_runs():
    """The [project.scripts] entry of pyproject.toml names a callable that
    answers --help."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("no pyproject.toml next to the tests")
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qswlab"]
    module, _, name = target.partition(":")
    r = CliRunner().invoke(getattr(importlib.import_module(module), name), ["--help"])
    assert r.exit_code == 0, r.output
    assert "propagate" in r.output


def test_readme_example_commands_exit_0(runner, tmp_path, monkeypatch):
    """Every qswlab line of README's sh blocks, continuations joined, run in
    one fresh directory in order, after a small er_p0 sweep.json is
    written there, exits 0."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    if not readme.exists():
        pytest.skip("no README.md next to the tests")
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text().replace("\\\n", " "), re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("qswlab ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"kind": "er_p0", "n": 20, "p0": [2.0], "samples": 1, "marked_per_graph": 1,
         "seed": 1, "outdir": "sweep"}))
    for args in commands:
        r = runner.invoke(cli.main, args)
        assert r.exit_code == 0, (args, r.output)


def test_propagate_ngqsw_reports_the_leak_of_the_full_real_form(runner, tmp_path, monkeypatch):
    """An odd length starts at the centre and is evolved in the reflection's
    basis; the report's hermiticity_leak is gen.real.leak of the one
    generator that was built, whose whole real form went to expm_apply."""
    gens, matrices = [], []
    build, expm = gksl.build_generator, numkernel.expm_apply
    monkeypatch.setattr(gksl, "build_generator", lambda spec: gens.append(build(spec)) or gens[-1])
    monkeypatch.setattr(numkernel, "expm_apply",
                        lambda m, v, t: matrices.append(m) or expm(m, v, t))
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", 9, ("2", "12", "2")))
    assert r.exit_code == 0, r.output
    (gen,), (matrix,) = gens, matrices
    assert matrix is gen.real.matrix
    diagnostics = json.loads((tmp_path / "p.json").read_text())["diagnostics"]
    assert diagnostics["hermiticity_leak"] == gen.real.leak


@pytest.mark.parametrize("args", [
    ["propagate", "--model", "gqsw", "--length", "9", "--out-csv", "p.csv", "--out-json", "p.json"],
    ["propagate", "--model", "ngqsw", "--length", "9", "--out-csv", "p.csv", "--out-json", "p.json"],
    ["converge", "--model", "lqsw", "--graph", "path:3", "--out", "c.json"],
])
def test_omega_outside_the_unit_interval_exits_2_with_the_check_omega_message(
        runner, tmp_path, monkeypatch, args):
    """propagate and converge refuse omega = 2 through gksl.check_omega,
    with its message, before any file is written."""
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(cli.main, args + ["--omega", "2"])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: omega must lie in [0, 1], got 2.0" in r.output
    assert list(tmp_path.iterdir()) == []


def test_propagate_gqsw_one_profile_call(runner, tmp_path, monkeypatch):
    calls = []
    real = analysis.path_probability_profile
    monkeypatch.setattr(analysis, "path_probability_profile",
                        lambda n, l, t, omega: calls.append(np.asarray(t)) or real(n, l, t, omega))
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "gqsw", 31, ("2", "12", "2")))
    assert r.exit_code == 0, r.output
    assert len(calls) == 1
    assert np.array_equal(calls[0], [2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    with open(tmp_path / "p.csv") as fh:
        mu2 = np.array([float(row["mu2"]) for row in csv.DictReader(fh)])
    p = real(31, 15, calls[0], 0.5)
    positions = np.arange(31) - 15
    assert np.array_equal(mu2, [float(np.sum(positions ** 2 * row)) for row in p])


@pytest.mark.parametrize("model", ["lqsw", "gqsw", "ngqsw"])
@pytest.mark.parametrize("flag, value, message", [
    ("--omega", "nan", "omega must lie in [0, 1]"),
    ("--omega", "2", "omega must lie in [0, 1]"),
    ("--omega", "-0.5", "omega must lie in [0, 1]"),
    # analysis.classify_convergence owns the tol rule, so its message carries
    # no option name; the ids are those of the CLI's former check
    *(pytest.param("--tol", value, f"tol must be finite and positive, got {float(value)}",
                   id=f"--tol-{value}---tol must be finite and positive")
      for value in ("nan", "inf", "-1", "0")),
])
def test_converge_bad_parameters_exit_2(runner, tmp_path, model, flag, value, message):
    out = tmp_path / "c.json"
    r = runner.invoke(cli.main, ["converge", "--model", model, "--graph", "path:4",
                                 flag, value, "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert message in r.output
    assert not out.exists()


@pytest.mark.parametrize("model", ["lqsw", "gqsw", "ngqsw"])
def test_converge_empty_graph_file_exits_2(runner, tmp_path, model):
    """A 0-vertex graph file is refused as `path:0` is, before any operator
    is built."""
    g_file = tmp_path / "g.json"
    g_file.write_text(json.dumps({"n": 0, "directed": True, "edges": []}))
    out = tmp_path / "c.json"
    r = runner.invoke(cli.main, ["converge", "--model", model, "--graph", f"file:{g_file}",
                                 "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "graph size must be positive" in r.output
    assert not out.exists()


@pytest.mark.parametrize("model, graph", [("lqsw", "complete:51"), ("ngqsw", "complete:12")])
def test_converge_checks_size_before_building(runner, tmp_path, monkeypatch, model, graph):
    """An oversized generator is refused before any operator is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("operators built before the size check")

    for module, name in [(gksl, "lqsw_spec"), (nonmoral, "ngqsw_spec"),
                         (gksl, "build_generator")]:
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "c.json"
    r = runner.invoke(cli.main, ["converge", "--model", model, "--graph", graph,
                                 "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert f"exceeds dense cap {analysis.GENERATOR_DIM_CAP}" in r.output
    assert not out.exists()


def test_propagate_refuses_a_generator_too_large_to_assemble(runner, tmp_path, monkeypatch):
    """Length 2001 (state dimension 4000) would assemble about 7e8 nonzeros;
    the bound is checked before any Kronecker product is formed."""
    def refuse(*args, **kwargs):
        raise AssertionError("generator assembled before the size check")

    monkeypatch.setattr(gksl.sp, "kron", refuse)
    r = runner.invoke(cli.main, _propagate_args(tmp_path, "ngqsw", 2001, ("30", "60", "30"), 2))
    _assert_usage_error(r, tmp_path)
    assert f"above the cap {gksl.GENERATOR_NNZ_CAP:.3g}" in r.output


def _imported_by_cli(modules, args=()):
    """Those of modules that `import qswlab.cli`, and then the command line
    args if any are given, load in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = f"qswlab.cli.main({list(args)!r}, standalone_mode=False); " if args else ""
    code = f"import qswlab.cli, sys; {run}print(sorted({set(modules)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_cli_imports_neither_networkx_nor_numba():
    """The package runs on numpy, scipy and click alone."""
    assert _imported_by_cli({"networkx", "numba"}) == "[]"


def test_cli_import_leaves_out_scipy_optimize():
    """The package needs no scipy.optimize, and only the Lambert bound below
    its series switch needs scipy.special, which it imports itself."""
    assert _imported_by_cli({"scipy.optimize", "scipy.special"}) == "[]"


def test_propagate_leaves_out_scipy_optimize(tmp_path):
    """The default gqsw run (t = 30...1590, 49 slope windows) reports the
    exponents it measures and fits no model to them."""
    args = ["propagate", "--model", "gqsw", "--omega", "0.5",
            "--out-csv", str(tmp_path / "p.csv"), "--out-json", str(tmp_path / "p.json")]
    assert _imported_by_cli({"scipy.optimize"}, args) == "[]"
    doc = json.loads((tmp_path / "p.json").read_text())
    assert "fit" not in doc and math.isfinite(doc["final_alpha"])

"""Smoke test of the benchmark, about a minute on two cores:

    python -m pytest -q perfbench/test_smoke.py

Each workload runs one op on a fixed seed, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit, and no failed op.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 1 + trace
    assert "fail_frac 0 ratio" in proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "search", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_and_restore():
    from tracer import Tracer, layer_metrics, self_times
    from qswlab import numkernel

    original = numkernel.eig_hermitian
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span("op"):
            numkernel.eig_hermitian(np.eye(4, dtype=complex))
    finally:
        tracer.uninstall()
    assert numkernel.eig_hermitian is original
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "numkernel.eig_hermitian", "numkernel.check_hermitian"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    selfs = self_times(tracer.spans)
    durations = [s[2] - s[1] for s in tracer.spans]
    assert selfs[1] == pytest.approx(durations[1] - durations[2])
    m = layer_metrics(tracer.spans, ("numkernel.eig_hermitian",), tracer.functions)
    assert m["numkernel.eig_hermitian.calls"] == 1
    assert m["numkernel.eig_hermitian.complex_calls"] == 1
    assert m["numkernel.eig_hermitian.n3_sum"] == 64
    assert m["numkernel.calls"] == 2


def test_tracer_reports_uncalled_functions_and_survives_a_raise():
    from tracer import Tracer, layer_metrics
    from qswlab import numkernel

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span("op"):
            with pytest.raises(Exception):
                numkernel.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    finally:
        tracer.uninstall()
    assert tracer.spans[1][0] == "numkernel.eig_hermitian"
    assert tracer.spans[1][5] is None
    m = layer_metrics(tracer.spans, ("numkernel.eig_hermitian",), tracer.functions)
    assert m["numkernel.eig_hermitian.calls"] == 1
    assert m["numkernel.eig_hermitian.complex_calls"] == 0
    assert m["numkernel.expm_apply.calls"] == 0
    assert m["numkernel.expm_apply.self_s"] == 0
    assert "numkernel.no_such_function.calls" not in m


def test_a_metric_the_run_lacks_is_an_error():
    from run import BenchError, select_metrics

    declared = [{"name": "a.calls", "unit": "count"}, {"name": "b.gone.calls", "unit": "count"}]
    with pytest.raises(BenchError, match="b.gone.calls"):
        select_metrics(declared, {"a.calls": 1.0})
    assert select_metrics(declared[:1], {"a.calls": 1.0, "c": 2.0}) == \
        {"a.calls": {"value": 1.0, "unit": "count"}}


def test_compare_flags_a_regression_even_when_the_spread_is_wide():
    from compare import _verdict

    parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.2, 0.9]
    change = [3 * x for x in parent]
    assert _verdict(parent, change, "lower", 0.25)[-1] == "worse (unresolved)"
    assert _verdict(parent, parent, "lower", 0.25)[-1] == "unresolved"
    steady = [1.0 + 0.01 * k for k in range(10)]
    assert _verdict(steady, [1.5 * x for x in steady], "lower", 0.25)[-1] == "worse"
    assert _verdict(steady, [0.5 * x for x in steady], "lower", 0.25)[-1] == "better"
    assert _verdict(steady, steady, "lower", 0.25)[-1] == "same"


def test_compare_refuses_a_workload_without_pairs(tmp_path):
    from compare import main

    first = SPEC["workloads"][0]["name"]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        for seed in range(10):
            doc = {"workload": first, "seed": seed, "trace": 0,
                   "details": {"record": {"commit": side}}}
            (tmp_path / side / f"{first}-{seed}.json").write_text(json.dumps(doc))
    assert main(["report", str(tmp_path)]) == 2

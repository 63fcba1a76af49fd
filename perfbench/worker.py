"""The workload process: one closed-loop client that runs qswlab ops in-process.

Started by run.py, never by hand. It pins the BLAS/OpenMP pool to one thread
before numpy is imported, imports qswlab from the checkout's src/, writes the
workload's inputs and prints READY; the launcher times interpreter start-up,
imports and input writing up to that line as one set-up sample. With
--setup-only it exits there. Otherwise it runs one untimed warm-up op, then
ops back to back for --seconds (at least one), checks every output against
the workload's oracles, and writes its measurements to --result as JSON.
"""
from __future__ import annotations

import os

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from qswlab import cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OpFailed(Exception):
    pass


def run_cli(args: list[str]) -> None:
    """One `qswlab ...` call as a user's shell would make it, in-process."""
    try:
        cli.main(args, prog_name="qswlab", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise OpFailed(f"qswlab {args[0]} exited with code {exc.code}") from None
    except Exception as exc:  # the client keeps running and counts the op failed
        raise OpFailed(f"qswlab {args[0]} raised {type(exc).__name__}: {exc}") from exc


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports for itself."""
    out = {}
    for mod in (np, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("lib*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{mod.__name__}:{lib.name}"] = fn()
                    break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(wl) -> dict:
    """What two result files must share before they may be compared."""
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout: the source digest identifies the code
    try:
        nx_version = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        nx_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": _digest((ROOT / "src").rglob("*.py")),
        "bench_sha256": _digest(list(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": nx_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_pinned": THREADS,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": wl.name,
        "seed": wl.seed,
        "op_sizes": wl.sizes,
    }


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it; a run with
    fewer than twenty ops has no such percentile above the median and
    reports its slowest op."""
    s = sorted(times)
    n = len(s)
    if n >= 20:
        return {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n,
                "samples_beyond": 10, "samples": n}
    return {"value": s[-1], "percentile": 100.0, "samples_beyond": 0, "samples": n}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup(run_cli)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def run_op(inputs: int, tracer: Tracer | None) -> None:
        for inv in wl.invocations(inputs):
            if tracer is None:
                run_cli(inv)
            else:
                with tracer.span("cli"):
                    run_cli(inv)

    def collect() -> dict[str, str]:
        out = {}
        for name in wl.outputs:
            with open(wl.path(name)) as fh:
                out[name] = fh.read()
        return out

    def clear() -> None:
        for name in wl.outputs:
            try:
                os.remove(wl.path(name))
            except FileNotFoundError:
                pass

    run_op(0, None)  # warm-up, not timed and not checked

    untraced: list[float] = []
    traced: list[float] = []
    results: dict[int, dict[str, str]] = {}
    failures: dict[int, str] = {}
    tracer = Tracer() if args.trace else None
    # A traced run alternates an untraced and a traced op on the same inputs,
    # so each pair's time ratio measures the tracing overhead.
    modes = (None, tracer) if args.trace else (None,)
    i = 0
    loop_start = time.perf_counter()
    while True:
        for mode in modes:
            clear()
            if mode is not None:
                mode.op = i
                mode.install()
            t0 = time.perf_counter()
            try:
                if mode is None:
                    run_op(i // len(modes), None)
                else:
                    with mode.span("op"):
                        run_op(i // len(modes), mode)
            except OpFailed as exc:
                failures[i] = str(exc)
            elapsed = time.perf_counter() - t0
            if mode is not None:
                mode.uninstall()
            (untraced if mode is None else traced).append(elapsed)
            if i not in failures:
                try:
                    results[i] = collect()
                except OSError as exc:
                    failures[i] = f"missing output: {exc}"
            i += 1
        if time.perf_counter() - loop_start >= args.seconds:
            break
    wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures.update(wl.check(results))
    attempted = i
    failed = len(failures)
    details = {"record": run_record(wl), "failures": failures,
               "op_s": untraced, "fail_frac": failed / attempted}
    if args.trace:
        metrics = layer_metrics(tracer.spans, wl.dominant, tracer.functions)
        t_med, u_med = statistics.median(traced), statistics.median(untraced)
        metrics["trace.ops_per_s"] = 1.0 / t_med
        metrics["trace.untraced_ops_per_s"] = 1.0 / u_med
        # Each traced op ran right after an untraced one on the same inputs;
        # the median of the pair ratios cancels slow drift in machine speed.
        metrics["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1.0
        details["traced_op_s"] = traced
        tracer.dump(Path(args.workdir) / "trace.json")
    else:
        tl = tail(untraced)
        metrics = {
            "ops_per_s": len(untraced) / wall,
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tl["value"],
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        details["tail"] = tl
    with open(args.result, "w") as fh:
        json.dump({"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics, "details": details}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qswlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0 \
        [--out result.json]

Run it from the root of a checkout that holds src/qswlab and BENCHMARK.json.
The load is a closed loop: one client in one process sends the next op only
after the previous one returned. The client pins BLAS/OpenMP to one thread.

`setup_s` is the median of seven set-ups, each in a fresh interpreter:
start-up, imports and writing the input files, up to the point where the
client is ready. One is the measuring client's own; three set-up-only
processes run before it and three after it, so the samples span the run.

With --trace 0 the last line of stdout is the result with every end-to-end
metric of BENCHMARK.json; with --trace 1 it carries every per-layer metric,
from a run that alternates untraced and traced ops. A table of all metrics,
the failure fraction and the run record goes to stderr. --out also writes the
full result (record, per-op times and, when traced, the spans) to a file, the
input of compare.py.

This launcher imports only the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER = 3, 3
DEADLINE_S = 170.0  # every run, set-ups and oracles included, ends within 180 s


class BenchError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline exceeded")
    return left


def _start_worker(args, workdir: Path, extra: list[str]) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _wait_ready(proc: subprocess.Popen, started: float, deadline: float) -> float:
    """Seconds from process start to the worker's READY line."""
    buf = ""
    while True:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 4096).decode()
        if not chunk:
            raise BenchError(f"worker exited with code {proc.wait()} before set-up ended")
        buf += chunk
        if "READY\n" in buf:
            return time.perf_counter() - started


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def select_metrics(declared: list[dict], measured: dict) -> dict:
    """The declared metrics with their units. A traced run measures every
    library function, called or not, so a declared metric the run lacks names
    something that no longer exists, and that is an error."""
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    procs: list[subprocess.Popen] = []
    try:
        samples = []
        result_file = workdir / "result.json"
        plan = [["--setup-only"]] * SETUP_ONLY_BEFORE + [["--result", str(result_file)]] \
            + [["--setup-only"]] * SETUP_ONLY_AFTER
        for k, extra in enumerate(plan):
            started = time.perf_counter()
            proc = _start_worker(args, workdir / f"run{k}", extra)
            procs.append(proc)
            samples.append(_wait_ready(proc, started, deadline))
            _finish(proc, deadline)
        raw = json.loads(result_file.read_text())
        raw["metrics"]["setup_s"] = statistics.median(samples)
        raw["details"]["setup_samples_s"] = samples
        if args.out and args.trace:
            shutil.copyfile(workdir / f"run{SETUP_ONLY_BEFORE}" / "trace.json",
                            f"{args.out}.trace.json")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = select_metrics(declared, raw["metrics"])
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "result": result, "details": raw["details"],
            "all_metrics": raw["metrics"]}
    _print_table(full, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1)
            fh.write("\n")
    return result


def _print_table(full: dict, spec: dict) -> None:
    d = full["details"]
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in spec[key]}
    err = sys.stderr
    res = full["result"]
    print(f"workload {full['workload']}  seed {full['seed']}  trace {full['trace']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"fail_frac {d['fail_frac']:.4g} ratio  correct {res['correct']}", file=err)
    for name, value in sorted(full["all_metrics"].items()):
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        print(f"  {name:42s} {value:14.6g} {unit}", file=err)
    if "tail" in d:
        t = d["tail"]
        print(f"  op_tail_s is p{t['percentile']:.1f} of {t['samples']} ops, "
              f"{t['samples_beyond']} beyond it", file=err)
    for i, why in sorted(d["failures"].items(), key=lambda kv: int(kv[0])):
        print(f"  op {i} failed: {why}", file=err)
    rec = d["record"]
    print("  record: " + json.dumps({k: v for k, v in rec.items() if k != "op_sizes"}),
          file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result to this file")
    args = ap.parse_args(argv)
    # Turn a termination request into SystemExit, so `run` stops its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in ("src/qswlab/cli.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a qswlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare a parent and a change with the benchmark, in alternating pairs.

    python3 perfbench/compare.py run --parent CHECKOUT --change CHECKOUT --out DIR
    python3 perfbench/compare.py report DIR

`run` runs both checkouts' perfbench/run.py on every workload of
BENCHMARK.json, on the same ten seeds (1000 to 1009), alternating which side
goes first, and writes DIR/parent/<workload>-<seed>.json and
DIR/change/<workload>-<seed>.json. The run length is this checkout's
run_seconds. It exits with 1 when any run failed.

`report` pairs the files by workload and seed and refuses to compare two
files whose run records differ in anything but the commit and the source
digest. It needs at least 10 pairs for every workload of BENCHMARK.json. For
each workload and end-to-end metric it prints each side's median and
quartiles, the fraction of pairs the change won (ties count for neither),
and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound; "worse (unresolved)" when the parent's
              spread is also wider than the bound
  better      the change won at least 9 in 10 pairs and the medians differ by
              more than the parent's quartile distance
  unresolved  the parent's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every parent run
  same        none of the above

It exits with 1 when any metric is worse, 2 when it refuses, 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
FIRST_SEED = 1000
MAY_DIFFER = ("commit", "source_sha256")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_run(args) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out = Path(args.out).resolve()
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    failed = False
    for p in range(MIN_PAIRS):
        seed = FIRST_SEED + p
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                dest = out / side / f"{w}-{seed}.json"
                cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--out", str(dest)]
                proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True, timeout=200)
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"pair {p} {w} {side}: {status}", flush=True)
                if proc.returncode != 0:
                    failed = True
                    print(proc.stderr, file=sys.stderr)
    return 1 if failed else 0


def _load(directory: Path) -> dict:
    runs = {}
    for f in sorted(directory.glob("*.json")):
        if f.name.endswith(".trace.json"):
            continue
        doc = json.loads(f.read_text())
        if doc["trace"]:
            continue
        runs[(doc["workload"], doc["seed"])] = doc
    return runs


def _record_diff(a: dict, b: dict) -> list[str]:
    ra, rb = a["details"]["record"], b["details"]["record"]
    return sorted(k for k in set(ra) | set(rb)
                  if k not in MAY_DIFFER and ra.get(k) != rb.get(k))


def _verdict(par: list[float], chg: list[float], better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0   # sign * (x - y) > 0: x is worse
    pm, cm = statistics.median(par), statistics.median(chg)
    pq, cq = statistics.quantiles(par, n=4), statistics.quantiles(chg, n=4)
    wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
    won = wins / len(par)
    worse_by = sign * (cm - pm) / abs(pm)
    spread = (pq[2] - pq[0]) / abs(pm)
    all_better = all(sign * (c - p) < 0 for c in chg for p in par)
    if worse_by > bound:
        verdict = "worse (unresolved)" if spread > bound else "worse"
    elif all_better or (won >= 0.9 and sign * (pm - cm) > pq[2] - pq[0]):
        verdict = "better"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "same"
    return pm, pq, cm, cq, won, worse_by, spread, verdict


def cmd_report(args) -> int:
    spec = _spec()
    base = Path(args.dir)
    parent, change = _load(base / "parent"), _load(base / "change")
    keys = sorted(set(parent) & set(change))
    for key in keys:
        diff = _record_diff(parent[key], change[key])
        if diff:
            print(f"refused: run records of {key[0]} seed {key[1]} differ in "
                  f"{', '.join(diff)}", file=sys.stderr)
            return 2
    pairs_of = {w["name"]: [k for k in keys if k[0] == w["name"]]
                for w in spec["workloads"]}
    for w, pairs in pairs_of.items():
        if len(pairs) < MIN_PAIRS:
            print(f"refused: {w} has {len(pairs)} pairs, needs {MIN_PAIRS}",
                  file=sys.stderr)
            return 2
    any_worse = False
    for w, pairs in pairs_of.items():
        print(f"{w}: {len(pairs)} pairs")
        print(f"  {'metric':12s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'won':>5s} {'worse by':>9s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            par = [parent[k]["result"]["metrics"][name]["value"] for k in pairs]
            chg = [change[k]["result"]["metrics"][name]["value"] for k in pairs]
            pm, pq, cm, cq, won, worse_by, spread, verdict = _verdict(
                par, chg, m["better"], m["bound"])
            any_worse |= verdict.startswith("worse")
            print(f"  {name:12s} {pm:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cm:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] {won:5.2f} "
                  f"{worse_by:+9.3f} {spread:7.3f} {m['bound']:6.2f}  {verdict}"
                  f"  ({m['unit']})")
        failed = [k for k in pairs if change[k]["result"]["failed"]
                  > parent[k]["result"]["failed"]]
        if failed:
            print(f"  change failed more ops than parent on seeds "
                  f"{[k[1] for k in failed]}")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("dir")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())

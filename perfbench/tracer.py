"""In-memory span tracer that wraps the public functions of qswlab's modules.

Every public (non-underscore) function defined in one of the six library
modules is replaced, as a module attribute, by a wrapper that records a span.
Calls between modules and calls inside a module both look the function up in
module globals, so the wrappers see them. The library itself is not changed:
`install` swaps the attributes in and `uninstall` swaps the originals back.

A span is (name, start, end, parent, op, attrs). Spans stay in memory and are
written out once, when the run ends. Self time is a span's duration minus the
time its child spans cover; the client is single-threaded, so children never
overlap and that is the sum of their durations.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("graphs", "numkernel", "gksl", "nonmoral", "analysis", "search")


def _probe(name, args, kwargs, result) -> dict | None:
    """Work counts recorded at the boundary where the work happens."""
    if name == "numkernel.eig_hermitian":
        h = np.asarray(args[0] if args else next(iter(kwargs.values())))
        return {"n": h.shape[0], "complex": bool(np.iscomplexobj(h))}
    if name == "gksl.build_generator":
        return {"dim": int(result.s.shape[0]), "nnz": int(result.s.nnz)}
    return None


class Tracer:
    """Collects spans for the ops of one run; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.functions: set[str] = set()   # every function name ever wrapped

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][5] = _probe(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for layer in LAYERS:
            mod = importlib.import_module(f"qswlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, attr, obj))
                self.functions.add(f"{layer}.{attr}")
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


def layer_metrics(spans, dominant: tuple, functions) -> dict:
    """Per-op means of self time and calls for every layer and function,
    plus the work counts probed at the boundaries.

    `functions` names every wrapped function; one the run never called reads
    0, and a name outside it is not reported at all. `dominant` names the
    function spans that make up the workload's dominant layer; their self
    time over the op time is `trace.dominant_share`.
    """
    selfs = self_times(spans)
    op_ids = {s[4] for s in spans if s[0] == "op"}
    n_ops = len(op_ids)
    op_time = sum(s[2] - s[1] for s in spans if s[0] == "op")
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for name in (*LAYERS, "cli", *functions):
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0.0
    out["numkernel.eig_hermitian.complex_calls"] = 0.0
    out["numkernel.eig_hermitian.n3_sum"] = 0.0
    out["gksl.generator_dim"] = 0.0
    out["gksl.generator_nnz"] = 0.0
    dominant_s = 0.0
    for s, self_s in zip(spans, selfs):
        name = s[0]
        if name == "op":
            continue
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", self_s)
        add(f"{layer}.calls", 1)
        if name != "cli":
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
        if name in dominant:
            dominant_s += self_s
        attrs = s[5]
        if attrs is None:   # not probed, or the call raised
            continue
        if name == "numkernel.eig_hermitian":
            add("numkernel.eig_hermitian.complex_calls", int(attrs["complex"]))
            add("numkernel.eig_hermitian.n3_sum", float(attrs["n"]) ** 3)
        elif name == "gksl.build_generator":
            out["gksl.generator_dim"] = max(out["gksl.generator_dim"], attrs["dim"])
            out["gksl.generator_nnz"] = max(out["gksl.generator_nnz"], attrs["nnz"])
    keep_max = ("gksl.generator_dim", "gksl.generator_nnz")
    for key in out:
        if key not in keep_max:
            out[key] /= max(n_ops, 1)
    out["trace.dominant_share"] = dominant_s / op_time if op_time > 0 else 0.0
    return out

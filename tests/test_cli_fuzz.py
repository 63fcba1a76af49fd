"""Random command lines for converge, propagate and search: every run exits
with 0, 2 or 3, lets no exception but SystemExit escape, and on exit 0
leaves a report that parses as strict JSON.

Each command line has valid values everywhere except in at most one drawn
option, which gets a malformed or out-of-range value, so both the error
paths and the numerical paths run. The drawn option can be an output path:
one in a missing directory, or an existing directory. Output paths are
drawn relative to a placeholder that the test replaces with a fresh
temporary directory."""
import json
import math
import os
import tempfile

from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qswlab import cli

TMP = "<tmp>"
GOOD = {
    "graph": st.sampled_from(["path:3", "path:4", "complete:3", "complete:4",
                              "star:4", "star:5"]),
    "omega": st.sampled_from(["0", "1"]) | st.floats(0.0, 1.0).map(repr),
    "tol": st.sampled_from(["1e-10", "1e-6", "0.5"]),
    "length": st.integers(2, 6).map(str),
    "batch": st.integers(2, 3).map(str),
    "marked": st.integers(1, 3).map(str),
    "gamma": st.floats(0.01, 5.0).map(repr),
    "report": st.just(f"{TMP}/report.json"),
    "table": st.just(f"{TMP}/table.csv"),
}
UNWRITABLE = st.sampled_from([f"{TMP}/missing/out", TMP])
BAD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "2", "1e308", "-1e308",
                              "5e-324", "abc", ""]) | st.floats(-10.0, 10.0).map(repr)
BAD = {
    "graph": st.sampled_from(["path:1", "path:0", "path:-2", "path:x", "path:", "path",
                              "ring:4", ":", "", "file:", "file:no-such-graph.json",
                              "complete:1", "star:1"]) | st.text(max_size=6),
    "omega": BAD_FLOATS,
    "tol": BAD_FLOATS,
    "length": st.integers(-3, 1).map(str) | st.sampled_from(["x", "2.5", ""]),
    "batch": st.integers(-2, 1).map(str) | st.sampled_from(["9", "x"]),
    "marked": st.integers(-2, 0).map(str) | st.sampled_from(["6", "99", "x"]),
    "gamma": BAD_FLOATS,
    "t-start": BAD_FLOATS,
    "t-stop": BAD_FLOATS,
    "t-step": BAD_FLOATS,
    "report": UNWRITABLE,
    "table": UNWRITABLE,
}


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(["converge", "propagate", "search"]))
    bad = draw(st.sampled_from([None] + sorted(BAD)))

    def value(name):
        return draw(BAD[name] if name == bad else GOOD[name])

    def grid(start, step, points):
        grid = {"t-start": repr(start), "t-step": repr(step),
                "t-stop": repr(start + (points - 1) * step)}
        if bad in grid:
            grid[bad] = value(bad)
        return [x for k, v in grid.items() for x in (f"--{k}", v)]

    if command == "converge":
        return ["converge", "--model", draw(st.sampled_from(["lqsw", "gqsw", "ngqsw"])),
                "--graph", value("graph"), "--omega", value("omega"), "--tol", value("tol"),
                "--out", value("report")]
    outputs = ["--out-json", value("report"), "--out-csv", value("table")]
    if command == "propagate":
        points = draw(st.integers(1, 6))
        return ["propagate", "--model", draw(st.sampled_from(["gqsw", "ngqsw"])),
                "--omega", value("omega"), "--length", value("length"),
                "--batch", value("batch")] + outputs + grid(
                    draw(st.sampled_from([0.5, 1.0, 2.0])),
                    draw(st.sampled_from([0.25, 0.5, 1.0])), points)
    args = ["search", "--graph", value("graph"), "--marked", value("marked"),
            "--kind", draw(st.sampled_from(["adjacency", "laplacian", "normalized_laplacian"]))]
    args += outputs
    if bad == "gamma" or draw(st.booleans()):
        args += ["--gamma", value("gamma")]
    if bad in ("t-start", "t-stop", "t-step") or draw(st.booleans()):
        args += grid(draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.1, 0.5])),
                     draw(st.integers(1, 20)))
    return args


@settings(deadline=None, max_examples=150)
@given(_command_lines())
def test_cli_exits_cleanly_on_random_command_lines(args):
    with tempfile.TemporaryDirectory() as tmp:
        args = [a.replace(TMP, tmp) for a in args]
        r = CliRunner().invoke(cli.main, args)
        event(f"exit {r.exit_code}")
        assert r.exit_code in (0, 2, 3), (args, r.output, r.exception)
        assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exception)
        if r.exit_code == 0:
            with open(os.path.join(tmp, "report.json")) as fh:
                doc = json.load(fh, parse_constant=_reject_constant)
            assert math.isfinite(doc["wallclock_sec"])

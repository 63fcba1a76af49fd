"""Every exception the package raises is a QswlabError, which the CLI maps to
its documented exit code (2 for usage or domain errors, 3 for numerical
failure), or a click.UsageError, which exits 2. The last tests check that
the package holds only code that it reaches itself, and that every function
the benchmark's per-layer metrics name is still there."""
import ast
import dataclasses
import importlib
import inspect
import json
import math
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import qswlab
from qswlab import analysis, graphs, nonmoral, numkernel, search
from qswlab.exceptions import QswlabError

MODULES = sorted(Path(qswlab.__file__).parent.glob("*.py"))


def raised_classes(path: Path):
    """(line, source, class) for each `raise X` or `raise X(...)` in the
    module at path, with X looked up in the module's namespace; class is
    None when X is not a class there. A bare re-raise is skipped."""
    module = importlib.import_module(f"qswlab.{path.stem}")
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        source = ast.unparse(target)
        cls = module
        for name in source.split("."):
            cls = getattr(cls, name, None)
        yield node.lineno, source, cls if isinstance(cls, type) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_a_package_error(path):
    bad = [f"{path.name}:{line}: raise {source}"
           for line, source, cls in raised_classes(path)
           if cls is None or not issubclass(cls, (QswlabError, click.UsageError))]
    assert not bad, bad


# ---------------------------------------------------------------------------
# The contract at run time: returned values are finite, failures are typed.
# The check above sees `raise` statements only; this one also catches what a
# library call raises on the package's behalf (an IndexError from a wrapped
# index, an OverflowError, a NaN that propagates).

SPECIAL = [0.0, -0.0, -1.0, 1e300, -1e300, math.nan, math.inf, -math.inf]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats(-50.0, 50.0))
WEIGHTS = st.one_of(NUMBERS, st.floats(0.0, 1.0))
INTEGERS = st.one_of(st.sampled_from([0, -1, -7, 10**6]), st.integers(-3, 9))
GRAPHS = st.one_of(
    st.sampled_from([graphs.Graph(0), graphs.Graph(1), graphs.Graph(3), graphs.path(2),
                     graphs.star(5), graphs.complete(4),
                     graphs.Graph(4, frozenset({(0, 1), (2, 3)}))]),
    st.builds(graphs.gen_er, st.integers(0, 8), st.floats(0.0, 1.0), st.integers(0, 99)))
DIGRAPHS = st.one_of(
    st.sampled_from([graphs.DiGraph(0), graphs.DiGraph(1), oracles.premature_graph(),
                     graphs.to_digraph(graphs.path(3))]),
    st.builds(graphs.gen_er, st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 99),
              st.just(True)))
KINDS = st.sampled_from(search.GRAPH_MATRIX_KINDS)
TIMES = st.lists(NUMBERS, max_size=3).map(np.array)
# grids that mostly pass numkernel.check_times, so the code behind it runs
GRIDS = st.one_of(TIMES, st.lists(st.one_of(NUMBERS, st.floats(0.0, 1e3)), min_size=1,
                                  max_size=8).map(sorted).map(np.array))
SIZES = st.integers(-3, 12)
LISTS = st.lists(st.one_of(NUMBERS, st.floats(0.0, 1.0)), max_size=9)
SEEDS = st.one_of(st.sampled_from([-1, -2**63, 2.5, 2**64]), st.integers(-3, 99))


def _search_stats(g, kind, w):
    return search.search_stats(search.search_spectrum(g, kind), w)


def _run_search(g, kind, w, gamma, times):
    return search.run_search(search.search_spectrum(g, kind), w, gamma, times)


def _gen_cl(omega, seed):
    return graphs.gen_cl(len(omega), np.array(omega), seed)


_PATH3 = nonmoral.demoralize(graphs.to_digraph(graphs.path(3)))


def _symmetric_walk(t):
    """The symmetrized walk on path:3 from its centre, evolved in the
    reflection's basis as propagate evolves it."""
    spec = nonmoral.ngqsw_spec(_PATH3, 0.5, nonmoral.symmetrized_path_lindblads(_PATH3))
    return oracles.reflected_evolution(_PATH3, spec, nonmoral.block_mixed_state(_PATH3, 1), [t])


def _reflection_basis(g):
    return nonmoral.reflection_basis(nonmoral.demoralize(g)).toarray()


# small dense cases of expm_apply: the result exp(10^4), which leaves the
# float range, and a rotated (1e300, 0), whose ||v||^2 does
EXPM_CASES = st.one_of(
    st.sampled_from([([[1000.0]], [1.0], [10.0]),
                     ([[0.0, -1.0], [1.0, 0.0]], [1e300, 0.0], [1.0])]),
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.lists(NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(NUMBERS, min_size=n, max_size=n), GRIDS)))


def _expm_apply(case):
    m, v, times = case
    return numkernel.expm_apply(np.array(m), np.array(v), times)


CALLS = {
    "path_probability_profile": (analysis.path_probability_profile,
                                 (st.integers(-2, 8), INTEGERS, GRIDS, WEIGHTS)),
    "second_moment": (analysis.second_moment,
                      (st.one_of(LISTS, st.sampled_from([[1.0], [0.5, 0.5], [-1.0, 2.0]]))
                       .map(lambda p: [p]), LISTS)),
    "scaling_exponents": (analysis.scaling_exponents, (GRIDS, LISTS, st.integers(-1, 5))),
    "Graph": (graphs.Graph, (INTEGERS,)),
    "DiGraph": (graphs.DiGraph, (INTEGERS,)),
    "path": (graphs.path, (SIZES,)),
    "complete": (graphs.complete, (SIZES,)),
    "gen_er": (graphs.gen_er, (SIZES, WEIGHTS, SEEDS, st.booleans())),
    "gen_ba": (graphs.gen_ba, (SIZES, st.integers(-1, 4), SEEDS, st.booleans())),
    "gen_cl": (_gen_cl, (LISTS, SEEDS)),
    "lambert_bound": (search.lambert_bound, (st.one_of(NUMBERS, st.floats(1.0, 1e8)),)),
    "search_stats": (_search_stats, (GRAPHS, KINDS, INTEGERS)),
    "run_search": (_run_search, (GRAPHS, KINDS, INTEGERS, NUMBERS, TIMES)),
    "demoralize": (nonmoral.demoralize, (DIGRAPHS,)),
    "giant_component": (graphs.giant_component, (GRAPHS,)),
    "symmetric_walk": (_symmetric_walk, (st.floats(0.0, 50.0),)),
    "reflection_basis": (_reflection_basis, (DIGRAPHS,)),
    "expm_apply": (_expm_apply, (EXPM_CASES,)),
}

# draws that once broke the contract, replayed by the test's @example
PINNED = {
    # a subnormal t, at which an error allowance per unit time overflows
    "symmetric_walk": (5e-324,),
}


def assert_finite(value):
    """Every number in value, a number, an array, a tuple or a dataclass
    such as SearchStats, is finite."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_finite(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            assert_finite(v)
    elif isinstance(value, (int, float, np.number, np.ndarray)):
        assert np.all(np.isfinite(value)), value


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
@example(data=None)  # PINNED[name], if the case has one
def test_public_calls_return_finite_values_or_raise_package_errors(name, data):
    call, strategies = CALLS[name]
    if data is None and name not in PINNED:
        return
    args = PINNED[name] if data is None else [data.draw(s) for s in strategies]
    try:
        result = call(*args)
    except QswlabError:
        return
    assert_finite(result)


# ---------------------------------------------------------------------------
# The package is what the CLI runs: each public module-level function or
# class is referenced by other package code, or is a CLI command. Code that
# only the tests call is an oracle or a fixture, and lives in tests/oracles.py.
# References are AST names and attributes, so a docstring does not count.

UNREFERENCED = {
    ("search", "classical_mfpt"),  # ROADMAP item 6: ba_search writes the classical baseline
}


def _is_cli_command(node):
    return any(isinstance(getattr(d, "func", d), ast.Attribute)
               and getattr(d, "func", d).attr == "command" for d in node.decorator_list)


def test_every_public_definition_is_reached_from_the_package():
    public, uses = {}, []
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            uses.append((stmt, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(stmt)
                                if isinstance(n, (ast.Name, ast.Attribute))}))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_") and not _is_cli_command(stmt)):
                public[(path.stem, stmt.name)] = stmt
    unreferenced = {key for key, stmt in public.items()
                    if not any(key[1] in names for other, names in uses if other is not stmt)}
    assert unreferenced == UNREFERENCED


# No module of the package or the tests keeps a top-level import it does not
# use. `import a.b` counts as used when some dotted name a.b... appears;
# a name listed in __all__ counts as used.

def _dotted(node):
    """'a.b.c' for the expression a.b.c, or None when it is not a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    used = {d for n in ast.walk(tree) if (d := _dotted(n))}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in stmt.targets)):
            used |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name
                if not any(u == name or u.startswith(name + ".") for u in used):
                    yield f"{path.parent.name}/{path.name}:{stmt.lineno}: {name}"


def test_no_unused_top_level_imports():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert [u for path in MODULES + tests for u in _unused_imports(path)] == []


# ---------------------------------------------------------------------------
# The benchmark's tracer wraps the public functions of six modules, and a
# traced run fails ("metrics not measured") on a per-layer metric
# <module>.<function>.<metric> whose function is gone.

TRACED = ("graphs", "numkernel", "gksl", "nonmoral", "analysis", "search")


def test_benchmark_per_layer_metrics_name_public_functions():
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    named = {tuple(parts[:2]) for parts in (m["name"].split(".") for m in spec["per_layer"])
             if len(parts) == 3 and parts[0] in TRACED}
    assert named
    missing = []
    for module, function in sorted(named):
        obj = getattr(importlib.import_module(f"qswlab.{module}"), function, None)
        if (function.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != f"qswlab.{module}"):
            missing.append(f"{module}.{function}")
    assert missing == []

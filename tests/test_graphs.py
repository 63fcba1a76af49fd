import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qswlab import graphs
from qswlab.exceptions import (
    DimensionError,
    IsolatedVertexError,
    MalformedGraphError,
    ParameterRangeError,
    ProbabilityOverflowError,
    WrongTopologyError,
)


def test_digraph_rejects_bad_arcs():
    for cls in (graphs.DiGraph, graphs.Graph):
        for pair in ((0, 0), (0, 5), (-1, 2)):
            with pytest.raises(MalformedGraphError):
                cls(3, frozenset({pair}))


@pytest.mark.parametrize("make", [graphs.Graph, graphs.DiGraph, graphs.path, graphs.complete,
                                  graphs.star, lambda n: graphs.gen_er(n, 0.5, 1),
                                  lambda n: graphs.gen_er(n, 0.5, 1, directed=True)])
@pytest.mark.parametrize("n", [-1, -2])
def test_graph_sizes_are_integers_at_least_0(make, n):
    """Graph(-1), path(-1), complete(-2) and gen_er(-1, ...) built graphs with
    a negative n."""
    with pytest.raises(DimensionError, match="graph size"):
        make(n)
    assert make(0).n == 0
    if make in (graphs.Graph, graphs.DiGraph):
        with pytest.raises(DimensionError, match="graph size"):
            make(2.0)


def test_check_vertex_is_the_one_vertex_rule():
    for v in (0, 3, np.int64(2)):
        graphs.check_vertex(v, 4)
    for v, n in ((-1, 4), (4, 4), (1.0, 4), ("1", 4), (0, 0)):
        with pytest.raises(ParameterRangeError, match="vertex must be an integer"):
            graphs.check_vertex(v, n)


def test_graph_normalizes_edge_order():
    g = graphs.Graph(3, frozenset({(2, 0)}))
    assert (0, 2) in g.edges


def test_adjacency_column_is_source():
    """Arc (v, w) shows up as <w|A|v> = 1."""
    g = graphs.DiGraph(3, frozenset({(0, 2)}))
    a = graphs.adjacency(g)
    assert a[2, 0] == 1 and a[0, 2] == 0


def test_laplacian_row_sums_zero():
    g = graphs.path(6)
    assert np.abs(graphs.laplacian(g).sum(axis=0)).max() == 0


def test_normalized_laplacian_spectrum_complete():
    n = 7
    lam = np.sort(np.linalg.eigvalsh(graphs.normalized_laplacian(graphs.complete(n)).toarray()))
    assert abs(lam[0]) < 1e-12
    assert np.allclose(lam[1:], n / (n - 1))


def test_normalized_laplacian_isolated_vertex():
    with pytest.raises(IsolatedVertexError):
        graphs.normalized_laplacian(graphs.Graph(3, frozenset({(0, 1)})))


def test_underlying_and_to_digraph_inverse():
    g = graphs.path(5)
    assert graphs.underlying(graphs.to_digraph(g)) == g


def test_strongly_connected_cycle():
    g = graphs.DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    assert oracles.is_strongly_connected(g)


def test_giant_component_relabels():
    g = graphs.Graph(6, frozenset({(3, 4), (4, 5), (0, 1)}))
    gc = graphs.giant_component(g)
    assert gc.n == 3 and len(gc.edges) == 2


def test_giant_component_of_the_empty_graph_is_empty():
    assert graphs.giant_component(graphs.Graph(0)) == graphs.Graph(0)


def test_giant_component_size_tie_keeps_smallest_vertex():
    # {1, 3, 5} and {0, 2, 4} tie; the one holding vertex 0 wins
    g = graphs.Graph(6, frozenset({(1, 3), (3, 5), (0, 4), (2, 4)}))
    assert graphs.giant_component(g) == graphs.Graph(3, frozenset({(0, 2), (1, 2)}))


def test_gen_er_deterministic_and_density():
    g1 = graphs.gen_er(200, 0.1, seed=5)
    g2 = graphs.gen_er(200, 0.1, seed=5)
    assert g1 == g2
    mean = len(g1.edges) / (200 * 199 / 2)
    assert 0.07 < mean < 0.13


def test_gen_er_directed_counts_both_arcs():
    g = graphs.gen_er(100, 0.1, seed=1, directed=True)
    assert isinstance(g, graphs.DiGraph)
    # ordered pairs are sampled independently, so roughly p * n(n-1) arcs
    assert 0.07 < len(g.arcs) / (100 * 99) < 0.13


@pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
def test_gen_er_rejects_p_outside_unit_interval(p):
    with pytest.raises(ParameterRangeError):
        graphs.gen_er(10, p, seed=0)


def test_gen_cl_respects_expected_degrees():
    omega = np.full(300, 5.0)
    g = graphs.gen_cl(300, omega, seed=9)
    assert abs(np.mean(g.degrees()) - 5.0) < 1.0


def test_gen_cl_overflow_guard():
    omega = np.zeros(10)
    omega[0] = 9.0
    omega[1] = 9.0
    with pytest.raises(ProbabilityOverflowError):
        graphs.gen_cl(10, omega, seed=0)


def test_gen_cl_rejects_bad_omega():
    with pytest.raises(DimensionError):
        graphs.gen_cl(10, np.ones(9), seed=0)
    for bad in (-1.0, 10.0, np.nan):   # NaN returned an empty graph
        omega = np.ones(10)
        omega[3] = bad
        with pytest.raises(ParameterRangeError):
            graphs.gen_cl(10, omega, seed=0)


def test_cl_powerlaw_omega_bounds():
    w = graphs.cl_powerlaw_omega(100, 0.3, 0.4)
    assert w[0] == pytest.approx(100 ** (0.3 + 0.004))
    for a, b in ((0.5, 0.6), (0.0, 0.5), (0.5, -0.1)):
        with pytest.raises(ParameterRangeError):
            graphs.cl_powerlaw_omega(100, a, b)


def test_gen_ba_edge_count_and_connectivity():
    m0 = 3
    g = graphs.gen_ba(50, m0, seed=4)
    assert len(g.edges) == m0 * (m0 - 1) // 2 + (50 - m0) * m0
    assert graphs.is_connected(g)


@pytest.mark.parametrize("m0", [0, 11])
def test_gen_ba_rejects_m0_outside_1_to_n(m0):
    with pytest.raises(ParameterRangeError):
        graphs.gen_ba(10, m0, seed=0)


def test_gen_ba_directed_points_to_new_vertex():
    g = graphs.gen_ba(10, 2, seed=0, directed=True)
    for u, v in g.arcs:
        if max(u, v) >= 2:
            assert v > u or (u < 2 and v < 2)


def _indegrees(g):
    """Column sums of the arc matrix: the arcs into each vertex."""
    return np.asarray(graphs.arc_matrix(g).sum(axis=0)).ravel()


def test_fixtures_shapes():
    assert len(graphs.path(10).edges) == 9
    assert len(graphs.complete(10).edges) == 45
    assert graphs.star(10).degrees()[0] == 9
    kp = oracles.complete_plus_leaf(10).degrees()
    assert kp[9] == 1 and kp[0] == 9
    assert len(oracles.circulant_jump2(8).arcs) == 3 * 8
    assert _indegrees(oracles.moral_triangle())[2] == 2
    assert _indegrees(oracles.premature_graph())[3] == 1
    assert _indegrees(oracles.ngqsw_period_graph())[0] == 5


def test_circulant_jump2_size_check():
    with pytest.raises(WrongTopologyError):
        oracles.circulant_jump2(6)


def test_json_roundtrip_is_one_based():
    g = graphs.DiGraph(3, frozenset({(0, 2)}))
    text = graphs.to_json(g)
    doc = json.loads(text)
    assert doc["edges"] == [[1, 3]] and doc["directed"]
    assert graphs.from_json(text) == g


def test_json_roundtrip_undirected():
    g = graphs.path(4)
    assert graphs.from_json(graphs.to_json(g)) == g


@pytest.mark.parametrize("doc", [
    {"n": 3.7, "directed": False, "edges": [[1, 2]]},          # n not an integer
    {"n": 3.0, "directed": False, "edges": [[1, 2]]},
    {"n": True, "directed": False, "edges": []},
    {"n": "3", "directed": False, "edges": []},
    {"n": -1, "directed": False, "edges": []},
    {"n": 3, "directed": False, "edges": [[1.9, 2]]},          # label not an integer
    {"n": 3, "directed": False, "edges": [[1, 2.0]]},
    {"n": 3, "directed": True, "edges": [[True, 2]]},
    {"n": 3, "directed": 0, "edges": [[1, 2]]},                # directed not a bool
    {"n": 3, "directed": "false", "edges": [[1, 2]]},
    {"n": 3, "directed": False, "edges": [[1, 2, 3]]},         # edge not a pair
    {"n": 3, "directed": False, "edges": [[1]]},
    {"n": 3, "directed": False, "edges": [12]},
    {"n": 3, "directed": False, "edges": {"1": 2}},
    {"n": 3, "directed": False, "edges": [[1, 2], [2, 1]]},    # repeated edge
    {"n": 3, "directed": False, "edges": [[1, 2], [2, 3], [1, 2]]},
    {"n": 3, "directed": True, "edges": [[1, 2], [1, 2]]},     # repeated arc
    {"n": 3, "directed": False},                               # a key missing
    [[1, 2]],
])
def test_from_json_rejects_malformed_documents(doc):
    with pytest.raises(MalformedGraphError):
        graphs.from_json(json.dumps(doc))


def test_from_json_keeps_opposite_arcs_and_range_checks():
    doc = {"n": 2, "directed": True, "edges": [[1, 2], [2, 1]]}
    assert graphs.from_json(json.dumps(doc)) == graphs.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    for edges in ([[0, 1]], [[1, 4]], [[2, 2]]):               # range and self-loop
        with pytest.raises(MalformedGraphError):
            graphs.from_json(json.dumps({"n": 3, "directed": False, "edges": edges}))


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_random_er_roundtrips(n, seed):
    g = graphs.gen_er(n, 0.5, seed)
    assert graphs.from_json(graphs.to_json(g)) == g
    dg = graphs.to_digraph(g)
    assert graphs.underlying(dg) == g
    assert np.array_equal(_indegrees(dg), g.degrees())


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return graphs.DiGraph(n, frozenset(draw(st.sets(pairs, max_size=3 * n))))


@settings(deadline=None, max_examples=150)
@given(small_digraphs())
@example(graphs.DiGraph(1))
@example(graphs.DiGraph(5))
@example(graphs.DiGraph(6, frozenset({(1, 3), (3, 1), (5, 3), (0, 4), (4, 2), (2, 0)})))
def test_structure_matches_transitive_closure(g):
    """Each structure query of a digraph, of its underlying graph and of
    that graph's bidirected form against the brute-force closure."""
    assert oracles.is_strongly_connected(g) == bool(oracles.reachability(g).all())
    und = graphs.underlying(g)
    for h in (g, und):
        arcs = graphs.arc_matrix(h)
        rows = np.split(arcs.indices, arcs.indptr[1:-1])
        assert [r.tolist() for r in rows] == [np.flatnonzero(c).tolist()
                                              for c in graphs.adjacency(h).toarray().T]
    parts = sorted({tuple(np.flatnonzero(row).tolist()) for row in oracles.reachability(und)})
    assert graphs.is_connected(und) == (len(parts) == 1)
    assert oracles.is_strongly_connected(graphs.to_digraph(und)) == (len(parts) == 1)
    big = max(parts, key=len)  # the first of equal sizes holds the smallest vertex
    new = {v: i for i, v in enumerate(big)}
    want = graphs.Graph(len(big), frozenset((new[u], new[v]) for u, v in und.edges if u in new))
    assert graphs.giant_component(und) == want

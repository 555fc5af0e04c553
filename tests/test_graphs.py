import json

import numpy as np
import pytest

import specgrow as sg
from util import graph, k3, random_connected


def test_canonical_edge_ordering():
    assert sg.canonical_edge(5, 2) == (2, 5)
    assert sg.canonical_edge(2, 5) == (2, 5)
    with pytest.raises(sg.SelfLoopEdge):
        sg.canonical_edge(3, 3)


def test_construction_validation():
    with pytest.raises(sg.GraphFormatError):
        sg.WeightedGraph(1, {})
    with pytest.raises(sg.GraphFormatError):
        graph(3, [(0, 1, -1.0)])
    with pytest.raises(sg.GraphFormatError):
        graph(3, [(0, 1, 0.0)])
    with pytest.raises(sg.GraphFormatError):
        graph(3, [(0, 5, 1.0)])
    with pytest.raises(sg.SelfLoopEdge):
        graph(3, [(1, 1, 1.0)])
    with pytest.raises(sg.GraphFormatError):
        graph(3, [(0, 1, 1.0), (1, 0, 2.0)])  # same unordered pair twice


def test_with_edge_accumulates_weight():
    g = k3().with_edge((1, 0), 2.5)
    assert g.weight(0, 1) == pytest.approx(3.5)
    assert k3().weight(0, 1) == 1.0  # original untouched


def test_union_meet_idempotent():
    g = random_connected(np.random.default_rng(0), 8)
    assert sg.union(g, g) == g
    assert sg.meet(g, g) == g


def test_meet_of_disjoint_edge_sets_is_empty():
    g1 = graph(4, [(0, 1, 1.0), (1, 2, 1.0)])
    g2 = graph(4, [(2, 3, 1.0), (0, 3, 1.0)])
    assert sg.meet(g1, g2).edges == {}


def test_union_meet_take_max_min_weight():
    g1 = graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
    g2 = graph(3, [(0, 1, 2.0)])
    assert sg.union(g1, g2).edges == {(0, 1): 2.0, (1, 2): 3.0}
    assert sg.meet(g1, g2).edges == {(0, 1): 1.0}


def test_union_meet_node_count_mismatch():
    with pytest.raises(sg.NodeCountMismatch):
        sg.union(graph(3, [(0, 1, 1.0)]), graph(4, [(0, 1, 1.0)]))
    with pytest.raises(sg.NodeCountMismatch):
        sg.meet(graph(3, [(0, 1, 1.0)]), graph(4, [(0, 1, 1.0)]))


def test_meet_join_laplacian_ordering():
    # L_meet <= L_g1, L_g2 <= L_join in the semidefinite order
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        core = random_connected(rng, n, extra=1)
        g1, g2 = core, core
        for _ in range(3):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if i != j:
                g1 = g1.with_edge((i, j), float(rng.uniform(0.2, 2)))
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if i != j:
                g2 = g2.with_edge((i, j), float(rng.uniform(0.2, 2)))
        lo = sg.meet(g1, g2).laplacian()
        hi = sg.union(g1, g2).laplacian()
        for mid in (g1.laplacian(), g2.laplacian()):
            assert np.linalg.eigvalsh(mid - lo).min() >= -1e-9
            assert np.linalg.eigvalsh(hi - mid).min() >= -1e-9


def test_json_round_trip_is_identity():
    g = random_connected(np.random.default_rng(7), 9)
    text = json.dumps(g.to_json_obj())
    assert sg.parse_graph(text) == g
    assert sg.parse_graph(json.dumps(sg.parse_graph(text).to_json_obj())) == g


def test_text_format_parsing():
    g = sg.parse_graph("n 3\n0 1 1.0\n1 2 2.5\n")
    assert g.n == 3
    assert g.edges == {(0, 1): 1.0, (1, 2): 2.5}


def test_parse_rejects_bad_input():
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph("")
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph("nodes 3\n0 1 1.0")
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph("n 3\n0 1\n")
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph("{not json")
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph(json.dumps({"n": 3}))
    with pytest.raises(sg.GraphFormatError):
        # duplicate edge in either format
        sg.parse_graph("n 3\n0 1 1.0\n1 0 2.0\n")
    with pytest.raises(sg.GraphFormatError):
        sg.parse_graph(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}))


@pytest.mark.parametrize("count, node, ok", [
    ("3", "0", True), ("4", "3", True),
    ("3.0", "0", False), ("2.9", "0", False), ("1e400", "0", False), ("abc", "0", False),
    ("null", "0", False), ("true", "0", False), ("1", "0", False),
    ("4", "1.5", False), ("4", "3.0", False), ("4", "-1", False), ("4", "4", False),
    ("4", "true", False), ("4", "1e400", False), ("4", "2", False),
])
def test_json_and_text_formats_agree(count, node, ok):
    """The same count and node id token is accepted, or refused, by both formats."""
    def outcome(parse, text):
        try:
            return parse(text)
        except sg.GraphFormatError:
            return "rejected"

    as_json = outcome(sg.graphs.parse_graph_json,
                      f'{{"n": {count}, "edges": [[0, 1, 1.0], [2, {node}, 1.0]]}}')
    as_text = outcome(sg.graphs.parse_graph_text, f"n {count}\n0 1 1.0\n2 {node} 1.0\n")
    assert as_json == as_text
    assert (as_json != "rejected") == ok


def test_laplacian_matrix_shape():
    L = k3().laplacian()
    assert np.allclose(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.allclose(L.sum(axis=0), 0.0)

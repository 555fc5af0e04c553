import numpy as np
import pytest

import specgrow as sg
from util import (graph, k3, kind_suite, path_graph, random_candidates,
                  random_connected, two_node)


def bordered_inverse_pinv(L):
    """Oracle: pseudo-inverse via (L + J/n)^-1 - J/n, no eigendecomposition."""
    n = L.shape[0]
    J = np.ones((n, n)) / n
    return np.linalg.inv(L + J) - J


def test_k3_spectrum():
    s = sg.build_laplacian(k3())
    assert np.allclose(s.eigvals, [0.0, 3.0, 3.0], atol=1e-12)


def test_two_node_matrix_and_spectrum():
    s = sg.build_laplacian(two_node())
    assert np.allclose(s.matrix, [[1, -1], [-1, 1]])
    assert np.allclose(s.eigvals, [0.0, 2.0], atol=1e-14)


def test_path3_spectrum():
    # analytic spectrum of an unweighted 3-path: 0, 1, 3
    s = sg.build_laplacian(path_graph(3))
    assert np.allclose(s.eigvals, [0.0, 1.0, 3.0], atol=1e-12)


def test_disconnected_raises():
    with pytest.raises(sg.NotConnected) as info:
        sg.build_laplacian(graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert not isinstance(info.value, sg.IllConditioned)


def test_ill_conditioned_is_told_apart_from_disconnected():
    # two triangles joined by a 1e-20 link: connected, but lambda_2 is below the tolerance
    triangles = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
    with pytest.raises(sg.IllConditioned, match="algebraic connectivity .* tolerance"):
        sg.build_laplacian(graph(6, triangles + [(2, 3, 1e-20)]))
    assert issubclass(sg.IllConditioned, sg.NotConnected)


def test_moore_penrose_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(4, 20))))
        L = np.asarray(s.matrix)
        P = np.asarray(s.pinv_power(1))
        scale = np.linalg.norm(L)
        assert np.linalg.norm(L @ P @ L - L) <= 1e-9 * scale
        assert np.allclose(P @ np.ones(s.n), 0.0, atol=1e-10)
        assert np.allclose(P, P.T)


def test_pinv_matches_bordered_inverse_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(3, 25))))
        oracle = bordered_inverse_pinv(np.asarray(s.matrix))
        assert np.allclose(s.pinv_power(1), oracle, atol=1e-9)
        assert np.allclose(s.pinv_power(2), oracle @ oracle, atol=1e-9)
        assert np.allclose(s.pinv_power(3), oracle @ oracle @ oracle, atol=1e-9)


def test_pinv_powers_are_exactly_symmetric_products_of_the_spectrum():
    """Each power is X X^T with X = V lambda^(-m/2): exactly symmetric, and
    within 1e-13 of V diag(lambda^-m) V^T relative to its largest entry, also
    on graphs holding a 1e8 link."""
    rng = np.random.default_rng(29)
    graphs = []
    for n in (7, 30, 61):
        graphs.append(random_connected(rng, n))
        g = random_connected(rng, n)
        graphs.append(g.with_edge(next(iter(g.edges)), 1e8))
    for g in graphs:
        s = sg.build_laplacian(g)
        V, lams = np.asarray(s.eigvecs)[:, 1:], np.asarray(s.nonzero_eigvals)
        for m in (1, 2, 3):
            P = np.asarray(s.pinv_power(m))
            reference = (V * lams ** -float(m)) @ V.T
            assert np.array_equal(P, P.T), (g.n, m)
            assert np.max(np.abs(P - reference)) <= 1e-13 * np.max(np.abs(reference)), (g.n, m)


def test_two_node_pinv_powers():
    s = sg.build_laplacian(two_node())
    assert np.allclose(s.pinv_power(1), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)
    assert np.allclose(s.pinv_power(2), [[0.125, -0.125], [-0.125, 0.125]], atol=1e-14)


def test_pinv_power_validation():
    s = sg.build_laplacian(two_node())
    with pytest.raises(sg.InvalidParameter):
        s.pinv_power(4)
    with pytest.raises(sg.InvalidParameter):
        s.resistance_matrix(0)


def test_effective_resistances():
    s2 = sg.build_laplacian(two_node())
    assert s2.edge_resistance((0, 1)) == pytest.approx(1.0, abs=1e-14)
    assert s2.edge_resistance((0, 1), m=2) == pytest.approx(0.5, abs=1e-14)
    s3 = sg.build_laplacian(k3())
    for e in [(0, 1), (0, 2), (1, 2)]:
        # series-parallel oracle: 1 ohm in parallel with 2 ohms
        assert s3.edge_resistance(e) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(sg.SelfLoopEdge):
        s3.edge_resistance((1, 1))


def test_resistance_matrix():
    s2 = sg.build_laplacian(two_node())
    assert np.allclose(s2.resistance_matrix(1), [[0, 1], [1, 0]], atol=1e-14)
    s3 = sg.build_laplacian(k3())
    R = s3.resistance_matrix(1)
    assert np.allclose(np.diag(R), 0.0)
    assert np.allclose(R[np.triu_indices(3, 1)], 2.0 / 3.0, atol=1e-12)
    # entries agree with the per-edge accessor
    rng = np.random.default_rng(5)
    s = sg.build_laplacian(random_connected(rng, 12))
    for m in (1, 2, 3):
        Rm = s.resistance_matrix(m)
        assert np.all(Rm >= -1e-12)
        for (i, j) in [(0, 3), (2, 11), (5, 7)]:
            assert Rm[i, j] == pytest.approx(s.edge_resistance((i, j), m), abs=1e-12)
            assert s.edge_resistance((j, i), m) == Rm[i, j]  # order does not matter


def test_resistance_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, 10))
        R = s.resistance_matrix(1)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert R[i, j] <= R[i, k] + R[k, j] + 1e-10


def test_rank_one_parallel_edge():
    s = sg.build_laplacian(two_node()).with_edge((0, 1), 1.0)
    assert np.allclose(s.pinv_power(1), [[0.125, -0.125], [-0.125, 0.125]], atol=1e-12)
    assert s.graph.weight(0, 1) == pytest.approx(2.0)


def test_graph_is_read_off_the_laplacian():
    rng = np.random.default_rng(71)
    g = random_connected(rng, 9)
    cur = sg.build_laplacian(g)
    assert cur.graph == g
    existing = next(iter(g.edges))
    for edge, w in [((0, 8), 0.7), (existing, 1.3), ((8, 0), 0.2), ((2, 5), 3.1)]:
        cur = cur.with_edge(edge, w)
        g = g.with_edge(edge, w)
    assert cur.graph.edges == g.edges


def test_rank_one_zero_weight_limit():
    s = sg.build_laplacian(k3())
    s_eps = s.with_edge((0, 1), 1e-12)
    assert np.allclose(s_eps.pinv_power(1), s.pinv_power(1), atol=1e-11)
    with pytest.raises(sg.InvalidParameter):
        s.with_edge((0, 1), 0.0)
    with pytest.raises(sg.InvalidParameter):
        s.with_edge((0, 1), -1.0)
    for top in (0, 4):
        with pytest.raises(sg.InvalidParameter):
            s.with_edge((0, 1), 1.0, top)


def test_rank_one_chain_matches_rebuild():
    rng = np.random.default_rng(31)
    for trial in range(6):
        n = int(rng.integers(10, 51))
        cur = sg.build_laplacian(random_connected(rng, n))
        for _ in range(10):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            # top=3 carries all three powers; with fewer, the grown state would
            # compute the rest from a fresh eigh and the test would check nothing
            cur = cur.with_edge((i, j), float(rng.uniform(0.1, 5.0)), top=3)
        ref = sg.build_laplacian(cur.graph)
        scale = np.linalg.norm(ref.pinv_power(1))
        for m in (1, 2, 3):
            err = np.abs(np.asarray(cur.pinv_power(m)) - np.asarray(ref.pinv_power(m))).max()
            assert err <= 1e-9 * max(scale, 1.0), (trial, m, err)
            r_err = np.abs(cur.resistance_matrix(m) - ref.resistance_matrix(m)).max()
            assert r_err <= 1e-8 * max(scale, 1.0)
        assert np.allclose(cur.matrix, ref.matrix, atol=1e-12)


def test_powers_are_computed_on_first_read_and_carried(monkeypatch):
    """Counts eigendecompositions and the n x n products that form a power from them."""
    counts = {"eigh": 0, "products": 0}
    n = 30

    class CountingVecs(np.ndarray):
        def __matmul__(self, other):
            out = np.asarray(self) @ np.asarray(other)
            counts["products"] += out.shape == (n, n)
            return out

    eigh = np.linalg.eigh

    def counting_eigh(a):
        counts["eigh"] += 1
        vals, vecs = eigh(a)
        return vals, vecs.view(CountingVecs)

    held = []
    with_edge = sg.LaplacianState.with_edge

    def recording(self, edge, weight, top=1):
        out = with_edge(self, edge, weight, top)
        held.append(sorted(out._pinv))
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(sg.LaplacianState, "with_edge", recording)
    rng = np.random.default_rng(89)
    g = random_connected(rng, n)
    cands = random_candidates(rng, n, 40)

    s = sg.build_laplacian(g)
    for m in kind_suite(s):
        sg.evaluate(m, s)
    assert counts == {"eigh": 1, "products": 0}

    # closed-form greedy grows no state and forms P^1 at most
    for spec, products in (("volume", 1), ("zeta:q=1", 1), ("zeta:q=2", 1), ("mq:q=1", 0)):
        counts.update(eigh=0, products=0)
        held.clear()
        sg.greedy(sg.build_laplacian(g), cands, 6, sg.parse_measure(spec))
        assert counts == {"eigh": 1, "products": products}, spec
        assert held == [], spec

    counts.update(eigh=0, products=0)
    cur = sg.build_laplacian(g)
    for (i, j), w in cands.links[:5]:
        cur = cur.with_edge((i, j), w, top=3)
    for m in (1, 2, 3):
        cur.pinv_power(m)
    assert counts == {"eigh": 1, "products": 3}
    assert held[-1] == [1, 2, 3]


def test_rank_one_lazy_spectrum_consistency():
    s = sg.build_laplacian(path_graph(6)).with_edge((0, 5), 2.0)
    ref = np.linalg.eigvalsh(np.asarray(s.matrix))
    assert np.allclose(s.eigvals[1:], ref[1:], atol=1e-10)
    assert s.eigvals[0] == 0.0


def test_spectrum_monotone_under_edge_addition():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        s = sg.build_laplacian(random_connected(rng, n))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        s2 = s.with_edge((i, j), float(rng.uniform(0.1, 4.0)))
        assert np.all(s2.eigvals - s.eigvals >= -1e-9)


def test_states_share_no_mutable_storage():
    s = sg.build_laplacian(k3())
    s2 = s.with_edge((0, 1), 1.0)
    assert not np.shares_memory(s.pinv_power(1), s2.pinv_power(1))
    with pytest.raises(ValueError):
        np.asarray(s.matrix)[0, 0] = 99.0


def test_inverse_spectrum():
    s = sg.build_laplacian(k3())
    assert np.allclose(s.inverse_spectrum, [1 / 3, 1 / 3], atol=1e-13)
    rng = np.random.default_rng(3)
    s = sg.build_laplacian(random_connected(rng, 9))
    assert np.allclose(sorted(s.inverse_spectrum), s.inverse_spectrum)

import numpy as np
import pytest

import specgrow as sg
from util import (graph, grown_powers, k3, kind_suite, path_graph, pinv_power,
                  random_candidates, random_connected, resistance_matrix, two_node)


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
        P = np.asarray(s.pinv)
        scale = np.linalg.norm(L)
        assert np.linalg.norm(L @ P @ L - L) <= 1e-9 * scale
        assert np.allclose(P @ np.ones(s.n), 0.0, atol=1e-10)
        assert np.allclose(P, P.T)


def test_pinv_matches_bordered_inverse_oracle():
    """P, and the resistances under P^1..P^3 that the closed forms read off
    the spectrum, against the bordered inverse and its powers."""
    from specgrow.synthesis import _spectral_resistances
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(3, 25))))
        oracle = bordered_inverse_pinv(np.asarray(s.matrix))
        assert np.allclose(s.pinv, oracle, atol=1e-9)
        rows, cols = np.triu_indices(s.n, 1)
        R = _spectral_resistances(s, rows, cols)
        for q in (1, 2, 3):
            expected = resistance_matrix(np.linalg.matrix_power(oracle, q))[rows, cols]
            assert np.allclose(R[q - 1], expected, atol=1e-9), q


def test_pinv_powers_are_exactly_symmetric_products_of_the_spectrum():
    """P is X X^T with X = V lambda^(-1/2): exactly symmetric, and within
    1e-13 of V diag(1/lambda) V^T relative to its largest entry, also on
    graphs holding a 1e8 link."""
    rng = np.random.default_rng(29)
    graphs = []
    for n in (7, 30, 61):
        graphs.append(random_connected(rng, n))
        g = random_connected(rng, n)
        graphs.append(g.with_edge(next(iter(g.edges)), 1e8))
    for g in graphs:
        s = sg.build_laplacian(g)
        V, lams = np.asarray(s.eigvecs)[:, 1:], np.asarray(s.nonzero_eigvals)
        P = np.asarray(s.pinv)
        reference = (V / lams) @ V.T
        assert np.array_equal(P, P.T), g.n
        assert np.max(np.abs(P - reference)) <= 1e-13 * np.max(np.abs(reference)), g.n


def test_two_node_pinv_powers():
    s = sg.build_laplacian(two_node())
    assert np.allclose(s.pinv, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)
    assert np.allclose(s.pinv @ s.pinv, [[0.125, -0.125], [-0.125, 0.125]], atol=1e-14)


def test_effective_resistances():
    from specgrow.synthesis import _spectral_resistances
    s2 = sg.build_laplacian(two_node())
    r1, r2, r3 = _spectral_resistances(s2, [0], [1])[:, 0]
    assert (r1, r2, r3) == pytest.approx((1.0, 0.5, 0.25), abs=1e-14)
    s3 = sg.build_laplacian(k3())
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        # series-parallel oracle: 1 ohm in parallel with 2 ohms
        assert _spectral_resistances(s3, [i], [j])[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert resistance_matrix(s3.pinv)[i, j] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_resistance_matrix():
    """The pair form of P^m against the resistances read off the spectrum."""
    from specgrow.synthesis import _spectral_resistances
    s2 = sg.build_laplacian(two_node())
    assert np.allclose(resistance_matrix(s2.pinv), [[0, 1], [1, 0]], atol=1e-14)
    s3 = sg.build_laplacian(k3())
    R = resistance_matrix(s3.pinv)
    assert np.allclose(np.diag(R), 0.0)
    assert np.allclose(R[np.triu_indices(3, 1)], 2.0 / 3.0, atol=1e-12)
    rng = np.random.default_rng(5)
    s = sg.build_laplacian(random_connected(rng, 12))
    pairs = [(0, 3), (2, 11), (5, 7)]
    rows, cols = np.array(pairs).T
    spectral = _spectral_resistances(s, rows, cols)
    for m in (1, 2, 3):
        Rm = resistance_matrix(pinv_power(s, m))
        assert np.all(Rm >= -1e-12)
        assert np.allclose(spectral[m - 1], Rm[rows, cols], rtol=0.0, atol=1e-12), m
        assert np.array_equal(spectral[m - 1], _spectral_resistances(s, cols, rows)[m - 1])


def test_resistance_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, 10))
        R = resistance_matrix(s.pinv)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert R[i, j] <= R[i, k] + R[k, j] + 1e-10


def test_rank_one_parallel_edge():
    s = sg.build_laplacian(two_node()).with_edge((0, 1), 1.0)
    assert np.allclose(s.pinv, [[0.125, -0.125], [-0.125, 0.125]], atol=1e-12)
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
    assert np.allclose(s_eps.pinv, s.pinv, atol=1e-11)
    for w in (0.0, -1.0, float("nan"), float("inf")):  # inf would put inf in L
        with pytest.raises(sg.InvalidParameter):
            s.with_edge((0, 1), w)


def test_with_edge_rejects_links_outside_the_graph():
    """Node ids outside [0, n) raise GraphFormatError, as read_links does:
    -1 is not wrapped to the last node."""
    s = sg.build_laplacian(path_graph(3))
    for edge in [(0, 7), (-1, 2), (3, 0), (0, -3)]:
        with pytest.raises(sg.GraphFormatError, match=r"outside node range \[0, 3\)"):
            s.with_edge(edge, 1.0)
    with pytest.raises(sg.SelfLoopEdge):
        s.with_edge((1, 1), 1.0)
    with pytest.raises(sg.GraphFormatError):
        s.with_edge((0, 1.0), 1.0)


def test_rank_one_chain_matches_rebuild():
    """Ten rank-one updates of a state's P, and of the P^1..P^3 that the
    tests' reference downdate carries, against a fresh build."""
    rng = np.random.default_rng(31)
    for trial in range(6):
        n = int(rng.integers(10, 51))
        cur = sg.build_laplacian(random_connected(rng, n))
        powers = {m: pinv_power(cur, m) for m in (1, 2, 3)}
        for _ in range(10):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            w = float(rng.uniform(0.1, 5.0))
            cur = cur.with_edge((i, j), w)
            powers = grown_powers(powers, (i, j), w)
        assert np.array_equal(cur.pinv, powers[1]), trial
        ref = sg.build_laplacian(cur.graph)
        scale = np.linalg.norm(ref.pinv)
        for m in (1, 2, 3):
            expected = pinv_power(ref, m)
            err = np.abs(powers[m] - expected).max()
            assert err <= 1e-9 * max(scale, 1.0), (trial, m, err)
            r_err = np.abs(resistance_matrix(powers[m]) - resistance_matrix(expected)).max()
            assert r_err <= 1e-8 * max(scale, 1.0)
        assert np.allclose(cur.matrix, ref.matrix, atol=1e-12)


def test_powers_are_computed_on_first_read_and_carried(monkeypatch):
    """Counts eigendecompositions and the n x n products that form P from them."""
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

    def recording(self, edge, weight):
        out = with_edge(self, edge, weight)
        held.append(out._pinv is not None)
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

    # the root's P is formed once, then carried without a product or an eigh
    counts.update(eigh=0, products=0)
    cur = sg.build_laplacian(g)
    assert cur._pinv is None
    for (i, j), w in cands.links[:5]:
        cur = cur.with_edge((i, j), w)
    cur.pinv
    assert counts == {"eigh": 1, "products": 1}
    assert held == [True] * 5


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
    assert not np.shares_memory(s.pinv, s2.pinv)
    with pytest.raises(ValueError):
        np.asarray(s2.pinv)[0, 0] = 99.0
    with pytest.raises(ValueError):
        np.asarray(s.matrix)[0, 0] = 99.0


def test_inverse_spectrum():
    s = sg.build_laplacian(k3())
    assert np.allclose(s.inverse_spectrum, [1 / 3, 1 / 3], atol=1e-13)
    rng = np.random.default_rng(3)
    s = sg.build_laplacian(random_connected(rng, 9))
    assert np.allclose(sorted(s.inverse_spectrum), s.inverse_spectrum)

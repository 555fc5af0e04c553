import numpy as np
import pytest

import specgrow as sg
from util import (graph, grown_powers, k3, k4, kind_suite, path_graph, pinv_power,
                  random_candidates, random_connected, resistance_matrix, ring_graph, two_node)

EPS = np.finfo(float).eps


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


def update_errors(state):
    """A state's eigenvalue error against eigvalsh of its L, in units of
    n eps lambda_n; its residual ||L V - V Lambda||_F, in the same units;
    and ||V^T V - I||_F, in units of n eps."""
    L, vals, vecs = np.asarray(state.matrix), state.eigvals, state.eigvecs
    want = np.linalg.eigvalsh(L)
    unit = state.n * EPS * want[-1]
    return (np.abs(vals - want).max() / unit, np.linalg.norm(L @ vecs - vecs * vals) / unit,
            np.linalg.norm(vecs.T @ vecs - np.eye(state.n)) / (state.n * EPS))


def no_eigh(*args):
    raise AssertionError("a grown state takes its eigenpairs by the rank-one update")


def test_rank_one_update_matches_eigh(monkeypatch):
    """A grown state's eigenpairs, taken from its parent's by the rank-one
    update (laplacian.rank_one_eigh) with no eigh, against eigvalsh of its
    L: the eigenvalues within n eps lambda_n, eigh's own backward error, the
    residual ||L V - V Lambda||_F within n eps lambda_n too, and ||V^T V -
    I||_F within 2 n eps (eigh's reaches 2 n eps on these graphs).  On ring
    8, K4 and a 6-node path with complete candidates, where eigenvalues
    repeat (ring, K4) and rotations deflate them; and on 60 nodes at 1e-8,
    unit and 1e8 weights, alone and beside a 1e8 base link, where the
    computed null vector is not constant to the deflation tolerance, so the
    update takes it in too."""
    rng = np.random.default_rng(37)
    g = random_connected(rng, 60)
    triples = [(i, j, w) for (i, j), w in random_candidates(rng, 60, 40).links]
    cases = [(ring_graph(8), sg.CandidateSet.complete(8).links),
             (k4(), sg.CandidateSet.complete(4).links),
             (path_graph(6), sg.CandidateSet.complete(6).links)]
    for base in (g, g.with_edge((0, 59), 1e8)):
        cases += [(base, [((i, j), scale * w) for i, j, w in triples]) for scale in (1e-8, 1.0, 1e8)]
    roots = [sg.build_laplacian(base) for base, _ in cases]
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for root, (base, links) in zip(roots, cases):
        for edge, w in links:
            eig, residual, orthogonality = update_errors(root.with_edge(edge, w))
            assert eig <= 1.0 and residual <= 1.0 and orthogonality <= 2.0, (base.n, edge, w)


def test_rank_one_update_chain_drift(monkeypatch):
    """Chains of rank-one updates, each state's eigenpairs read before the
    next link, against eigvalsh of the L reached: 300 links of random weight
    on 60 nodes, as long as a greedy run at k = 300, checked after 50, 100
    and 300; and 59 unit chords (n - 1) on a 60-node ring, whose repeated
    eigenvalues the update deflates by rotations.  Every update is backward
    stable, with errors within those of test_rank_one_update_matches_eigh,
    and the errors of N of them add like a random walk.  So after N updates
    the eigenvalues, which the recomputed Loewner vectors keep at rounding
    level, stay within one update's bound, n eps lambda_n; that bound holds
    lambda_2, which the IllConditioned guard reads.  The residual and the
    orthogonality are held to sqrt(N) times one update's bounds.  Measured
    over 5 seeds and 1000 links, the worst grew as 0.1 sqrt(N) and
    0.36 sqrt(N) (3.7 and 9.6 at N = 1000), the eigenvalues stayed below
    0.5, and no bound was met."""
    rng = np.random.default_rng(43)
    cur = sg.build_laplacian(random_connected(rng, 60))
    ring = sg.build_laplacian(ring_graph(60))
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    chords = [(i, i + 30) for i in range(30)] + [(i, i + 7) for i in range(29)]
    for (i, j) in chords:
        ring = ring.with_edge((i, j), 1.0)
        ring.eigvals
    checked = [(ring, len(chords))]
    for step in range(1, 301):
        i, j = sorted(rng.choice(60, size=2, replace=False).tolist())
        cur = cur.with_edge((i, j), float(rng.uniform(0.1, 5.0)))
        cur.eigvals
        if step in (50, 100, 300):
            checked.append((cur, step))
    for state, steps in checked:
        eig, residual, orthogonality = update_errors(state)
        assert eig <= 1.0, steps
        assert residual <= steps ** 0.5 and orthogonality <= 2.0 * steps ** 0.5, steps


def test_rank_one_zero_weight_limit():
    s = sg.build_laplacian(k3())
    s_eps = s.with_edge((0, 1), 1e-12)
    assert np.allclose(s_eps.pinv, s.pinv, atol=1e-11)
    assert update_errors(s_eps)[0] <= 1.0
    for w in (0.0, -1.0, float("nan"), float("inf")):  # inf would put inf in L
        with pytest.raises(sg.InvalidParameter):
            s.with_edge((0, 1), w)


def test_weights_that_overflow_twice_a_degree_are_refused():
    """Every eigenvalue is at most twice the largest weighted degree
    (Gershgorin): a graph where that overflows is refused before L is
    assembled, and so is a link that would make it overflow at an endpoint."""
    with pytest.raises(sg.GraphFormatError, match="node 1 overflows"):
        sg.build_laplacian(graph(3, [(0, 1, 1e308), (1, 2, 1e308)]))
    with pytest.raises(sg.GraphFormatError, match="overflows"):
        sg.build_laplacian(graph(2, [(0, 1, 1.7e308)]))
    # four times the total weight overflows, twice each degree does not
    s = sg.build_laplacian(graph(4, [(0, 1, 2e307), (1, 2, 2e307), (2, 3, 2e307)]))
    assert s.eigvals[1] == pytest.approx(2e307 * (2.0 - 2.0 ** 0.5))
    s = sg.build_laplacian(path_graph(3)).with_edge((0, 2), 8e307)
    assert float(s.matrix[0, 0]) == 8e307 + 1.0
    for edge in [(0, 1), (1, 2)]:  # 2 (8e307 + 1 + 1e307) overflows at node 0 or node 2
        with pytest.raises(sg.InvalidParameter, match="overflows"):
            s.with_edge(edge, 1e307)
    s.with_edge((0, 1), 8e306)


def test_grown_states_that_cannot_resolve_lambda_2_are_ill_conditioned():
    """A grown state is held to the zero threshold of a built one: beside a
    1e16 link on a 40-node path, lambda_2 reads IllConditioned either way."""
    g = path_graph(40)
    grown = sg.build_laplacian(g).with_edge((0, 39), 1e16)
    with pytest.raises(sg.IllConditioned, match="algebraic connectivity .* tolerance"):
        grown.eigvals
    with pytest.raises(sg.IllConditioned, match="algebraic connectivity .* tolerance"):
        sg.build_laplacian(g.with_edge((0, 39), 1e16))


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
    tests' reference downdate carries, against a fresh build.  A grown state
    downdates P only where its parent holds one, so the chain reads the
    root's P first; with_edge downdated P on every state until grown states
    took their eigenpairs from their parent's, and the chain read nothing.
    A second chain reads each state's eigenpairs, which it takes by the
    rank-one update, and no P until the last state's: its eigenvalues and
    that P match the fresh build too."""
    rng = np.random.default_rng(31)
    for trial in range(6):
        n = int(rng.integers(10, 51))
        g = random_connected(rng, n)
        cur, spectral = sg.build_laplacian(g), sg.build_laplacian(g)
        powers = {m: pinv_power(cur, m) for m in (1, 2, 3)}
        cur.pinv
        for _ in range(10):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            w = float(rng.uniform(0.1, 5.0))
            cur = cur.with_edge((i, j), w)
            powers = grown_powers(powers, (i, j), w)
            spectral = spectral.with_edge((i, j), w)
            spectral.eigvals
            assert spectral._pinv is None
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
        assert np.abs(spectral.eigvals - ref.eigvals).max() <= n * EPS * ref.eigvals[-1], trial
        assert np.abs(spectral.pinv - ref.pinv).max() <= 1e-9 * max(scale, 1.0), trial


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

    # closed-form greedy grows no state and forms no n x n product, P included;
    # linearized forms no P either, but for volume, whose gradient reads it
    for spec in ("volume", "zeta:q=1", "zeta:q=2", "mq:q=1"):
        counts.update(eigh=0, products=0)
        held.clear()
        root = sg.build_laplacian(g)
        sg.greedy(root, cands, 6, sg.parse_measure(spec))
        assert counts == {"eigh": 1, "products": 0}, spec
        assert held == [] and root._pinv is None, spec
        sg.linearized(root, cands, 6, sg.parse_measure(spec))
        assert held == [] and (root._pinv is None) == (spec != "volume"), spec

    # where the root's P is read, it is formed once, then carried without a
    # product or an eigh (with_edge carried it from an unread root too, by
    # forming it there, until grown states took their eigenpairs by the
    # rank-one update: this read nothing before growing)
    counts.update(eigh=0, products=0)
    cur = sg.build_laplacian(g)
    assert cur._pinv is None
    cur.pinv
    for (i, j), w in cands.links[:5]:
        cur = cur.with_edge((i, j), w)
    cur.pinv
    assert counts == {"eigh": 1, "products": 1}
    assert held == [True] * 5

    # elsewhere each grown state takes its eigenpairs from its parent's by
    # the rank-one update, with no eigh, and forms P only on first read
    update = sg.laplacian.rank_one_eigh
    updates = []

    def counting_update(vals, vecs, *link):
        updates.append(link)
        vals, vecs = update(vals, np.asarray(vecs), *link)
        return vals, vecs.view(CountingVecs)

    monkeypatch.setattr(sg.laplacian, "rank_one_eigh", counting_update)
    counts.update(eigh=0, products=0)
    held.clear()
    cur = sg.build_laplacian(g)
    for (i, j), w in cands.links[:5]:
        cur = cur.with_edge((i, j), w)
        cur.eigvals
    assert counts == {"eigh": 1, "products": 0} and len(updates) == 5
    assert held == [False] * 5
    cur.pinv
    assert counts == {"eigh": 1, "products": 1}


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


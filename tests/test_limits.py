import math

import numpy as np
import pytest

import specgrow as sg
from util import (k3, k4, kind_suite, path_graph, random_candidates,
                  random_connected)


def test_lower_bound_k4_zeta1():
    s = sg.build_laplacian(k4())
    # two surviving eigenvalues of 4: 1/4 + 1/4
    assert sg.lower_bound(s, sg.parse_measure("zeta:q=1"), 1) == pytest.approx(0.5, abs=1e-12)
    assert sg.lower_bound(s, sg.parse_measure("volume"), 1) == -math.inf
    assert sg.limit_value(sg.parse_measure("zeta:q=1"), s.n) == 0.0


def test_lower_bound_tau_k3():
    s = sg.build_laplacian(k3())
    m = sg.MeasureSpec("tau", 1.0)
    expect = (1.0 - math.exp(-2.0 * 3.0 * 1.0)) / (2.0 * 3.0)  # one surviving term
    assert sg.lower_bound(s, m, 1) == pytest.approx(expect, rel=1e-12)


def test_lower_bound_all_slots_at_limit():
    rng = np.random.default_rng(151)
    s = sg.build_laplacian(random_connected(rng, 6))
    for spec, expect in (("zeta:q=1", 0.0), ("tau:t=1", 0.0), ("gamma:gamma=50", 0.0),
                        ("hankel", 0.0), ("hp:p=3", 0.0)):
        m = sg.parse_measure(spec)
        for k in (5, 7, 20):
            assert sg.lower_bound(s, m, k) == expect, spec
    assert sg.lower_bound(s, sg.parse_measure("volume"), 5) == -math.inf
    assert sg.lower_bound(s, sg.parse_measure("mq:q=0.5"), 5) == -math.inf


def test_lower_bound_requires_positive_k():
    s = sg.build_laplacian(k4())
    with pytest.raises(sg.InvalidParameter):
        sg.lower_bound(s, sg.parse_measure("zeta:q=1"), 0)


def test_upper_bound_complete_k4():
    s = sg.build_laplacian(k4())
    m = sg.parse_measure("zeta:q=1")
    # flat spectrum: upper and lower coincide
    assert sg.upper_bound_complete(s, m, 1) == pytest.approx(0.5, abs=1e-12)
    assert sg.upper_bound_complete(s, m, 3) == 0.0
    s3 = sg.build_laplacian(k3())
    assert sg.upper_bound_complete(s3, sg.parse_measure("volume"), 1) == -math.inf


def test_bound_monotonicity_in_k():
    rng = np.random.default_rng(157)
    s = sg.build_laplacian(random_connected(rng, 9))
    for m in kind_suite(s):
        lows = [sg.lower_bound(s, m, k) for k in range(1, 9)]
        ups = [sg.upper_bound_complete(s, m, k) for k in range(1, 9)]
        for a, b in zip(lows, lows[1:]):
            assert b <= a + 1e-12, m.label
        for a, b in zip(ups, ups[1:]):
            assert b <= a + 1e-12, m.label
        for lo, up in zip(lows, ups):
            assert lo <= up + 1e-12, m.label


def test_sandwich_on_synthesis_runs():
    rng = np.random.default_rng(163)
    for _ in range(8):
        n = int(rng.integers(5, 10))
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, 5)
        k = int(rng.integers(1, 4))
        for m in kind_suite(s):
            low = sg.lower_bound(s, m, k)
            for algo in (sg.greedy, sg.brute_force):
                achieved = algo(s, c, k, m).final_value
                assert achieved > low, (m.label, algo.__name__)


def test_complete_heavy_candidates_reach_upper_bound():
    rng = np.random.default_rng(167)
    for _ in range(4):
        n = int(rng.integers(5, 11))
        s = sg.build_laplacian(random_connected(rng, n))
        c = sg.CandidateSet.complete(n, weight=1e6)
        for k in (1, 2, 3):
            up = sg.upper_bound_complete(s, sg.parse_measure("zeta:q=1"), k)
            achieved = sg.greedy(s, c, k, sg.parse_measure("zeta:q=1")).final_value
            assert achieved <= up + 1e-6


def test_max_single_link_gain():
    s2 = sg.build_laplacian(sg.WeightedGraph.from_edge_list(2, [(0, 1, 1.0)]))
    z1 = sg.parse_measure("zeta:q=1")
    assert sg.max_single_link_gain(s2, (0, 1), z1) == pytest.approx(0.5, abs=1e-13)
    assert sg.closed_form_delta(z1, s2, (0, 1), 1e6) == pytest.approx(0.5, abs=1e-5)
    assert sg.max_single_link_gain(s2, (0, 1), sg.parse_measure("volume")) == math.inf
    assert sg.max_single_link_gain(s2, (0, 1), sg.parse_measure("mq:q=0.5")) == math.inf


def test_max_single_link_gain_rejects_links_outside_the_graph():
    """Node ids outside [0, n) raise GraphFormatError: -1 is not wrapped to
    the last node, where (-1, 2) would be a self-loop."""
    s = sg.build_laplacian(path_graph(3))
    z1 = sg.parse_measure("zeta:q=1")
    for edge in [(0, 7), (-1, 2), (3, 0)]:
        with pytest.raises(sg.GraphFormatError, match=r"outside node range \[0, 3\)"):
            sg.max_single_link_gain(s, edge, z1)
    with pytest.raises(sg.SelfLoopEdge):
        sg.max_single_link_gain(s, (1, 1), z1)


def test_gain_ceiling_dominates_all_finite_weights():
    rng = np.random.default_rng(173)
    z1 = sg.parse_measure("zeta:q=1")
    for _ in range(10):
        n = int(rng.integers(4, 12))
        s = sg.build_laplacian(random_connected(rng, n))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        ceiling = sg.max_single_link_gain(s, (i, j), z1)
        deltas = [sg.closed_form_delta(z1, s, (i, j), w)
                  for w in (0.01, 0.1, 1.0, 10.0, 1e3, 1e6)]
        assert all(d <= ceiling + 1e-12 for d in deltas)
        assert all(a <= b + 1e-15 for a, b in zip(deltas, deltas[1:]))  # monotone in w


def test_zeta2_squared_gain_limit_matches_recompute():
    rng = np.random.default_rng(179)
    for _ in range(5):
        n = int(rng.integers(4, 10))
        g = random_connected(rng, n)
        s = sg.build_laplacian(g)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        limit = sg.closed_form_delta(sg.parse_measure("zeta:q=2"), s, (i, j), math.inf)
        sq_old = float(np.sum(np.asarray(s.nonzero_eigvals) ** -2.0))
        g_heavy = g.with_edge((i, j), 1e8)
        sq_new = float(np.sum(np.linalg.eigvalsh(g_heavy.laplacian())[1:] ** -2.0))
        assert limit == pytest.approx(sq_old - sq_new, rel=1e-5)


def test_enhancement_table_k4():
    s = sg.build_laplacian(k4())
    rows = sg.enhancement_table(s, sg.parse_measure("zeta:q=1"), 3)
    assert rows[0] == (0, pytest.approx(0.75), 0.0)
    assert rows[1][1] == pytest.approx(0.5, abs=1e-12)
    assert rows[1][2] == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert rows[3][2] == pytest.approx(100.0, abs=1e-12)
    pis = [pi for _, _, pi in rows]
    assert pis == sorted(pis)
    assert sg.enhancement_table(s, sg.parse_measure("zeta:q=1"), 0) == [rows[0]]


def test_enhancement_table_refuses_k_max_outside_zero_to_n_minus_1():
    """Past k = n - 1 every row would repeat the limit value, so a huge
    k_max is refused before the loop, as is a negative one."""
    s = sg.build_laplacian(path_graph(4))
    m = sg.parse_measure("zeta:q=1")
    for k_max in (-1, -3, 4, 2_000_000, 10**12):
        with pytest.raises(sg.InvalidParameter, match=r"k_max must lie in \[0, 3\]"):
            sg.enhancement_table(s, m, k_max)


def test_full_enhancement_for_vanishing_measures():
    rng = np.random.default_rng(181)
    s = sg.build_laplacian(random_connected(rng, 7))
    lam2 = float(s.eigvals[1])
    for spec in ("zeta:q=1", "tau:t=1", f"gamma:gamma={20 / lam2}"):
        rows = sg.enhancement_table(s, sg.parse_measure(spec), s.n - 1)
        assert rows[-1][2] == pytest.approx(100.0, abs=1e-9), spec


def test_enhancement_rejects_unsupported():
    s = sg.build_laplacian(k4())
    with pytest.raises(sg.UnsupportedMeasure):
        sg.enhancement_table(s, sg.parse_measure("volume"), 2)
    with pytest.raises(sg.UnsupportedMeasure):
        sg.enhancement_table(s, sg.parse_measure("mq:q=0.5"), 2)
    with pytest.raises(sg.UnsupportedMeasure):
        # infinite starting value
        sg.enhancement_table(s, sg.MeasureSpec("gamma", 0.01), 2)


def test_min_links_for_target():
    s = sg.build_laplacian(k4())
    m = sg.parse_measure("zeta:q=1")
    assert sg.min_links_for_target(s, m, 0.0) == 0
    assert sg.min_links_for_target(s, m, 30.0) == 1
    assert sg.min_links_for_target(s, m, 50.0) == 2
    assert sg.min_links_for_target(s, m, 100.0) == 3
    with pytest.raises(sg.InvalidParameter):
        sg.min_links_for_target(s, m, 101.0)


def test_spanning_tree_limit_values():
    rng = np.random.default_rng(191)
    s = sg.build_laplacian(random_connected(rng, 6))
    assert sg.limit_value(sg.parse_measure("zeta:q=1"), s.n) == 0.0
    assert sg.limit_value(sg.parse_measure("tau:t=2"), s.n) == 0.0
    assert sg.limit_value(sg.parse_measure("volume"), s.n) == -math.inf
    assert sg.limit_value(sg.parse_measure("mq:q=0.5"), s.n) == -math.inf
    assert sg.limit_value(sg.parse_measure("hankel"), s.n) == 0.0


def test_star_tree_sweep_converges():
    s = sg.build_laplacian(path_graph(4))
    m = sg.parse_measure("zeta:q=1")
    values = sg.star_tree_sweep(s, m)
    assert len(values) == 4
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3
    limit = sg.limit_value(m, s.n)
    assert abs(values[-1] - limit) < 1e-3


import math
from itertools import combinations

import numpy as np
import pytest

import specgrow as sg
from util import (exact_scores, full_recompute_value, graph, grown_powers, k4, kind_suite,
                  laplacian_of, path_graph, pinv_power, random_candidates, random_connected,
                  resistance, resistance_matrix, ring_graph, two_node)


def enumerate_best(state, candidates, k, m):
    """Oracle: independent exhaustive enumeration with fresh recomputation."""
    best_value, best_subset = None, None
    for subset in combinations(candidates.links, k):
        L = laplacian_of(state.n, list(state.graph.edges.items()) + list(subset))
        value = full_recompute_value(m, L)
        if best_value is None or value < best_value - 1e-12:
            best_value, best_subset = value, subset
    return best_value, best_subset


# --- candidate sets -------------------------------------------------------------


def test_candidate_set_validation():
    with pytest.raises(sg.GraphFormatError):
        sg.CandidateSet.from_triples([])
    with pytest.raises(sg.GraphFormatError):
        sg.CandidateSet.from_triples([(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(sg.GraphFormatError):
        sg.CandidateSet.from_triples([(0, 1, 0.0)])
    with pytest.raises(sg.SelfLoopEdge):
        sg.CandidateSet.from_triples([(1, 1, 1.0)])
    c = sg.CandidateSet.from_triples([(3, 1, 1.0), (0, 2, 2.0)])
    assert c.links == (((0, 2), 2.0), ((1, 3), 1.0))  # canonical, sorted
    assert c.p == 2
    with pytest.raises(sg.GraphFormatError):
        c.validate_for(3)


def test_candidate_set_json_round_trip():
    c = sg.CandidateSet.from_triples([(0, 1, 1.5), (2, 3, 0.5)])
    assert sg.CandidateSet.from_json_obj(c.to_json_obj()) == c
    with pytest.raises(sg.GraphFormatError):
        sg.CandidateSet.parse("{}")
    with pytest.raises(sg.GraphFormatError):
        sg.CandidateSet.parse("not json")


def test_validate_for_names_the_first_link_out_of_range():
    links = [(i, j, 1.0) for i in range(70) for j in range(i + 1, 70)][:1999]
    c = sg.CandidateSet.from_triples(links + [(69, 100, 1.0)])
    assert c.p == 2000 and c.links[-1][0] == (69, 100)
    c.validate_for(101)
    with pytest.raises(sg.GraphFormatError, match=r"\(69, 100\) outside node range \[0, 70\)"):
        c.validate_for(70)
    c = sg.CandidateSet.from_triples(links + [(69, 100, 1.0), (68, 90, 1.0)])
    with pytest.raises(sg.GraphFormatError, match=r"\(68, 90\) outside node range \[0, 80\)"):
        c.validate_for(80)


def test_candidate_arrays_are_read_only_and_safe_to_share():
    rng = np.random.default_rng(181)
    s = sg.build_laplacian(random_connected(rng, 30))
    c = random_candidates(rng, 30, 60)
    rows, cols, ws = c.arrays
    assert c.arrays is c.arrays  # built once
    assert [a.flags.writeable for a in c.arrays] == [False] * 3
    assert rows.tolist() == [e[0] for e, _ in c.links]
    assert cols.tolist() == [e[1] for e, _ in c.links]
    assert ws.tolist() == [w for _, w in c.links]
    with pytest.raises(ValueError):
        ws[0] = 2.0
    for spec in ("zeta:q=1", "zeta:q=2", "volume", "mq:q=1", "tau:t=1"):
        m = sg.parse_measure(spec)
        for solver in (sg.greedy, sg.linearized):
            a, b = solver(s, c, 8, m), solver(s, c, 8, m)
            assert (repr(a.chosen), repr(a.values), a.tie_breaks) == \
                (repr(b.chosen), repr(b.values), b.tie_breaks), (solver.__name__, spec)


def test_pickled_and_copied_arrays_stay_read_only():
    """A state's matrix, eigenvalues, eigenvectors and pseudo-inverse, and a
    candidate set's arrays, are read-only and safe to share; a pickled or
    deep-copied state or candidate set keeps them so, with equal contents
    (they came back writable), and a candidate set whose arrays were never
    read builds them read-only on the clone's first read."""
    import copy
    import pickle
    rng = np.random.default_rng(239)
    root = sg.build_laplacian(random_connected(rng, 12))
    root.pinv  # formed now
    c = random_candidates(rng, 12, 20)
    states = (root, root.with_edge(*c.links[0]))  # a grown state carries P, not its spectrum
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        for state in states:
            again = clone(state)
            for name in ("matrix", "_pinv", "_eigvals", "_eigvecs"):
                a, b = getattr(state, name), getattr(again, name)
                assert (a is None and b is None) or (np.array_equal(a, b) and not b.flags.writeable), name
            assert not again.eigvals.flags.writeable and not again.eigvecs.flags.writeable
            assert not again.pinv.flags.writeable
        for cands in (c, sg.CandidateSet(c.links)):
            again = clone(cands)
            assert again == cands
            assert [a.flags.writeable for a in again.arrays] == [False] * 3
            assert all(np.array_equal(a, b) for a, b in zip(again.arrays, c.arrays))
    assert "arrays" in vars(c)  # read by the loop above, then rebuilt by each clone


# --- closed forms ----------------------------------------------------------------


def test_closed_form_deltas_match_full_recompute():
    rng = np.random.default_rng(71)
    z1, z2, vol, mq1 = (sg.parse_measure(t)
                        for t in ("zeta:q=1", "zeta:q=2", "volume", "mq:q=1"))
    for _ in range(30):
        n = int(rng.integers(4, 16))
        g = random_connected(rng, n)
        s = sg.build_laplacian(g)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        w = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        L_new = laplacian_of(n, list(g.edges.items()) + [((i, j), w)])

        d1 = full_recompute_value(z1, np.asarray(s.matrix)) - full_recompute_value(z1, L_new)
        assert sg.closed_form_delta(z1, s, (i, j), w) == pytest.approx(d1, rel=1e-9, abs=1e-12)

        sq_old = float(np.sum(np.linalg.eigvalsh(np.asarray(s.matrix))[1:] ** -2.0))
        sq_new = float(np.sum(np.linalg.eigvalsh(L_new)[1:] ** -2.0))
        assert sg.closed_form_delta(z2, s, (i, j), w) == \
            pytest.approx(sq_old - sq_new, rel=1e-9, abs=1e-12)

        dv = full_recompute_value(vol, np.asarray(s.matrix)) - full_recompute_value(vol, L_new)
        assert sg.closed_form_delta(vol, s, (i, j), w) == pytest.approx(dv, rel=1e-9, abs=1e-12)

        dm = full_recompute_value(mq1, np.asarray(s.matrix)) - full_recompute_value(mq1, L_new)
        assert sg.closed_form_delta(mq1, s, (i, j), w) == pytest.approx(dm, rel=1e-9, abs=1e-12)


def test_closed_form_delta_unsupported():
    s = sg.build_laplacian(two_node())
    for spec in ("tau:t=1", "hankel", "hp:p=3", "mq:q=0.5", "zeta:q=3"):
        with pytest.raises(sg.UnsupportedMeasure):
            sg.closed_form_delta(sg.parse_measure(spec), s, (0, 1), 1.0)


def test_closed_form_delta_rejects_bad_links_and_weights():
    """Node ids outside [0, n) raise GraphFormatError (-1 is not wrapped to
    the last node); a weight that is not > 0 raises InvalidParameter, and
    inf, the infinite-coupling limit, is allowed."""
    s = sg.build_laplacian(path_graph(3))
    for spec in ("zeta:q=1", "zeta:q=2", "volume", "mq:q=1"):
        m = sg.parse_measure(spec)
        for edge in [(0, 7), (-1, 2), (3, 0)]:
            with pytest.raises(sg.GraphFormatError, match=r"outside node range \[0, 3\)"):
                sg.closed_form_delta(m, s, edge, 1.0)
        with pytest.raises(sg.SelfLoopEdge):
            sg.closed_form_delta(m, s, (2, 2), 1.0)
        for w in (-1.0, 0.0, -0.0, float("nan"), -math.inf):
            with pytest.raises(sg.InvalidParameter):
                sg.closed_form_delta(m, s, (0, 2), w)
        assert sg.closed_form_delta(m, s, (0, 2), math.inf) > 0.0, spec


def test_closed_form_delta_and_greedy_share_one_formula():
    """closed_form_delta equals the drop greedy scores from the candidate
    set's root resistances, for every candidate, within 1e-14 relative."""
    from specgrow.synthesis import _CLOSED_FORMS, _drop
    rng = np.random.default_rng(197)
    for scale in (1e-8, 1.0, 1e8):
        n = int(rng.integers(5, 40))
        s = sg.build_laplacian(random_connected(rng, n))
        c = sg.CandidateSet.from_triples(
            [(i, j, scale * w) for (i, j), w in random_candidates(rng, n, 30).links])
        for spec in ("zeta:q=1", "zeta:q=2", "volume"):
            m = sg.parse_measure(spec)
            drops = _drop(_CLOSED_FORMS[m], c.arrays[2], c._root_resistances(s))
            deltas = [sg.closed_form_delta(m, s, e, w) for e, w in c.links]
            np.testing.assert_allclose(deltas, drops, rtol=1e-14, atol=0.0,
                                       err_msg=f"{spec} x{scale}")


def test_two_node_single_candidate_value():
    # zeta:q=1 drops from 1/2 to 1/4 when doubling the only edge
    s = sg.build_laplacian(two_node())
    c = sg.CandidateSet.from_triples([(0, 1, 1.0)])
    res = sg.greedy(s, c, 1, sg.parse_measure("zeta:q=1"))
    assert res.chosen[0][0] == (0, 1)
    assert res.values[1] == pytest.approx(0.25, abs=1e-12)


# --- brute force -----------------------------------------------------------------


def test_brute_force_k_equals_p():
    rng = np.random.default_rng(73)
    g = random_connected(rng, 6)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 6, 4)
    m = sg.parse_measure("zeta:q=1")
    res = sg.brute_force(s, c, 4, m)
    assert set(res.chosen) == set(c.links)
    L_all = laplacian_of(6, list(g.edges.items()) + list(c.links))
    assert res.final_value == pytest.approx(full_recompute_value(m, L_all), rel=1e-12)


def test_brute_force_cap():
    rng = np.random.default_rng(79)
    s = sg.build_laplacian(random_connected(rng, 8))
    c = random_candidates(rng, 8, 8)
    with pytest.raises(sg.CombinatorialBlowup):
        sg.brute_force(s, c, 4, sg.parse_measure("zeta:q=1"), cap=10)


def test_brute_force_ring_with_chords():
    # 6-ring with three unit chords, k=2, checked against the local oracle
    g = ring_graph(6)
    s = sg.build_laplacian(g)
    c = sg.CandidateSet.from_triples([(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)])
    m = sg.parse_measure("zeta:q=1")
    res = sg.brute_force(s, c, 2, m)
    oracle_value, oracle_subset = enumerate_best(s, c, 2, m)
    assert res.final_value == pytest.approx(oracle_value, rel=1e-12)
    assert set(res.chosen) == set(oracle_subset)


def test_brute_force_k1_equals_best_single_link():
    rng = np.random.default_rng(83)
    s = sg.build_laplacian(random_connected(rng, 8))
    c = random_candidates(rng, 8, 6)
    for m in kind_suite(s):
        res = sg.brute_force(s, c, 1, m)
        best = sg.greedy(s, c, 1, m)
        assert res.chosen[0][0] == best.chosen[0][0], m.label
        assert best.values[1] == pytest.approx(res.final_value, rel=1e-9, abs=1e-12)


# --- greedy ----------------------------------------------------------------------


def test_greedy_trajectory_matches_rebuild():
    rng = np.random.default_rng(89)
    for spec in ("zeta:q=1", "zeta:q=2", "volume", "tau:t=0.7", "hp:p=3"):
        m = sg.parse_measure(spec)
        g = random_connected(rng, 20)
        s = sg.build_laplacian(g)
        c = random_candidates(rng, 20, 12)
        res = sg.greedy(s, c, 6, m)
        items = list(g.edges.items())
        assert res.values[0] == pytest.approx(
            full_recompute_value(m, laplacian_of(20, items)), rel=1e-10)
        for step, (edge, w) in enumerate(res.chosen, start=1):
            items.append((edge, w))
            expect = full_recompute_value(m, laplacian_of(20, items))
            assert res.values[step] == pytest.approx(expect, rel=1e-8), (spec, step)


def test_greedy_monotone_trajectories():
    rng = np.random.default_rng(97)
    s = sg.build_laplacian(random_connected(rng, 10))
    c = random_candidates(rng, 10, 7)
    for m in kind_suite(s):
        res = sg.greedy(s, c, 5, m)
        for a, b in zip(res.values, res.values[1:]):
            assert b <= a + 1e-12, m.label


def test_greedy_selection_rules_zeta1_and_volume():
    # the step-1 pick maximizes the known resistance score
    rng = np.random.default_rng(101)
    g = random_connected(rng, 12)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 12, 9)
    scores_z1 = {e: resistance(s, e, 2) / (1.0 / w + resistance(s, e, 1))
                 for e, w in c.links}
    res = sg.greedy(s, c, 1, sg.parse_measure("zeta:q=1"))
    assert res.chosen[0][0] == max(sorted(scores_z1), key=lambda e: scores_z1[e])
    scores_v = {e: math.log1p(resistance(s, e) * w) for e, w in c.links}
    res = sg.greedy(s, c, 1, sg.parse_measure("volume"))
    assert res.chosen[0][0] == max(sorted(scores_v), key=lambda e: scores_v[e])


def test_greedy_ties_break_lexicographically():
    # complete-graph symmetry: every candidate is equivalent
    s = sg.build_laplacian(k4())
    c = sg.CandidateSet.complete(4, weight=1.0)
    res = sg.greedy(s, c, 1, sg.parse_measure("zeta:q=1"))
    assert res.chosen[0][0] == (0, 1)
    assert res.tie_breaks >= 5
    resb = sg.brute_force(s, c, 1, sg.parse_measure("zeta:q=1"))
    assert resb.chosen[0][0] == (0, 1)
    assert resb.tie_breaks == res.tie_breaks == 5


def test_argmin_lex_band_is_relative_to_the_minimum():
    from specgrow.synthesis import _argmin_lex
    # 1 - 0.6e-12 is within 1e-12 of the minimum 1 - 1.2e-12 and comes first
    assert _argmin_lex([1.0, 1 - 0.6e-12, 1 - 1.2e-12]) == (1, 1)
    assert _argmin_lex([2.0, 0.5, 0.5, 3.0]) == (1, 1)
    assert _argmin_lex([math.inf, math.inf, math.inf]) == (0, 2)
    assert _argmin_lex([0.5, -math.inf, 1.0, -math.inf]) == (1, 1)


def test_all_infinite_scores_pick_the_lex_first_candidate():
    # gamma below its finiteness threshold stays +inf after tiny additions
    s = sg.build_laplacian(path_graph(6))
    m = sg.MeasureSpec("gamma", 0.5 / float(s.eigvals[1]))
    c = sg.CandidateSet.from_triples([(3, 5, 1e-6), (0, 5, 1e-6), (1, 4, 1e-6), (0, 2, 1e-6)])
    res = sg.greedy(s, c, 2, m)
    assert [e for e, _ in res.chosen] == [(0, 2), (0, 5)]
    assert res.values == (math.inf,) * 3
    resb = sg.brute_force(s, c, 2, m)
    assert [e for e, _ in resb.chosen] == [(0, 2), (0, 5)]
    assert resb.values == (math.inf,) * 3


def test_greedy_spectral_scores_exact_at_extreme_weights():
    # 40-digit references (mpmath eigenvalues of L + 1e8 L_e).  Scoring by the
    # downdated pseudo-inverse stays within a few ulp here; eigvalsh of
    # L + 1e8 L_e itself errs by 3e-10 to 2e-9.
    g = graph(8, [(i, i + 1, 1.0) for i in range(7)] + [(0, 4, 0.5), (2, 6, 1.5)])
    s = sg.build_laplacian(g)
    reference = {
        "tau:t=1": {(0, 7): 1.385717943347479486918568136703406989240,
                    (1, 5): 1.530818993103010421886688094401248960968,
                    (3, 7): 1.451680584593673786514296896005148857571},
        "zeta:q=3": {(0, 7): 1.134392149780301620155499586089161703093,
                     (1, 5): 1.532807737025555569193883305250743850108,
                     (3, 7): 1.350820963479698149235420464962653922878},
    }
    for spec, by_edge in reference.items():
        m = sg.parse_measure(spec)
        for (i, j), ref in by_edge.items():
            res = sg.greedy(s, sg.CandidateSet.from_triples([(i, j, 1e8)]), 1, m)
            assert res.values[1] == pytest.approx(ref, rel=1e-13, abs=0.0), (spec, i, j)


def test_greedy_mq1_lowers_by_twice_each_weight():
    """mq:q=1 is -tr L: greedy takes the heaviest links, each lowering the
    value by exactly 2w, also beside a 1e8 link."""
    rng = np.random.default_rng(23)
    m = sg.parse_measure("mq:q=1")
    for _ in range(5):
        n = int(rng.integers(5, 20))
        g = random_connected(rng, n)
        s = sg.build_laplacian(g.with_edge(next(iter(g.edges)), 1e8))
        c = random_candidates(rng, n, 10)
        res = sg.greedy(s, c, 4, m)
        assert list(res.chosen) == sorted(c.links, key=lambda link: -link[1])[:4]
        for (_, w), before, after in zip(res.chosen, res.values, res.values[1:]):
            assert after == before - 2.0 * w


def full_scan_greedy(state, candidates, k, m):
    """Reference greedy: every remaining candidate scored exactly at every step.

    The spectral measures score on a state grown by with_edge, by greedy's
    own exact scorer (_exact_scores) with no bound; the closed forms apply
    their drop to resistances read off P^1..P^3, which grown_powers carries
    across picks."""
    from specgrow.laplacian import pair_form
    from specgrow.synthesis import _CLOSED_FORMS, _argmin_lex, _drop, _exact_scores, _link_arrays
    form = _CLOSED_FORMS.get(m)
    powers = {q: pinv_power(state, q) for q in (1, 2, 3)} if form is not None else None
    links = _link_arrays(candidates.links)
    remaining = np.arange(candidates.p)
    chosen, values, tie_breaks = [], [sg.evaluate(m, state)], 0
    for step in range(k):
        rows, cols, ws = (a[remaining] for a in links)
        if form is None:
            scores = _exact_scores(m, state, candidates, remaining, {})
        else:
            stat = values[-1] if form.power is None else float(np.trace(powers[form.power]))
            R = [pair_form(P, rows, cols) for P in powers.values()]
            scores = form.transform(stat - _drop(form, ws, R))
        pick, ties = _argmin_lex(scores)
        tie_breaks += ties
        chosen.append(candidates.links[remaining[pick]])
        remaining = np.delete(remaining, pick)
        if step + 1 < k:
            if form is None:
                state = state.with_edge(*chosen[-1])
            else:
                powers = grown_powers(powers, *chosen[-1])
        values.append(float(scores[pick]))
    return tuple(chosen), tuple(values), tie_breaks


def pruning_suite(state):
    """The measures greedy scores with bound pruning, gamma around its threshold."""
    lam2 = float(state.eigvals[1])
    specs = ("tau:t=1", "zeta:q=3", "hp:p=3", "mq:q=0.5", "mq:q=0", "mq:q=0.9",
             "hankel", "zeta:q=inf", "hp:p=inf")
    return [sg.parse_measure(t) for t in specs] + [
        sg.MeasureSpec("gamma", g / lam2) for g in (1.0000001, 1.0, 0.5, 10.0)]


def test_pruned_greedy_equals_full_scan():
    from specgrow import synthesis

    def check(s, c, k, suite=pruning_suite):
        for m in suite(s):
            res = sg.greedy(s, c, k, m)
            chosen, values, tie_breaks = full_scan_greedy(s, c, k, m)
            assert (repr(res.chosen), repr(res.values), res.tie_breaks) == \
                (repr(chosen), repr(values), tie_breaks), (m.label, k)

    rng = np.random.default_rng(157)
    for _ in range(6):
        n = int(rng.integers(6, 16))
        s = sg.build_laplacian(random_connected(rng, n))
        triples = [(i, j, w) for (i, j), w in random_candidates(rng, n, 12).links]
        for scale in (1e-8, 1.0, 1e8):  # the bound is nearly tight at 1e-8
            check(s, sg.CandidateSet.from_triples([(i, j, scale * w) for i, j, w in triples]), 4)
        # a 1e8 link: scores and bounds round apart by up to 3e-7 relative
        g = random_connected(rng, n)
        s = sg.build_laplacian(g.with_edge(next(iter(g.edges)), 1e8))
        check(s, random_candidates(rng, n, 12), 4)
    # symmetric graphs with complete unit candidates tie exactly
    for g in (k4(), ring_graph(6), ring_graph(8), path_graph(5)):
        s = sg.build_laplacian(g)
        for k in (1, 3, 5):
            check(s, sg.CandidateSet.complete(g.n), k)
    # a larger graph, more candidates than a first batch
    n = 140
    s = sg.build_laplacian(random_connected(rng, n))
    triples = [(i, j, w) for (i, j), w in random_candidates(rng, n, 3 * synthesis.CHUNK).links]
    specs = ("tau:t=1", "zeta:q=3", "hankel", "mq:q=0.9")
    suite = lambda s: ([sg.parse_measure(t) for t in specs]
                       + [sg.MeasureSpec("gamma", 1.0000001 / float(s.eigvals[1]))])
    for scale in (1e-8, 1.0, 1e8):
        check(s, sg.CandidateSet.from_triples([(i, j, scale * w) for i, j, w in triples]), 3, suite)


def test_carried_resistances_match_grown_states():
    """Closed-form greedy, which carries candidate resistances, against scoring
    every candidate on a state grown by with_edge: the same picks and
    tie_breaks, values within 1e-12 relative."""
    from specgrow import synthesis
    specs = ("zeta:q=1", "zeta:q=2", "volume", "mq:q=1")

    def check(s, c, k):
        for spec in specs:
            m = sg.parse_measure(spec)
            res = sg.greedy(s, c, k, m)
            chosen, values, tie_breaks = full_scan_greedy(s, c, k, m)
            assert (res.chosen, res.tie_breaks) == (chosen, tie_breaks), (spec, k)
            np.testing.assert_allclose(res.values, values, rtol=1e-12, atol=1e-12,
                                       err_msg=f"{spec} k={k}")

    assert all(synthesis._CLOSED_FORMS.get(sg.parse_measure(t)) for t in specs)
    rng = np.random.default_rng(163)
    for _ in range(6):
        n = int(rng.integers(6, 16))
        s = sg.build_laplacian(random_connected(rng, n))
        triples = [(i, j, w) for (i, j), w in random_candidates(rng, n, 12).links]
        for scale in (1e-8, 1.0, 1e8):
            check(s, sg.CandidateSet.from_triples([(i, j, scale * w) for i, j, w in triples]), 4)
        g = random_connected(rng, n)
        s = sg.build_laplacian(g.with_edge(next(iter(g.edges)), 1e8))
        check(s, random_candidates(rng, n, 12), 4)
    for g in (k4(), ring_graph(6), ring_graph(8), path_graph(5)):
        s = sg.build_laplacian(g)
        for k in (1, 3, 5):
            check(s, sg.CandidateSet.complete(g.n), k)
    # every candidate added: the chain of picks is folded at ceil((n - 1)/2) = 4 rows
    s = sg.build_laplacian(random_connected(rng, 9))
    c = random_candidates(rng, 9, 30)
    check(s, c, c.p)
    # and at ceil((n - 1)/2) = 6, on a graph holding a 1e8 link
    g = random_connected(rng, 12)
    s = sg.build_laplacian(g.with_edge(next(iter(g.edges)), 1e8))
    c = random_candidates(rng, 12, 26)
    check(s, c, c.p)


def test_carried_values_after_folds_match_fresh_builds():
    """Every candidate added, k = p, so the carried chain of picks is folded
    into the dense eigenbasis matrix every ceil((n - 1)/2) picks: each value
    matches a fresh build of the grown graph, and a run on a warm state and
    candidate set equals one on cold ones, repr for repr."""
    specs = ("zeta:q=1", "zeta:q=2", "volume")
    graphs = [ring_graph(n) for n in range(8, 13)]
    graphs += [graph(n, [(i, j, 1.0) for i, j in combinations(range(n), 2)]) for n in (4, 7, 10)]
    for g in graphs:
        warm = sg.build_laplacian(g), sg.CandidateSet.complete(g.n)
        for spec in specs:
            m = sg.parse_measure(spec)
            for solver in (sg.greedy, sg.linearized):
                res = solver(*warm, warm[1].p, m)
                assert res.values[-1] < res.values[0], (g.n, spec)
                grown = g
                for (edge, w), value in zip(res.chosen, res.values[1:]):
                    grown = grown.with_edge(edge, w)
                    fresh = sg.evaluate(m, sg.build_laplacian(grown))
                    assert abs(value - fresh) <= 1e-12 * abs(fresh), (g.n, spec, solver.__name__)
                again = solver(*warm, warm[1].p, m)
                cold = solver(sg.build_laplacian(g), sg.CandidateSet.complete(g.n), warm[1].p, m)
                for other in (again, cold):
                    assert (other.chosen, other.tie_breaks) == (res.chosen, res.tie_breaks)
                    assert list(map(repr, other.values)) == list(map(repr, res.values))


def test_carried_values_at_heavy_weights_stay_within_the_known_error():
    """Every candidate near 1e8, all of them added: the carried values lose
    accuracy once the heavy links contract the graph, since each drop is
    subtracted from a statistic that falls by many orders of magnitude.  The
    bounds on the error against a fresh build are 1.2e-8 for zeta:q=1, the
    largest first reported; 3.7e-8 for volume, the largest on this sweep
    before the carried update was rewritten elementwise; and 6e-5 for
    zeta:q=2, above its largest, 5.3e-5, over rng streams 167-169."""
    bounds = {"zeta:q=1": 1.2e-8, "zeta:q=2": 6e-5, "volume": 3.7e-8}
    worst = dict.fromkeys(bounds, 0.0)
    rng = np.random.default_rng(167)
    for _ in range(12):
        n = int(rng.integers(4, 11))
        g = random_connected(rng, n)
        s = sg.build_laplacian(g)
        p = int(rng.integers(4, 11))
        c = sg.CandidateSet.from_triples(
            [(i, j, 1e8 * w) for (i, j), w in random_candidates(rng, n, p).links])
        for spec in bounds:
            m = sg.parse_measure(spec)
            for solver in (sg.greedy, sg.linearized):
                res = solver(s, c, c.p, m)
                items = list(g.edges.items())
                for link, value in zip(res.chosen, res.values[1:]):
                    items.append(link)
                    error = abs(value - full_recompute_value(m, laplacian_of(n, items)))
                    worst[spec] = max(worst[spec], error)
    assert all(worst[spec] <= bounds[spec] for spec in bounds), worst


def test_greedy_prunes_candidates_a_bound_rules_out(monkeypatch):
    """Greedy scores exactly fewer than p/4 links a step on 120 nodes.  This
    counted companion_value calls until the exact scores moved to the
    eigenbasis, which calls it only for the links its quadrature leaves; it
    now counts the links each call of the exact scorer holds."""
    from specgrow import synthesis
    scored = []
    exact_scores_ = synthesis._exact_scores

    def counting(m, state, candidates, idx, memo):
        scored.append(idx.size)
        return exact_scores_(m, state, candidates, idx, memo)

    monkeypatch.setattr(synthesis, "_exact_scores", counting)
    rng = np.random.default_rng(163)
    s = sg.build_laplacian(random_connected(rng, 120))
    c = random_candidates(rng, 120, 400)
    k = 3
    sg.greedy(s, c, k, sg.parse_measure("tau:t=1"))
    # a full scan scores p - t candidates at step t; pruning, under p/4 a step
    assert 0 < sum(scored) < k * c.p / 4


def test_contour_quadrature_is_built_once_a_step(monkeypatch):
    """The contour quadrature depends on the state, the measure and the
    largest link weight alone: every batch of a step's exact scores shares
    one memo, so it is built once a step, by the first batch that reaches
    the contour, where each batch built it until then."""
    from specgrow import synthesis
    built, batches = [], []
    contour_nodes, exact_scores_ = synthesis._contour_nodes, synthesis._exact_scores

    def counting_nodes(*args):
        built.append(args[0])
        return contour_nodes(*args)

    def counting_batches(m, state, candidates, idx, memo):
        batches.append((state, memo))  # held, so that no id is reused
        return exact_scores_(m, state, candidates, idx, memo)

    monkeypatch.setattr(synthesis, "_contour_nodes", counting_nodes)
    monkeypatch.setattr(synthesis, "_exact_scores", counting_batches)
    rng = np.random.default_rng(163)
    s = sg.build_laplacian(random_connected(rng, 120))
    c = random_candidates(rng, 120, 400)
    for spec, steps in (("tau:t=1", 3), ("hankel", 0)):
        built.clear()
        batches.clear()
        sg.greedy(s, c, 3, sg.parse_measure(spec))
        memos = {}
        for state, memo in batches:
            memos.setdefault(id(state), set()).add(id(memo))
        assert len(built) == steps and len(batches) > 3 and len(memos) == 3, spec
        assert all(len(ids) == 1 for ids in memos.values()), spec


def test_greedy_scores_only_links_whose_deepest_bound_ties_the_step_best(monkeypatch):
    """The diagonal bound is greedy's one bound level, so its deepest.  Each
    step scores a prefix of the links left in ascending bound order (stable),
    in nonempty batches whose every bound lies within the cut of the best
    score of the batches before it, and stops at the first link whose bound
    lies above the cut of the step's best.  This checked, before the bound
    levels became one, that each scored link's deepest pinching lay within
    the cut of its step's final best."""
    from specgrow import synthesis
    batches = []
    exact_scores_ = synthesis._exact_scores

    def recording(m, state, candidates, idx, memo):
        scores = exact_scores_(m, state, candidates, idx, memo)
        batches.append((state, idx.tolist(), scores.tolist()))
        return scores

    monkeypatch.setattr(synthesis, "_exact_scores", recording)
    rng = np.random.default_rng(163)
    s = sg.build_laplacian(random_connected(rng, 120))
    c = random_candidates(rng, 120, 400)
    k = 8
    for spec in ("tau:t=1", "hankel"):
        m = sg.parse_measure(spec)
        batches.clear()
        res = sg.greedy(s, c, k, m)
        steps = {}
        for state, idx, scores in batches:
            steps.setdefault(id(state), (state, []))[1].append((idx, scores))
        assert len(steps) == k, spec
        left = np.arange(c.p)
        for (state, step), pick in zip(steps.values(), res.chosen):
            bounds = synthesis._diagonal_bounds(m, state, c.arrays, left)
            bound = dict(zip(left.tolist(), bounds.tolist()))
            order = left[np.argsort(bounds, kind="stable")].tolist()
            scored = [link for idx, _ in step for link in idx]
            assert scored == order[:len(scored)], spec
            best = math.inf
            for idx, scores in step:
                assert idx and all(bound[link] <= synthesis._cut(best) for link in idx), spec
                best = min(best, *scores)
            if len(scored) < len(order):
                assert bound[order[len(scored)]] > synthesis._cut(best), spec
            left = left[left != c.links.index(pick)]


def test_stacked_spectral_scores_equal_single_link_calls_bit_for_bit():
    """A link's exact score does not depend on the links stacked with it, at
    extreme weights, on a grown state and at +inf; on small graphs it equals
    the per-link downdate P - c u u^T in with_edge's arithmetic, one
    eigvalsh each, and on 40 nodes greedy's eigenbasis score of a link alone
    equals its score in a batch."""
    from specgrow import synthesis

    def one_link(m, state, i, j, w):
        P = np.asarray(state.pinv)
        u = P[:, i] - P[:, j]
        c = 1.0 / (1.0 / w + (P[i, i] + P[j, j] - 2.0 * P[i, j]))
        mus = np.maximum(np.linalg.eigvalsh(P - np.multiply.outer(u * c, u))[1:], 0.0)
        return float(sg.companion_value(m, mus[None], state.n)[0])

    rng = np.random.default_rng(179)
    infinite = 0
    for n in [int(rng.integers(5, 13)) for _ in range(3)] + [40]:
        root = sg.build_laplacian(random_connected(rng, n))
        grown = root.with_edge(*random_candidates(rng, n, 1).links[0])
        c = random_candidates(rng, n, 12)
        rows, cols, ws = synthesis._link_arrays(c.links)
        for state in (root, grown):
            for scale in (1e-8, 1.0, 1e8):
                for m in pruning_suite(state):
                    if n == 40:  # greedy's exact scores read the eigenbasis there
                        scaled = sg.CandidateSet.from_triples(zip(rows, cols, scale * ws))
                        idx = np.arange(c.p)
                        batch = synthesis._exact_scores(m, state, scaled, idx, {})
                        single = [float(synthesis._exact_scores(m, state, scaled, idx[b:b + 1], {})[0])
                                  for b in range(c.p)]
                        assert repr(batch.tolist()) == repr(single), (m.label, scale)
                        continue
                    batch = exact_scores(m, state, rows, cols, scale * ws)
                    single = [float(exact_scores(
                        m, state, rows[b:b + 1], cols[b:b + 1], scale * ws[b:b + 1])[0])
                        for b in range(c.p)]
                    assert repr(batch.tolist()) == repr(single), (m.label, scale)
                    loop = [one_link(m, state, i, j, w) for i, j, w in
                            zip(rows.tolist(), cols.tolist(), (scale * ws).tolist())]
                    assert repr(loop) == repr(single), (m.label, scale)
                    infinite += single.count(math.inf)
    assert infinite  # gamma just above its threshold, at 1e-8 weights


def test_reported_spectral_values_are_the_measure_of_the_grown_pseudo_inverse():
    """On a small state greedy and linearized report, for each spectral pick,
    the measure of the pseudo-inverse that the state grown by that pick
    carries, to the last bit: the exact scores and with_edge share one
    downdate.  Elsewhere the scores read the eigenbasis (a contour integral,
    or lambda_2 for hankel, zeta:q=inf and hp:p=inf), and the values agree
    with that measure within 1e-13 relative.  Before the eigenbasis scores,
    this held bit for bit on every state; the eight instances drawn here
    were all small, so the two larger ones are new."""
    from specgrow import synthesis
    rng = np.random.default_rng(211)
    checked = {True: 0, False: 0}
    for n in [int(rng.integers(5, 40)) for _ in range(8)] + [40, 60]:
        root = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, 12)
        small = c._keeps_steps(root)
        suite = kind_suite(root) + [sg.parse_measure(t) for t in ("zeta:q=inf", "hp:p=inf")] * (not small)
        for m in suite:
            if m in synthesis._CLOSED_FORMS:
                continue
            solvers = (sg.greedy, sg.linearized) if m.differentiable else (sg.greedy,)
            for solver in solvers:
                result = solver(root, c, 4, m)
                state = root
                for edge_weight, value in zip(result.chosen, result.values[1:]):
                    state = state.with_edge(*edge_weight)
                    mus = np.maximum(np.linalg.eigvalsh(state.pinv)[1:], 0.0)
                    expected = float(sg.companion_value(m, mus[None], n)[0])
                    if small:
                        assert repr(value) == repr(expected), (n, m.label, solver.__name__)
                    else:
                        assert value == pytest.approx(expected, rel=1e-13, abs=0.0), \
                            (n, m.label, solver.__name__)
                    checked[small] += 1
    assert checked == {True: 288, False: 2 * 11 * 4}  # 11 runs of 4 picks a graph


def test_secular_lambda2_matches_eigvalsh():
    """lambda_2 after adding each link alone, read off the state's eigenbasis
    (synthesis._secular_lambda2), against eigvalsh(L + w L_e) within its
    backward error, n eps lambda_n: on ring 8, K4 and a 6-node path with
    complete candidates, where lambda_2 repeats (ring, K4) and so stays; and
    on 40 nodes beside a 1e8 base link."""
    from specgrow.graphs import add_link
    from specgrow.synthesis import _secular_lambda2
    rng = np.random.default_rng(233)
    heavy = random_connected(rng, 40)
    heavy = heavy.with_edge(next(iter(heavy.edges)), 1e8)
    cases = [(ring_graph(8), sg.CandidateSet.complete(8)), (k4(), sg.CandidateSet.complete(4)),
             (path_graph(6), sg.CandidateSet.complete(6)), (heavy, random_candidates(rng, 40, 60))]
    for g, c in cases:
        s = sg.build_laplacian(g)
        rows, cols, ws = c.arrays
        V = s.eigvecs[:, 1:]
        lam2 = _secular_lambda2(s.nonzero_eigvals, np.square(V[rows] - V[cols]), ws)
        for ((i, j), w), got in zip(c.links, lam2.tolist()):
            L = np.array(s.matrix)
            add_link(L, i, j, w)
            vals = np.linalg.eigvalsh(L)
            assert abs(got - vals[1]) <= g.n * np.finfo(float).eps * vals[-1], (g.n, i, j)


def test_greedy_max_eigenvalue_measures_read_the_secular_root(monkeypatch):
    """hankel, zeta:q=inf and hp:p=inf on 40 nodes at unit weights: greedy
    scores every link it does not rule out by lambda_2's secular root, with
    no downdated inverse spectrum, and each value matches a fresh build of
    the grown graph within 1e-13 relative."""
    from specgrow import synthesis

    def no_spectra(*args):
        raise AssertionError("no downdated inverse spectrum expected")

    monkeypatch.setattr(synthesis, "downdated_inverse_spectra", no_spectra)
    rng = np.random.default_rng(241)
    g = random_connected(rng, 40)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 40, 60)
    for spec in ("hankel", "zeta:q=inf", "hp:p=inf"):
        m = sg.parse_measure(spec)
        res = sg.greedy(s, c, 6, m)
        items = list(g.edges.items())
        for link, value in zip(res.chosen, res.values[1:]):
            items.append(link)
            assert value == pytest.approx(full_recompute_value(m, laplacian_of(40, items)),
                                          rel=1e-13, abs=0.0), spec


def test_eigenbasis_scores_match_the_downdated_spectra(monkeypatch):
    """Every measure family (kind_suite, gamma at 1.0000001, 1.5 and 10 over
    lambda_2, and at 0.5 below its threshold) scored in the eigenbasis
    (synthesis._exact_scores) on 40 and 140 nodes, against the downdated
    inverse spectra (exact_scores): within 1e-13 relative at 1e-8 and unit
    weights.  At 1e8 weights the downdated route itself errs, mq:q=0.5 by
    up to 1e-7 and volume by 1e-9, so the bound there is SLACK, and volume
    is checked against the determinant lemma within 1e-13.  No link falls
    back to the downdated route at unit weights, but for gamma at
    1.0000001/lambda_2, whose branch point leaves the contour no room, and
    below its threshold, where the links that lift lambda_2 past it do."""
    from specgrow import synthesis
    fallbacks = []
    inverse_spectra = synthesis.downdated_inverse_spectra

    def counting(state, rows, cols, ws):
        fallbacks.append(len(rows))
        return inverse_spectra(state, rows, cols, ws)

    monkeypatch.setattr(synthesis, "downdated_inverse_spectra", counting)
    rng = np.random.default_rng(227)
    volume = sg.parse_measure("volume")
    for n in (40, 140):
        s = sg.build_laplacian(random_connected(rng, n))
        triples = [(i, j, w) for (i, j), w in random_candidates(rng, n, 60).links]
        lam2 = float(s.eigvals[1])
        near, below = (sg.MeasureSpec("gamma", g / lam2) for g in (1.0000001, 0.5))
        suite = kind_suite(s) + [sg.MeasureSpec("gamma", g / lam2) for g in (1.5, 10.0)]
        for scale in (1e-8, 1.0, 1e8):
            c = sg.CandidateSet.from_triples([(i, j, scale * w) for i, j, w in triples])
            idx = np.arange(c.p)
            for m in suite + [near, below]:
                fallbacks.clear()
                got = synthesis._exact_scores(m, s, c, idx, {})
                fell = sum(fallbacks)
                fallbacks.clear()
                want = exact_scores(m, s, *c.arrays)
                assert np.array_equal(np.isinf(got), np.isinf(want)), (n, scale, m.label)
                finite = np.isfinite(want)
                rel = 1e-13 if scale < 1e8 else synthesis.SLACK
                assert got[finite] == pytest.approx(want[finite], rel=rel, abs=0.0), \
                    (n, scale, m.label)
                if m is near:
                    assert fell == c.p, (n, scale)
                elif scale == 1.0 and m is not below:
                    assert fell == 0, (n, m.label)
                if m == volume and scale == 1e8:
                    lemma = [sg.evaluate(m, s) - synthesis.closed_form_delta(m, s, e, w)
                             for e, w in c.links]
                    assert got == pytest.approx(lemma, rel=1e-13, abs=0.0), n
            assert np.isinf(exact_scores(below, s, *c.arrays)).any(), (n, scale)


def test_greedy_beside_an_unresolvable_link_is_ill_conditioned():
    """Greedy beside a 1e16 candidate grows a state whose lambda_2 its
    eigendecomposition cannot resolve: IllConditioned, as a fresh build of
    that graph raises, not a measure's parameter error."""
    rng = np.random.default_rng(5)
    n = int(rng.integers(40, 81))
    s = sg.build_laplacian(random_connected(rng, n))
    c = random_candidates(rng, n, 40)
    c = sg.CandidateSet.from_triples([(i, j, w * (1e16 if b % 7 == 0 else 1.0))
                                      for b, ((i, j), w) in enumerate(c.links)])
    with pytest.raises(sg.IllConditioned):
        sg.greedy(s, c, 3, sg.parse_measure("tau:t=1"))


def test_small_graph_greedy_scores_each_step_in_one_stacked_call(monkeypatch):
    """On a small state (at most 16 links on at most 33 nodes) greedy
    computes no bound and, on a fresh candidate set, scores each step's
    links in one stacked call.  The bound it patches out was the pinching
    walk's until the bound levels became one (the diagonal)."""
    from specgrow import synthesis
    sizes = []
    inverse_spectra = synthesis.downdated_inverse_spectra

    def no_bounds(*args):
        raise AssertionError("no bound expected")

    def counting_spectra(state, rows, cols, ws):
        sizes.append(len(rows))
        return inverse_spectra(state, rows, cols, ws)

    monkeypatch.setattr(synthesis, "_diagonal_bounds", no_bounds)
    monkeypatch.setattr(synthesis, "downdated_inverse_spectra", counting_spectra)
    rng = np.random.default_rng(181)
    for _ in range(4):
        n, p = int(rng.integers(5, 13)), int(rng.integers(3, 9))
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, p)
        k = min(3, c.p)
        for spec in ("tau:t=1", "hankel", "mq:q=0.5"):
            sizes.clear()
            sg.greedy(s, sg.CandidateSet(c.links), k, sg.parse_measure(spec))
            assert sizes == list(range(c.p, c.p - k, -1)), spec


def test_greedy_walk_levels_by_graph_size(monkeypatch):
    """The levels greedy walks, by graph size and link count.  A small state
    (one link, or at most 16 on at most 33 nodes) has none: each step scores
    its links in one stacked call of downdated inverse spectra.  Every other
    state has one, the diagonal bound, computed for every link left at each
    step, and its exact scores read the eigenbasis, with no downdated
    inverse spectrum at unit weights.  Before the bound levels became one,
    this checked pinchings of 32, 64 and 128 directions from 34, 66 and 130
    nodes on."""
    from specgrow import synthesis
    events = []
    diagonal_bounds, inverse_spectra = synthesis._diagonal_bounds, synthesis.downdated_inverse_spectra

    def recording_bounds(m, state, links, idx):
        events.append(("bound", idx.size))
        return diagonal_bounds(m, state, links, idx)

    def recording_spectra(state, rows, cols, ws):
        events.append(("spectra", len(rows)))
        return inverse_spectra(state, rows, cols, ws)

    monkeypatch.setattr(synthesis, "_diagonal_bounds", recording_bounds)
    monkeypatch.setattr(synthesis, "downdated_inverse_spectra", recording_spectra)
    rng = np.random.default_rng(193)
    for n, p, small in ((12, 16, True), (33, 16, True), (140, 1, True), (12, 17, False),
                        (33, 17, False), (34, 16, False), (40, 48, False), (140, 48, False)):
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, p)
        assert c._keeps_steps(s) == small, (n, p)
        for spec in ("tau:t=1", "hankel"):
            events.clear()
            k = min(2, p)
            sg.greedy(s, sg.CandidateSet(c.links), k, sg.parse_measure(spec))  # keeps nothing yet
            if small:
                assert events == [("spectra", p - t) for t in range(k)], (n, p, spec)
            else:
                assert events == [("bound", p - t) for t in range(k)], (n, p, spec)


def test_a_lone_link_is_scored_in_the_eigenbasis(monkeypatch):
    """Greedy at k = p on 40 and 140 nodes: every step, the last with its one
    link left included, bounds its links and scores them in the eigenbasis,
    with no downdated inverse spectrum.  Before the bound levels became one,
    a lone link skipped the bound and took the downdated route."""
    from specgrow import synthesis
    events = []
    diagonal_bounds, inverse_spectra = synthesis._diagonal_bounds, synthesis.downdated_inverse_spectra
    exact_scores_ = synthesis._exact_scores

    def recording_bounds(m, state, links, idx):
        events.append(("bound", state, idx.size))
        return diagonal_bounds(m, state, links, idx)

    def recording_exact(m, state, candidates, idx, memo):
        events.append(("exact", state, idx.size))
        return exact_scores_(m, state, candidates, idx, memo)

    def no_spectra(*args):
        raise AssertionError("no downdated inverse spectrum expected")

    monkeypatch.setattr(synthesis, "_diagonal_bounds", recording_bounds)
    monkeypatch.setattr(synthesis, "_exact_scores", recording_exact)
    monkeypatch.setattr(synthesis, "downdated_inverse_spectra", no_spectra)
    rng = np.random.default_rng(197)
    for n in (40, 140):
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, 4)
        for spec in ("tau:t=1", "hankel"):
            events.clear()
            sg.greedy(s, c, c.p, sg.parse_measure(spec))
            assert [(kind, size) for kind, _, size in events[-2:]] == [("bound", 1), ("exact", 1)]
            assert events[-2][1] is events[-1][1] is not s, (n, spec)
            assert sum(kind == "bound" for kind, _, _ in events) == c.p, (n, spec)


def test_linearized_values_each_pick_by_the_walks_exact_score():
    """Linearized's value for each spectral pick equals, by repr, the walk's
    exact score of that link on the state grown by the picks before it:
    alone, and among every link left wherever the walk scores it there."""
    from specgrow import synthesis
    rng = np.random.default_rng(199)
    among = 0
    for n in (12, 40, 140):
        root = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, 6)
        for m in kind_suite(root):
            if m in synthesis._CLOSED_FORMS or not m.differentiable:
                continue
            res = sg.linearized(root, c, 3, m)
            state, left = root, np.arange(c.p)
            for edge_weight, value in zip(res.chosen, res.values[1:]):
                link = c.links.index(edge_weight)
                alone = synthesis._Exact(m, state, sg.CandidateSet(c.links)).scores(
                    np.array([link]))
                assert repr(value) == repr(float(alone[0])), (n, m.label)
                scores = synthesis._Exact(m, state, sg.CandidateSet(c.links)).scores(left)
                pos = int(np.flatnonzero(left == link)[0])
                if math.isfinite(scores[pos]):
                    assert repr(value) == repr(float(scores[pos])), (n, m.label)
                    among += 1
                state, left = state.with_edge(*edge_weight), left[left != link]
    assert among >= 4 * 3  # every pick of the 4 measures at n = 12, where all are scored


def test_brute_force_equals_the_per_subset_loop_bit_for_bit(monkeypatch):
    """Stacked subset values against one add_link loop and eigvalsh per
    subset; streaming in stacks of three, on a fresh candidate set, changes
    nothing and keeps no subset spectra."""
    from specgrow import synthesis
    from specgrow.graphs import add_link

    def loop_values(m, state, subsets):
        out = []
        for subset in subsets:
            L = np.array(state.matrix)
            for (i, j), w in subset:
                add_link(L, i, j, w)
            out.append(float(sg.spectral_value(m, np.linalg.eigvalsh(L)[None, 1:], state.n)[0]))
        return out

    rng = np.random.default_rng(191)
    for scale in (1e-8, 1.0, 1e8):
        n = int(rng.integers(5, 13))
        s = sg.build_laplacian(random_connected(rng, n))
        c = sg.CandidateSet.from_triples(
            [(i, j, scale * w) for (i, j), w in random_candidates(rng, n, 7).links])
        for m in kind_suite(s):
            for k in (1, 3):
                res = sg.brute_force(s, c, k, m)
                subsets = list(combinations(c.links, k))
                pick, ties = synthesis._argmin_lex(loop_values(m, s, subsets))
                assert (res.chosen, res.tie_breaks) == (subsets[pick], ties), (m.label, k)
                prefixes = loop_values(m, s, [res.chosen[:t] for t in range(1, k + 1)])
                assert repr(res.values[1:]) == repr(tuple(prefixes)), (m.label, k)
                fresh = sg.CandidateSet(c.links)
                with monkeypatch.context() as patch:  # three subsets a stack
                    patch.setattr(synthesis, "STACK", 3 * n * n)
                    chunked = sg.brute_force(s, fresh, k, m)
                assert (repr(chunked.chosen), repr(chunked.values), chunked.tie_breaks) == \
                    (repr(res.chosen), repr(res.values), res.tie_breaks), (m.label, k)
                assert len(fresh._memo) == 0, (m.label, k)


def test_diagonal_bounds_lie_below_the_scores():
    """The diagonal bound lies below each link's exact score within SLACK, and
    at 1e-8 weights, where it misses only terms of second order in w, it is
    tight.  Until the bound levels became one, this also checked pinchings
    of 8 and 39 coupled directions, each tighter than the last."""
    from specgrow.synthesis import SLACK, _diagonal_bounds, _link_arrays
    rng = np.random.default_rng(173)
    for scale in (1e-8, 1.0, 1e8):
        s = sg.build_laplacian(random_connected(rng, 40))
        c = random_candidates(rng, 40, 30)
        links = _link_arrays([(e, scale * w) for e, w in c.links])
        for m in pruning_suite(s):
            scores = exact_scores(m, s, *links)
            # at 1e8 the scores of mq round off by ~3e-8 relative; greedy allows SLACK
            slack = SLACK * np.maximum(1.0, np.abs(scores))
            bounds = _diagonal_bounds(m, s, links, np.arange(c.p))
            assert np.all(bounds <= scores + slack), (m.label, scale)
            finite = np.isfinite(scores) & np.isfinite(bounds)
            if scale == 1e-8:
                assert bounds[finite] == pytest.approx(scores[finite], rel=1e-9), m.label


def test_greedy_supermodular_ratio():
    rng = np.random.default_rng(103)
    for spec in ("volume", "mq:q=0.5"):
        m = sg.parse_measure(spec)
        for _ in range(5):
            n = int(rng.integers(6, 10))
            s = sg.build_laplacian(random_connected(rng, n))
            c = random_candidates(rng, n, int(rng.integers(5, 8)))
            k = int(rng.integers(2, 4))
            greedy_v = sg.greedy(s, c, k, m).final_value
            brute_v = sg.brute_force(s, c, k, m).final_value
            base = sg.evaluate(m, s)
            ratio = (greedy_v - brute_v) / (base - brute_v)
            assert ratio <= 1.0 / math.e + 1e-9, (spec, ratio)


def test_greedy_near_optimal_on_medium_instance():
    # 30 nodes, 50 links, 15 unit-weight candidates; greedy within 2% of
    # brute force at every k
    rng = np.random.default_rng(424)
    g = random_connected(rng, 30, extra=50 - 29, wlo=1.0, whi=1.0)
    s = sg.build_laplacian(g)
    existing = set(g.edges)
    pairs = set()
    while len(pairs) < 15:
        i, j = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if i != j and (min(i, j), max(i, j)) not in existing:
            pairs.add((min(i, j), max(i, j)))
    c = sg.CandidateSet.from_triples([(i, j, 1.0) for i, j in sorted(pairs)])
    m = sg.parse_measure("zeta:q=1")
    for k in range(1, 16):
        gv = sg.greedy(s, c, k, m).final_value
        bv = sg.brute_force(s, c, k, m).final_value
        assert gv <= bv * 1.02 + 1e-12, (k, gv, bv)


# --- linearized -------------------------------------------------------------------


def test_linearized_score_is_weighted_squared_resistance_for_zeta1():
    rng = np.random.default_rng(107)
    g = random_connected(rng, 10)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 10, 8)
    m = sg.parse_measure("zeta:q=1")
    res = sg.linearized(s, c, 3, m)
    scores = {e: w * resistance(s, e, 2) for e, w in c.links}
    expected = sorted(scores, key=lambda e: (-scores[e], e))[:3]
    assert [e for e, _ in res.chosen] == expected


def test_linearized_counts_candidates_tied_with_its_last_pick():
    # K4 with complete unit candidates: all six first-order changes tie
    s = sg.build_laplacian(k4())
    c = sg.CandidateSet.complete(4, weight=1.0)
    m = sg.parse_measure("zeta:q=1")
    for k, ties in ((1, 5), (2, 4), (6, 0)):
        assert sg.linearized(s, c, k, m).tie_breaks == ties, k


def test_linearized_takes_greedys_tie_rule():
    # K4 with complete unit candidates: the six first-order changes differ in
    # the last bits only, so each pick is the lex-first within the tie band
    s = sg.build_laplacian(k4())
    c = sg.CandidateSet.complete(4, weight=1.0)
    m = sg.parse_measure("zeta:q=1")
    for solver in (sg.greedy, sg.brute_force, sg.linearized):
        assert solver(s, c, 1, m).chosen == (((0, 1), 1.0),), solver.__name__
    assert [e for e, _ in sg.linearized(s, c, 3, m).chosen] == [(0, 1), (0, 2), (0, 3)]


def test_linearized_invariant_under_weight_scaling():
    rng = np.random.default_rng(109)
    s = sg.build_laplacian(random_connected(rng, 9))
    triples = [(i, j, w) for (i, j), w in random_candidates(rng, 9, 7).links]
    scaled = [(i, j, 37.5 * w) for i, j, w in triples]
    for spec in ("zeta:q=1", "tau:t=1", "volume", "hp:p=3"):
        m = sg.parse_measure(spec)
        a = sg.linearized(s, sg.CandidateSet.from_triples(triples), 3, m)
        b = sg.linearized(s, sg.CandidateSet.from_triples(scaled), 3, m)
        assert [e for e, _ in a.chosen] == [e for e, _ in b.chosen], spec


def test_linearized_matches_finite_difference_ranking():
    rng = np.random.default_rng(113)
    g = random_connected(rng, 8)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 8, 5)
    m = sg.parse_measure("tau:t=1")
    eps = 1e-6
    base = list(g.edges.items())
    improvements = {}
    for e, w in c.links:
        L_eps = laplacian_of(8, base + [(e, eps * w)])
        improvements[e] = (sg.evaluate(m, s) - full_recompute_value(m, L_eps)) / eps
    expected = sorted(improvements, key=lambda e: (-improvements[e], e))[:2]
    res = sg.linearized(s, c, 2, m)
    assert [e for e, _ in res.chosen] == expected


def test_linearized_rejects_nondifferentiable():
    rng = np.random.default_rng(127)
    s = sg.build_laplacian(random_connected(rng, 6))
    c = random_candidates(rng, 6, 4)
    for spec in ("hankel", "zeta:q=inf"):
        with pytest.raises(sg.NonDifferentiableMeasure):
            sg.linearized(s, c, 2, sg.parse_measure(spec))


def test_solvers_update_the_state_only_between_picks(monkeypatch):
    """k - 1 grown states for k picks on a fresh candidate set; on the closed
    forms greedy and linearized grow none, as they carry the candidates'
    resistances instead."""
    calls = []
    with_edge = sg.LaplacianState.with_edge

    def counting(self, edge, weight):
        calls.append(edge)
        return with_edge(self, edge, weight)

    monkeypatch.setattr(sg.LaplacianState, "with_edge", counting)
    s = sg.build_laplacian(path_graph(6))
    c = sg.CandidateSet.complete(6, weight=0.5)
    for solver, spec, grows in ((sg.greedy, "tau:t=1", True), (sg.linearized, "tau:t=1", True),
                                (sg.greedy, "zeta:q=1", False), (sg.linearized, "zeta:q=1", False)):
        for k in (1, 3):
            calls.clear()
            solver(s, sg.CandidateSet(c.links), k, sg.parse_measure(spec))
            assert len(calls) == (k - 1 if grows else 0), (solver.__name__, spec)


def test_greedy_does_not_depend_on_powers_read_earlier(monkeypatch):
    """Closed-form solves form no P, at the root or after, and a spectral
    solve off the small path forms none either; a root whose P was read
    gives the same runs as a fresh one, and its grown states carry P.  A
    spectral solve of one pick formed it too until its exact scores moved to
    the eigenbasis, and one of two picks, by growing a state, until grown
    states took their eigenpairs from their parent's: the root's P is now
    read outright."""
    held = []
    with_edge = sg.LaplacianState.with_edge

    def recording(self, *args):
        out = with_edge(self, *args)
        held.append(out._pinv is not None)
        return out

    rng = np.random.default_rng(97)
    g = random_connected(rng, 40)
    cands = random_candidates(rng, 40, 60)
    shared = sg.build_laplacian(g)
    for spec in ("mq:q=1", "zeta:q=1", "zeta:q=2", "volume"):
        for solver in (sg.greedy, sg.linearized)[:1 if spec == "volume" else 2]:
            solver(shared, cands, 8, sg.parse_measure(spec))
            assert shared._pinv is None, (solver.__name__, spec)
    sg.greedy(shared, cands, 2, sg.parse_measure("tau:t=1"))
    assert shared._pinv is None
    shared.pinv
    monkeypatch.setattr(sg.LaplacianState, "with_edge", recording)
    # the closed-form solvers grow no state
    for spec, grown in (("volume", 0), ("zeta:q=1", 0), ("zeta:q=2", 0), ("tau:t=1", 7)):
        m = sg.parse_measure(spec)
        for solver in (sg.greedy, sg.linearized):
            held.clear()
            after = solver(shared, cands, 8, m)
            assert held == [True] * grown, (solver.__name__, spec)
            fresh = solver(sg.build_laplacian(g), cands, 8, m)
            assert after.chosen == fresh.chosen, (solver.__name__, spec)
            assert after.values == fresh.values, (solver.__name__, spec)
            assert after.tie_breaks == fresh.tie_breaks, (solver.__name__, spec)


def test_spectral_greedy_decomposes_only_the_root(monkeypatch):
    """Greedy at unit weights on 60 nodes, for tau and hankel: each grown
    state takes its eigenpairs from its parent's by the rank-one update, so
    no eigh runs past the root's, and no P is formed, at the root or on any
    grown state.  Each grown state ran an eigh, and with_edge formed the
    root's P and downdated it, until grown states took their eigenpairs by
    the update."""
    calls, grown = [], []
    eigh, with_edge = np.linalg.eigh, sg.LaplacianState.with_edge

    def counting_eigh(a):
        calls.append(len(a))
        return eigh(a)

    def recording(self, *args):
        grown.append(with_edge(self, *args))
        return grown[-1]

    rng = np.random.default_rng(251)
    s = sg.build_laplacian(random_connected(rng, 60))
    c = random_candidates(rng, 60, 80, unit=True)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(sg.LaplacianState, "with_edge", recording)
    for spec in ("tau:t=1", "hankel"):
        grown.clear()
        sg.greedy(s, c, 8, sg.parse_measure(spec))
        assert calls == [] and len(grown) == 7, spec
        assert all(state._eigvecs is not None for state in grown), spec
        assert s._pinv is None and all(state._pinv is None for state in grown), spec


def test_greedy_picks_do_not_depend_on_the_rank_one_update(monkeypatch):
    """Spectral greedy on 140 nodes at k = 20, every measure family that
    grows a state, against a run whose grown states are each decomposed by
    eigh: the same picks and tie_breaks, and values within 1e-13 relative."""
    from specgrow import synthesis
    rng = np.random.default_rng(257)
    s = sg.build_laplacian(random_connected(rng, 140))
    c = random_candidates(rng, 140, 200)
    with_edge = sg.LaplacianState.with_edge

    def by_eigh(self, *args):
        out = with_edge(self, *args)
        out._update = None
        return out

    for m in kind_suite(s):
        if m in synthesis._CLOSED_FORMS:
            continue
        updated = sg.greedy(s, c, 20, m)
        with monkeypatch.context() as patch:
            patch.setattr(sg.LaplacianState, "with_edge", by_eigh)
            decomposed = sg.greedy(s, c, 20, m)
        assert updated.chosen == decomposed.chosen, m.label
        assert updated.tie_breaks == decomposed.tie_breaks, m.label
        assert updated.values == pytest.approx(decomposed.values, rel=1e-13, abs=0.0), m.label


def test_closed_form_runs_do_not_depend_on_solve_order():
    """A volume solve fills the candidate set's root resistances for its
    state; a zeta:q=2 solve after it equals one on a cold state and set.  The
    shared array is read-only, no solve changes it, and it goes with its state."""
    import gc
    import pickle
    rng = np.random.default_rng(199)
    volume, zeta2 = sg.parse_measure("volume"), sg.parse_measure("zeta:q=2")
    for scale in (1e-8, 1.0, 1e8):
        n = int(rng.integers(56, 65))
        g = random_connected(rng, n)
        triples = [(i, j, scale * w) for (i, j), w in random_candidates(rng, n, 80).links]
        for solver in (sg.greedy, sg.linearized):
            s, c = sg.build_laplacian(g), sg.CandidateSet.from_triples(triples)
            solver(s, c, 8, volume)
            shared = c._root_resistances(s)
            held = shared.copy()
            warm = solver(s, c, 8, zeta2)
            cold = solver(sg.build_laplacian(g), sg.CandidateSet.from_triples(triples), 8, zeta2)
            assert (repr(warm.chosen), repr(warm.values), warm.tie_breaks) == \
                (repr(cold.chosen), repr(cold.values), cold.tie_breaks), (scale, solver.__name__)
            assert c._root_resistances(s) is shared and np.array_equal(shared, held)
            with pytest.raises(ValueError):
                shared[0, 0] = 0.0
            assert len(c._memo) == 1
            assert pickle.loads(pickle.dumps(c)) == c  # the memo is left out
            del s
            gc.collect()
            assert len(c._memo) == 0, (scale, solver.__name__)


def test_brute_force_runs_do_not_depend_on_solve_order(monkeypatch):
    """A brute-force search whose subsets of sizes 0..k fit one stack keeps
    their spectra for its state, one entry for the largest k; a search for
    any measure and any k up to it calls no LAPACK routine and equals one on
    a cold state and set.  The kept spectra are read-only, left out of a
    pickle and go with their state."""
    import gc
    import pickle
    calls = []

    def counting(name):
        routine = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return counted

    rng = np.random.default_rng(223)
    for scale in (1e-8, 1.0, 1e8):
        n = int(rng.integers(5, 13))
        g = random_connected(rng, n)
        triples = [(i, j, scale * w) for (i, j), w in random_candidates(rng, n, 7).links]
        s, c = sg.build_laplacian(g), sg.CandidateSet.from_triples(triples)
        suite = kind_suite(s)
        for k in (0, 1, 2, 3):
            sg.brute_force(s, c, k, suite[-1])
            for m in suite:
                with monkeypatch.context() as patch:
                    for name in ("eigvalsh", "eigh"):
                        patch.setattr(np.linalg, name, counting(name))
                    calls.clear()
                    warm = sg.brute_force(s, c, k, m)
                    assert calls == [], (scale, k, m.label)
                cold = sg.brute_force(sg.build_laplacian(g), sg.CandidateSet.from_triples(triples),
                                      k, m)
                assert (repr(warm.chosen), repr(warm.values), warm.tie_breaks) == \
                    (repr(cold.chosen), repr(cold.values), cold.tie_breaks), (scale, k, m.label)
            spectra = c._subset_spectra(s, k)
            assert c._subset_spectra(s, k) is spectra
            assert [len(a) for a in spectra] == [math.comb(c.p, t) for t in range(k + 1)]
            for a in spectra:
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0
        assert len(c._memo) == 1
        with monkeypatch.context() as patch:  # the k = 3 entry serves every smaller k
            for name in ("eigvalsh", "eigh"):
                patch.setattr(np.linalg, name, counting(name))
            calls.clear()
            for k in (2, 1, 0):
                served = c._subset_spectra(s, k)
                assert len(served) == k + 1 and all(a is b for a, b in zip(served, spectra))
                sg.brute_force(s, c, k, suite[0])
            assert calls == [], scale
        assert pickle.loads(pickle.dumps(c)) == c  # the memo is left out
        del s
        gc.collect()
        assert len(c._memo) == 0, scale


def test_greedy_and_linearized_runs_do_not_depend_on_solve_order(monkeypatch):
    """On a small state, greedy and linearized keep each visited state's
    single-link spectra and grown states with the candidate set; a solve
    after others, for any measure, equals one on a cold state and set, and
    one over a path visited before calls no LAPACK routine and grows no
    state.  The kept spectra are read-only, left out of a pickle and go with
    their root, grown states included."""
    import gc
    import pickle
    calls = []

    def counting(name, routine):
        def counted(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return counted

    rng = np.random.default_rng(229)
    for scale in (1e-8, 1.0, 1e8):
        n = int(rng.integers(5, 13))
        g = random_connected(rng, n)
        triples = [(i, j, scale * w) for (i, j), w in random_candidates(rng, n, 7).links]
        s, c = sg.build_laplacian(g), sg.CandidateSet.from_triples(triples)
        runs = [(solver, m) for m in kind_suite(s) for solver in (sg.greedy, sg.linearized)
                if solver is sg.greedy or m.differentiable]
        for k in (1, 2, 3):
            results = []
            for solver, m in runs:
                warm = solver(s, c, k, m)
                cold = solver(sg.build_laplacian(g), sg.CandidateSet.from_triples(triples), k, m)
                results.append((repr(warm.chosen), repr(warm.values), warm.tie_breaks))
                assert results[-1] == (repr(cold.chosen), repr(cold.values), cold.tie_breaks), \
                    (scale, k, solver.__name__, m.label)
            with monkeypatch.context() as patch:  # every path is visited now
                for name in ("eigvalsh", "eigh"):
                    patch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
                patch.setattr(sg.LaplacianState, "with_edge",
                              counting("with_edge", sg.LaplacianState.with_edge))
                for (solver, m), result in zip(runs, results):
                    calls.clear()
                    again = solver(s, c, k, m)
                    assert calls == [], (scale, k, solver.__name__, m.label)
                    assert (repr(again.chosen), repr(again.values), again.tie_breaks) == result
        records = list(c._memo.values())
        assert len(records) > 1  # the root and the states grown from it
        assert any(record.singles for record in records)
        for record in records:
            for row in record.singles.values():
                assert row.shape == (n - 1,)
                with pytest.raises(ValueError):
                    row[0] = 0.0
        assert sum(len(record.grown) for record in records) == len(records) - 1
        assert pickle.loads(pickle.dumps(c)) == c  # the memo is left out
        del s, records, record
        gc.collect()
        assert len(c._memo) == 0, scale


def test_linearized_trajectory_matches_rebuild():
    rng = np.random.default_rng(131)
    g = random_connected(rng, 12)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 12, 8)
    for spec in ("zeta:q=1", "mq:q=0.5", "volume"):
        m = sg.parse_measure(spec)
        res = sg.linearized(s, c, 4, m)
        items = list(g.edges.items())
        for step, (edge, w) in enumerate(res.chosen, start=1):
            items.append((edge, w))
            assert res.values[step] == pytest.approx(
                full_recompute_value(m, laplacian_of(12, items)), rel=1e-8), spec


# --- cross-algorithm ordering -------------------------------------------------------


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(137)
    for _ in range(12):
        n = int(rng.integers(5, 13))
        p = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, p + 1)))
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, p)
        for m in kind_suite(s):
            bv = sg.brute_force(s, c, k, m).final_value
            gv = sg.greedy(s, c, k, m).final_value
            assert bv <= gv + 1e-9 * max(1.0, abs(bv)), m.label
            if m.differentiable:
                lv = sg.linearized(s, c, k, m).final_value
                assert bv <= lv + 1e-9 * max(1.0, abs(bv)), m.label
            g1 = sg.greedy(s, c, 1, m)
            b1 = sg.brute_force(s, c, 1, m)
            assert g1.chosen[0][0] == b1.chosen[0][0], m.label


def test_optimal_single_link_location_tracks_weight():
    # small weights pick the largest r_e(L^2); huge weights the largest
    # ratio r_e(L^2)/r_e(L)
    rng = np.random.default_rng(139)
    g = random_connected(rng, 50, extra=100 - 49, wlo=1.0, whi=1.0)
    s = sg.build_laplacian(g)
    m = sg.parse_measure("zeta:q=1")
    R1, R2 = (resistance_matrix(pinv_power(s, m)) for m in (1, 2))
    iu = np.triu_indices(50, 1)

    def argmax_pairs(score):
        flat = np.argmax(score[iu])
        return (int(iu[0][flat]), int(iu[1][flat]))

    edge_small = sg.greedy(s, sg.CandidateSet.complete(50, 1e-8), 1, m).chosen[0][0]
    assert edge_small == argmax_pairs(R2)
    edge_large = sg.greedy(s, sg.CandidateSet.complete(50, 1e6), 1, m).chosen[0][0]
    with np.errstate(invalid="ignore"):
        ratio = np.where(R1 > 0, R2 / np.where(R1 > 0, R1, 1.0), -np.inf)
    assert edge_large == argmax_pairs(ratio)


def test_invalid_k():
    rng = np.random.default_rng(149)
    s = sg.build_laplacian(random_connected(rng, 6))
    c = random_candidates(rng, 6, 3)
    m = sg.parse_measure("zeta:q=1")
    with pytest.raises(sg.InvalidParameter):
        sg.greedy(s, c, 4, m)
    with pytest.raises(sg.InvalidParameter):
        sg.brute_force(s, c, -1, m)


def test_result_shape_contract():
    rng = np.random.default_rng(151)
    s = sg.build_laplacian(random_connected(rng, 8))
    c = random_candidates(rng, 8, 5)
    m = sg.parse_measure("zeta:q=1")
    for algo, name in ((sg.greedy, "greedy"), (sg.brute_force, "brute"),
                       (sg.linearized, "linear")):
        res = algo(s, c, 3, m)
        assert res.algorithm == name
        assert len(res.chosen) == 3
        assert len(res.values) == 4
        assert len(res.elapsed) == 3
        assert len({e for e, _ in res.chosen}) == 3  # distinct picks
        obj = res.to_json_obj()
        assert obj["algorithm"] == name and len(obj["chosen"]) == 3
        empty = algo(s, c, 0, m)  # k = 0 picks nothing and keeps the start value
        assert (empty.chosen, empty.values, empty.elapsed) == ((), res.values[:1], ())

"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints a single PASS line (visible with `pytest -rA` or `-s`);
a failure raises inside the owning test.
"""

import math
import time

import numpy as np
import pytest

import specgrow as sg
from util import (full_recompute_value, k3, k4, kind_suite, laplacian_of,
                  random_candidates, random_connected)

_RUNS_CACHE = {}


def criterion1_runs():
    """50 seeded instances x all measure kinds, shared by criteria 1 and 4."""
    if "runs" in _RUNS_CACHE:
        return _RUNS_CACHE["runs"]
    runs = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 13))
        p = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, p)
        for m in kind_suite(s):
            entry = {"state": s, "measure": m, "k": k, "seed": seed}
            entry["brute"] = sg.brute_force(s, c, k, m)
            entry["greedy"] = sg.greedy(s, c, k, m)
            if m.differentiable:
                entry["linear"] = sg.linearized(s, c, k, m)
            else:
                with pytest.raises(sg.NonDifferentiableMeasure):
                    sg.linearized(s, c, k, m)
            entry["brute1"] = sg.brute_force(s, c, 1, m)
            entry["greedy1"] = sg.greedy(s, c, 1, m)
            runs.append(entry)
    _RUNS_CACHE["runs"] = runs
    return runs


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    runs = criterion1_runs()
    kinds_seen = set()
    for run in runs:
        m = run["measure"]
        kinds_seen.add(m.kind)
        bv = run["brute"].final_value
        tol = 1e-9 * max(1.0, abs(bv))
        assert bv <= run["greedy"].final_value + tol, (run["seed"], m.label)
        if "linear" in run:
            assert bv <= run["linear"].final_value + tol, (run["seed"], m.label)
        assert run["greedy1"].chosen[0][0] == run["brute1"].chosen[0][0], \
            (run["seed"], m.label)
    elapsed = time.perf_counter() - t0
    assert kinds_seen == set(sg.measures.KINDS)
    assert elapsed < 60.0, elapsed
    print(f"criterion 1 PASS: oracle equivalence on {len(runs)} runs "
          f"({elapsed:.1f} s)")


def test_criterion_02_rank_one_trajectories():
    rng = np.random.default_rng(2024)
    specs = ["zeta:q=1", "zeta:q=2", "volume", "tau:t=0.8", "hp:p=3"]
    worst = 0.0
    for spec in specs:
        m = sg.parse_measure(spec)
        g = random_connected(rng, 50)
        s = sg.build_laplacian(g)
        c = random_candidates(rng, 50, 25)
        res = sg.greedy(s, c, 10, m)
        items = list(g.edges.items())
        for step, (edge, w) in enumerate(res.chosen, start=1):
            items.append((edge, w))
            expect = full_recompute_value(m, laplacian_of(50, items))
            rel = abs(res.values[step] - expect) / max(abs(expect), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-8, (spec, step, rel)
    print(f"criterion 2 PASS: greedy trajectories track full recompute "
          f"(worst rel err {worst:.2e})")


def test_criterion_03_closed_form_identities():
    rng = np.random.default_rng(3033)
    z1, z2, vol = (sg.parse_measure(t) for t in ("zeta:q=1", "zeta:q=2", "volume"))
    for _ in range(100):
        n = int(rng.integers(4, 15))
        g = random_connected(rng, n)
        s = sg.build_laplacian(g)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        w = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        L_new = laplacian_of(n, list(g.edges.items()) + [((i, j), w)])

        d1_oracle = (full_recompute_value(z1, np.asarray(s.matrix))
                     - full_recompute_value(z1, L_new))
        d1 = sg.closed_form_delta(z1, s, (i, j), w)
        assert abs(d1 - d1_oracle) <= 1e-9 * max(1.0, abs(d1_oracle))

        dv_oracle = (full_recompute_value(vol, np.asarray(s.matrix))
                     - full_recompute_value(vol, L_new))
        dv = sg.closed_form_delta(vol, s, (i, j), w)
        assert abs(dv - dv_oracle) <= 1e-9 * max(1.0, abs(dv_oracle))

        # squared-scale decrease: sign must be a genuine decrease, then match
        sq_old = float(np.sum(np.asarray(s.nonzero_eigvals) ** -2.0))
        sq_new = float(np.sum(np.linalg.eigvalsh(L_new)[1:] ** -2.0))
        d2 = sg.closed_form_delta(z2, s, (i, j), w)
        assert d2 > 0.0
        assert abs(d2 - (sq_old - sq_new)) <= 1e-9 * max(1.0, sq_old - sq_new)
    print("criterion 3 PASS: resistance closed forms match full recompute on "
          "100 triples")


def test_criterion_04_fundamental_limits():
    for run in criterion1_runs():
        low = sg.lower_bound(run["state"], run["measure"], run["k"])
        for key in ("brute", "greedy", "linear"):
            if key in run:
                assert run[key].final_value > low, (run["seed"], run["measure"].label)
    s4 = sg.build_laplacian(k4())
    assert abs(sg.lower_bound(s4, sg.parse_measure("zeta:q=1"), 1) - 0.5) <= 1e-12
    print("criterion 4 PASS: every achieved value strictly above its lower bound; "
          "K4 bound exact")


def test_criterion_05_supermodular_greedy_guarantee():
    rng = np.random.default_rng(5055)
    bound = 1.0 / math.e + 1e-9
    checked = 0
    for _ in range(20):
        n = int(rng.integers(6, 11))
        s = sg.build_laplacian(random_connected(rng, n))
        c = random_candidates(rng, n, int(rng.integers(5, 9)))
        k = int(rng.integers(2, 4))
        for spec in ("volume", "mq:q=0.5"):
            m = sg.parse_measure(spec)
            greedy_v = sg.greedy(s, c, k, m).final_value
            brute_v = sg.brute_force(s, c, k, m).final_value
            base = sg.evaluate(m, s)
            ratio = (greedy_v - brute_v) / (base - brute_v)
            assert ratio <= bound, (spec, ratio)
            checked += 1
    print(f"criterion 5 PASS: greedy optimality ratio <= 1/e on {checked} "
          "supermodular runs")


def test_criterion_06_measure_axioms():
    specs = [sg.parse_measure(t) for t in
             ("zeta:q=1", "zeta:q=2", "gamma:gamma=50", "tau:t=1",
              "hankel", "volume", "hp:p=3", "mq:q=0.5")]
    for m in specs:
        report = sg.check_axioms(m, trials=200, seed=606)
        assert report.trials == 200, m.label

    def increasing(lams, n):
        return float(np.sum(lams))

    with pytest.raises(sg.AxiomViolation) as err:
        sg.check_axioms(increasing, trials=200, seed=606)
    assert err.value.axiom == "monotonicity"
    print("criterion 6 PASS: 200-trial axiom suite green for all 7 kinds; "
          "planted control caught")


def test_criterion_07_analytic_cross_identities():
    rng = np.random.default_rng(7077)
    states = [sg.build_laplacian(k3())]
    states += [sg.build_laplacian(random_connected(rng, int(rng.integers(5, 15))))
               for _ in range(3)]
    for s in states:
        z1 = sg.evaluate(sg.parse_measure("zeta:q=1"), s)
        theta2 = sg.evaluate(sg.parse_measure("hp:p=2"), s)
        assert abs(theta2 - math.sqrt(z1 / 2.0)) <= 1e-10 * max(1.0, theta2)

        eta = sg.evaluate(sg.parse_measure("hankel"), s)
        zinf = sg.evaluate(sg.parse_measure("zeta:q=inf"), s)
        assert abs(eta - 0.5 * zinf) <= 1e-14 * max(1.0, eta)

        lam2 = float(s.eigvals[1])
        gaps = [abs(sg.evaluate(sg.MeasureSpec("gamma", c / lam2), s) - z1 / 2.0)
                for c in (10.0, 100.0, 1000.0)]
        assert gaps[0] > gaps[1] > gaps[2]

        tau_long = sg.evaluate(sg.MeasureSpec("tau", 50.0 / lam2), s)
        assert abs(tau_long - z1 / 2.0) <= 1e-8 * z1
    print("criterion 7 PASS: hp/hankel/gamma/tau cross-identities hold on "
          f"{len(states)} graphs")


def test_criterion_08_monte_carlo_validation():
    t0 = time.perf_counter()
    s3 = sg.build_laplacian(k3())
    cfg3 = sg.SimConfig(dt=0.002, trials=10_000, seed=88)
    stat3 = sg.validate_measure(s3, sg.parse_measure("zeta:q=1"), cfg3)
    assert stat3.passed, stat3
    tran3 = sg.validate_measure(s3, sg.MeasureSpec("tau", 0.5), cfg3)
    assert tran3.passed, tran3

    rng = np.random.default_rng(8088)
    s10 = sg.build_laplacian(random_connected(rng, 10, extra=20))
    dt10 = 0.02 / float(s10.eigvals[-1])
    cfg10 = sg.SimConfig(dt=dt10, trials=10_000, seed=88)
    stat10 = sg.validate_measure(s10, sg.parse_measure("zeta:q=1"), cfg10)
    assert stat10.passed, stat10
    tran10 = sg.validate_measure(s10, sg.MeasureSpec("tau", 0.5), cfg10)
    assert tran10.passed, tran10

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    print(f"criterion 8 PASS: all z-scores within 3 sigma "
          f"(K3 {stat3.z_score:+.2f}/{tran3.z_score:+.2f}, "
          f"n=10 {stat10.z_score:+.2f}/{tran10.z_score:+.2f}; {elapsed:.1f} s)")


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(9099)
    eps = 1e-6
    pairs = 0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 14))
        s = sg.build_laplacian(random_connected(rng, n))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        w = float(rng.uniform(0.3, 2.0))
        D = np.zeros((n, n))
        D[i, i] = D[j, j] = w
        D[i, j] = D[j, i] = -w
        L = np.asarray(s.matrix)
        for m in kind_suite(s):
            if not m.differentiable:
                continue
            fd = (full_recompute_value(m, L + eps * D)
                  - full_recompute_value(m, L - eps * D)) / (2 * eps)
            dd = sg.directional_derivative(m, s, (i, j), w)
            rel = abs(dd - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-5, (m.label, rel)
        pairs += 1
    assert pairs == 50
    print(f"criterion 9 PASS: directional derivatives match central differences "
          f"on 50 pairs (worst rel err {worst:.2e})")


def test_criterion_10_complexity_smoke():
    rng = np.random.default_rng(101010)
    g = random_connected(rng, 500, extra=1000)
    s = sg.build_laplacian(g)
    c = random_candidates(rng, 500, 2000)
    m = sg.parse_measure("zeta:q=1")
    t0 = time.perf_counter()
    res = sg.greedy(s, c, 20, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    assert len(res.chosen) == 20
    for a, b in zip(res.values, res.values[1:]):
        assert b <= a + 1e-12
    print(f"criterion 10 PASS: n=500 p=2000 k=20 greedy in {elapsed:.2f} s")

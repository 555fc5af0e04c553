import math

import numpy as np
import pytest

import specgrow as sg
from util import (differentiable_suite, full_recompute_value, k3, kind_suite,
                  random_connected, resistance, two_node)


def gamma_entropy_quadrature(lams, g, npts=3000):
    """Oracle: frequency-domain integral of the entropy, tan substitution."""
    th, wts = np.polynomial.legendre.leggauss(npts)
    a, b = -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12
    th = 0.5 * (th + 1) * (b - a) + a
    wts = wts * 0.5 * (b - a)
    om = np.tan(th)
    jac = 1.0 / np.cos(th) ** 2
    total = 0.0
    for lam in lams:
        total += np.sum(wts * np.log(1.0 - g ** -2 / (lam ** 2 + om ** 2)) * jac)
    return float(-g ** 2 / (2 * np.pi) * total)


def transient_covariance_rk4(L, t, steps=4000):
    """Oracle: integrate the output-covariance ODE Y' = -LY - YL + M."""
    n = L.shape[0]
    M = np.eye(n) - np.ones((n, n)) / n
    Y = np.zeros((n, n))
    h = t / steps

    def f(Y):
        return -L @ Y - Y @ L + M

    for _ in range(steps):
        k1 = f(Y)
        k2 = f(Y + h / 2 * k1)
        k3_ = f(Y + h / 2 * k2)
        k4 = f(Y + h * k3_)
        Y = Y + h / 6 * (k1 + 2 * k2 + 2 * k3_ + k4)
    return float(np.trace(M @ Y @ M))


# --- spec grammar and parameter validation -----------------------------------


def test_parse_grammar():
    assert sg.parse_measure("zeta:q=1") == sg.MeasureSpec("zeta", 1.0)
    assert sg.parse_measure("gamma:gamma=2.5") == sg.MeasureSpec("gamma", 2.5)
    assert sg.parse_measure("tau:t=0.5") == sg.MeasureSpec("tau", 0.5)
    assert sg.parse_measure("hankel") == sg.MeasureSpec("hankel")
    assert sg.parse_measure("volume") == sg.MeasureSpec("volume")
    assert sg.parse_measure("hp:p=3") == sg.MeasureSpec("hp", 3.0)
    assert sg.parse_measure("mq:q=0.5") == sg.MeasureSpec("mq", 0.5)
    assert sg.parse_measure("zeta:q=inf").param == math.inf
    for bad in ("Zeta:q=1", "zeta", "zeta:p=1", "zeta:q=", "zeta:q=abc",
                "hankel:q=1", "what", ""):
        with pytest.raises(sg.MeasureSpecError):
            sg.parse_measure(bad)
    # round trip through the label
    for text in ("zeta:q=1", "gamma:gamma=2.5", "tau:t=0.5", "hankel",
                 "volume", "hp:p=3", "mq:q=0.5"):
        assert sg.parse_measure(text).label == text


def test_parameter_ranges():
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("zeta", 0.5)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("gamma", -1.0)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("tau", 0.0)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("hp", 1.5)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("mq", 1.5)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("hankel", 2.0)
    with pytest.raises(sg.InvalidParameter):
        sg.MeasureSpec("nope", 1.0)


def test_supermodular_flags():
    flagged = {m.label: m.supermodular for m in kind_suite(sg.build_laplacian(k3()))}
    assert flagged["volume"] is True
    assert flagged["mq:q=0.5"] is True
    assert sum(flagged.values()) == 2


# --- frozen values ------------------------------------------------------------


def test_known_values():
    s3 = sg.build_laplacian(k3())
    s2 = sg.build_laplacian(two_node())
    assert sg.evaluate(sg.parse_measure("zeta:q=1"), s3) == pytest.approx(2 / 3, abs=1e-13)
    assert sg.evaluate(sg.parse_measure("hankel"), s3) == pytest.approx(1 / 6, abs=1e-13)
    assert sg.evaluate(sg.parse_measure("volume"), s2) == pytest.approx(
        -2 * math.log(2), abs=1e-13)
    assert sg.evaluate(sg.parse_measure("gamma:gamma=1"), s3) == pytest.approx(
        2 * (3 - math.sqrt(8)), abs=1e-12)


def test_gamma_entropy_matches_quadrature_oracle():
    assert sg.evaluate(sg.parse_measure("gamma:gamma=1"), sg.build_laplacian(k3())) == \
        pytest.approx(gamma_entropy_quadrature([3.0, 3.0], 1.0), rel=1e-6)
    rng = np.random.default_rng(2)
    s = sg.build_laplacian(random_connected(rng, 8))
    lams = np.asarray(s.nonzero_eigvals)
    g = 3.0 / lams[0]
    assert sg.evaluate(sg.MeasureSpec("gamma", g), s) == \
        pytest.approx(gamma_entropy_quadrature(lams, g), rel=1e-6)


def test_gamma_entropy_finiteness_branch():
    s = sg.build_laplacian(k3())  # lam2 = 3, threshold 1/3
    assert sg.evaluate(sg.MeasureSpec("gamma", 0.33), s) == math.inf
    at_boundary = sg.evaluate(sg.MeasureSpec("gamma", 1.0 / 3.0), s)
    assert math.isfinite(at_boundary)
    assert at_boundary == pytest.approx(2.0 / 3.0, rel=1e-12)  # gamma^2 * lam per mode


def test_transient_covariance_matches_rk4_oracle():
    s3 = sg.build_laplacian(k3())
    for t in (0.2, 0.5, 2.0):
        oracle = transient_covariance_rk4(np.asarray(s3.matrix), t)
        assert sg.evaluate(sg.MeasureSpec("tau", t), s3) == pytest.approx(oracle, rel=1e-9)
    rng = np.random.default_rng(6)
    s = sg.build_laplacian(random_connected(rng, 7))
    oracle = transient_covariance_rk4(np.asarray(s.matrix), 0.8)
    assert sg.evaluate(sg.MeasureSpec("tau", 0.8), s) == pytest.approx(oracle, rel=1e-8)


def test_hp_identities():
    # alpha0(2) = 2^-1/2 and theta_2 = sqrt(zeta_1 / 2)
    assert sg.hardy_schatten_alpha0(2.0) == pytest.approx(2 ** -0.5, abs=1e-14)
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(4, 16))))
        z1 = sg.evaluate(sg.parse_measure("zeta:q=1"), s)
        assert sg.evaluate(sg.parse_measure("hp:p=2"), s) == \
            pytest.approx(math.sqrt(z1 / 2.0), rel=1e-10)
        # theta_p = alpha0 * zeta_{p-1}^{(p-1)/p}
        for p in (2.5, 3.0, 4.0):
            zp = sg.evaluate(sg.MeasureSpec("zeta", p - 1.0), s)
            expect = sg.hardy_schatten_alpha0(p) * zp ** ((p - 1.0) / p)
            assert sg.evaluate(sg.MeasureSpec("hp", p), s) == pytest.approx(expect, rel=1e-10)


def test_hp_matches_frequency_integral_oracle():
    # the defining integral: theta_p^p = (1/2pi) sum_i int (w^2 + lam_i^2)^(-p/2) dw
    def freq_integral(lams, p, npts=3000):
        th, wts = np.polynomial.legendre.leggauss(npts)
        a, b = -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12
        th = 0.5 * (th + 1) * (b - a) + a
        wts = wts * 0.5 * (b - a)
        om = np.tan(th)
        jac = 1.0 / np.cos(th) ** 2
        total = sum(np.sum(wts * (om ** 2 + lam ** 2) ** (-p / 2.0) * jac)
                    for lam in lams)
        return (total / (2 * np.pi)) ** (1.0 / p)

    rng = np.random.default_rng(15)
    s = sg.build_laplacian(random_connected(rng, 7))
    lams = np.asarray(s.nonzero_eigvals)
    for p in (2.0, 3.0, 4.5):
        assert sg.evaluate(sg.MeasureSpec("hp", p), s) == \
            pytest.approx(freq_integral(lams, p), rel=1e-7)


def test_hankel_is_half_zeta_inf():
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(4, 12))))
        assert sg.evaluate(sg.parse_measure("hankel"), s) == pytest.approx(
            0.5 * sg.evaluate(sg.parse_measure("zeta:q=inf"), s), rel=1e-14)


def test_gamma_limit_approaches_half_zeta1():
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(4, 14))))
        lam2 = float(s.eigvals[1])
        target = sg.evaluate(sg.parse_measure("zeta:q=1"), s) / 2.0
        gaps = [abs(sg.evaluate(sg.MeasureSpec("gamma", c / lam2), s) - target)
                for c in (10.0, 100.0, 1000.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4 * max(1.0, target)


def test_transient_limit_approaches_half_zeta1():
    rng = np.random.default_rng(29)
    for _ in range(5):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(4, 14))))
        z1 = sg.evaluate(sg.parse_measure("zeta:q=1"), s)
        t = 50.0 / float(s.eigvals[1])
        assert abs(sg.evaluate(sg.MeasureSpec("tau", t), s) - z1 / 2.0) <= 1e-8 * z1


# --- companion form -----------------------------------------------------------


def test_companion_table_forms():
    mus = np.array([0.5])  # two-node network: lam2 = 2
    assert sg.companion_value(sg.parse_measure("zeta:q=1"), mus) == pytest.approx(0.5)
    assert sg.companion_value(sg.parse_measure("hankel"), mus) == pytest.approx(0.25)
    mus = np.array([0.2, 0.7, 1.1])
    q = 1.8
    assert sg.companion_value(sg.MeasureSpec("zeta", q), mus) == \
        pytest.approx(float(np.sum(mus ** q)) ** (1 / q), rel=1e-14)
    assert sg.companion_value(sg.parse_measure("hankel"), mus) == pytest.approx(0.55)
    assert sg.companion_value(sg.parse_measure("volume"), mus, n=4) == \
        pytest.approx((1 - 4) * math.log(2) + float(np.sum(np.log(mus))), rel=1e-14)
    # Explicit mu-side forms of all seven families.  A zero entry is an
    # eigenvalue at infinity; each form takes its limit there.
    g, t = 1.3, 0.7
    forms = {
        sg.MeasureSpec("zeta", q): lambda mu: float(np.sum(mu ** q)) ** (1 / q),
        sg.MeasureSpec("zeta", math.inf): lambda mu: float(np.max(mu)),
        sg.MeasureSpec("gamma", g):
            lambda mu: float(np.sum(mu / (1 + np.sqrt(1 - (mu / g) ** 2)))),
        sg.MeasureSpec("tau", t):
            lambda mu: 0.5 * float(np.sum(mu * -np.expm1(-2 * t / mu))),
        sg.parse_measure("hankel"): lambda mu: 0.5 * float(np.max(mu)),
        sg.parse_measure("volume"):
            lambda mu: -mu.size * math.log(2) + float(np.sum(np.log(mu))),
        sg.MeasureSpec("hp", 2.0): lambda mu: math.sqrt(float(np.sum(mu)) / 2),
        sg.MeasureSpec("hp", 3.0):
            lambda mu: sg.hardy_schatten_alpha0(3.0) * float(np.sum(mu ** 2)) ** (1 / 3),
        sg.MeasureSpec("hp", math.inf): lambda mu: float(np.max(mu)),
        sg.MeasureSpec("mq", 0.4): lambda mu: -float(np.sum(mu ** -0.4)),
        sg.MeasureSpec("mq", 0.0): lambda mu: -float(mu.size),
    }
    for mus in (np.array([0.2, 0.7, 1.1]), np.array([0.0, 0.2, 0.7, 1.1])):
        for m, form in forms.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = form(mus)
            assert sg.companion_value(m, mus) == pytest.approx(expect, rel=1e-14), m.label
        # the entropy is finite only while its level is at least max(mu)
        assert sg.companion_value(sg.MeasureSpec("gamma", 1.0), mus) == math.inf
    with pytest.raises(sg.InvalidParameter):
        sg.companion_value(sg.parse_measure("zeta:q=1"), np.array([-0.1, 0.5]))


def test_companion_equals_evaluate():
    rng = np.random.default_rng(33)
    for _ in range(10):
        s = sg.build_laplacian(random_connected(rng, int(rng.integers(3, 20))))
        for m in kind_suite(s):
            ev = sg.evaluate(m, s)
            cv = sg.companion_value(m, s.inverse_spectrum, s.n)
            assert cv == pytest.approx(ev, rel=1e-10), m.label


def test_spectral_value_gives_one_value_per_row():
    rng = np.random.default_rng(35)
    s = sg.build_laplacian(random_connected(rng, 9))
    rows = s.nonzero_eigvals * rng.uniform(0.5, 3.0, size=(4, 8))
    rows[1, 2] = math.inf
    for m in kind_suite(s) + [sg.parse_measure("zeta:q=inf"), sg.parse_measure("mq:q=1")]:
        values = sg.spectral_value(m, rows, s.n)
        assert values.shape == (4,), m.label
        for row, value in zip(rows, values):
            one = sg.spectral_value(m, row, s.n)
            assert isinstance(one, float)
            assert value == pytest.approx(one, rel=1e-13), m.label
    below = sg.MeasureSpec("gamma", 1.0 / float(rows[0].min()))
    rows[2] = 0.5 * rows[0]  # gamma below its threshold in this row only
    values = sg.spectral_value(below, rows, s.n)
    assert values[2] == math.inf and math.isfinite(values[0])


def test_companion_two_node():
    s = sg.build_laplacian(two_node())
    m = sg.parse_measure("zeta:q=1")
    assert sg.companion_value(m, s.inverse_spectrum, 2) == pytest.approx(0.5, abs=1e-14)
    assert sg.evaluate(m, s) == pytest.approx(0.5, abs=1e-14)


# --- gradients ------------------------------------------------------------------


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(37)
    eps = 1e-6
    for _ in range(10):
        n = int(rng.integers(4, 14))
        s = sg.build_laplacian(random_connected(rng, n))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        w = float(rng.uniform(0.3, 2.0))
        D = np.zeros((n, n))
        D[i, i] = D[j, j] = w
        D[i, j] = D[j, i] = -w
        L = np.asarray(s.matrix)
        for m in differentiable_suite(s):
            fd = (full_recompute_value(m, L + eps * D)
                  - full_recompute_value(m, L - eps * D)) / (2 * eps)
            dd = sg.directional_derivative(m, s, (i, j), w)
            assert dd == pytest.approx(fd, rel=1e-5, abs=1e-10), m.label
            assert dd <= 1e-12  # adding coupling never increases a measure


def test_directional_derivative_rejects_links_outside_the_graph():
    s = sg.build_laplacian(k3())
    m = sg.parse_measure("zeta:q=1")
    for edge in [(0, 3), (-1, 2)]:
        with pytest.raises(sg.GraphFormatError, match=r"outside node range \[0, 3\)"):
            sg.directional_derivative(m, s, edge, 1.0)


def test_zeta1_gradient_edge_form_is_resistance():
    rng = np.random.default_rng(41)
    s = sg.build_laplacian(random_connected(rng, 9))
    G = sg.gradient(sg.parse_measure("zeta:q=1"), s)
    for (i, j) in [(0, 4), (1, 7), (2, 3)]:
        quad = -(G[i, i] + G[j, j] - 2 * G[i, j])
        assert quad == pytest.approx(resistance(s, (i, j), 2), rel=1e-10)


def test_volume_gradient_is_negative_bordered_inverse():
    rng = np.random.default_rng(43)
    s = sg.build_laplacian(random_connected(rng, 8))
    n = s.n
    expected = -np.linalg.inv(np.asarray(s.matrix) + np.ones((n, n)) / n)
    assert np.allclose(sg.gradient(sg.parse_measure("volume"), s), expected, atol=1e-10)


def test_gradient_negative_semidefinite_on_centered_space():
    rng = np.random.default_rng(47)
    s = sg.build_laplacian(random_connected(rng, 10))
    M = np.eye(10) - np.ones((10, 10)) / 10
    for m in differentiable_suite(s):
        G = sg.gradient(m, s)
        assert np.linalg.eigvalsh(M @ G @ M).max() <= 1e-10, m.label


def test_nondifferentiable_measures_rejected():
    s = sg.build_laplacian(k3())
    for m in (sg.parse_measure("hankel"), sg.parse_measure("zeta:q=inf"),
              sg.parse_measure("hp:p=inf")):
        with pytest.raises(sg.NonDifferentiableMeasure):
            sg.gradient(m, s)
    # entropy at/below its finiteness threshold has no gradient either
    with pytest.raises(sg.NonDifferentiableMeasure):
        sg.gradient(sg.MeasureSpec("gamma", 1.0 / 3.0), s)


def test_gradient_monotone_for_supermodular_measures():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(4, 12))
        g1 = random_connected(rng, n)
        g2 = g1
        for _ in range(3):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if i != j:
                g2 = g2.with_edge((i, j), float(rng.uniform(0.2, 2.0)))
        s1, s2 = sg.build_laplacian(g1), sg.build_laplacian(g2)
        for spec in ("volume", "mq:q=0.5", "mq:q=0.2", "mq:q=1"):
            m = sg.parse_measure(spec)
            diff = sg.gradient(m, s2) - sg.gradient(m, s1)
            assert np.linalg.eigvalsh(diff).min() >= -1e-9, spec


# --- Schur convexity spot check --------------------------------------------------


def test_schur_convexity_on_majorized_spectra():
    # x majorizes y (equal sums), so Phi(x) >= Phi(y) for every measure
    pairs = [
        ((3.0, 2.0, 1.0), (2.0, 2.0, 2.0)),
        ((4.0, 1.0, 1.0), (2.0, 2.0, 2.0)),
        ((4.0, 1.5, 0.5), (3.0, 2.0, 1.0)),
        ((5.0, 0.5, 0.5), (4.0, 1.0, 1.0)),
    ]
    specs = [sg.parse_measure(t) for t in
             ("zeta:q=1", "zeta:q=2", "tau:t=1", "hankel", "volume",
              "hp:p=3", "mq:q=0.5", "gamma:gamma=2.1")]
    for x, y in pairs:
        for m in specs:
            vx = sg.spectral_value(m, np.array(x), 4)
            vy = sg.spectral_value(m, np.array(y), 4)
            assert vx >= vy - 1e-12, (m.label, x, y)


# --- axiom suite ------------------------------------------------------------------


def test_axioms_hold_for_all_kinds():
    base = sg.build_laplacian(k3())
    for m in kind_suite(base):
        report = sg.check_axioms(m, trials=60, seed=101)
        assert report.trials == 60


def test_axioms_certify_gamma_with_safe_level():
    report = sg.check_axioms(sg.MeasureSpec("gamma", 50.0), trials=60, seed=7)
    assert report.trials == 60


def test_planted_increasing_measure_fails_monotonicity():
    def increasing(lams, n):
        return float(np.sum(lams))

    with pytest.raises(sg.AxiomViolation) as err:
        sg.check_axioms(increasing, trials=50, seed=3)
    assert err.value.axiom == "monotonicity"
    assert err.value.witness is not None


def test_mq_q1_convexity_is_equality():
    rng = np.random.default_rng(59)
    m = sg.parse_measure("mq:q=1")
    for _ in range(10):
        n = int(rng.integers(4, 10))
        ga, gb = random_connected(rng, n), random_connected(rng, n)
        alpha = float(rng.uniform(0.1, 0.9))
        La, Lb = ga.laplacian(), gb.laplacian()
        va = full_recompute_value(m, La)
        vb = full_recompute_value(m, Lb)
        vmix = full_recompute_value(m, alpha * La + (1 - alpha) * Lb)
        assert vmix == pytest.approx(alpha * va + (1 - alpha) * vb, rel=1e-12)


# --- supermodularity --------------------------------------------------------------


def test_supermodularity_holds_for_flagged_measures():
    for spec in ("volume", "mq:q=0.5"):
        report = sg.supermodularity_check(sg.parse_measure(spec), trials=60, seed=11)
        assert report.passed, report.violations
        assert report.trials - report.skipped >= 40


def test_supermodularity_equality_for_identical_operands():
    # meet(g, g) = join(g, g) = g, so the inequality is an identity
    rng = np.random.default_rng(61)
    g = random_connected(rng, 8)
    v = full_recompute_value(sg.parse_measure("volume"), g.laplacian())
    vm = full_recompute_value(sg.parse_measure("volume"), sg.meet(g, g).laplacian())
    vj = full_recompute_value(sg.parse_measure("volume"), sg.union(g, g).laplacian())
    assert vm + vj == pytest.approx(2 * v, rel=1e-14)

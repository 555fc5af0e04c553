import math

import numpy as np
import pytest

import specgrow as sg
from util import k3, random_connected


def cfg_for(state, trials=4000, seed=7, dt=None):
    if dt is None:
        dt = 0.02 / float(state.eigvals[-1])
    return sg.SimConfig(dt=dt, trials=trials, seed=seed)


def test_config_validation():
    with pytest.raises(sg.InvalidParameter):
        sg.SimConfig(dt=0.0, trials=1000, seed=0)
    with pytest.raises(sg.InvalidParameter):
        sg.SimConfig(dt=0.01, trials=99, seed=0)


def test_zero_time_is_exact_zero():
    s = sg.build_laplacian(k3())
    est, se = sg.simulate_output_covariance(s, cfg_for(s), 0.0)
    assert est == 0.0 and se == 0.0


def test_unstable_step_rejected():
    s = sg.build_laplacian(k3())  # lam_max = 3, bound 0.1/3
    cfg = sg.SimConfig(dt=0.05, trials=500, seed=0)
    with pytest.raises(sg.UnstableStepSize):
        sg.simulate_output_covariance(s, cfg, 0.5)


def test_ensemble_above_the_cap_is_refused_before_allocation():
    """trials x n above MAX_ENSEMBLE_ENTRIES raises InvalidParameter at once,
    where np.zeros((trials, n)) would raise a memory error or exhaust memory."""
    from specgrow.montecarlo import MAX_ENSEMBLE_ENTRIES
    s = sg.build_laplacian(k3())
    for trials in (MAX_ENSEMBLE_ENTRIES // 3 + 1, 100_000_000_000):
        cfg = cfg_for(s, trials=trials)
        with pytest.raises(sg.InvalidParameter, match="ensemble entries"):
            sg.simulate_output_covariance(s, cfg, 1.0)
        with pytest.raises(sg.InvalidParameter, match="ensemble entries"):
            sg.validate_measure(s, sg.parse_measure("zeta:q=1"), cfg)


def test_seed_must_be_a_nonnegative_integer():
    for seed in (-1, 1.5, "0", None):
        with pytest.raises(sg.InvalidParameter, match="seed"):
            sg.SimConfig(dt=0.01, trials=100, seed=seed)
    assert sg.SimConfig(dt=0.01, trials=100, seed=np.int64(3)).seed == 3


def test_euler_updates_above_the_cap_are_refused_before_allocation(monkeypatch):
    """ceil(t / dt) x trials x n above MAX_EULER_UPDATES raises InvalidParameter
    before the ensemble is allocated, also where t / dt overflows an integer."""
    from specgrow import montecarlo
    # The largest criterion-8 run (2,799 steps x 10,000 trials x 10 nodes) keeps
    # 30x headroom under the cap.
    assert montecarlo.MAX_EULER_UPDATES >= 30 * 2_799 * 10_000 * 10
    s = sg.build_laplacian(k3())

    def no_allocation(*args, **kwargs):
        raise AssertionError("the ensemble was allocated")

    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", no_allocation)
        for dt, t in ((1e-9, 1000.0), (5e-324, 1.0)):
            cfg = sg.SimConfig(dt=dt, trials=100, seed=0)
            with pytest.raises(sg.InvalidParameter, match="Euler updates"):
                sg.simulate_output_covariance(s, cfg, t)
        with pytest.raises(sg.InvalidParameter, match="Euler updates"):
            sg.validate_measure(s, sg.parse_measure("zeta:q=1"),
                                sg.SimConfig(dt=1e-9, trials=100, seed=0))
    # t / dt = 100 steps exactly: 100 x 100 trials x 3 nodes = 30,000 updates.
    cfg = sg.SimConfig(dt=0.01, trials=100, seed=0)
    monkeypatch.setattr(montecarlo, "MAX_EULER_UPDATES", 30_000)
    assert sg.simulate_output_covariance(s, cfg, 1.0)[0] > 0.0
    monkeypatch.setattr(montecarlo, "MAX_EULER_UPDATES", 29_999)
    with pytest.raises(sg.InvalidParameter, match="Euler updates"):
        sg.simulate_output_covariance(s, cfg, 1.0)


def test_zero_closed_form_and_standard_error_are_reported_not_divided(monkeypatch):
    """At t = 1e-300 the standard error underflows to 0.  The tau closed form
    reads 2t there, so a zero one is patched in; the report reads an
    infinite z and effect size."""
    from specgrow import montecarlo
    monkeypatch.setattr(montecarlo, "evaluate", lambda m, state: 0.0)
    s = sg.build_laplacian(k3())
    r = sg.validate_measure(s, sg.parse_measure("tau:t=1e-300"), cfg_for(s, trials=100))
    assert r.closed_form == 0.0 and r.std_error == 0.0 and r.estimate > 0.0
    assert r.z_score == math.inf and r.effect_size == math.inf and not r.passed


def test_seed_determinism_is_bitwise():
    s = sg.build_laplacian(k3())
    cfg = cfg_for(s, trials=500, seed=42)
    a = sg.simulate_output_covariance(s, cfg, 1.5)
    b = sg.simulate_output_covariance(s, cfg, 1.5)
    assert a == b
    c = sg.simulate_output_covariance(s, cfg_for(s, trials=500, seed=43), 1.5)
    assert c != a


def test_k3_stationary_matches_half_zeta1():
    s = sg.build_laplacian(k3())
    report = sg.validate_measure(s, sg.parse_measure("zeta:q=1"),
                                 cfg_for(s, trials=4000, seed=5, dt=0.002))
    assert report.closed_form == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.passed, report
    assert abs(report.z_score) <= 3.0


def test_k3_transient_matches_closed_form():
    s = sg.build_laplacian(k3())
    m = sg.MeasureSpec("tau", 0.5)
    report = sg.validate_measure(s, m, cfg_for(s, trials=4000, seed=11, dt=0.002))
    expect = 2.0 * (1.0 - math.exp(-3.0)) / 6.0  # two modes at lam = 3
    assert report.closed_form == pytest.approx(expect, rel=1e-12)
    assert report.passed, report
    assert report.t == 0.5


def test_doubled_weights_halve_stationary_output():
    g = k3()
    doubled = sg.WeightedGraph(3, {e: 2.0 * w for e, w in g.edges.items()})
    s1, s2 = sg.build_laplacian(g), sg.build_laplacian(doubled)
    r1 = sg.validate_measure(s1, sg.parse_measure("zeta:q=1"),
                             cfg_for(s1, trials=4000, seed=17, dt=0.002))
    r2 = sg.validate_measure(s2, sg.parse_measure("zeta:q=1"),
                             cfg_for(s2, trials=4000, seed=17, dt=0.001))
    combined_se = math.hypot(r2.std_error, 0.5 * r1.std_error)
    assert abs(r2.estimate - 0.5 * r1.estimate) <= 3.0 * combined_se


def test_halving_dt_moves_estimate_less_than_one_std_error():
    # weak-order-1 bias control at an already-small step
    s = sg.build_laplacian(k3())
    t = 4.0
    a, se_a = sg.simulate_output_covariance(s, cfg_for(s, trials=6000, seed=23, dt=0.004), t)
    b, _ = sg.simulate_output_covariance(s, cfg_for(s, trials=6000, seed=23, dt=0.002), t)
    assert abs(a - b) < se_a


def test_validate_on_random_graph():
    rng = np.random.default_rng(29)
    s = sg.build_laplacian(random_connected(rng, 8, extra=12))
    report = sg.validate_measure(s, sg.parse_measure("zeta:q=1"),
                                 cfg_for(s, trials=3000, seed=31))
    assert report.passed, report
    assert report.measure == "zeta:q=1"
    assert report.trials == 3000


def test_validate_rejects_unsupported_measures():
    s = sg.build_laplacian(k3())
    for spec in ("hankel", "volume", "zeta:q=2", "hp:p=3"):
        with pytest.raises(sg.UnsupportedMeasure):
            sg.validate_measure(s, sg.parse_measure(spec), cfg_for(s, trials=200))


def test_report_round_trips_to_json():
    s = sg.build_laplacian(k3())
    report = sg.validate_measure(s, sg.MeasureSpec("tau", 0.3),
                                 cfg_for(s, trials=300, seed=3, dt=0.002))
    obj = report.to_json_obj()
    assert set(obj) == {"measure", "closed_form", "estimate", "std_error", "z_score",
                        "effect_size", "passed", "t", "seed", "dt", "trials"}

"""Monte Carlo validation of the closed-form measures.

Simulates the noisy first-order dynamics x' = -L x + white noise with an
explicit Euler-Maruyama scheme (per-node Gaussian increments of variance
dt) and compares ensemble statistics of the centered output against the
spectral formulas.  All randomness flows from the configured seed through
a single generator in a fixed draw order, so a given (state, config, t)
always reproduces the same estimate bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParameter, UnstableStepSize, UnsupportedMeasure
from .laplacian import LaplacianState
from .measures import MeasureSpec, evaluate

# Time at which exp(-2 lam_2 t) has decayed past any tolerance we test at.
STATIONARY_HORIZON = 20.0

# Most (trial, node) entries per ensemble: an Euler step holds three float64
# arrays of that size (state, drift, noise draw), about 240 MB at the cap.
MAX_ENSEMBLE_ENTRIES = 10_000_000

# Most Euler updates, steps x trials x nodes, per simulation: at the ~17 ns an
# update takes on one Xeon core (1 BLAS thread), about 3 minutes at the cap.
MAX_EULER_UPDATES = 10_000_000_000


@dataclass(frozen=True)
class SimConfig:
    """Step size, ensemble size and seed for one validation run."""

    dt: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParameter(f"step size must be positive, got {self.dt}")
        if self.trials < 100:
            raise InvalidParameter(f"need at least 100 trials, got {self.trials}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InvalidParameter(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class ValidationReport:
    measure: str
    closed_form: float
    estimate: float
    std_error: float
    z_score: float
    effect_size: float
    passed: bool
    t: float
    seed: int
    dt: float
    trials: int

    def to_json_obj(self) -> dict:
        return asdict(self)


def stable_step_bound(state: LaplacianState) -> float:
    return 0.1 / float(state.eigvals[-1])


def simulate_output_covariance(state: LaplacianState, cfg: SimConfig,
                               t: float) -> tuple[float, float]:
    """Ensemble estimate of the squared deviation from average at time t.

    Returns (estimate, standard error) over cfg.trials independent paths
    started at zero.  The step count is rounded so the grid hits t exactly
    with an effective step no larger than cfg.dt.  Raises InvalidParameter,
    before any allocation, when trials x n exceeds MAX_ENSEMBLE_ENTRIES or
    steps x trials x n exceeds MAX_EULER_UPDATES; its subclass
    UnstableStepSize when cfg.dt is above :func:`stable_step_bound`.
    """
    if t < 0.0:
        raise InvalidParameter(f"time must be nonnegative, got {t}")
    if cfg.trials * state.n > MAX_ENSEMBLE_ENTRIES:
        raise InvalidParameter(f"{cfg.trials} trials x {state.n} nodes exceed the cap of "
                               f"{MAX_ENSEMBLE_ENTRIES} ensemble entries")
    # Compared as a float first: a tiny dt would overflow an integer step count.
    steps = max(1, math.ceil(t / cfg.dt)) if t / cfg.dt <= MAX_EULER_UPDATES else math.inf
    if steps * cfg.trials * state.n > MAX_EULER_UPDATES:
        raise InvalidParameter(f"{t / cfg.dt:.3g} steps x {cfg.trials} trials x {state.n} nodes "
                               f"exceed the cap of {MAX_EULER_UPDATES:.0e} Euler updates")
    if cfg.dt > stable_step_bound(state):
        raise UnstableStepSize(
            f"dt={cfg.dt} above stability bound {stable_step_bound(state):.3e}")
    if t == 0.0:
        return 0.0, 0.0

    h = t / steps
    root_h = math.sqrt(h)
    L = np.asarray(state.matrix)
    rng = np.random.default_rng(cfg.seed)

    X = np.zeros((cfg.trials, state.n))
    for _ in range(steps):
        X = X - h * (X @ L) + root_h * rng.standard_normal((cfg.trials, state.n))

    Y = X - X.mean(axis=1, keepdims=True)
    samples = np.einsum("ij,ij->i", Y, Y)
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(cfg.trials))
    return estimate, std_error


def stationary_time(state: LaplacianState) -> float:
    return STATIONARY_HORIZON / float(state.eigvals[1])


def validate_measure(state: LaplacianState, m: MeasureSpec,
                     cfg: SimConfig) -> ValidationReport:
    """Compare simulation against the closed form at 3 standard errors.

    Supported measures: tau:t=T (transient covariance at its own time) and
    zeta:q=1 (stationary covariance, which equals half the zeta value; the
    simulation runs to the stationarity proxy time).
    """
    if m.kind == "tau":
        t = float(m.param)
        closed = evaluate(m, state)
    elif m.kind == "zeta" and m.param == 1.0:
        t = stationary_time(state)
        closed = evaluate(m, state) / 2.0
    else:
        raise UnsupportedMeasure(f"no simulation target for {m.label}")

    estimate, std_error = simulate_output_covariance(state, cfg, t)
    if std_error > 0.0:
        z = (estimate - closed) / std_error
    else:
        z = 0.0 if estimate == closed else math.inf
    return ValidationReport(
        measure=m.label,
        closed_form=closed,
        estimate=estimate,
        std_error=std_error,
        z_score=z,
        effect_size=(estimate - closed) / closed if closed else math.inf,
        passed=abs(z) <= 3.0,
        t=t,
        seed=cfg.seed,
        dt=cfg.dt,
        trials=cfg.trials,
    )

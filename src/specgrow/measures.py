"""Spectral performance measures of noisy consensus networks.

Every measure here is a symmetric function of the positive Laplacian
eigenvalues that is monotone under the semidefinite order, convex, and
permutation invariant.  Seven families are provided:

    zeta:q=Q      inverse-power mean  (sum lam^-q)^(1/q),  q >= 1
    gamma:gamma=G frequency-domain entropy; finite only when G >= 1/lam_2
    tau:t=T       expected squared deviation from average at time t,
                  sum (1 - exp(-2 lam t)) / (2 lam)
    hankel        half the inverse algebraic connectivity, 1/(2 lam_2)
    volume        log-volume of the stationary output ellipsoid,
                  (1-n) log 2 - sum log lam
    hp:p=P        frequency-domain p-norm, alpha0 (sum lam^-(p-1))^(1/p)
    mq:q=Q        -sum lam^q for q in [0, 1]

Values are plain floats; +inf / -inf are legitimate results (e.g. the
entropy below its finiteness threshold).  `spectral_value` accepts
eigenvalue vectors containing inf entries so that the fundamental-limit
calculators can evaluate the same formulas at their asymptotic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (AxiomViolation, InvalidParameter, MeasureSpecError,
                     NonDifferentiableMeasure, NotConnected)
from .graphs import WeightedGraph, node_pair
from .graphs import meet as graph_meet
from .graphs import union as graph_union
from .laplacian import LaplacianState, connectivity_tolerance, pair_form

KINDS = ("zeta", "gamma", "tau", "hankel", "volume", "hp", "mq")
SUPERMODULAR_KINDS = ("volume", "mq")

_PARAM_KEY = {"zeta": "q", "gamma": "gamma", "tau": "t", "hp": "p", "mq": "q"}


@dataclass(frozen=True)
class MeasureSpec:
    """One measure family plus its scalar parameter (None for hankel/volume)."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown measure kind {self.kind!r}")
        p = self.param
        if self.kind in ("hankel", "volume"):
            if p is not None:
                raise InvalidParameter(f"{self.kind} takes no parameter")
            return
        if p is None or math.isnan(p):
            raise InvalidParameter(f"{self.kind} needs a numeric parameter")
        object.__setattr__(self, "param", float(p))
        p = self.param
        if self.kind == "zeta" and not p >= 1.0:
            raise InvalidParameter(f"zeta order must satisfy q >= 1, got {p}")
        if self.kind == "gamma" and not (p > 0.0 and math.isfinite(p)):
            raise InvalidParameter(f"entropy level must be finite and positive, got {p}")
        if self.kind == "tau" and not (p > 0.0 and math.isfinite(p)):
            raise InvalidParameter(f"time horizon must be finite and positive, got {p}")
        if self.kind == "hp" and not p >= 2.0:
            raise InvalidParameter(f"norm exponent must satisfy p >= 2, got {p}")
        if self.kind == "mq" and not (0.0 <= p <= 1.0):
            raise InvalidParameter(f"exponent must lie in [0, 1], got {p}")

    @property
    def supermodular(self) -> bool:
        return self.kind in SUPERMODULAR_KINDS

    @property
    def differentiable(self) -> bool:
        """False for the max-eigenvalue measures (hankel, zeta/hp at infinity)."""
        if self.kind == "hankel":
            return False
        if self.kind in ("zeta", "hp") and math.isinf(self.param):
            return False
        return True

    @property
    def label(self) -> str:
        if self.kind in ("hankel", "volume"):
            return self.kind
        return f"{self.kind}:{_PARAM_KEY[self.kind]}={self.param:g}"

    def __str__(self) -> str:
        return self.label


def parse_measure(text: str) -> MeasureSpec:
    """Parse the exact, case-sensitive spec grammar used by the CLI."""
    if text in ("hankel", "volume"):
        return MeasureSpec(text)
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _PARAM_KEY:
        raise MeasureSpecError(f"unrecognized measure spec {text!r}")
    key, sep, val = rest.partition("=")
    if not sep or key != _PARAM_KEY[kind]:
        raise MeasureSpecError(f"expected {kind}:{_PARAM_KEY[kind]}=<float>, got {text!r}")
    try:
        param = float(val)
    except ValueError as exc:
        raise MeasureSpecError(f"bad parameter in {text!r}") from exc
    return MeasureSpec(kind, param)


def hardy_schatten_alpha0(p: float) -> float:
    """Normalizing constant of the hp measure; 2^-0.5 at p = 2."""
    scale = 2.0 * math.sqrt(math.pi) * math.gamma(p / 2.0) / math.gamma((p - 1.0) / 2.0)
    return scale ** (-1.0 / p)


# --- value on a spectrum ----------------------------------------------------


def spectral_value(m: MeasureSpec, eigenvalues, n: int):
    """Measure value from the n-1 nonzero eigenvalues (inf entries allowed).

    A 2-D array gives one value per row, as an array; a 1-D one a float.
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if lams.shape[-1] != n - 1:
        raise InvalidParameter(f"expected {n - 1} nonzero eigenvalues, got {lams.shape[-1]}")
    if (lams <= 0.0).any():
        raise InvalidParameter("nonzero eigenvalues must be strictly positive")
    value = _row_values(m, lams, n)
    return float(value) if lams.ndim == 1 else value


def _row_values(m: MeasureSpec, lams: np.ndarray, n: int):
    """The measure of each row of lams; a 1-D lams reduces to a numpy scalar,
    whose powers round as Python's float powers do."""
    if m.kind == "zeta":
        q = m.param
        if math.isinf(q):
            return 1.0 / np.min(lams, axis=-1)
        return np.sum(lams ** -q, axis=-1) ** (1.0 / q)
    if m.kind == "gamma":
        g = m.param
        root = np.sqrt(np.maximum(lams * lams - g ** -2, 0.0))
        return np.where(g * np.min(lams, axis=-1) < 1.0, math.inf,
                        np.sum(1.0 / (lams + root), axis=-1))
    if m.kind == "tau":
        t = m.param
        return np.sum((1.0 - np.exp(-2.0 * t * lams)) / (2.0 * lams), axis=-1)
    if m.kind == "hankel":
        return 0.5 / np.min(lams, axis=-1)
    if m.kind == "volume":
        with np.errstate(divide="ignore"):
            return (1.0 - n) * math.log(2.0) - np.sum(np.log(lams), axis=-1)
    if m.kind == "hp":
        p = m.param
        if math.isinf(p):
            return 1.0 / np.min(lams, axis=-1)
        return hardy_schatten_alpha0(p) * np.sum(lams ** -(p - 1.0), axis=-1) ** (1.0 / p)
    # mq
    q = m.param
    return -np.sum(lams ** q, axis=-1)


def evaluate(m: MeasureSpec, state: LaplacianState) -> float:
    """Measure value of a network state (possibly +inf for the entropy)."""
    return spectral_value(m, state.nonzero_eigvals, state.n)


def companion_value(m: MeasureSpec, inverse_spectrum, n: int | None = None) -> float:
    """Measure value written on the pseudo-inverse spectrum mu_2 <= ... <= mu_n.

    This is `spectral_value` at lam = 1/mu, so it matches `evaluate`; entries
    equal to zero are the infinite-coupling limit lam = inf.
    """
    mus = np.asarray(inverse_spectrum, dtype=float)
    if n is None:
        n = mus.size + 1
    if (mus < 0.0).any():
        raise InvalidParameter("inverse spectrum must be nonnegative")
    with np.errstate(divide="ignore"):
        return spectral_value(m, 1.0 / mus, n)


# --- gradients ---------------------------------------------------------------


def phi_prime(m: MeasureSpec, eigenvalues) -> np.ndarray:
    """Per-eigenvalue derivative of the measure at the given spectrum."""
    if not m.differentiable:
        raise NonDifferentiableMeasure(f"{m.label} is a max-eigenvalue measure")
    lams = np.asarray(eigenvalues, dtype=float)

    if m.kind == "zeta":
        q = m.param
        s = float(np.sum(lams ** -q))
        return -(s ** (1.0 / q - 1.0)) * lams ** -(q + 1.0)
    if m.kind == "gamma":
        g = m.param
        if g * float(np.min(lams)) <= 1.0:
            raise NonDifferentiableMeasure(
                f"{m.label} is not differentiable at or below its finiteness threshold")
        root = np.sqrt(lams * lams - g ** -2)
        return g * g * (1.0 - lams / root)
    if m.kind == "tau":
        t = m.param
        e = np.exp(-2.0 * t * lams)
        return t * e / lams - (1.0 - e) / (2.0 * lams * lams)
    if m.kind == "volume":
        return -1.0 / lams
    if m.kind == "hp":
        p = m.param
        s = float(np.sum(lams ** -(p - 1.0)))
        a0 = hardy_schatten_alpha0(p)
        return -a0 * ((p - 1.0) / p) * s ** (1.0 / p - 1.0) * lams ** -p
    q = m.param
    return -q * lams ** (q - 1.0)


def gradient(m: MeasureSpec, state: LaplacianState) -> np.ndarray:
    """Matrix gradient of the measure at the state's Laplacian.

    For the volume measure this is the exact log-det gradient
    -(L + J/n)^-1; for the rest it is the spectral-function gradient
    assembled from eigenvectors.  Both agree on every direction that is
    itself a Laplacian, which is all the growth machinery ever uses.
    """
    n = state.n
    if m.kind == "volume":
        return -(np.asarray(state.pinv) + np.ones((n, n)) / n)
    d = phi_prime(m, state.nonzero_eigvals)
    V = np.asarray(state.eigvecs)[:, 1:]
    G = (V * d) @ V.T
    return (G + G.T) / 2.0


def directional_derivative(m: MeasureSpec, state: LaplacianState,
                           edge, weight: float) -> float:
    """tr(grad * w L_e): first-order change when adding the weighted edge."""
    return float(weight * pair_form(gradient(m, state), *node_pair(*edge, state.n)))


# --- axiom and supermodularity checkers --------------------------------------

MeasureLike = Union[MeasureSpec, Callable[[np.ndarray, int], float]]


@dataclass(frozen=True)
class AxiomReport:
    measure: str
    trials: int
    seed: int
    max_convexity_slack: float


@dataclass(frozen=True)
class SupermodularityReport:
    measure: str
    trials: int
    skipped: int
    violations: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations


def _as_value_fn(measure: MeasureLike):
    if isinstance(measure, MeasureSpec):
        return (lambda lams, n: spectral_value(measure, lams, n)), measure.label
    return measure, getattr(measure, "__name__", "custom")


def _laplacian_value(value_fn, L: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(L)
    if vals[1] <= connectivity_tolerance(vals):
        raise NotConnected("operand graph is disconnected")
    return value_fn(vals[1:], L.shape[0])


def _random_connected(rng: np.random.Generator, n: int, extra: int) -> WeightedGraph:
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 2.0))
    attempts = 0
    while extra > 0 and attempts < 50 * n:
        attempts += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j:
            continue
        e = (min(i, j), max(i, j))
        if e in edges:
            continue
        edges[e] = float(rng.uniform(0.5, 2.0))
        extra -= 1
    return WeightedGraph(n, edges)


def check_axioms(measure: MeasureLike, trials: int = 200, seed: int = 0,
                 n_range: tuple[int, int] = (5, 20)) -> AxiomReport:
    """Stress the three defining properties on random connected instances.

    Checks, per trial: monotonicity under added weighted edges, convexity
    along random matrix segments, and invariance under node relabeling.
    Raises AxiomViolation (with the witnessing instance attached) on the
    first failure; returns a summary report when everything holds.
    """
    value_fn, label = _as_value_fn(measure)
    rng = np.random.default_rng(seed)
    lo, hi = n_range
    tol = 1e-9
    max_conv_slack = -math.inf

    for trial in range(trials):
        n = int(rng.integers(lo, hi + 1))

        # monotonicity: strengthen couplings, value must not increase
        g = _random_connected(rng, n, extra=int(rng.integers(0, n)))
        g_plus = g
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if i != j:
                g_plus = g_plus.with_edge((i, j), float(rng.uniform(0.1, 3.0)))
        v_base = _laplacian_value(value_fn, g.laplacian())
        v_plus = _laplacian_value(value_fn, g_plus.laplacian())
        if v_plus > v_base + tol * max(1.0, abs(v_base)):
            raise AxiomViolation(
                "monotonicity", f"{label}: {v_plus} > {v_base} after adding edges",
                witness=(trial, g, g_plus))

        # convexity along a random segment between two connected graphs
        ga = _random_connected(rng, n, extra=int(rng.integers(0, n)))
        gb = _random_connected(rng, n, extra=int(rng.integers(0, n)))
        alpha = float(rng.uniform(0.05, 0.95))
        La, Lb = ga.laplacian(), gb.laplacian()
        va = _laplacian_value(value_fn, La)
        vb = _laplacian_value(value_fn, Lb)
        v_mix = _laplacian_value(value_fn, alpha * La + (1.0 - alpha) * Lb)
        bound = alpha * va + (1.0 - alpha) * vb
        if math.isfinite(bound) and v_mix > bound + tol * max(1.0, abs(bound)):
            raise AxiomViolation(
                "convexity", f"{label}: {v_mix} > {bound}", witness=(trial, ga, gb, alpha))
        if math.isfinite(bound) and math.isfinite(v_mix):
            max_conv_slack = max(max_conv_slack, v_mix - bound)

        # relabeling invariance
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        v_perm = _laplacian_value(value_fn, P @ g.laplacian() @ P.T)
        if math.isfinite(v_base):
            if abs(v_perm - v_base) > 1e-10 * max(1.0, abs(v_base)):
                raise AxiomViolation(
                    "orthogonal-invariance", f"{label}: {v_perm} != {v_base}",
                    witness=(trial, g, perm))
        elif v_perm != v_base:
            raise AxiomViolation(
                "orthogonal-invariance", f"{label}: {v_perm} != {v_base}",
                witness=(trial, g, perm))

    return AxiomReport(label, trials, seed, max_conv_slack)


def supermodularity_check(m: MeasureSpec, trials: int = 100, seed: int = 0,
                          n_range: tuple[int, int] = (5, 12)) -> SupermodularityReport:
    """Test rho(meet) + rho(join) >= rho(g1) + rho(g2) on random graph pairs.

    Pairs share a random connected core (so meet and join stay connected);
    trials where any operand comes out disconnected are skipped.  Violations
    beyond a -1e-9 slack are collected in the report, never raised.
    """
    value_fn, label = _as_value_fn(m)
    rng = np.random.default_rng(seed)
    lo, hi = n_range
    violations = []
    skipped = 0

    for trial in range(trials):
        n = int(rng.integers(lo, hi + 1))
        core = _random_connected(rng, n, extra=0)

        def variant():
            g = core
            for e in list(core.edges):
                g = g.with_edge(e, float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(1, n))):
                i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
                if i != j and (min(i, j), max(i, j)) not in g.edges:
                    g = g.with_edge((i, j), float(rng.uniform(0.2, 2.0)))
            return g

        g1, g2 = variant(), variant()
        values = {}
        try:
            for name, g in (("g1", g1), ("g2", g2),
                            ("meet", graph_meet(g1, g2)), ("join", graph_union(g1, g2))):
                values[name] = _laplacian_value(value_fn, g.laplacian())
        except NotConnected:
            skipped += 1
            continue
        if not all(math.isfinite(v) for v in values.values()):
            skipped += 1
            continue
        lhs = values["meet"] + values["join"]
        rhs = values["g1"] + values["g2"]
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
            violations.append((trial, lhs, rhs))

    return SupermodularityReport(label, trials, skipped, tuple(violations))

"""Computable ceilings on what adding k links can achieve.

The k-link lower bound drops the k smallest positive eigenvalues and
evaluates the measure with those slots pushed to infinity; the matching
upper bound (valid for complete candidate sets with large enough weights)
pushes the k largest ones instead.  Both need nothing but the spectrum of
the original network, so they can be tabulated before running any solver.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParameter, UnsupportedMeasure
from .graphs import Edge, WeightedGraph, node_pair
from .laplacian import LaplacianState, downdated_inverse_spectra
from .measures import MeasureSpec, companion_value, evaluate, spectral_value


def limit_value(m: MeasureSpec, n: int) -> float:
    """Measure value with every eigenvalue at infinity (the absolute floor)."""
    return spectral_value(m, np.full(n - 1, math.inf), n)


def _slots_at_inf(state: LaplacianState, m: MeasureSpec, k: int, smallest: bool) -> float:
    """Measure value with the k smallest (or largest) eigenvalues pushed to infinity."""
    if k < 1:
        raise InvalidParameter(f"k must be at least 1, got {k}")
    lams = state.nonzero_eigvals
    k = min(k, lams.size)
    kept = lams[k:] if smallest else lams[:lams.size - k]
    return spectral_value(m, np.concatenate([kept, np.full(k, math.inf)]), state.n)


def lower_bound(state: LaplacianState, m: MeasureSpec, k: int) -> float:
    """No choice of k weighted links can reach below this value."""
    return _slots_at_inf(state, m, k, smallest=True)


def upper_bound_complete(state: LaplacianState, m: MeasureSpec, k: int) -> float:
    """Reachable value when candidates cover the complete graph.

    Conditional: holds once every candidate weight exceeds some finite
    threshold, which the caller is responsible for; the bound itself only
    needs the spectrum.
    """
    return _slots_at_inf(state, m, k, smallest=False)


def max_single_link_gain(state: LaplacianState, edge: Edge, m: MeasureSpec) -> float:
    """Ceiling on the decrease one link at this location can produce.

    This is the infinite-weight limit; for the volume and mq measures it
    is +inf (one link can improve them without bound).  Raises
    GraphFormatError for a node id outside [0, n).
    """
    i, j = node_pair(*edge, state.n)
    mus = downdated_inverse_spectra(state, [i], [j], [math.inf])[0]
    # The infinite-weight downdate loses one more rank; snap the noise-level
    # eigenvalue to an exact zero so per-measure limits (e.g. -inf) apply.
    mus[mus < mus.size * np.finfo(float).eps * max(float(mus[-1]), 1.0)] = 0.0
    gain = evaluate(m, state) - companion_value(m, mus, state.n)
    return float(gain)


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds for one k, with the enhancement percentage."""

    k: int
    lower: float
    upper: float | None
    pi_percent: float | None
    limit: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def bounds_report(state: LaplacianState, m: MeasureSpec, k: int,
                  assume_complete: bool = False) -> BoundsReport:
    low = lower_bound(state, m, k)
    up = upper_bound_complete(state, m, k) if assume_complete else None
    rho0 = evaluate(m, state)
    pi = None
    if math.isfinite(rho0) and rho0 > 0.0 and math.isfinite(low):
        pi = (rho0 - low) / rho0 * 100.0
    return BoundsReport(k, low, up, pi, limit_value(m, state.n))


def enhancement_table(state: LaplacianState, m: MeasureSpec,
                      k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, bound_k, percent enhancement) for k = 0..k_max.

    Defined only for measures whose starting value is finite and positive;
    the volume and mq measures (bound -inf) are rejected.
    """
    if m.supermodular:
        raise UnsupportedMeasure(f"enhancement percentage undefined for {m.label}")
    rho0 = evaluate(m, state)
    if not (math.isfinite(rho0) and rho0 > 0.0):
        raise UnsupportedMeasure(f"starting value {rho0} is not finite positive")
    rows = [(0, rho0, 0.0)]
    for k in range(1, k_max + 1):
        rho_k = lower_bound(state, m, k)
        rows.append((k, rho_k, (rho0 - rho_k) / rho0 * 100.0))
    return rows


def min_links_for_target(state: LaplacianState, m: MeasureSpec,
                         target_percent: float) -> int:
    """Smallest k whose enhancement ceiling reaches the target percentage."""
    if target_percent <= 0.0:
        return 0
    table = enhancement_table(state, m, state.n - 1)
    for k, _, pi in table:
        if pi >= target_percent:
            return k
    raise InvalidParameter(
        f"target {target_percent}% exceeds the k = n-1 ceiling of {table[-1][2]:.4f}%")


def star_tree_sweep(state: LaplacianState, m: MeasureSpec,
                    scales=(1e1, 1e2, 1e3, 1e4), center: int = 0) -> list[float]:
    """Measure values of L + kappa * L_star for each kappa, by full recompute."""
    n = state.n
    T = WeightedGraph(n, {(center, v): 1.0 for v in range(n) if v != center}).laplacian()
    out = []
    for kappa in scales:
        vals = np.linalg.eigvalsh(np.asarray(state.matrix) + float(kappa) * T)
        out.append(spectral_value(m, vals[1:], n))
    return out

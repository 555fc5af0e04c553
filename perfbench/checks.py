"""Correctness checks behind ``failed``: every solve is checked, outside timing.

* The value trajectory is non-increasing.
* The final value matches a fresh ``build_laplacian`` of the grown graph.
* ``check_picks`` re-scores every greedy pick with the benchmark's own
  oracle: it decomposes the grown Laplacian afresh and scores every
  remaining candidate exactly, by the rank-one identities for zeta:q=1,
  zeta:q=2 and volume and by a full ``eigvalsh`` for every other measure.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import numpy as np

import specgrow as sg
from instances import add_link, laplacian_of

TIE_REL = 1e-12     # the solvers' tie band, as in specgrow.synthesis
VALUE_REL = 1e-8    # agreement of a reported value with a fresh recompute
# The solvers' scores and the oracle's differ by rounding (under 1e-14
# relative on the seeded instances); candidates whose gaps to the band edge
# are smaller than this slack are not told apart.
SLACK_REL = 1e-13


def close(value: float, expect: float, rel: float = VALUE_REL) -> bool:
    """Relative agreement, absolute below magnitude 1."""
    return abs(value - expect) <= rel * max(1.0, abs(expect))


def trajectory(label: str, values) -> list[str]:
    return [f"{label}: value rose at step {t + 1}: {a!r} -> {b!r}"
            for t, (a, b) in enumerate(zip(values, values[1:]))
            if not b <= a + TIE_REL * max(1.0, abs(a))]


def grown_value(n: int, edges, chosen, m: sg.MeasureSpec) -> float:
    """Measure of the base graph plus the chosen links, by a fresh build."""
    g = sg.WeightedGraph.from_edge_list(n, edges)
    for edge, w in chosen:
        g = g.with_edge(edge, w)
    return sg.evaluate(m, sg.build_laplacian(g))


def _closed_form(m: sg.MeasureSpec) -> str | None:
    if m.kind == "zeta" and m.param in (1.0, 2.0):
        return f"zeta{int(m.param)}"
    return "volume" if m.kind == "volume" else None


def oracle_scores(m: sg.MeasureSpec, L: np.ndarray, links) -> np.ndarray:
    """Exact measure value after adding each link (i, j, w) to Laplacian L."""
    n = L.shape[0]
    form = _closed_form(m)
    if form is None:
        scores = np.empty(len(links))
        for idx, (i, j, w) in enumerate(links):
            A = L.copy()
            add_link(A, i, j, w)
            scores[idx] = sg.spectral_value(m, np.linalg.eigvalsh(A)[1:], n)
        return scores
    vals, vecs = np.linalg.eigh(L)
    lam, V = vals[1:], vecs[:, 1:]
    rows = np.array([i for i, _, _ in links])
    cols = np.array([j for _, j, _ in links])
    w = np.array([w for _, _, w in links])
    D2 = (V[rows] - V[cols]) ** 2
    r1, r2, r3 = (D2 @ lam ** -q for q in (1, 2, 3))   # resistances under P, P^2, P^3
    c = 1.0 / (1.0 / w + r1)                             # Sherman-Morrison coefficient
    if form == "zeta1":
        return np.sum(1.0 / lam) - c * r2
    if form == "zeta2":
        return np.sqrt(np.sum(lam ** -2.0) - (2.0 * c * r3 - (c * r2) ** 2))
    return sg.spectral_value(m, lam, n) - np.log1p(w * r1)   # determinant lemma


def check_picks(label: str, inst, m: sg.MeasureSpec, result) -> list[str]:
    """Each pick must be the lex-smallest candidate within TIE_REL of the
    oracle's minimum, and its reported value must match the oracle's."""
    L = laplacian_of(inst.n, inst.edges)
    remaining = sorted(inst.links)
    failures = []
    for t, ((i, j), w) in enumerate(result.chosen):
        if (i, j, w) not in remaining:
            return failures + [f"{label}: step {t + 1} picked {(i, j, w)}, "
                               "not a remaining candidate"]
        idx = remaining.index((i, j, w))
        scores = oracle_scores(m, L, remaining)
        scale = max(1.0, abs(float(scores.min())))
        gap = (scores - scores.min()) / scale
        lex_first = int(np.flatnonzero(gap <= TIE_REL)[0])
        # A different pick passes only when rounding can explain it: its own
        # score is within the band plus slack and every lex-smaller one that
        # the band holds sits within slack of the band's edge.
        explained = gap[idx] <= TIE_REL + SLACK_REL and not np.any(
            gap[:idx] <= TIE_REL - SLACK_REL)
        if idx != lex_first and not explained:
            failures.append(f"{label}: step {t + 1} picked {(i, j)}, oracle "
                            f"picks {remaining[lex_first][:2]} (gap {gap[idx]:.3e})")
        if not close(result.values[t + 1], float(scores[idx])):
            failures.append(f"{label}: step {t + 1} value {result.values[t + 1]!r} "
                            f"!= oracle {float(scores[idx])!r}")
        add_link(L, i, j, w)
        remaining.pop(idx)
    return failures


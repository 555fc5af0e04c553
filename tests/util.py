"""Shared fixtures-in-code: small graphs, seeded random instances, oracles."""

from __future__ import annotations

import numpy as np

import specgrow as sg
from specgrow.laplacian import downdated_inverse_spectra


def graph(n, triples):
    return sg.WeightedGraph.from_edge_list(n, triples)


def two_node():
    return graph(2, [(0, 1, 1.0)])


def k3():
    return graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def k4():
    return graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])


def path_graph(n):
    return graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def ring_graph(n):
    return graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def random_connected(rng, n, extra=None, wlo=0.5, whi=2.0):
    """Random spanning tree plus `extra` random weighted chords."""
    if extra is None:
        extra = n
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(wlo, whi))
    budget = extra
    guard = 0
    while budget > 0 and guard < 100 * n:
        guard += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j:
            continue
        e = (min(i, j), max(i, j))
        if e in edges:
            continue
        edges[e] = float(rng.uniform(wlo, whi))
        budget -= 1
    return sg.WeightedGraph(n, edges)


def random_candidates(rng, n, p, unit=False, wlo=0.5, whi=2.0):
    """p distinct candidate pairs (may coincide with existing edges)."""
    pairs = set()
    guard = 0
    while len(pairs) < p and guard < 1000 * p:
        guard += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    links = [(i, j, 1.0 if unit else float(rng.uniform(wlo, whi)))
             for (i, j) in sorted(pairs)]
    return sg.CandidateSet.from_triples(links)


def laplacian_of(n, items):
    L = np.zeros((n, n))
    for (i, j), w in items:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def full_recompute_value(m, L):
    """Oracle: measure value by fresh eigendecomposition of an explicit L."""
    vals = np.linalg.eigvalsh(L)
    return sg.spectral_value(m, vals[1:], L.shape[0])


def exact_scores(m, state, rows, cols, ws):
    """Reference exact scores: the measure at each link's downdated inverse
    spectrum, every link (rows, cols, ws) in one stacked call."""
    return sg.companion_value(m, downdated_inverse_spectra(state, rows, cols, ws), state.n)


def kind_suite(state):
    """One representative spec per measure family, tuned to the state."""
    lam2 = float(state.eigvals[1])
    return [
        sg.parse_measure("zeta:q=1"),
        sg.parse_measure("zeta:q=2"),
        sg.parse_measure(f"gamma:gamma={10.0 / lam2}"),
        sg.parse_measure("tau:t=1"),
        sg.parse_measure("hankel"),
        sg.parse_measure("volume"),
        sg.parse_measure("hp:p=3"),
        sg.parse_measure("mq:q=0.5"),
    ]


def differentiable_suite(state):
    return [m for m in kind_suite(state) if m.differentiable]


def pinv_power(state, m):
    """P^m of a state, X X^T with X = V lambda^(-m/2) from its spectrum."""
    X = np.asarray(state.eigvecs)[:, 1:] * np.asarray(state.nonzero_eigvals) ** (-m / 2.0)
    return X @ X.T


def resistance_matrix(M):
    """Pairwise (e_i - e_j)^T M (e_i - e_j): effective resistances when M is P^m."""
    d = np.diag(M)
    return d[:, None] + d[None, :] - 2.0 * M


def resistance(state, edge, m=1):
    """Effective resistance of one link under L^m."""
    i, j = edge
    M = pinv_power(state, m)
    return float(M[i, i] + M[j, j] - 2.0 * M[i, j])


def grown_powers(powers, edge, w):
    """Reference downdate of the pseudo-inverse powers {1: P, 2: P^2, 3: P^3}
    for adding the link `edge` at weight w: (P - c u u^T)^m expanded by the
    number of c u u^T factors, with u = P(e_i - e_j), c = (1/w + r_e)^-1,
    v = P u, x = P v, h0 = u.u and h1 = u.v."""
    P = powers[1]
    i, j = edge
    u = P[:, i] - P[:, j]
    c = 1.0 / (1.0 / w + (P[i, i] + P[j, j] - 2.0 * P[i, j]))
    v, uu = P @ u, np.multiply.outer(u, u)
    x, uv = P @ v, np.multiply.outer(u, v)
    h0, h1 = float(u @ u), float(u @ v)
    return {
        1: P - np.multiply.outer(u * c, u),
        2: powers[2] - c * (uv + uv.T) + c * c * h0 * uu,
        3: (powers[3] - c * (np.multiply.outer(u, x) + np.multiply.outer(x, u)
                             + np.multiply.outer(v, v))
            + c * c * (h0 * (uv + uv.T) + h1 * uu) - c ** 3 * h0 * h0 * uu),
    }

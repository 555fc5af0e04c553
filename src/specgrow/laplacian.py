"""Laplacian spectral state: eigendecomposition, pseudo-inverse powers,
effective resistances, and the rank-one augmentation engine.

A :class:`LaplacianState` is an immutable snapshot of a connected graph
holding only the Laplacian L and the powers of its Moore-Penrose
pseudo-inverse (m = 1, 2, 3). Effective resistances and the graph itself
are read off those on demand. Adding a weighted edge produces a new state
in O(n^2) through a Sherman-Morrison rank-one downdate of the
pseudo-inverse; eigenvalues of the augmented Laplacian are recomputed
lazily only when something actually needs the spectrum.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, NotConnected
from .graphs import Edge, WeightedGraph, add_link, canonical_edge

_PINV_POWERS = (1, 2, 3)


def pair_form(M: np.ndarray, rows, cols):
    """(e_i - e_j)^T M (e_i - e_j) for the pairs (rows, cols), which broadcast.

    On a pseudo-inverse power P^m this is the effective resistance under L^m.
    """
    d = np.diag(M)
    return d[rows] + d[cols] - 2.0 * M[rows, cols]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class LaplacianState:
    """Read-only spectral state of a connected weighted graph.

    Construct with :func:`build_laplacian`; grow with :meth:`with_edge`.
    Stores L and P^1..P^3 only; resistances and :attr:`graph` are derived
    when asked for. Instances never mutate user-visible data and may be
    shared freely across threads (the lazy eigendecomposition is an
    idempotent cache).
    """

    def __init__(self, matrix: np.ndarray, pinv: dict[int, np.ndarray],
                 eigvals=None, eigvecs=None):
        self.matrix = _freeze(matrix)
        self._pinv = {m: _freeze(pinv[m]) for m in _PINV_POWERS}
        self._eigvals = eigvals
        self._eigvecs = eigvecs

    # --- basic shape ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def graph(self) -> WeightedGraph:
        """The graph of L: each link weight is -L[i, j], the exact summed weight."""
        L = self.matrix
        rows, cols = np.nonzero(np.triu(L, 1))
        return WeightedGraph(self.n, dict(zip(zip(rows.tolist(), cols.tolist()),
                                              (-L[rows, cols]).tolist())))

    # --- spectrum (lazy after rank-one updates) ------------------------

    def _decompose(self) -> None:
        vals, vecs = np.linalg.eigh(np.asarray(self.matrix))
        vals[0] = 0.0
        self._eigvals = _freeze(vals)
        self._eigvecs = _freeze(vecs)

    @property
    def eigvals(self) -> np.ndarray:
        """All Laplacian eigenvalues ascending, with eigvals[0] pinned to 0."""
        if self._eigvals is None:
            self._decompose()
        return self._eigvals

    @property
    def eigvecs(self) -> np.ndarray:
        if self._eigvecs is None:
            self._decompose()
        return self._eigvecs

    @property
    def nonzero_eigvals(self) -> np.ndarray:
        """The n-1 strictly positive eigenvalues, ascending."""
        return self.eigvals[1:]

    @property
    def inverse_spectrum(self) -> np.ndarray:
        """Nonzero eigenvalues of the pseudo-inverse, ascending."""
        return 1.0 / self.nonzero_eigvals[::-1]

    # --- pseudo-inverse powers and resistances -------------------------

    def pinv_power(self, m: int = 1) -> np.ndarray:
        """The m-th power of the Moore-Penrose pseudo-inverse, m in {1, 2, 3}."""
        if m not in _PINV_POWERS:
            raise InvalidParameter(f"pseudo-inverse power must be in {_PINV_POWERS}, got {m}")
        return self._pinv[m]

    def resistance_matrix(self, m: int = 1) -> np.ndarray:
        """Matrix of pairwise effective resistances under L^m, computed per call."""
        idx = np.arange(self.n)
        return pair_form(self.pinv_power(m), idx[:, None], idx[None, :])

    def edge_resistance(self, edge: Edge, m: int = 1) -> float:
        i, j = canonical_edge(*edge)
        return float(pair_form(self.pinv_power(m), i, j))

    # --- rank-one growth ------------------------------------------------

    def with_edge(self, edge: Edge, weight: float) -> LaplacianState:
        """State for L + w*L_e, updated in O(n^2) without re-decomposing.

        The pseudo-inverse downdate subtracts the rank-one matrix
        (w^-1 + r_e(L))^-1 (Li - Lj)(Li - Lj)^T where Li, Lj are columns
        of the pseudo-inverse; the higher powers follow from expanding
        (P - c u u^T)^m with matrix-vector products only.
        """
        i, j = canonical_edge(*edge)
        w = float(weight)
        if not (w > 0.0):
            raise InvalidParameter(f"edge weight must be positive, got {weight}")

        P1, P2, P3 = (np.asarray(self._pinv[m]) for m in _PINV_POWERS)
        u = P1[:, i] - P1[:, j]
        r1 = float(pair_form(P1, i, j))
        c = 1.0 / (1.0 / w + r1)

        a = P1 @ u          # = P2 (e_i - e_j)
        b = P1 @ a          # = P3 (e_i - e_j)
        uu = float(u @ u)   # = r_e(L^2)
        ua = float(u @ a)   # = r_e(L^3)

        uuT = np.outer(u, u)
        Q1 = P1 - c * uuT
        Q2 = P2 - c * (np.outer(a, u) + np.outer(u, a)) + (c * c * uu) * uuT
        Q3 = (P3
              - c * (np.outer(b, u) + np.outer(a, a) + np.outer(u, b))
              + c * c * (uu * (np.outer(a, u) + np.outer(u, a)) + ua * uuT)
              - (c ** 3) * uu * uu * uuT)

        L = np.array(self.matrix)
        add_link(L, i, j, w)
        return LaplacianState(L, {1: Q1, 2: Q2, 3: Q3})


def downdated_inverse_spectrum(state: LaplacianState, edge: Edge, weight: float) -> np.ndarray:
    """Nonzero pseudo-inverse eigenvalues, ascending, after adding the edge.

    The weight may be inf: the downdate coefficient (1/w + r_e)^-1 is then
    1/r_e, the infinite-coupling limit.
    """
    i, j = canonical_edge(*edge)
    P1 = np.asarray(state.pinv_power(1))
    u = P1[:, i] - P1[:, j]
    c = 1.0 / (1.0 / float(weight) + float(u[i] - u[j]))
    mus = np.linalg.eigvalsh(P1 - c * np.outer(u, u))
    return np.maximum(mus[1:], 0.0)


def connectivity_tolerance(eigvals: np.ndarray) -> float:
    """Scale-aware zero threshold: n * machine epsilon * largest eigenvalue."""
    n = eigvals.shape[0]
    return n * np.finfo(float).eps * float(eigvals[-1])


def build_laplacian(graph: WeightedGraph) -> LaplacianState:
    """Decompose the graph Laplacian and populate the full spectral state.

    Raises:
        NotConnected: if the second-smallest eigenvalue does not clear the
            scale-aware zero threshold.
    """
    L = graph.laplacian()
    vals, vecs = np.linalg.eigh(L)
    tol = connectivity_tolerance(vals)
    if vals[1] <= tol:
        raise NotConnected(f"algebraic connectivity {vals[1]:.3e} below tolerance {tol:.3e}")
    vals[0] = 0.0

    V = vecs[:, 1:]
    inv = 1.0 / vals[1:]
    pinv = {}
    for m in _PINV_POWERS:
        P = (V * inv ** m) @ V.T
        pinv[m] = (P + P.T) / 2.0
    return LaplacianState(L, pinv, eigvals=_freeze(vals), eigvecs=_freeze(vecs))

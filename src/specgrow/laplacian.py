"""Laplacian spectral state: eigendecomposition, pseudo-inverse powers,
effective resistances, and the rank-one augmentation engine.

A :class:`LaplacianState` is an immutable snapshot of a connected graph
holding the Laplacian L and the powers of its Moore-Penrose pseudo-inverse
(m = 1, 2, 3) read so far, each computed on first read as X X^T with
X = V lambda^(-m/2): one symmetric rank-k product (BLAS syrk), half the
flops of a general one and exactly symmetric.  Adding an edge
carries P^1..P^top, where the caller names top, by an O(n^2)
Sherman-Morrison downdate; any other power of the grown state is computed
from a fresh eigendecomposition when it is read.  :func:`downdate_factors`
writes that downdate once, for this engine and for the closed-form greedy,
which applies it to candidate resistances alone.  Effective resistances,
the graph itself and, after a downdate, the eigendecomposition are computed
lazily, only when something reads them.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned, InvalidParameter, NotConnected
from .graphs import Edge, WeightedGraph, add_link, canonical_edge

_PINV_POWERS = (1, 2, 3)


def pair_form(M: np.ndarray, rows, cols):
    """(e_i - e_j)^T M (e_i - e_j) for the pairs (rows, cols), which broadcast.

    On a pseudo-inverse power P^m this is the effective resistance under L^m.
    """
    d = np.diag(M)
    return d[rows] + d[cols] - 2.0 * M[rows, cols]


def downdate_factors(apply, u: np.ndarray, c: float, top: int):
    """Factors of the rank-one downdate of the pseudo-inverse powers P^1..P^top.

    With u = P(e_i - e_j) and c = (1/w + r_e(L))^-1, adding w L_e downdates P
    to P - c u u^T, and P^m to P^m - sum_{s+t<m} g[m-1-s-t] K_s K_t^T with the
    rows K = [u, Pu, P^2 u][:top]; apply(x) is the product P x.  Returns K and
    the Hankel coefficients g, where g[k] sums the terms with k+1 factors
    c u u^T.
    """
    krylov = [u]
    while len(krylov) < top:
        krylov.append(apply(krylov[-1]))
    h = [float(u @ v) for v in krylov]  # r_e(L^2), r_e(L^3), ...
    g = (c, -c * c * h[0], c * c * (c * h[0] * h[0] - h[1]) if top > 1 else 0.0)
    return np.array(krylov), g[:top]


def hankel_core(g, m: int) -> np.ndarray:
    """The m x m core C_m of the downdate of P^m: C[s, t] = g[m-1-s-t] for
    s + t < m, else 0."""
    return np.array([[g[m - 1 - s - t] if s + t < m else 0.0 for t in range(m)]
                     for s in range(m)])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class LaplacianState:
    """Read-only spectral state of a connected weighted graph.

    Construct with :func:`build_laplacian`; grow with :meth:`with_edge`,
    which carries P^1..P^top.  Stores L and the pseudo-inverse powers read
    so far; resistances and :attr:`graph` are derived when asked for.
    Instances never mutate user-visible data and may be shared freely across
    threads (the lazy eigendecomposition and powers are idempotent caches).
    """

    def __init__(self, matrix: np.ndarray, pinv: dict[int, np.ndarray] | None = None,
                 eigvals=None, eigvecs=None):
        self.matrix = _freeze(matrix)
        self._pinv = {m: _freeze(P) for m, P in (pinv or {}).items()}
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
        """The pseudo-inverse power P^m, m in {1, 2, 3}, computed on first read."""
        if m not in _PINV_POWERS:
            raise InvalidParameter(f"pseudo-inverse power must be in {_PINV_POWERS}, got {m}")
        if m not in self._pinv:
            # X X^T is one BLAS syrk: half the flops of V diag(lambda^-m) V^T
            # as a general product, and exactly symmetric.
            X = self.eigvecs[:, 1:] * self.nonzero_eigvals ** (-m / 2.0)
            self._pinv[m] = _freeze(X @ X.T)
        return self._pinv[m]

    def resistance_matrix(self, m: int = 1) -> np.ndarray:
        """Matrix of pairwise effective resistances under L^m, computed per call."""
        idx = np.arange(self.n)
        return pair_form(self.pinv_power(m), idx[:, None], idx[None, :])

    def edge_resistance(self, edge: Edge, m: int = 1) -> float:
        i, j = canonical_edge(*edge)
        return float(pair_form(self.pinv_power(m), i, j))

    # --- rank-one growth ------------------------------------------------

    def with_edge(self, edge: Edge, weight: float, top: int = 1) -> LaplacianState:
        """State for L + w*L_e carrying P^1..P^top, updated in O(n^2) per power.

        Each power m <= top is read here (computed if this state does not
        hold it) and carried by one correction P^m - K_m^T C_m K_m, from the
        factors of :func:`downdate_factors`.  The new state holds no other power.
        """
        i, j = canonical_edge(*edge)
        w = float(weight)
        if not (w > 0.0):
            raise InvalidParameter(f"edge weight must be positive, got {weight}")
        if top not in _PINV_POWERS:
            raise InvalidParameter(f"top power must be in {_PINV_POWERS}, got {top}")

        P1 = np.asarray(self.pinv_power(1))
        u = P1[:, i] - P1[:, j]
        c = 1.0 / (1.0 / w + float(pair_form(P1, i, j)))
        K, g = downdate_factors(lambda x: P1 @ x, u, c, top)
        pinv = {}
        for m in range(1, top + 1):
            Q = (K[:m].T @ hankel_core(g, m)) @ K[:m]
            pinv[m] = np.subtract(self.pinv_power(m), Q, out=Q)

        L = np.array(self.matrix)
        add_link(L, i, j, w)
        return LaplacianState(L, pinv)


def downdated_inverse_spectra(state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Nonzero pseudo-inverse eigenvalues, ascending, after adding each link
    (rows[b], cols[b], ws[b]) alone: row b, from one stacked eigvalsh of the
    downdates P - c_b u_b u_b^T.

    A weight may be inf: the downdate coefficient (1/w + r_e)^-1 is then
    1/r_e, the infinite-coupling limit.
    """
    P1 = np.asarray(state.pinv_power(1))
    U = (P1[:, rows] - P1[:, cols]).T
    link = np.arange(U.shape[0])
    c = 1.0 / (1.0 / np.asarray(ws, dtype=float) + (U[link, rows] - U[link, cols]))
    S = U[:, :, None] * U[:, None, :]
    S *= c[:, None, None]
    mus = np.linalg.eigvalsh(np.subtract(P1, S, out=S))
    return np.maximum(mus[:, 1:], 0.0)


def connectivity_tolerance(eigvals: np.ndarray) -> float:
    """Scale-aware zero threshold: n * machine epsilon * largest eigenvalue."""
    n = eigvals.shape[0]
    return n * np.finfo(float).eps * float(eigvals[-1])


def _connected(graph: WeightedGraph) -> bool:
    """Whether the links join all nodes: union-find, O(n + E), no n x n array."""
    parent = list(range(graph.n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    merges = 0
    for i, j in graph.edges:
        ri, rj = root(i), root(j)
        merges += ri != rj
        parent[ri] = rj
    return merges == graph.n - 1


def build_laplacian(graph: WeightedGraph) -> LaplacianState:
    """Decompose the graph Laplacian; pseudo-inverse powers wait for a first read.

    Raises:
        NotConnected: if the links leave more than one component (checked
            before any n x n allocation, and by link count alone before the
            union-find's n-entry list); its subclass IllConditioned if
            they join every node but the second-smallest eigenvalue does
            not clear the scale-aware zero threshold.
        GraphFormatError: above MAX_NODES nodes, before any n x n allocation.
    """
    if len(graph.edges) < graph.n - 1 or not _connected(graph):
        raise NotConnected(f"{len(graph.edges)} links leave the {graph.n} nodes disconnected")
    L = graph.laplacian()
    vals, vecs = np.linalg.eigh(L)
    tol = connectivity_tolerance(vals)
    if vals[1] <= tol:
        raise IllConditioned(f"connected, but algebraic connectivity {vals[1]:.3e} "
                             f"is below the zero tolerance {tol:.3e}")
    vals[0] = 0.0
    return LaplacianState(L, eigvals=_freeze(vals), eigvecs=_freeze(vecs))

"""Laplacian spectral state: eigendecomposition, pseudo-inverse and the
rank-one augmentation engine.

A :class:`LaplacianState` is an immutable snapshot of a connected graph
holding the Laplacian L and, once read, its Moore-Penrose pseudo-inverse P,
formed as X X^T with X = V lambda^(-1/2): one symmetric rank-k product
(BLAS syrk), half the flops of a general one and exactly symmetric.  Adding
a link of weight w carries P by one O(n^2) Sherman-Morrison downdate,
P - c u u^T.  The graph itself and, after a downdate, the eigendecomposition
are computed lazily, only when something reads them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IllConditioned, InvalidParameter, NotConnected
from .graphs import Edge, WeightedGraph, add_link, node_pair


def pair_form(M: np.ndarray, rows, cols):
    """(e_i - e_j)^T M (e_i - e_j) for the pairs (rows, cols), which broadcast.

    On the pseudo-inverse P this is the effective resistance.
    """
    d = np.diag(M)
    return d[rows] + d[cols] - 2.0 * M[rows, cols]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class LaplacianState:
    """Read-only spectral state of a connected weighted graph.

    Construct with :func:`build_laplacian`; grow with :meth:`with_edge`,
    which carries P.  Stores L and, once read, P; :attr:`graph` is derived
    when asked for.  Instances never mutate user-visible data and may be
    shared freely across threads (the lazy eigendecomposition and P are
    idempotent caches).
    """

    def __init__(self, matrix: np.ndarray, pinv: np.ndarray | None = None,
                 eigvals=None, eigvecs=None):
        self.matrix = _freeze(matrix)
        self._pinv = None if pinv is None else _freeze(pinv)
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

    # --- pseudo-inverse --------------------------------------------------

    @property
    def pinv(self) -> np.ndarray:
        """The pseudo-inverse P, read-only, formed on first read."""
        if self._pinv is None:
            # X X^T is one BLAS syrk: half the flops of V diag(1/lambda) V^T
            # as a general product, and exactly symmetric.
            X = self.eigvecs[:, 1:] * self.nonzero_eigvals ** -0.5
            self._pinv = _freeze(X @ X.T)
        return self._pinv

    # --- rank-one growth ------------------------------------------------

    def with_edge(self, edge: Edge, weight: float) -> LaplacianState:
        """State for L + w L_e carrying P by the Sherman-Morrison downdate
        P - c u u^T, u = P (e_i - e_j), c = (1/w + r_e)^-1: O(n^2).

        Raises GraphFormatError for a node id outside [0, n), and
        InvalidParameter unless 0 < w < inf.
        """
        i, j = node_pair(*edge, self.n)
        w = float(weight)
        if not (0.0 < w < math.inf):
            raise InvalidParameter(f"edge weight must be positive and finite, got {weight}")
        P = np.asarray(self.pinv)
        u = P[:, i] - P[:, j]
        c = 1.0 / (1.0 / w + float(pair_form(P, i, j)))
        Q = np.multiply.outer(u * c, u)
        L = np.array(self.matrix)
        add_link(L, i, j, w)
        return LaplacianState(L, np.subtract(P, Q, out=Q))


def downdated_inverse_spectra(state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Nonzero pseudo-inverse eigenvalues, ascending, after adding each link
    (rows[b], cols[b], ws[b]) alone: row b, from one stacked eigvalsh of the
    downdates P - c_b u_b u_b^T.

    A weight may be inf: the downdate coefficient (1/w + r_e)^-1 is then
    1/r_e, the infinite-coupling limit.
    """
    P = np.asarray(state.pinv)
    U = (P[:, rows] - P[:, cols]).T
    link = np.arange(U.shape[0])
    c = 1.0 / (1.0 / np.asarray(ws, dtype=float) + (U[link, rows] - U[link, cols]))
    S = U[:, :, None] * U[:, None, :]
    S *= c[:, None, None]
    mus = np.linalg.eigvalsh(np.subtract(P, S, out=S))
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
    """Decompose the graph Laplacian; the pseudo-inverse waits for a first read.

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

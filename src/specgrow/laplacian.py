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

from .errors import GraphFormatError, IllConditioned, InvalidParameter, NotConnected
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

    Construct with :func:`build_laplacian`; grow with :meth:`with_edge`.
    Instances never mutate user-visible data and may be shared freely across
    threads (the lazy eigendecomposition and P are idempotent caches).
    """

    def __init__(self, matrix: np.ndarray, pinv: np.ndarray | None = None):
        self.matrix = _freeze(matrix)
        self._pinv = None if pinv is None else _freeze(pinv)
        self._eigvals = self._eigvecs = None

    def __setstate__(self, state: dict) -> None:
        """A pickled or deep-copied state's arrays (every attribute is one, or
        None) arrive writable: freeze them."""
        vars(self).update({k: a if a is None else _freeze(a) for k, a in state.items()})

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
        """Raises IllConditioned unless lambda_2 clears the scale-aware zero
        threshold n eps lambda_n, for a built or a grown state alike."""
        vals, vecs = np.linalg.eigh(np.asarray(self.matrix))
        tol = self.n * np.finfo(float).eps * float(vals[-1])
        if vals[1] <= tol:
            raise IllConditioned(f"connected, but algebraic connectivity {vals[1]:.3e} "
                                 f"is below the zero tolerance {tol:.3e}")
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

    # --- pseudo-inverse --------------------------------------------------

    @property
    def pinv(self) -> np.ndarray:
        """The pseudo-inverse P, read-only, formed on first read."""
        if self._pinv is None:
            X = self.eigvecs[:, 1:] * self.nonzero_eigvals ** -0.5
            self._pinv = _freeze(X @ X.T)
        return self._pinv

    # --- rank-one growth ------------------------------------------------

    def with_edge(self, edge: Edge, weight: float) -> LaplacianState:
        """State for L + w L_e carrying P by one O(n^2) downdate
        (:func:`downdated_pinvs`).

        Raises GraphFormatError for a node id outside [0, n), and
        InvalidParameter unless w > 0 and twice each endpoint's weighted
        degree after the link is finite (see build_laplacian).
        """
        i, j = node_pair(*edge, self.n)
        w = float(weight)
        degree = float(max(self.matrix[i, i], self.matrix[j, j])) + w  # after the link
        if not (0.0 < w and 2.0 * degree < math.inf):
            raise InvalidParameter(f"edge weight {weight} is not positive, or overflows "
                                   f"twice the weighted degree of node {i} or {j}")
        L = np.array(self.matrix)
        add_link(L, i, j, w)
        return LaplacianState(L, downdated_pinvs(self, [i], [j], [w])[0])


def downdated_pinvs(state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Stack of the state's pseudo-inverse after adding each link
    (rows[b], cols[b], ws[b]) alone: the Sherman-Morrison downdates
    P - c_b u_b u_b^T, u_b = P (e_i - e_j), c_b = (1/w_b + r_b)^-1 with r_b
    the link's resistance; w_b = inf gives the infinite-coupling limit.

    with_edge carries row 0 and the exact scores read its spectrum, so a
    score is the measure of the pseudo-inverse a pick's grown state holds.
    """
    P = np.asarray(state.pinv)
    U = (P[:, rows] - P[:, cols]).T
    c = 1.0 / (1.0 / np.asarray(ws, dtype=float) + pair_form(P, rows, cols))
    S = (U * c[:, None])[:, :, None] * U[:, None, :]
    return np.subtract(P, S, out=S)


def downdated_inverse_spectra(state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Nonzero pseudo-inverse eigenvalues, ascending, after adding each link
    alone: row b, from one stacked eigvalsh of :func:`downdated_pinvs`."""
    mus = np.linalg.eigvalsh(downdated_pinvs(state, rows, cols, ws))
    return np.maximum(mus[:, 1:], 0.0)


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
            they join every node but lambda_2 is below the zero threshold
            (see LaplacianState._decompose).
        GraphFormatError: above MAX_NODES nodes, or when twice the largest
            weighted degree, which bounds every eigenvalue (Gershgorin), is
            not finite; both before any n x n allocation.
    """
    if len(graph.edges) < graph.n - 1 or not _connected(graph):
        raise NotConnected(f"{len(graph.edges)} links leave the {graph.n} nodes disconnected")
    if not 4.0 * sum(graph.edges.values()) < math.inf:  # else no degree is near overflow
        degrees = np.bincount(np.ravel(list(graph.edges)), np.repeat(list(graph.edges.values()), 2))
        if not 2.0 * float(degrees.max()) < math.inf:
            raise GraphFormatError(f"twice the weighted degree of node {int(degrees.argmax())} "
                                   "overflows a float")
    state = LaplacianState(graph.laplacian())
    state.eigvals  # decomposed now, so that an ill-conditioned graph is refused here
    return state

"""Laplacian spectral state: eigendecomposition, pseudo-inverse and the
rank-one augmentation engine.

A :class:`LaplacianState` is an immutable snapshot of a connected graph
holding the Laplacian L and, once read, its eigenpairs and its
Moore-Penrose pseudo-inverse P, formed as X X^T with X = V lambda^(-1/2):
one symmetric rank-k product (BLAS syrk), half the flops of a general one
and exactly symmetric.  Adding a link of weight w forms L + w L_e and
nothing else: the grown state takes its eigenpairs on first read from its
parent's by one rank-one update, the roots of a secular equation and one
GEMM (:func:`rank_one_eigh`), with no eigh.  It carries P by one O(n^2)
Sherman-Morrison downdate, P - c u u^T, only where the parent holds P, and
otherwise forms P, like the graph, only when something reads it.
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


# Iterations after which secular_roots stops a root its test has not passed:
# a bisection step at least halves the bracket, so far fewer suffice.
MAX_SECULAR_STEPS = 64


def secular_roots(d: np.ndarray, Z2: np.ndarray, ws, lower: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the secular equations 1/w + sum_k z_k^2/(d_k - x) = 0, one a
    row b of Z2 = z^2 (or one z^2 for every row) and ws = w > 0, over the
    ascending poles d: the root in (d_l, d_l+1), l = lower[b], or in
    (d_l, d_l + w |z|^2) when d_l is the last pole.  These are the
    eigenvalues of diag(d) + w z z^T (Golub 1973; Bunch, Nielsen and
    Sorensen 1978).

    Returns (origin, tau): the root is d[origin] + tau, kept as an offset
    from its nearer pole (the last pole, for the last root) so that every
    d_k - x is formed as (d_k - d_origin) - tau, to full relative accuracy.
    The midpoint of the bracket decides the nearer pole, and a root of the
    model with the two poles a < a + 1 next to the root (the last two, for
    the last root) gives the first guess.  Each step is the middle way (Li
    1994, as in LAPACK's dlaed4): the sum is modelled as C + s_a/(d_a - x) +
    s_{a+1}/(d_{a+1} - x), matching it and the derivatives of its two parts,
    the poles up to a and the rest, and the step goes to the model's root.
    A step that leaves the bracket, which each evaluation narrows by the sign
    of the sum, bisects it.  A root stops once the secular function lies
    within eps times a bound on its rounding error, a backward-error test,
    or its bracket within 2 eps of the root, and takes that evaluation's
    step if it stays in the bracket: the test's bound is loose by up to 8
    times, and where the function is flat (the last root) a few ulps of x.
    A row takes the same steps in any batch.
    """
    B, K = lower.size, d.size
    ws = np.broadcast_to(np.asarray(ws, dtype=float), (B,))
    if K == 1:  # a single pole: the root is exact
        return np.zeros(B, dtype=int), ws * Z2[:, 0]
    rows, last = np.arange(B), lower == K - 1
    a = np.where(last, K - 2, lower)
    b = a + 1
    Zb = np.broadcast_to(Z2, (B, K))
    za, zb, gap = Zb[rows, a], Zb[rows, b], d[b] - d[a]
    span = np.where(last, ws * np.sum(Zb, axis=1), gap)  # the bracket above d[lower]
    half = 0.5 * span
    work = np.empty((3, B, K))
    delta = np.subtract(d, d[lower, None], out=work[1])
    delta -= half[:, None]
    W = 1.0 / ws + np.sum(np.divide(Z2, delta, out=work[2]), axis=1)
    above = W <= 0.0  # the root lies above the midpoint
    origin = np.where(last | above, b, a)
    lo = np.where(last, np.where(above, half, 0.0), np.where(above, -half, 0.0))
    hi = np.where(last, np.where(above, span, half), np.where(above, 0.0, half))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The two-pole model C + z_a^2/(d_a - x) + z_b^2/(d_b - x), C the rest
        # of the sum at the midpoint, in the offset from the origin.
        C = W - za / delta[rows, a] - zb / delta[rows, b]
        A = np.where(origin == a, C * gap + za + zb, za + zb - C * gap)
        Bq = np.where(origin == a, za, -zb) * gap
        s = np.sqrt(np.abs(A * A - 4.0 * Bq * C))
        small = np.where(A > 0.0, 2.0 * Bq / (A + s), (A - s) / (2.0 * C))  # nearer 0
        large = np.where(A >= 0.0, (A + s) / (2.0 * C), 2.0 * Bq / (A - s))
        x = np.where(last, large, small)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    tau, eps = np.empty(B), np.finfo(float).eps
    # The rows left, compacted as they stop, the per-row z^2 among them
    # unless one serves every row, and each row's d_k - d_origin.
    inv_w, dorg = 1.0 / ws, d[origin]
    poles = np.subtract(d, dorg[:, None], out=work[0])
    for _ in range(MAX_SECULAR_STEPS):
        r = np.arange(rows.size)
        delta = np.subtract(poles, x[:, None], out=work[1, :r.size])
        t = np.divide(Z2, delta, out=work[2, :r.size])
        # Each row's sums over the poles up to a and over the rest, one pass.
        split = np.ravel(np.column_stack([r * K, r * K + a + 1]))
        psi, phi = np.add.reduceat(t.ravel(), split).reshape(-1, 2).T
        W, t_b = inv_w + psi + phi, t[r, b]
        t /= delta
        dpsi, dphi = np.add.reduceat(t.ravel(), split).reshape(-1, 2).T
        dw = dpsi + dphi
        # sum_k |z_k^2/(d_k - x)|: the poles up to the root give the negative
        # terms, the last root's pole b among them.
        err = 8.0 * (phi - psi - 2.0 * np.where(last, t_b, 0.0)) + 2.0 * inv_w + np.abs(x) * dw
        lo, hi = np.where(W < 0.0, np.maximum(lo, x), lo), np.where(W > 0.0, np.minimum(hi, x), hi)
        done = (np.abs(W) <= eps * err) | (hi - lo <= 2.0 * eps * np.abs(dorg + x))
        da, db = delta[r, a], delta[r, b]
        with np.errstate(divide="ignore", invalid="ignore"):
            C = W - da * dpsi - db * dphi
            A = (da + db) * W - da * db * dw
            Bq = da * db * W
            s = np.sqrt(np.abs(A * A - 4.0 * Bq * C))
            inner = np.where(A <= 0.0, (A - s) / (2.0 * C), 2.0 * Bq / (A + s))
            C = np.abs(C)
            outer = np.where(A >= 0.0, (A + s) / (2.0 * C), 2.0 * Bq / (A - s))
            eta = np.where(last, outer, inner)
            eta = np.where(W * eta < 0.0, eta, -W / dw)  # else a Newton step
        step = x + eta
        inside = (lo < step) & (step < hi)
        x = np.where(inside, step, np.where(done, x, 0.5 * (lo + hi)))
        tau[rows[done]] = x[done]
        if done.all():
            break
        if done.any():
            keep = ~done
            rows, x, lo, hi, a, b, last = (v[keep] for v in (rows, x, lo, hi, a, b, last))
            inv_w, dorg, poles = inv_w[keep], dorg[keep], poles[keep]
            if len(Z2) > 1:
                Z2 = Z2[keep]
    else:
        tau[rows] = x
    return origin, tau


def rank_one_eigh(vals: np.ndarray, vecs: np.ndarray, i: int, j: int, w: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors of L + w L_e, L_e the link
    {i, j}, from those of L: the stable rank-one update of Gu and Eisenstat
    (1994), as LAPACK's dlaed2/dlaed3 make it.

    In L's eigenbasis the link adds w z z^T, z = V^T (e_i - e_j).  A pole
    d_k = lambda_k whose w |z| |z_k| lies within tol = 8 eps max(lambda_n,
    w |z|^2) keeps its eigenpair: the null vector's, z_0 = 0 (L_e 1 = 0),
    wherever the computed one is constant to that tolerance.  Of two poles
    whose Givens rotation would leave an off-diagonal within tol (equal or
    near-equal lambda: rings, K_n), one keeps a rotated eigenpair and the
    other takes both weights.  The remaining K poles give K roots
    (:func:`secular_roots`); Loewner's z^ is recomputed from them, so that
    the eigenvectors z^_k / (d_k - x) of the roots x stay orthogonal to
    working accuracy.  The rotations and those vectors go into one n x n
    matrix, applied to V by one GEMM; the columns are then sorted by their
    eigenvalues where a root passed a deflated pole.
    """
    n, d = vals.size, np.array(vals)
    z = vecs[i] - vecs[j]
    norm = math.sqrt(float(z @ z))
    tol = 8.0 * np.finfo(float).eps * max(float(d[-1]), w * norm * norm)
    kept = np.flatnonzero(w * norm * np.abs(z) > tol)
    dk, zk = d[kept], z[kept]
    rotations = []
    with np.errstate(invalid="ignore"):
        near = np.diff(dk) * np.abs(zk[:-1] * zk[1:]) / (zk[:-1] ** 2 + zk[1:] ** 2) <= tol
    if near.any():  # deflate as dlaed2 does, in order: a rotation changes the next test
        dl, zl, pj, kept_list = d.tolist(), z.tolist(), int(kept[0]), []
        for nj in kept[1:].tolist():
            tau = math.hypot(zl[pj], zl[nj])
            c, s = zl[nj] / tau, -zl[pj] / tau
            if abs((dl[nj] - dl[pj]) * c * s) <= tol:
                zl[pj], zl[nj] = 0.0, tau
                dl[pj], dl[nj] = dl[pj] * c * c + dl[nj] * s * s, dl[pj] * s * s + dl[nj] * c * c
                rotations.append((pj, nj, c, s))
            else:
                kept_list.append(pj)
            pj = nj
        kept = np.array(kept_list + [pj])
        d, z = np.array(dl), np.array(zl)
        dk, zk = d[kept], z[kept]
    origin, tau = secular_roots(dk, np.square(zk)[None], w, np.arange(kept.size))
    U = np.subtract(dk[:, None], dk[origin])
    U -= tau  # U[k, r] = d_k - x_r
    D = dk[:, None] - dk
    np.fill_diagonal(D, -1.0)
    zhat = np.copysign(np.sqrt(np.prod(np.divide(U, D, out=D), axis=1) / w), zk)
    np.divide(zhat[:, None], U, out=U)  # column r: the eigenvector of root r
    U /= np.sqrt(np.einsum("kr,kr->r", U, U))
    d[kept] = dk[origin] + tau
    # Column k of X: the new eigenvector of d[k], the deflated ones e_k.
    X = np.zeros((n, n))
    X.flat[::n + 1] = 1.0
    X[np.ix_(kept, kept)] = U
    for pj, nj, c, s in reversed(rotations):
        X[[pj, nj]] = c * X[pj] - s * X[nj], s * X[pj] + c * X[nj]
    V = vecs @ X
    if (np.diff(d) < 0.0).any():  # a root passed a deflated pole
        order = np.argsort(d, kind="stable")
        d, V = d[order], V[:, order]
    return d, V


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
        self._update = None  # (vals, vecs, i, j, w): the parent's eigenpairs and the link

    def __setstate__(self, state: dict) -> None:
        """A pickled or deep-copied state's arrays arrive writable: freeze
        them (the parent's eigenpairs that a pending update holds are never
        written)."""
        vars(self).update({k: _freeze(a) if isinstance(a, np.ndarray) else a
                           for k, a in state.items()})

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
        """Eigenpairs by the rank-one update of the parent's (:func:`rank_one_eigh`)
        where :meth:`with_edge` left one pending, else by eigh.  Raises
        IllConditioned unless lambda_2 clears the scale-aware zero threshold
        n eps lambda_n, for a built or a grown state alike."""
        update = self._update
        if update is not None:
            vals, vecs = rank_one_eigh(*update)
        elif self._eigvecs is not None:  # a racing thread finished the update
            return
        else:
            vals, vecs = np.linalg.eigh(np.asarray(self.matrix))
        tol = self.n * np.finfo(float).eps * float(vals[-1])
        if vals[1] <= tol:
            raise IllConditioned(f"connected, but algebraic connectivity {vals[1]:.3e} "
                                 f"is below the zero tolerance {tol:.3e}")
        vals[0] = 0.0
        self._eigvals, self._eigvecs, self._update = _freeze(vals), _freeze(vecs), None

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
        """State for L + w L_e.  It forms L + w L_e, and P where this state
        holds one, by one O(n^2) downdate (:func:`downdated_pinvs`); nothing
        else.

        Where this state holds its eigenpairs, the grown one keeps references
        to them, not copies, takes its own from them on first read by one
        rank-one update (:func:`rank_one_eigh`), and then drops the
        references; elsewhere it decomposes by eigh, as a built state does.
        A grown state without P forms it on first read from its own
        eigenpairs.

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
        grown = LaplacianState(L, None if self._pinv is None else
                               downdated_pinvs(self, [i], [j], [w])[0])
        if self._eigvecs is not None:
            grown._update = (self._eigvals, self._eigvecs, i, j, w)
        return grown


def downdated_pinvs(state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Stack of the state's pseudo-inverse after adding each link
    (rows[b], cols[b], ws[b]) alone: the Sherman-Morrison downdates
    P - c_b u_b u_b^T, u_b = P (e_i - e_j), c_b = (1/w_b + r_b)^-1 with r_b
    the link's resistance; w_b = inf gives the infinite-coupling limit.

    with_edge carries row 0 where the state holds P, and a small state's
    exact scores read its spectrum, so there a score is the measure of the
    pseudo-inverse a pick's grown state holds.
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

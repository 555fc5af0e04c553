"""Solvers for growing a network by k new weighted links.

Three algorithms minimize a performance measure over size-k subsets of a
candidate link set:

* :func:`brute_force` - exhaustive search over all subsets, a stack of grown
  Laplacians per eigvalsh (the reference answer on small instances).
* :func:`greedy` - picks the single best link k times.  For the zeta:q=1,
  zeta:q=2, volume and mq:q=1 measures each candidate is scored in O(1) from
  its weight and effective resistances, which greedy carries across picks
  by rank-one updates of the p resistances alone (no grown state, no power
  of the pseudo-inverse beyond the root's P); every other measure is scored
  from the spectra of the rank-one-downdated pseudo-inverses, a stack per
  eigvalsh, only where a per-step lower bound cannot rule the candidate
  out; a bound is tightened only while it is the lowest one pending (see
  :func:`greedy`).
* :func:`linearized` - one gradient of the measure, then the k candidates
  with the largest first-order improvement, their values read as greedy
  reads them (carried resistances for the closed forms).

Every closed-form score starts from effective resistances under P, P^2
and P^3 read off the state's spectrum by one function
(:func:`_spectral_resistances`), for a candidate set and for
:func:`closed_form_delta` alike; no power of P beyond P itself is formed.

All tie-breaking is deterministic and follows one rule: the pick is the
lex-smallest candidate within 1e-12 relative of the minimum score
(relative to max(1, |minimum|)).  Greedy and linearized apply it pick by
pick, to the scores or first-order changes of the candidates left; brute
force applies it to the subsets.  `tie_breaks` counts the other candidates
(greedy, summed over steps), subsets (brute force) or unpicked candidates
at the k-th pick (linearized) in that band.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (CombinatorialBlowup, GraphFormatError, InvalidParameter,
                     UnsupportedMeasure)
from .graphs import Edge, load_json, node_pair, read_links
from .laplacian import LaplacianState, downdated_inverse_spectra, pair_form
from .measures import MeasureSpec, companion_value, evaluate, gradient, spectral_value

TIE_REL = 1e-12
# Greedy stops scoring once the next lower bound lies above the best score's
# tie band by SLACK too (relative, like TIE_REL).  The bounds read the state's
# eigendecomposition and the scores a downdated pseudo-inverse; the two routes
# round apart by an amount that grows with cond(L) and n.  The widest gap seen
# was 5.5e-7 of the value, for mq:q=1 with links of weight 1e8 at n = 80-160,
# before that measure moved to a closed form (which greedy does not prune).
SLACK = 1e-6
# Greedy's bounds after the diagonal one: pinchings that couple the 32, 64,
# then 128 eigen-directions a link moves most (see _pinched_bounds).  A batch
# of the lowest pending links is tightened together, up to CHUNK * BLOCKS[0]
# coupled directions in all: CHUNK links at the first level, fewer deeper.
# On graphs of at most BLOCKS[0] + 1 nodes greedy skips the pinchings, each
# as costly as an exact score, and scores up to CHUNK links per stacked call.
# Over seeds 0-39, a grow-spectral-n300 solve (n = 300, p = 1,000, k = 2)
# computes them for 40-91, 8-24 and 2-9 links (0.03, 0.09 and 0.35 ms a
# link, against 2 ms for an exact score), then scores 2-4 links.  The 64
# level spares most 128-block bounds, and batches that mix levels need fewer
# calls, each of which costs about one 32-block bound in overhead; both make
# a solve's time depend less on how many links its bounds reach.
BLOCKS = (32, 64, 128)
CHUNK = 16
# Links bounded, or given their root resistances, in one pass: their (ROWS, n)
# temporaries stay near 300 KB each at n = 300, where all 1,000 candidates at
# once raised peak memory by 10 MiB.
ROWS = 128
# Entries of one stack of n x n matrices, links scored or subsets valued by
# one eigvalsh: 256 KB, so n > 128 stacks one matrix at a time.
STACK = 32_768


@dataclass(frozen=True)
class CandidateSet:
    """Distinct candidate links with fixed positive weights, kept edge-sorted.

    Besides its link arrays, a set keeps, per state it is solved on, every
    link's root resistances under P^1..P^3 (:meth:`_root_resistances`): the
    closed-form solves on one state read them once, and the entry goes
    when the state does.
    """

    links: tuple[tuple[Edge, float], ...]

    def __post_init__(self):
        links = read_links((i, j, w) for (i, j), w in self.links)
        if not links:
            raise GraphFormatError("candidate set is empty")
        object.__setattr__(self, "links", tuple(sorted(links.items())))

    @property
    def p(self) -> int:
        return len(self.links)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The links as read-only arrays of first nodes, second nodes and
        weights, built at the first read and shared by every solve after it."""
        arrays = _link_arrays(self.links)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @cached_property
    def _memo(self) -> weakref.WeakKeyDictionary:
        """Root resistances by state (see _root_resistances), each entry
        dropped when its state is."""
        return weakref.WeakKeyDictionary()

    def __getstate__(self):  # the memo's weak references do not pickle
        return {key: v for key, v in self.__dict__.items() if key != "_memo"}

    def _root_resistances(self, state: LaplacianState) -> np.ndarray:
        """Read-only (3, p) array: every link's resistances under the state's
        P^1..P^3 (:func:`_spectral_resistances`).  Built once per state, all
        rows at once, and shared by every closed-form solve on that state;
        threads that race to build it store equal arrays."""
        R = self._memo.get(state)
        if R is None:
            R = _spectral_resistances(state, *self.arrays[:2])
            R.setflags(write=False)
            self._memo[state] = R
        return R

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, float]]) -> CandidateSet:
        # Left lazy, so that a malformed triple surfaces inside read_links.
        return cls(((i, j), w) for i, j, w in triples)

    @classmethod
    def from_json_obj(cls, obj) -> CandidateSet:
        return cls.from_triples(load_json(obj, "links")["links"])

    @classmethod
    def parse(cls, text: str) -> CandidateSet:
        return cls.from_json_obj(load_json(text))

    @classmethod
    def complete(cls, n: int, weight: float = 1.0) -> CandidateSet:
        """All n(n-1)/2 node pairs at one common weight."""
        return cls(tuple(((i, j), weight) for i in range(n) for j in range(i + 1, n)))

    def validate_for(self, n: int) -> None:
        """Raise unless every link fits n nodes; construction checked the rest."""
        bad = np.flatnonzero(self.arrays[1] >= n)
        if bad.size:
            (i, j), _ = self.links[bad[0]]
            raise GraphFormatError(f"candidate edge ({i}, {j}) outside node range [0, {n})")

    def to_json_obj(self) -> dict:
        return {"links": [[i, j, w] for (i, j), w in self.links]}


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one growth run: ordered picks and the value trajectory."""

    algorithm: str
    chosen: tuple[tuple[Edge, float], ...]
    values: tuple[float, ...]          # length k+1, values[0] is the starting value
    elapsed: tuple[float, ...]         # seconds per step
    tie_breaks: int
    seed: int | None = None

    @property
    def final_value(self) -> float:
        return self.values[-1]

    def to_json_obj(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "chosen": [[i, j, w] for (i, j), w in self.chosen],
            "values": list(self.values),
            "elapsed": list(self.elapsed),
            "tie_breaks": self.tie_breaks,
            "seed": self.seed,
        }


# --- scoring helpers ---------------------------------------------------------


class _ClosedForm(NamedTuple):
    power: int | None    # the statistic is tr P^power; None carries the value itself
    top: int             # the highest power P^top whose resistances the drop reads
    drop: Callable       # (w, c, r) -> decrease of the statistic
    transform: Callable  # statistic -> measure value


# Measures whose post-addition value follows in O(1) from the weight w of the
# link and its effective resistances r[q] under P^q, q = 1..top, with
# c = (1/w + r[1])^-1.  Greedy carries only these p resistances across picks
# (see _Resistances), never a grown state; top = 0 reads none.
_CLOSED_FORMS = {
    MeasureSpec("zeta", 1.0): _ClosedForm(1, 2, lambda w, c, r: c * r[2], lambda s: s),
    MeasureSpec("zeta", 2.0): _ClosedForm(
        2, 3, lambda w, c, r: 2.0 * c * r[3] - (c * r[2]) ** 2,
        lambda s: np.sqrt(np.maximum(s, 0.0))),
    MeasureSpec("volume"): _ClosedForm(None, 1, lambda w, c, r: np.log1p(r[1] * w),
                                       lambda s: s),
    # mq:q=1 is -tr L, which a link of weight w lowers by exactly 2w.
    MeasureSpec("mq", 1.0): _ClosedForm(None, 0, lambda w, c, r: 2.0 * w, lambda s: s),
}


def _spectral_resistances(state: LaplacianState, rows, cols) -> np.ndarray:
    """(3, len(rows)) array: row q - 1 holds the effective resistance of each
    link (rows, cols) under the state's P^q, q = 1..3, read off its spectrum
    as r_q = sum_k z_k^2 lambda_k^-q with z = V^T (e_i - e_j), so no power of
    P is formed.  ROWS links at a time."""
    # Row q - 1 weighs eigenvector k by lambda_k^-q, and the null vector by 0.
    W = np.zeros((3, state.n))
    W[:, 1:] = state.nonzero_eigvals ** -np.arange(1.0, 4.0)[:, None]
    R = np.empty((3, len(rows)))
    for start in range(0, len(rows), ROWS):
        part = slice(start, start + ROWS)
        Z = state.eigvecs.take(rows[part], axis=0)
        Z -= state.eigvecs.take(cols[part], axis=0)
        R[:, part] = W @ np.square(Z, out=Z).T
    return R


def _drop(form: _ClosedForm, ws, R):
    """Decrease of the form's statistic for links at weights ws whose
    resistance under P^q is R[q - 1]."""
    r = dict(enumerate(R[:form.top], 1))
    return form.drop(ws, 1.0 / (1.0 / ws + r[1]) if form.top else None, r)


def closed_form_delta(m: MeasureSpec, state: LaplacianState, edge: Edge, weight: float) -> float:
    """Exact decrease from adding one weighted link, via resistances only.

    Supported: zeta:q=1, volume, mq:q=1 (whose decrease is 2 w), and
    zeta:q=2 (for which the returned decrease is on the squared scale, tr of
    the squared pseudo-inverse).
    A weight of inf gives the infinite-coupling limit.  The resistances are
    read off the state's spectrum, as closed-form greedy reads them.

    Raises:
        GraphFormatError: for a node id outside [0, n).
        InvalidParameter: unless the weight is > 0.
    """
    form = _CLOSED_FORMS.get(m)
    if form is None:
        raise UnsupportedMeasure(f"no resistance closed form for {m.label}")
    i, j = node_pair(*edge, state.n)
    w = float(weight)
    if not (w > 0.0):
        raise InvalidParameter(f"link weight must be positive, got {weight}")
    R = _spectral_resistances(state, [i], [j])[:, 0] if form.top else ()
    return float(_drop(form, w, R))


def _link_arrays(links: Iterable[tuple[Edge, float]]) -> tuple[np.ndarray, ...]:
    """The links as arrays of first nodes, second nodes and weights."""
    rows = np.fromiter((e[0] for e, _ in links), dtype=int)
    cols = np.fromiter((e[1] for e, _ in links), dtype=int)
    ws = np.fromiter((w for _, w in links), dtype=float)
    return rows, cols, ws


def _spectral_scores(m: MeasureSpec, state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Post-addition measure value of each link (rows, cols, ws), added alone,
    from the downdated inverse spectra: one stacked eigvalsh and one
    companion_value per STACK entries.  A link's score does not depend on
    the links stacked with it."""
    size, scores = max(1, STACK // state.n ** 2), np.empty(len(rows))
    for start in range(0, len(rows), size):
        part = slice(start, start + size)
        spectra = downdated_inverse_spectra(state, rows[part], cols[part], ws[part])
        scores[part] = companion_value(m, spectra, state.n)
    return scores


def _first_order(m: MeasureSpec, state: LaplacianState, links: tuple[np.ndarray, ...],
                 idx: np.ndarray) -> np.ndarray:
    """First-order change w <G, L_e> of the measure for each link idx, G its gradient."""
    rows, cols, ws = (a[idx] for a in links)
    return ws * pair_form(gradient(m, state), rows, cols)


def _cut(best: float) -> float:
    """The highest lower bound that cannot rule a candidate out: the best
    score's tie band plus SLACK."""
    return best + (TIE_REL + SLACK) * max(1.0, abs(best))


def _pinched_bounds(m: MeasureSpec, state: LaplacianState, links: tuple[np.ndarray, ...],
                    idx: np.ndarray, block: int) -> np.ndarray:
    """A lower bound on the post-addition value of each link idx.

    In the eigenbasis of L, adding w L_e adds w z z^T with z = V^T (e_i - e_j).
    The bound is the measure at the spectrum of a pinching of Lambda + w z z^T:
    the `block` directions with the largest z_k^2 kept as one block, every
    other direction k as the 1x1 block lambda_k + w z_k^2 (block = 0 is the
    diagonal).  The true spectrum majorizes a pinching's (Schur-Horn, and Ky
    Fan for blocks), and every measure is a convex symmetric function of the
    spectrum, so the bound holds; the more the block couples, the tighter it
    is.  An infinite bound (gamma below its threshold on the bound's
    spectrum) is returned as -inf: it rules nothing out.
    """
    if idx.size > ROWS:
        return np.concatenate([_pinched_bounds(m, state, links, idx[start:start + ROWS], block)
                               for start in range(0, idx.size, ROWS)])
    rows, cols, ws = (a[idx] for a in links)
    lams = state.nonzero_eigvals
    Z = state.eigvecs[rows, 1:] - state.eigvecs[cols, 1:]
    Z2 = Z * Z
    spectra = lams + ws[:, None] * Z2
    block = min(block, lams.size)
    if block and idx.size:
        sel = np.argpartition(-Z2, block - 1, axis=1)[:, :block]
        lam_s = np.sort(lams[sel], axis=1)
        zs = np.take_along_axis(Z, sel, axis=1)
        A = ws[:, None, None] * zs[:, :, None] * zs[:, None, :]
        A[:, np.arange(block), np.arange(block)] += lams[sel]
        # Raise the computed eigenvalues by eigvalsh's error bound, capped by
        # interlacing (nu_k <= lambda_k+1, nu_block <= lambda_block + w |z_S|^2),
        # so that no eigenvalue sits below the true one.
        top = lam_s[:, -1] + ws * np.sum(zs * zs, axis=1)
        cap = np.concatenate([lam_s[:, 1:], top[:, None]], axis=1)
        err = (block * np.finfo(float).eps) * top
        nus = np.minimum(np.linalg.eigvalsh(A) + err[:, None], cap)
        np.put_along_axis(spectra, sel, nus, axis=1)
    bounds = spectral_value(m, spectra, state.n)
    return np.where(bounds < math.inf, bounds, -math.inf)


def _pruned_scores(m: MeasureSpec, state: LaplacianState, links: tuple[np.ndarray, ...],
                   idx: np.ndarray) -> np.ndarray:
    """Exact scores of the links idx that the lower bounds cannot rule out;
    the rest read inf.

    A best-first walk over a heap of (bound, position, level) entries.
    Level 0 is the diagonal bound of every link; level l in 1..len(BLOCKS)
    is the BLOCKS[l - 1] pinching, up to the first block of every direction.
    While the lowest pending bound is within the best score's cut, either
    that entry is at the deepest level and its link is scored exactly, or
    it and the entries after it, lowest first while they are within the cut
    and short of the deepest level, get their next bound, one call per
    level, until the batch would couple more than CHUNK * BLOCKS[0]
    directions.  A link is scored only while its bound is the lowest pending
    and could still tie the best score, and a bound is tightened only while
    it is within the cut; the cut only falls, so the walk ends with every
    link left unscored above it.  When BLOCKS[0] >= n - 1 the diagonal is
    the deepest level and up to CHUNK of the lowest pending links within
    the cut are scored per stacked call; otherwise one link per call.
    """
    scores = np.full(idx.size, math.inf)
    best = math.inf
    deepest = next((level for level, block in enumerate(BLOCKS, 1) if block >= state.n - 1),
                   len(BLOCKS))
    # A first-level pinching would couple every direction, at an exact score's cost.
    deepest, per_call = (0, CHUNK) if deepest == 1 else (deepest, 1)
    if idx.size > CHUNK:
        diagonal = _pinched_bounds(m, state, links, idx, 0)
    else:  # one batch, which the diagonal bound would neither order nor filter
        diagonal = np.full(idx.size, -math.inf)
    heap = [(bound, pos, 0) for pos, bound in enumerate(diagonal.tolist())]
    heapq.heapify(heap)
    while heap and heap[0][0] <= _cut(best):
        if heap[0][2] == deepest:
            cut, picked = _cut(best), []
            while (heap and heap[0][2] == deepest and heap[0][0] <= cut
                   and len(picked) < per_call):
                picked.append(heapq.heappop(heap)[1])
            scores[picked] = _spectral_scores(m, state, *(a[idx[picked]] for a in links))
            best = min(best, float(scores[picked].min()))
            continue
        batches: dict[int, list[int]] = {}
        coupled = 0
        while (heap and heap[0][2] < deepest and heap[0][0] <= _cut(best)
               and (not batches or coupled + BLOCKS[heap[0][2]] <= CHUNK * BLOCKS[0])):
            _, pos, level = heapq.heappop(heap)
            batches.setdefault(level, []).append(pos)
            coupled += BLOCKS[level]
        for level, batch in batches.items():
            bounds = _pinched_bounds(m, state, links, idx[batch], BLOCKS[level])
            for bound, pos in zip(bounds.tolist(), batch):
                heapq.heappush(heap, (bound, pos, level + 1))
    return scores


def _downdate_factors(apply, u: np.ndarray, c: float, top: int):
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


def _hankel_core(g, m: int) -> np.ndarray:
    """The m x m core C_m of the downdate of P^m: C[s, t] = g[m-1-s-t] for
    s + t < m, else 0."""
    return np.array([[g[m - 1 - s - t] if s + t < m else 0.0 for t in range(m)]
                     for s in range(m)])


class _Resistances:
    """Closed-form scores, carried across picks without a grown state.

    For the graph grown so far, with pseudo-inverse P, row q - 1 of R holds
    every candidate's resistance under P^q, q = 1..top, and `stat` the form's
    statistic.  At the root both come from the spectrum: R copies the top
    rows of the candidate set's shared root resistances
    (:meth:`CandidateSet._root_resistances`), and tr P^q = sum_k lambda_k^-q,
    so no power of P is formed.  A pick downdates
    P^q by sum_{s+t<q} g[q-1-s-t] K_s K_t^T (:func:`_downdate_factors`), which
    lowers every r_q by sum_{s+t<q} g[q-1-s-t] y_s y_t, y_s = K_s[rows] -
    K_s[cols], and tr P^q by the same sum over the diagonal: O(p top^2)
    elementwise work after the top - 1 products with P that build K.  A
    product with P is P0 x - U^T (c * U x), with P0 the root's
    pseudo-inverse and the rows of U, c the u vectors and coefficients of
    the picks so far; once U holds ceil(n/2) rows such a product costs what
    a dense one does, so the chain is folded into P0 by one syrk,
    P0 - Y Y^T with Y = U^T sqrt(c).
    """

    def __init__(self, form: _ClosedForm, state: LaplacianState,
                 candidates: CandidateSet, value: float):
        self.form, self.root = form, state
        self.rows, self.cols, self.ws = candidates.arrays
        lams = state.nonzero_eigvals
        self.stat = value if form.power is None else float(np.sum(lams ** -float(form.power)))
        self.R = (np.array(candidates._root_resistances(state)[:form.top]) if form.top
                  else np.empty((0, candidates.p)))
        self.P = None  # P0, read at the first pick

    def scores(self, idx=slice(None)) -> np.ndarray:
        """Post-addition measure value of each candidate idx (all by default)."""
        return self.form.transform(self.stat - _drop(self.form, self.ws[idx], self.R[:, idx]))

    def _product(self, x: np.ndarray) -> np.ndarray:
        out = self.P @ x
        if self.picks:
            U = self.U[:self.picks]
            out -= (self.c[:self.picks] * (U @ x)) @ U
        return out

    def add(self, link: int, value: float) -> None:
        """Add candidate `link`, whose score was `value`."""
        i, j, w = int(self.rows[link]), int(self.cols[link]), float(self.ws[link])
        top, power = self.form.top, self.form.power
        if power is None:  # the statistic is the value itself
            self.stat = value
        if not top:
            return
        if self.P is None:
            n = self.root.n
            self.P = np.asarray(self.root.pinv)
            self.U, self.c, self.picks = np.empty(((n + 1) // 2, n)), np.empty((n + 1) // 2), 0
        u = self.P[i] - self.P[j]  # P is symmetric; its rows are contiguous
        if self.picks:
            U = self.U[:self.picks]
            u -= (self.c[:self.picks] * (U[:, i] - U[:, j])) @ U
        coef = 1.0 / (1.0 / w + self.R[0, link])
        K, g = _downdate_factors(self._product, u, coef, top)
        if power is not None:  # tr K_s K_t^T = K_s . K_t
            self.stat -= float(np.sum(_hankel_core(g, power) * (K[:power] @ K[:power].T)))
        # Picked candidates are updated too, and nothing reads them again.
        self.R -= _hankel_drops(g, K.take(self.rows, axis=1) - K.take(self.cols, axis=1))
        self.U[self.picks], self.c[self.picks] = u, coef
        self.picks += 1
        if self.picks == self.U.shape[0]:
            Y = self.U.T * np.sqrt(self.c)
            self.P = self.P - Y @ Y.T
            self.picks = 0


def _hankel_drops(g, Y: np.ndarray) -> np.ndarray:
    """Row q - 1 holds sum_{s+t<q} g[q-1-s-t] Y_s Y_t, q = 1..len(Y), elementwise.

    That sum is the x^(q-1) coefficient of G(x) Y(x)^2, with G and Y the
    polynomials whose coefficients are g and the rows of Y: the square's
    coefficients A_k = sum_{s+t=k} Y_s Y_t, each pair s < t once and
    doubled, then times the lower-triangular Toeplitz matrix of g, which is
    the Hankel core C_top with its rows reversed.
    """
    top = len(Y)
    twice = 2.0 * Y
    A = np.empty_like(Y)
    for k in range(top):
        a = Y[k // 2] * Y[k // 2] if k % 2 == 0 else 0.0
        for s in range((k + 1) // 2):
            a = a + twice[s] * Y[k - s]
        A[k] = a
    return _hankel_core(g, top)[::-1] @ A


def _argmin_lex(scores) -> tuple[int, int]:
    """Lex-smallest index within TIE_REL of the minimum, and how many other
    indices share that band.  An infinite minimum ties only with itself."""
    s = np.asarray(scores, dtype=float)
    best = float(s.min())
    limit = best + TIE_REL * max(1.0, abs(best)) if math.isfinite(best) else best
    band = s <= limit
    return int(np.argmax(band)), int(np.count_nonzero(band)) - 1


def _check_instance(state: LaplacianState, candidates: CandidateSet, k: int) -> None:
    candidates.validate_for(state.n)
    if not 0 <= k <= candidates.p:
        raise InvalidParameter(f"k must lie in [0, {candidates.p}], got {k}")


# --- algorithms ---------------------------------------------------------------


def greedy(state: LaplacianState, candidates: CandidateSet, k: int,
           m: MeasureSpec) -> SynthesisResult:
    """Add the best single link k times.

    Closed-form measures grow no state: each candidate's resistances under
    P^1..P^top are read off the root's spectrum, once per state and candidate
    set for all closed-form solves (:meth:`CandidateSet._root_resistances`),
    and, between picks, lowered elementwise by the pair form of the pick's
    rank-one downdate (:class:`_Resistances`), so a pick costs top - 1
    products of P with a vector plus O(p top^2) elementwise work.  The
    root's P is formed at the first pick that needs it, by one syrk
    (:attr:`LaplacianState.pinv`), and kept by the state.  Each step
    scores all p candidates and gives the picked ones an infinite score; a
    closed-form minimum is finite, so the tie rule sees exactly the
    candidates left.
    Every other measure updates the state rank-one between picks only: k - 1
    updates in all.  Set-up time is attributed to the first step of `elapsed`.

    Measures without a closed form are scored exactly only where a lower
    bound on the post-addition value does not rule the candidate out.  In
    the eigenbasis of L, adding w L_e adds w z z^T, z = V^T (e_i - e_j); the
    spectrum of a pinching of Lambda + w z z^T is majorized by the true one,
    and every measure is convex and symmetric in the spectrum, so its value
    there is a lower bound (:func:`_pinched_bounds`).  Each step computes the
    diagonal pinching, lambda_k + w z_k^2, for every candidate; tighter
    pinchings keep the BLOCKS directions with the largest z_k^2 coupled.
    The step walks best-first (:func:`_pruned_scores`): while the lowest
    pending bound is at most best + (TIE_REL + SLACK) max(1, |best|), its
    candidate is scored if that bound is the tightest, and otherwise it and
    the next lowest, at any level short of the tightest, get their next
    bound in one batch of at most CHUNK * BLOCKS[0] coupled directions;
    SLACK covers the rounding between the bounds and the scores.  Every
    unscored candidate then lies outside the tie band, so the tie rule, the
    picks, the values and `tie_breaks` are those of scoring every candidate.
    The bounds read the spectrum: one eigendecomposition per grown state.
    Exact scores, also the full scan's, come a stack of links per eigvalsh
    (:func:`_spectral_scores`).  On graphs of at most BLOCKS[0] + 1 nodes the
    walk computes no pinching, so no grown state is decomposed.
    """
    _check_instance(state, candidates, k)
    t0 = perf_counter()
    links = candidates.arrays
    form = _CLOSED_FORMS.get(m)
    values = [evaluate(m, state)]
    carried = None if form is None else _Resistances(form, state, candidates, values[0])
    remaining = np.arange(candidates.p)  # unpicked links, for the pruned scores
    picked: list[int] = []
    chosen: list[tuple[Edge, float]] = []
    elapsed: list[float] = []
    tie_breaks = 0

    for step in range(k):
        if carried is None:
            scores = _pruned_scores(m, state, links, remaining)
            pick, ties = _argmin_lex(scores)
            link, remaining = int(remaining[pick]), np.delete(remaining, pick)
        else:  # closed-form minima are finite, so an inf score is never picked
            scores = carried.scores()
            scores[picked] = math.inf
            pick, ties = _argmin_lex(scores)
            link = pick
        tie_breaks += ties
        picked.append(link)
        chosen.append(candidates.links[link])
        if step + 1 < k:
            if carried is None:
                state = state.with_edge(*chosen[-1])
            else:
                carried.add(link, float(scores[pick]))
        values.append(float(scores[pick]))
        elapsed.append(perf_counter() - t0)
        t0 = perf_counter()

    return SynthesisResult("greedy", tuple(chosen), tuple(values), tuple(elapsed), tie_breaks)


def _grown_values(m: MeasureSpec, state: LaplacianState, rows, cols, ws) -> np.ndarray:
    """Measure value after adding the links (rows[b, t], cols[b, t], ws[b, t]),
    t = 0, 1, ..., to L, for each row b, by one stacked eigvalsh.  Each link
    makes add_link's four additions, in link order, through one unbuffered
    flat np.add.at, so a row's value does not depend on the rows stacked
    with it; a zero weight adds nothing."""
    n = state.n
    L = np.repeat(np.asarray(state.matrix)[None], len(rows), axis=0)
    # Flat offsets of (i, i), (j, j), (i, j) and (j, i) in row b's matrix.
    at = np.stack([rows * (n + 1), cols * (n + 1), rows * n + cols, cols * n + rows], axis=-1)
    at += (np.arange(len(rows)) * n * n)[:, None, None]
    np.add.at(L.reshape(-1), at.ravel(), np.stack([ws, ws, -ws, -ws], axis=-1).ravel())
    return spectral_value(m, np.linalg.eigvalsh(L)[:, 1:], n)


def brute_force(state: LaplacianState, candidates: CandidateSet, k: int,
                m: MeasureSpec, cap: int = 2_000_000) -> SynthesisResult:
    """Global minimizer over all (p choose k) subsets by full recomputation.

    The subsets stream in lex order, each stack of STACK entries valued by
    one eigvalsh of its grown Laplacians; the best subset's prefixes take
    one more.  All time is attributed to the first step of `elapsed`.
    """
    _check_instance(state, candidates, k)
    n_subsets = math.comb(candidates.p, k)
    if n_subsets > cap:
        raise CombinatorialBlowup(f"{n_subsets} subsets exceed the cap of {cap}")

    t0 = perf_counter()
    links = candidates.arrays
    size, scores = max(1, STACK // state.n ** 2), np.empty(n_subsets)
    subsets = combinations(range(candidates.p), k)
    for start in range(0, n_subsets, size):
        chunk = list(islice(subsets, size))
        S = np.array(chunk, dtype=int).reshape(len(chunk), k)
        scores[start:start + len(S)] = _grown_values(m, state, *(a[S] for a in links))
    pick, ties = _argmin_lex(scores)
    best = list(next(islice(combinations(range(candidates.p), k), pick, None)))
    # Row t of the prefix stack adds the best subset's first t + 1 links
    # (k x k, also for k = 0).
    S = np.array([best] * k, dtype=int).reshape(k, k)
    rows, cols, ws = (a[S] for a in links)
    prefixes = _grown_values(m, state, rows, cols, np.where(np.tri(k, dtype=bool), ws, 0.0))
    values = [evaluate(m, state), *prefixes.tolist()]
    elapsed = ([perf_counter() - t0] + [0.0] * (k - 1))[:k]

    chosen = tuple(candidates.links[i] for i in best)
    return SynthesisResult("brute", chosen, tuple(values), tuple(elapsed), ties)


def linearized(state: LaplacianState, candidates: CandidateSet, k: int,
               m: MeasureSpec) -> SynthesisResult:
    """One-shot selection of the k largest first-order improvements.

    The first-order change of the measure from link e = {i, j} with weight w
    is w (grad_ii + grad_jj - 2 grad_ij) <= 0.  The gradient is computed once;
    each pick is then the lex-first change within the tie band of the
    lowest one left, as greedy picks.  The closed forms value each pick
    from carried resistances, as greedy does (:class:`_Resistances`); other
    measures grow the state k - 1 times.
    Gradient, selection and set-up time are attributed to the first step of
    `elapsed`.
    """
    _check_instance(state, candidates, k)
    t0 = perf_counter()
    links = candidates.arrays
    changes = _first_order(m, state, links, np.arange(candidates.p))
    # Greedy's tie rule, pick by pick, on the first-order changes left.
    order, remaining, tie_breaks = np.empty(k, dtype=int), np.arange(candidates.p), 0
    for step in range(k):
        pick, tie_breaks = _argmin_lex(changes[remaining])
        order[step], remaining = remaining[pick], np.delete(remaining, pick)
    values = [evaluate(m, state)]
    form = _CLOSED_FORMS.get(m)
    carried = None if form is None else _Resistances(form, state, candidates, values[0])
    select_time = perf_counter() - t0

    elapsed = []
    for step in range(k):
        t1 = perf_counter()
        pick = order[step:step + 1]
        if carried is None:
            values.append(float(_spectral_scores(m, state, *(a[pick] for a in links))[0]))
        else:
            values.append(float(carried.scores(pick)[0]))
        if step + 1 < k:
            if carried is None:
                state = state.with_edge(*candidates.links[order[step]])
            else:
                carried.add(order[step], values[-1])
        elapsed.append(perf_counter() - t1 + (select_time if step == 0 else 0.0))

    chosen = tuple(candidates.links[idx] for idx in order[:k])
    return SynthesisResult("linear", chosen, tuple(values), tuple(elapsed), tie_breaks)

"""Solvers for growing a network by k new weighted links.

Three algorithms minimize a performance measure over size-k subsets of a
candidate link set:

* :func:`brute_force` - exhaustive search over all subsets, a stack of grown
  Laplacians per eigvalsh (the reference answer on small instances).  A
  search that fits one stack keeps its spectra with the candidate set
  (:class:`CandidateSet`), so a later one on that state and any k up to
  it, for any measure, calls no LAPACK routine.
* :func:`greedy` - picks the single best link k times.  The zeta:q=1,
  zeta:q=2, volume and mq:q=1 measures score each candidate in O(1) from
  resistances carried across picks in the root's eigenbasis, forming no
  pseudo-inverse (:class:`_Resistances`); every other measure scores
  exactly only the candidates that its diagonal bound cannot rule out
  (:class:`_Exact`), reading the state's eigenbasis: a contour integral
  for the sums of f over the spectrum, the secular equation's root for
  lambda_2 (:func:`_exact_scores`).  A small state scores every link, on
  its downdated pseudo-inverse spectrum.
* :func:`linearized` - one gradient of the measure, then the k candidates
  with the largest first-order improvement, valued by greedy's scorer.

All tie-breaking is deterministic and follows one rule: the pick is the
lex-smallest candidate within 1e-12 relative of the minimum score
(relative to max(1, |minimum|)).  Greedy and linearized apply it pick by
pick, to the scores or first-order changes of the candidates left; brute
force applies it to the subsets.  `tie_breaks` counts the other candidates
(greedy, summed over steps), subsets (brute force) or unpicked candidates
at the k-th pick (linearized) in that band.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, islice
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (CombinatorialBlowup, GraphFormatError, InvalidParameter,
                     UnsupportedMeasure)
from .graphs import Edge, load_json, node_pair, read_links
from .laplacian import LaplacianState, downdated_inverse_spectra, pair_form, secular_roots
from .measures import (MeasureSpec, companion_value, evaluate, from_lambda2, from_sum,
                       gradient, spectral_value, summand)

TIE_REL = 1e-12
# Greedy stops scoring once the next lower bound lies above the best score's
# tie band by SLACK too (relative, like TIE_REL).  The bounds read the state's
# eigendecomposition, as the scores do, except the links that the quadrature
# leaves to a downdated pseudo-inverse, and the routes round apart by an
# amount that grows with cond(L) and n.  Over n = 34-160, with links of weight
# 1 and 1e8 and beside a 1e8 link, no bound passed an eigenbasis score by more
# than 1.7e-16 of the value (mq:q=0); the downdated route errs by up to 1e-7
# (mq:q=0.5, links of weight 1e8).
SLACK = 1e-6
# Greedy scores the links its bound cannot rule out in ascending bound order,
# CHUNK at first and then, per batch, as many as it has scored so far (at
# most ROWS): a step that needs a few exact scores computes few, and one
# that needs hundreds (hankel) makes few calls.
CHUNK = 16
# Links bounded, or given their root resistances, in one pass: their (ROWS, n)
# temporaries stay near 300 KB each at n = 300, where all 1,000 candidates at
# once raised peak memory by 10 MiB.
ROWS = 128
# Entries of one stack of n x n matrices, the subsets that brute force values
# by one eigvalsh: 256 KB, so n > 128 stacks one matrix at a time.
STACK = 32_768


@dataclass
class _StateRecord:
    """One state's entry in a candidate set's memo (:class:`CandidateSet`),
    each field filled at its first read: `singles` and `grown` only on a
    small state.  The record holds its grown states strongly and nothing
    holds its own state, so grown states, and their own records, go with
    their root.
    """

    resistances: np.ndarray | None = None                            # (3, p)
    spectra: tuple[np.ndarray, ...] = ()                             # by subset size
    singles: dict[int, np.ndarray] = field(default_factory=dict)     # (n - 1,) by link
    grown: dict[int, LaplacianState] = field(default_factory=dict)   # by picked link


@dataclass(frozen=True)
class CandidateSet:
    """Distinct candidate links with fixed positive weights, kept edge-sorted.

    Its memo keeps one record per state, dropped with the state: the links'
    root resistances (:meth:`_root_resistances`); for the largest k whose
    subsets of sizes 0..k fit in one stack (sum_t C(p, t) <= STACK // n^2),
    the spectra of all those subsets (:meth:`_subset_spectra`); and, on a
    small state, each link's single-link inverse spectrum
    (:meth:`_single_spectra`) and the state grown by each link picked from
    it (:meth:`_grown`).  A state is small where one stacked call scores all
    p links (:meth:`_keeps_steps`: p <= CHUNK on at most 33 nodes, or
    p = 1), so a greedy step there computes no bound.  Solves on a small
    path visited before, for any measure, by greedy or linearized, call no
    LAPACK routine and grow no state.
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
        """A :class:`_StateRecord` by state.  Its arrays are read-only and
        built at the first read; threads that race to build one store equal
        arrays."""
        return weakref.WeakKeyDictionary()

    def __getstate__(self):
        """Only the links: the memo's weak references do not pickle, and the
        arrays are rebuilt read-only at the first read."""
        return {"links": self.links}

    def _record(self, state: LaplacianState) -> _StateRecord:
        return self._memo.get(state) or self._memo.setdefault(state, _StateRecord())

    def _root_resistances(self, state: LaplacianState) -> np.ndarray:
        """Read-only (3, p) array: every link's resistances under the state's
        P^1..P^3 (:func:`_spectral_resistances`).  Built once per state, all
        rows at once, and shared by every closed-form solve on that state."""
        record = self._record(state)
        if record.resistances is None:
            R = _spectral_resistances(state, *self.arrays[:2])
            R.setflags(write=False)
            record.resistances = R
        return record.resistances

    def _subset_spectra(self, state: LaplacianState, k: int) -> tuple[np.ndarray, ...]:
        """Entry t, t = 0..k: the read-only (C(p, t), n) eigvalsh spectra of
        the state grown by each size-t subset, in lex order
        (:func:`_grown_spectra`), shared by every brute-force search on the
        state.  One entry per state, for the largest k searched, serves every
        smaller k: a size-t row's padding links add at weight zero, so its
        bits do not depend on k.  A larger k stacks only the sizes missing."""
        record = self._record(state)
        kept = record.spectra
        if len(kept) <= k:
            sizes = range(len(kept), k + 1)
            counts = [math.comb(self.p, t) for t in sizes]
            S = np.array([s + (0,) * (k - len(s)) for t in sizes
                          for s in combinations(range(self.p), t)], dtype=int)
            S = S.reshape(sum(counts), k)
            spectra = _grown_spectra(state, self.arrays, S, np.repeat(sizes, counts))
            spectra.setflags(write=False)
            kept += tuple(np.split(spectra, np.cumsum(counts)[:-1]))
            record.spectra = kept
        return kept[:k + 1]

    def _keeps_steps(self, state: LaplacianState) -> bool:
        """Whether the state is small: one link, or at most CHUNK links on at
        most 33 nodes.  Greedy scores all of a small state's links in one
        stacked call, with no bound, and its record keeps single-link spectra
        and grown states."""
        return self.p == 1 or (self.p <= CHUNK and state.n <= 33)

    def _single_spectra(self, state: LaplacianState, idx: np.ndarray) -> np.ndarray:
        """(idx.size, n - 1) array: row b is the state's nonzero inverse
        spectrum after adding link idx[b] alone
        (:func:`downdated_inverse_spectra`), on a small state: each link's
        row is computed once and kept read-only, the rows missing by one
        stacked call (a row does not depend on the rows stacked with it)."""
        rows, links = self._record(state).singles, idx.tolist()
        missing = [link for link in links if link not in rows]
        if missing:
            spectra = downdated_inverse_spectra(state, *(a[missing] for a in self.arrays))
            spectra.setflags(write=False)
            rows.update(zip(missing, spectra))
        return np.array([rows[link] for link in links])

    def _grown(self, state: LaplacianState, link: int) -> LaplacianState:
        """The state grown by link (with_edge): on a small state kept in its
        record, built once; elsewhere built afresh."""
        if not self._keeps_steps(state):
            return state.with_edge(*self.links[link])
        grown = self._record(state).grown
        if link not in grown:
            grown.setdefault(link, state.with_edge(*self.links[link]))
        return grown[link]

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
# c = (1/w + r[1])^-1, which is formed only for top >= 2 (volume reads r[1]
# alone).  Greedy carries only these p resistances across picks (see
# _Resistances), never a grown state; top = 0 reads none.
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
    return form.drop(ws, 1.0 / (1.0 / ws + r[1]) if form.top > 1 else None, r)


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


def _cut(best: float) -> float:
    """The highest lower bound that cannot rule a candidate out: the best
    score's tie band plus SLACK."""
    return best + (TIE_REL + SLACK) * max(1.0, abs(best))


def _diagonal_bounds(m: MeasureSpec, state: LaplacianState, links: tuple[np.ndarray, ...],
                     idx: np.ndarray) -> np.ndarray:
    """A lower bound on the post-addition value of each link idx, ROWS links
    a pass.

    In the eigenbasis of L, adding w L_e adds w z z^T with z = V^T (e_i - e_j).
    The bound is the measure at the diagonal lambda_k + w z_k^2 of Lambda +
    w z z^T, which the true spectrum majorizes (Schur-Horn); every measure
    is a convex symmetric function of the spectrum, so the bound holds.  An
    infinite bound (gamma below its threshold on the diagonal) is returned
    as -inf: it rules nothing out.
    """
    if idx.size > ROWS:
        return np.concatenate([_diagonal_bounds(m, state, links, idx[start:start + ROWS])
                               for start in range(0, idx.size, ROWS)])
    rows, cols, ws = (a[idx] for a in links)
    Z = state.eigvecs[rows, 1:] - state.eigvecs[cols, 1:]
    bounds = spectral_value(m, state.nonzero_eigvals + ws[:, None] * (Z * Z), state.n)
    return np.where(bounds < math.inf, bounds, -math.inf)


def _secular_lambda2(lams: np.ndarray, Z2: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """lambda_2 of Lambda + w z z^T for each row of Z2 = z^2 and ws = w, with
    Lambda = diag(lams): the state's lambda_2 after adding each link.

    It is the secular equation's root above lambda_2 (:func:`secular_roots`),
    which lies below min(lambda_3, lambda_2 + w z_2^2).  That interval is
    empty, to 2 eps lambda_2, where z_2 = 0 or lambda_3 = lambda_2, and
    lambda_2 stays.
    """
    lam2 = np.full(ws.size, lams[0])
    live = np.flatnonzero(np.minimum(lams[1] - lams[0], ws * Z2[:, 0])
                          > 2.0 * np.finfo(float).eps * lams[0])
    origin, tau = secular_roots(lams, Z2[live], ws[live], np.zeros(live.size, dtype=int))
    lam2[live] = lams[origin] + tau
    return lam2


def _contour_nodes(m: MeasureSpec, lams: np.ndarray, wmax: float) -> tuple:
    """The quadrature of :func:`_contour_scores` for the spectrum lams and
    links of weight at most wmax: (RR, weights, the sum of f over lams), or
    () where the rule finds no room; they do not depend on the links.

    A link changes the sum by (1/2 pi i) times the closed integral of
    f g'/g, g(zeta) = 1 + w sum_k z_k^2 / (lambda_k - zeta) the secular
    function, whose zeros are the grown spectrum (the argument principle),
    around every spectrum that one link of weight at most wmax can grow from
    lams: [lambda_2, lambda_n + 2 wmax] (|z|^2 = 2).  The contour is an
    ellipse in u = log(zeta) with its foci at that interval's ends,
    u = c + d cos(theta - i eta/2) (Trefethen and Weideman 2014), and eta is
    that of the confocal ellipse through the nearest singularity of f(e^u):
    the line Re zeta = 0, |Im u| = pi/2, or gamma's branch point 1/gamma.
    The rule's error falls as exp(-N eta/2) with N nodes, and N is the even
    count at which that reaches TIE_REL; past 1,024 nodes (gamma with
    gamma lambda_2 below about 1.003) the rule gives way.  g and g' at the nodes
    are one product of z^2 with [R, R^2], R[k, j] = 1/(lambda_k - zeta_j),
    read as real pairs, for the nodes theta = pi j / N,
    j = 0..N, of the rule of 2N nodes that lie on or above the real axis
    (those below give conjugate terms); the N-node rule is every other one.
    """
    lo, hi = math.log(lams[0]), math.log(lams[-1] + 2.0 * wmax)
    c, d = 0.5 * (lo + hi), 0.5 * (hi - lo)
    eta = math.asinh(0.5 * math.pi / d)
    if m.kind == "gamma":  # the branch point 1/gamma must lie left of lambda_2
        ratio = (c + math.log(m.param)) / d
        eta = min(eta, math.acosh(ratio)) if ratio > 1.0 else 0.0
    if -math.log(TIE_REL) > 512.0 * eta:
        return ()
    N = 2 * math.ceil(-math.log(TIE_REL) / eta)
    theta = np.pi * np.arange(N + 1) / N - 0.5j * eta
    zeta = np.exp(c + d * np.cos(theta))
    R = 1.0 / (lams[:, None] - zeta)
    weights = summand(m, zeta) * zeta * d * np.sin(theta) / (-2j * N)  # f zeta u' / (2N i)
    weights[1:-1] *= 2.0
    return np.hstack([R, R * R]).view(float), weights, np.sum(summand(m, lams))


def _contour_scores(m: MeasureSpec, nodes: tuple, Z2: np.ndarray, ws: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """The measure, a sum of its summand f over the spectrum, after adding
    each link (z^2, w) = (Z2, ws) row, and whether the trapezoid rule of
    :func:`_contour_nodes` resolved it; no link is resolved where the rule
    finds no room.  A link is resolved where the rules of N and 2N nodes
    differ by at most sqrt(eps) of the sum: the 2N rule squares the N
    rule's error, so it is then at rounding level.
    """
    if not nodes:
        return np.zeros(ws.size), np.zeros(ws.size, dtype=bool)
    RR, weights, base = nodes
    N = weights.size - 1
    # sum_k z_k^2 R[k] and sum_k z_k^2 R[k]^2 at every node, one product a row
    S = (Z2[:, None, :] @ RR)[:, 0].view(complex)
    terms = (ws[:, None] * S[:, N + 1:] / (1.0 + ws[:, None] * S[:, :N + 1]) * weights).real
    fine, coarse = np.sum(terms, axis=1), 2.0 * np.sum(terms[:, ::2], axis=1)
    total = base + fine
    return from_sum(m, total, n), np.abs(coarse - fine) <= np.finfo(float).eps ** 0.5 * abs(total)


def _exact_scores(m: MeasureSpec, state: LaplacianState, candidates: CandidateSet,
                  idx: np.ndarray, memo: dict) -> np.ndarray:
    """Post-addition value of each candidate link idx; a link's score does
    not depend on the links scored with it.

    On a small state it is the measure at the link's downdated inverse
    spectrum (:meth:`CandidateSet._single_spectra`).  Elsewhere it is read
    off the state's eigenbasis (lambda, V) and z^2 = (V_i - V_j)^2: the
    max-eigenvalue measures read lambda_2 (:func:`_secular_lambda2`), as
    gamma does below its threshold to tell the links that leave it infinite,
    and the sums take :func:`_contour_scores`.  A link that these leave
    unresolved is scored on its downdated inverse spectrum
    (:func:`downdated_inverse_spectra`), as is every link where the
    eigendecomposition, whose eigenvalues are good to about eps lambda_n,
    may not resolve lambda_2 to TIE_REL (eps lambda_n > TIE_REL lambda_2):
    beside a link far heavier than the rest, or on a path of more than about
    100 nodes.  `memo` keeps the state's contour quadrature
    (:func:`_contour_nodes`) once a call has built it: pass one dict to every
    call on the same state and candidate set.
    """
    if candidates._keeps_steps(state):
        return companion_value(m, candidates._single_spectra(state, idx), state.n)
    (rows, cols, ws), lams = (a[idx] for a in candidates.arrays), state.nonzero_eigvals
    Z2 = np.square(state.eigvecs[rows, 1:] - state.eigvecs[cols, 1:])
    if np.finfo(float).eps * lams[-1] > TIE_REL * lams[0]:
        scores, exact = np.zeros(idx.size), np.zeros(idx.size, dtype=bool)
    elif not m.differentiable:
        return from_lambda2(m, _secular_lambda2(lams, Z2, ws))
    elif m.kind == "gamma" and m.param * lams[0] < 1.0:
        scores, exact = np.full(idx.size, math.inf), m.param * _secular_lambda2(lams, Z2, ws) < 1.0
    else:
        if "nodes" not in memo:
            memo["nodes"] = _contour_nodes(m, lams, float(candidates.arrays[2].max()))
        scores, exact = _contour_scores(m, memo["nodes"], Z2, ws, state.n)
    if not exact.all():
        rest = np.flatnonzero(~exact)
        scores[rest] = companion_value(
            m, downdated_inverse_spectra(state, rows[rest], cols[rest], ws[rest]), state.n)
    return scores


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
    (:meth:`CandidateSet._root_resistances`), and tr P^q = sum_k lambda_k^-q.
    Adding w L_e downdates P to P - c u u^T, u = P (e_i - e_j), c = (1/w +
    r_1)^-1, and P^q by sum_{s+t<q} g[q-1-s-t] K_s K_t^T, with the vectors
    K = [u, Pu, P^2 u][:top] and g[k] the sum of the terms with k+1 factors
    c u u^T.  That lowers every r_q by sum_{s+t<q} g[q-1-s-t] y_s y_t,
    y_s = K_s[rows] - K_s[cols], and tr P^q by the same sum over the
    diagonal: O(p top^2) elementwise work.

    The pseudo-inverse is never formed.  K is built in the coordinates of
    the root's eigenvectors V[:, 1:], in which the root's P is the diagonal
    1/lambda and e_i - e_j is V[i, 1:] - V[j, 1:]: a product with P is one
    with that diagonal (with a dense matrix after a fold) minus E^T (c * E x),
    with E, c the u vectors (in these coordinates) and coefficients of the
    picks so far.  tr K_s K_t^T is read in these coordinates too, and one
    product with V[:, 1:] per pick maps K to the nodes for y.  Once E holds
    ceil((n - 1)/2) rows a product with the chain costs what a dense one
    does, so the chain is folded by one syrk into the dense matrix
    D - Y Y^T, D the matrix before it and Y = E^T sqrt(c).
    """

    def __init__(self, form: _ClosedForm, state: LaplacianState,
                 candidates: CandidateSet, value: float):
        self.form, self.root = form, state
        self.rows, self.cols, self.ws = candidates.arrays
        lams = state.nonzero_eigvals
        self.stat = value if form.power is None else float(np.sum(lams ** -float(form.power)))
        self.R = (np.array(candidates._root_resistances(state)[:form.top]) if form.top
                  else np.empty((0, candidates.p)))
        self.P = None  # the root's P in its eigenbasis, set at the first pick

    def scores(self, idx: np.ndarray) -> np.ndarray:
        """Post-addition measure value of each candidate idx, computed for
        all p from views of the carried arrays: a gather of those would cost
        more than the elementwise work it spares."""
        return self.form.transform(self.stat - _drop(self.form, self.ws, self.R))[idx]

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
            self.V, self.P = self.root.eigvecs[:, 1:], 1.0 / self.root.nonzero_eigvals
            self.E, self.c, self.picks = np.empty((n // 2, n - 1)), np.empty(n // 2), 0
        E, c = self.E[:self.picks], self.c[:self.picks]
        # Column s of K is K_s in the eigenbasis: P times e_i - e_j, then P K_{s-1}.
        K, x = np.empty((self.V.shape[1], top)), self.V[i] - self.V[j]
        for s in range(top):
            Px = self.P * x if self.P.ndim == 1 else self.P @ x
            if self.picks:
                Px -= (c * (E @ x)) @ E
            K[:, s] = x = Px
        gram = K.T @ K  # tr K_s K_t^T
        coef = 1.0 / (1.0 / w + float(self.R[0, link]))
        h = gram[0].tolist()  # r_e(L^2), r_e(L^3), ...
        g = (coef, -coef * coef * h[0],
             coef * coef * (coef * h[0] * h[0] - h[1]) if top > 1 else 0.0)[:top]
        if power is not None:
            self.stat -= float(np.sum(_hankel_core(g, power) * gram[:power, :power]))
        # r_q drops by the x^(q-1) coefficient of G(x) Y(x)^2, G and Y the
        # polynomials with coefficients g and y_s: the square's coefficients
        # A_k = sum_{s+t=k} y_s y_t, each pair s < t once and doubled, then times
        # the lower-triangular Toeplitz matrix of g, C_top with its rows reversed.
        # Picked candidates are updated too, and nothing reads them again.
        Kn = (self.V @ K).T.copy()  # node coordinates, each row contiguous for the gathers
        Y = Kn.take(self.rows, axis=1) - Kn.take(self.cols, axis=1)
        A = np.empty_like(Y)
        for k in range(top):
            A[k] = Y[k // 2] * Y[k // 2] if k % 2 == 0 else 0.0
            for s in range((k + 1) // 2):
                A[k] += 2.0 * Y[s] * Y[k - s]
        self.R -= _hankel_core(g, top)[::-1] @ A
        self.E[self.picks], self.c[self.picks] = K[:, 0], coef
        self.picks += 1
        if self.picks == self.c.size:
            Y = self.E.T * np.sqrt(self.c)
            self.P = (np.diag(self.P) if self.P.ndim == 1 else self.P) - Y @ Y.T
            self.picks = 0


class _Exact:
    """Exact scores of the spectral measures (:func:`_exact_scores`) on the
    state grown so far, stepped pick by pick through the candidate set
    (:meth:`CandidateSet._grown`): a rank-one update between picks only."""

    def __init__(self, m: MeasureSpec, state: LaplacianState, candidates: CandidateSet):
        self.m, self.state, self.candidates = m, state, candidates

    def scores(self, idx: np.ndarray) -> np.ndarray:
        """Post-addition measure value of each candidate idx that the lower
        bound cannot rule out; the rest read inf.

        A small state scores every link, in one call and with no bound.
        Elsewhere each link gets its diagonal bound (:func:`_diagonal_bounds`),
        and links are scored in ascending bound order (stable), CHUNK at
        first and then as many as scored so far (at most ROWS) a batch, each
        batch holding only links whose bound lies within the :func:`_cut` of
        the best score so far.  The cut only falls, so the walk ends with
        every link left unscored above it, outside the tie band.  The
        batches share one memo, so the contour quadrature, which depends on
        the state alone, is built at most once.
        """
        m, state, candidates, memo = self.m, self.state, self.candidates, {}
        if candidates._keeps_steps(state):
            return _exact_scores(m, state, candidates, idx, memo)
        bounds = _diagonal_bounds(m, state, candidates.arrays, idx)
        order = np.argsort(bounds, kind="stable")
        scores, best, start = np.full(idx.size, math.inf), math.inf, 0
        while start < idx.size and bounds[order[start]] <= _cut(best):
            within = int(np.searchsorted(bounds[order], _cut(best), side="right"))
            batch = order[start:min(within, start + min(max(CHUNK, start), ROWS))]
            scores[batch] = _exact_scores(m, state, candidates, idx[batch], memo)
            best, start = min(best, float(scores[batch].min())), start + batch.size
        return scores

    def add(self, link: int, value: float) -> None:
        """Add candidate `link`, whose score was `value`."""
        self.state = self.candidates._grown(self.state, link)


def _scorer(m: MeasureSpec, state: LaplacianState, candidates: CandidateSet,
            value: float) -> _Resistances | _Exact:
    """Greedy's and linearized's scorer at a state whose value is `value`:
    carried resistances for a closed form, exact scores for the rest."""
    form = _CLOSED_FORMS.get(m)
    return _Resistances(form, state, candidates, value) if form else _Exact(m, state, candidates)


def _argmin_lex(scores) -> tuple[int, int]:
    """Lex-smallest index within TIE_REL of the minimum, and how many other
    indices share that band.  An infinite minimum ties only with itself."""
    s = np.asarray(scores, dtype=float)
    best = float(s.min())
    limit = best + TIE_REL * max(1.0, abs(best)) if math.isfinite(best) else best
    band = s <= limit
    return int(np.argmax(band)), int(np.count_nonzero(band)) - 1


def _check_instance(state: LaplacianState, candidates: CandidateSet, k: int) -> None:
    """Raise unless every link fits the state, k lies in [0, p] and twice
    (the largest weighted degree + the total candidate weight) is finite: it
    bounds every grown state's eigenvalues (Gershgorin)."""
    candidates.validate_for(state.n)
    if not 0 <= k <= candidates.p:
        raise InvalidParameter(f"k must lie in [0, {candidates.p}], got {k}")
    with np.errstate(over="ignore"):  # an overflowing sum reads inf, with no warning
        total = float(candidates.arrays[2].sum())
    if not 2.0 * (float(state.matrix.diagonal().max()) + total) < math.inf:
        raise InvalidParameter("twice a degree plus the candidate weights overflows a float")


# --- algorithms ---------------------------------------------------------------


def greedy(state: LaplacianState, candidates: CandidateSet, k: int,
           m: MeasureSpec) -> SynthesisResult:
    """Add the best single link k times.

    Each step applies the tie rule to the scores of the candidates left
    (:func:`_scorer`).  The closed forms score every candidate from carried
    resistances and grow no state; every other measure scores exactly only
    the links its bound cannot rule out, every other one lying outside the
    tie band, and grows the state rank-one between picks only: k - 1
    updates in all.  So the picks, values and `tie_breaks` are those of
    scoring every candidate left with the same scorer.  On a small state
    the candidate set keeps the scores' spectra and the grown states
    (:class:`CandidateSet`).  `elapsed` holds each step's seconds, set-up
    time in the first.
    """
    _check_instance(state, candidates, k)
    t0 = perf_counter()
    values = [evaluate(m, state)]
    scorer = _scorer(m, state, candidates, values[0])
    left = np.arange(candidates.p)  # unpicked links, ascending
    chosen, elapsed, tie_breaks = [], [], 0

    for step in range(k):
        scores = scorer.scores(left)
        pick, ties = _argmin_lex(scores)
        link, value = int(left[pick]), float(scores[pick])
        left[pick:-1], left = left[pick + 1:], left[:-1]  # drop the pick in place
        tie_breaks += ties
        chosen.append(candidates.links[link])
        if step + 1 < k:
            scorer.add(link, value)
        values.append(value)
        elapsed.append(perf_counter() - t0)
        t0 = perf_counter()

    return SynthesisResult("greedy", tuple(chosen), tuple(values), tuple(elapsed), tie_breaks)


def _grown_spectra(state: LaplacianState, links: tuple[np.ndarray, ...], S: np.ndarray,
                   sizes) -> np.ndarray:
    """eigvalsh spectrum of L grown by the first sizes[b] links of row b of S
    (one size for all rows if sizes is a number), for each row b, by one
    stacked eigvalsh; the row's other links are added at weight zero, which
    adds nothing.  Each link makes add_link's four additions, in link order,
    through one unbuffered flat np.add.at, so a row's spectrum does not
    depend on the rows stacked with it."""
    n = state.n
    rows, cols, ws = (a[S] for a in links)
    ws = np.where(np.arange(S.shape[1]) < np.reshape(sizes, (-1, 1)), ws, 0.0)
    L = np.repeat(np.asarray(state.matrix)[None], len(S), axis=0)
    # Flat offsets of (i, i), (j, j), (i, j) and (j, i) in row b's matrix.
    at = np.stack([rows * (n + 1), cols * (n + 1), rows * n + cols, cols * n + rows], axis=-1)
    at += (np.arange(len(S)) * n * n)[:, None, None]
    np.add.at(L.reshape(-1), at.ravel(), np.stack([ws, ws, -ws, -ws], axis=-1).ravel())
    return np.linalg.eigvalsh(L)


def _lex_rank(subset: tuple[int, ...], p: int) -> int:
    """Position of a sorted subset in combinations(range(p), len(subset))."""
    t = len(subset)
    return math.comb(p, t) - 1 - sum(math.comb(p - 1 - c, t - i) for i, c in enumerate(subset))


def brute_force(state: LaplacianState, candidates: CandidateSet, k: int,
                m: MeasureSpec, cap: int = 2_000_000) -> SynthesisResult:
    """Global minimizer over all (p choose k) subsets by full recomputation.

    Each subset is valued at the eigvalsh spectrum of its grown Laplacian
    (:func:`_grown_spectra`), STACK entries per call.  When every subset of
    sizes 0..k fits in one stack, the spectra are those the candidate set
    keeps for the state and k (:meth:`CandidateSet._subset_spectra`), and
    the best subset's prefixes are read off them; otherwise the size-k
    subsets stream in lex order, keeping nothing, and the prefixes take one
    more stack.  All time is attributed to the first step of `elapsed`.
    """
    _check_instance(state, candidates, k)
    n, p = state.n, candidates.p
    n_subsets = math.comb(p, k)
    if n_subsets > cap:
        raise CombinatorialBlowup(f"{n_subsets} subsets exceed the cap of {cap}")

    t0 = perf_counter()
    links = candidates.arrays
    size = max(1, STACK // n ** 2)
    if all(total <= size for total in accumulate(math.comb(p, t) for t in range(k + 1))):
        spectra = candidates._subset_spectra(state, k)
        scores = spectral_value(m, spectra[k][:, 1:], n)
    else:
        spectra, scores = None, np.empty(n_subsets)
        subsets = combinations(range(p), k)
        for start in range(0, n_subsets, size):
            chunk = list(islice(subsets, size))
            S = np.array(chunk, dtype=int).reshape(len(chunk), k)
            scores[start:start + len(S)] = spectral_value(
                m, _grown_spectra(state, links, S, k)[:, 1:], n)
    pick, ties = _argmin_lex(scores)
    best = next(islice(combinations(range(p), k), pick, None))
    # Row t - 1 of the prefix stack: the best subset's first t links, t = 1..k.
    if spectra is None:
        prefixes = _grown_spectra(state, links, np.array([best] * k, dtype=int).reshape(k, k),
                                  np.arange(1, k + 1))
    else:
        prefixes = np.array([spectra[t][_lex_rank(best[:t], p)]
                             for t in range(1, k + 1)]).reshape(k, n)
    values = [evaluate(m, state), *spectral_value(m, prefixes[:, 1:], n).tolist()]
    elapsed = ([perf_counter() - t0] + [0.0] * (k - 1))[:k]

    chosen = tuple(candidates.links[i] for i in best)
    return SynthesisResult("brute", chosen, tuple(values), tuple(elapsed), ties)


def linearized(state: LaplacianState, candidates: CandidateSet, k: int,
               m: MeasureSpec) -> SynthesisResult:
    """One-shot selection of the k largest first-order improvements.

    The first-order change of the measure from link e = {i, j} with weight w
    is w (grad_ii + grad_jj - 2 grad_ij) <= 0.  The gradient is computed once;
    each pick is then the lex-first change within the tie band of the
    lowest one left, as greedy picks, and valued by greedy's scorer
    (:func:`_scorer`), which steps to the state grown by the pick.
    Gradient and set-up time go to the first step of `elapsed`.
    """
    _check_instance(state, candidates, k)
    t0 = perf_counter()
    links = candidates.arrays
    # First-order change w <G, L_e> of each link, G the measure's gradient.
    changes = links[2] * pair_form(gradient(m, state), *links[:2])
    values = [evaluate(m, state)]
    scorer = _scorer(m, state, candidates, values[0])
    left, chosen, elapsed, tie_breaks = np.arange(candidates.p), [], [], 0

    for step in range(k):
        # Greedy's tie rule on the first-order changes left.
        pick, tie_breaks = _argmin_lex(changes[left])
        link = int(left[pick])
        values.append(float(scorer.scores(left[pick:pick + 1])[0]))
        left[pick:-1], left = left[pick + 1:], left[:-1]
        chosen.append(candidates.links[link])
        if step + 1 < k:
            scorer.add(link, values[-1])
        elapsed.append(perf_counter() - t0)
        t0 = perf_counter()

    return SynthesisResult("linear", tuple(chosen), tuple(values), tuple(elapsed), tie_breaks)

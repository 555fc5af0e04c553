"""Solvers for growing a network by k new weighted links.

Three algorithms minimize a performance measure over size-k subsets of a
candidate link set:

* :func:`brute_force` - exhaustive search over all subsets, each scored by a
  full eigendecomposition (the reference answer on small instances).
* :func:`greedy` - picks the single best link k times.  For the zeta:q=1,
  zeta:q=2 and volume measures each candidate is scored in O(1) from its
  effective resistances, read off the pseudo-inverse powers; every other
  measure is scored from the spectrum of the rank-one-downdated
  pseudo-inverse.
* :func:`linearized` - one gradient of the measure, then the k candidates
  with the largest first-order improvement in a single pass.

All tie-breaking is deterministic.  Greedy and brute force share one rule:
the pick is the lex-smallest candidate within 1e-12 relative of the minimum
score (relative to max(1, |minimum|)), and `tie_breaks` counts the other
candidates (greedy, summed over steps) or subsets (brute force) in that
band.  The linearized solver breaks equal first-order changes by edge order
and counts, with the same band, the unpicked candidates tied with its k-th
pick.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, islice
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (CombinatorialBlowup, GraphFormatError, InvalidParameter,
                     UnsupportedMeasure)
from .graphs import Edge, add_link, canonical_edge
from .laplacian import LaplacianState, downdated_inverse_spectrum, pair_form
from .measures import MeasureSpec, companion_value, evaluate, gradient, spectral_value

TIE_REL = 1e-12


@dataclass(frozen=True)
class CandidateSet:
    """Distinct candidate links with fixed positive weights, kept edge-sorted."""

    links: tuple[tuple[Edge, float], ...]

    def __post_init__(self):
        canon = []
        seen = set()
        for (edge, w) in self.links:
            e = canonical_edge(*edge)
            w = float(w)
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphFormatError(f"candidate {e} has non-positive weight {w}")
            if e in seen:
                raise GraphFormatError(f"duplicate candidate link {e}")
            seen.add(e)
            canon.append((e, w))
        if not canon:
            raise GraphFormatError("candidate set is empty")
        object.__setattr__(self, "links", tuple(sorted(canon)))

    @property
    def p(self) -> int:
        return len(self.links)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, float]]) -> CandidateSet:
        return cls(tuple(((i, j), w) for i, j, w in triples))

    @classmethod
    def from_json_obj(cls, obj) -> CandidateSet:
        if not isinstance(obj, dict) or "links" not in obj:
            raise GraphFormatError('expected an object with "links"')
        try:
            return cls.from_triples((int(i), int(j), float(w)) for i, j, w in obj["links"])
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad candidate entry: {exc}") from exc

    @classmethod
    def parse(cls, text: str) -> CandidateSet:
        try:
            return cls.from_json_obj(json.loads(text))
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc

    @classmethod
    def complete(cls, n: int, weight: float = 1.0) -> CandidateSet:
        """All n(n-1)/2 node pairs at one common weight."""
        return cls(tuple(((i, j), weight) for i in range(n) for j in range(i + 1, n)))

    def validate_for(self, n: int) -> None:
        for (i, j), _ in self.links:
            if j >= n:
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


# Measures whose post-addition value follows in O(1) from the effective
# resistances r[q] of the link under P^q, q = 1..top, with
# c = (1/w + r[1])^-1.  A grown state carries only P^1..P^top.
_CLOSED_FORMS = {
    MeasureSpec("zeta", 1.0): _ClosedForm(1, 2, lambda w, c, r: c * r[2], lambda s: s),
    MeasureSpec("zeta", 2.0): _ClosedForm(
        2, 3, lambda w, c, r: 2.0 * c * r[3] - (c * r[2]) ** 2,
        lambda s: np.sqrt(np.maximum(s, 0.0))),
    MeasureSpec("volume"): _ClosedForm(None, 1, lambda w, c, r: np.log1p(r[1] * w),
                                       lambda s: s),
}


def _top(m: MeasureSpec) -> int:
    """Highest pseudo-inverse power scoring m reads; spectral scoring reads P^1."""
    form = _CLOSED_FORMS.get(m)
    return 1 if form is None else form.top


def _drop(form: _ClosedForm, state: LaplacianState, rows, cols, ws):
    """Decrease of the form's statistic for the links (rows, cols) at weights ws."""
    r = {q: pair_form(state.pinv_power(q), rows, cols) for q in range(1, form.top + 1)}
    return form.drop(ws, 1.0 / (1.0 / ws + r[1]), r)


def closed_form_delta(m: MeasureSpec, state: LaplacianState, edge: Edge, weight: float) -> float:
    """Exact decrease from adding one weighted link, via resistances only.

    Supported: zeta:q=1, volume, and zeta:q=2 (for which the returned
    decrease is on the squared scale, tr of the squared pseudo-inverse).
    A weight of inf gives the infinite-coupling limit.
    """
    form = _CLOSED_FORMS.get(m)
    if form is None:
        raise UnsupportedMeasure(f"no resistance closed form for {m.label}")
    i, j = canonical_edge(*edge)
    return float(_drop(form, state, i, j, float(weight)))


def _initial_value(m: MeasureSpec, state: LaplacianState) -> float:
    form = _CLOSED_FORMS.get(m)
    if form is None or form.power is None:
        return evaluate(m, state)
    return float(form.transform(np.trace(state.pinv_power(form.power))))


def _link_arrays(links: Iterable[tuple[Edge, float]]) -> tuple[np.ndarray, ...]:
    """The links as arrays of first nodes, second nodes and weights."""
    rows = np.fromiter((e[0] for e, _ in links), dtype=int)
    cols = np.fromiter((e[1] for e, _ in links), dtype=int)
    ws = np.fromiter((w for _, w in links), dtype=float)
    return rows, cols, ws


def _score_candidates(m: MeasureSpec, state: LaplacianState, links: tuple[np.ndarray, ...],
                      idx: np.ndarray, current: float) -> np.ndarray:
    """Post-addition measure value for each link idx of the arrays `links`."""
    rows, cols, ws = (a[idx] for a in links)
    form = _CLOSED_FORMS.get(m)
    if form is None:
        return np.array([companion_value(m, downdated_inverse_spectrum(state, (i, j), w), state.n)
                         for i, j, w in zip(rows.tolist(), cols.tolist(), ws.tolist())])
    stat = current if form.power is None else float(np.trace(state.pinv_power(form.power)))
    return form.transform(stat - _drop(form, state, rows, cols, ws))


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

    The state is updated rank-one between picks only: k - 1 updates in all.
    """
    _check_instance(state, candidates, k)
    links = _link_arrays(candidates.links)
    remaining = np.arange(candidates.p)
    values = [_initial_value(m, state)]
    chosen: list[tuple[Edge, float]] = []
    elapsed: list[float] = []
    tie_breaks = 0

    for step in range(k):
        t0 = perf_counter()
        scores = _score_candidates(m, state, links, remaining, values[-1])
        pick, ties = _argmin_lex(scores)
        tie_breaks += ties
        chosen.append(candidates.links[remaining[pick]])
        remaining = np.delete(remaining, pick)
        if step + 1 < k:
            state = state.with_edge(*chosen[-1], _top(m))
        values.append(float(scores[pick]))
        elapsed.append(perf_counter() - t0)

    return SynthesisResult("greedy", tuple(chosen), tuple(values), tuple(elapsed), tie_breaks)


def _subset_value(m: MeasureSpec, state: LaplacianState,
                  subset: Iterable[tuple[Edge, float]]) -> float:
    L = np.array(state.matrix)
    for (i, j), w in subset:
        add_link(L, i, j, w)
    vals = np.linalg.eigvalsh(L)
    return spectral_value(m, vals[1:], state.n)


def brute_force(state: LaplacianState, candidates: CandidateSet, k: int,
                m: MeasureSpec, cap: int = 2_000_000) -> SynthesisResult:
    """Global minimizer over all (p choose k) subsets by full recomputation.

    Subset selection time is attributed to the first step of `elapsed`.
    """
    _check_instance(state, candidates, k)
    n_subsets = math.comb(candidates.p, k)
    if n_subsets > cap:
        raise CombinatorialBlowup(f"{n_subsets} subsets exceed the cap of {cap}")

    t0 = perf_counter()
    # Stream the subsets twice rather than hold up to `cap` of them.
    scores = np.fromiter((_subset_value(m, state, subset)
                          for subset in combinations(candidates.links, k)),
                         dtype=float, count=n_subsets)
    pick, ties = _argmin_lex(scores)
    best_subset = next(islice(combinations(candidates.links, k), pick, None))
    search_time = perf_counter() - t0

    values = [_initial_value(m, state)]
    elapsed = []
    for step in range(1, k + 1):
        t1 = perf_counter()
        values.append(_subset_value(m, state, best_subset[:step]))
        elapsed.append(perf_counter() - t1 + (search_time if step == 1 else 0.0))

    return SynthesisResult("brute", tuple(best_subset), tuple(values), tuple(elapsed), ties)


def linearized(state: LaplacianState, candidates: CandidateSet, k: int,
               m: MeasureSpec) -> SynthesisResult:
    """One-shot selection of the k largest first-order improvements.

    The first-order change of the measure from link e = {i, j} with weight w
    is w (grad_ii + grad_jj - 2 grad_ij) <= 0.  The gradient is computed once;
    gradient and sort time are attributed to the first step of `elapsed`.
    """
    _check_instance(state, candidates, k)
    t0 = perf_counter()
    links = rows, cols, ws = _link_arrays(candidates.links)
    changes = ws * pair_form(gradient(m, state), rows, cols)
    # Stable on edge-sorted candidates: equal changes keep edge order.
    order = np.argsort(changes, kind="stable")
    tie_breaks = _argmin_lex(changes[order[k - 1:]])[1] if k else 0
    select_time = perf_counter() - t0

    values = [_initial_value(m, state)]
    elapsed = []
    for step in range(k):
        t1 = perf_counter()
        values.append(float(_score_candidates(m, state, links, order[step:step + 1],
                                              values[-1])[0]))
        if step + 1 < k:
            state = state.with_edge(*candidates.links[order[step]], _top(m))
        elapsed.append(perf_counter() - t1 + (select_time if step == 0 else 0.0))

    chosen = tuple(candidates.links[idx] for idx in order[:k])
    return SynthesisResult("linear", chosen, tuple(values), tuple(elapsed), tie_breaks)

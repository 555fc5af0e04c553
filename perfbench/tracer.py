"""Spans around calls into specgrow's public functions and numpy's LAPACK.

The tracer wraps each function in ``LAYERS`` in every module namespace
that holds it (``from .measures import companion_value`` gives
``specgrow.synthesis`` its own reference), so calls made inside the
program are seen too.  Spans are kept in memory and written out at the
end; they are recorded only while a unit (a set-up or a solve) is open.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# span name -> (home module, attribute path)
LAYERS = {
    "graphs.load_graph": ("specgrow.graphs", "load_graph"),
    "synthesis.CandidateSet.parse": ("specgrow.synthesis", "CandidateSet.parse"),
    "laplacian.build_laplacian": ("specgrow.laplacian", "build_laplacian"),
    "laplacian.with_edge": ("specgrow.laplacian", "LaplacianState.with_edge"),
    "measures.evaluate": ("specgrow.measures", "evaluate"),
    "measures.companion_value": ("specgrow.measures", "companion_value"),
    "measures.gradient": ("specgrow.measures", "gradient"),
    "synthesis.greedy": ("specgrow.synthesis", "greedy"),
    "synthesis.brute_force": ("specgrow.synthesis", "brute_force"),
    "synthesis.linearized": ("specgrow.synthesis", "linearized"),
    "limits.lower_bound": ("specgrow.limits", "lower_bound"),
    "cli.main": ("specgrow.cli", "main"),
    "lapack.eigh": ("numpy.linalg", "eigh"),
    "lapack.eigvalsh": ("numpy.linalg", "eigvalsh"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, unit id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._unit = None

    @contextmanager
    def unit(self, uid: str, name: str):
        """Open a unit; spans recorded inside it carry ``uid``."""
        self._unit = uid
        try:
            with self.span(name):
                yield
        finally:
            self._unit = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._unit])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        base, top = len(self.spans), self._stack[-1] if self._stack else None
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, top if parent is None else parent + base,
                               self._unit])


def _resolve(home: str, path: str):
    owner = sys.modules[home]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(make_wrapper, names=tuple(LAYERS)):
    """Replace each named function by ``make_wrapper(name, fn)`` everywhere
    it is bound in a loaded specgrow module or its home; restore on exit."""
    saved = []
    for name in names:
        home, path = LAYERS[name]
        if home not in sys.modules:
            continue
        owner, attr = _resolve(home, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(make_wrapper(name, raw.__func__)))
            continue
        new = make_wrapper(name, raw)
        holders = [owner] + [m for key, m in list(sys.modules.items())
                             if key.startswith("specgrow") and m is not owner]
        for holder in holders:
            if getattr(holder, attr, None) is raw:
                saved.append((holder, attr, raw))
                setattr(holder, attr, new)
    try:
        yield
    finally:
        for holder, attr, raw in reversed(saved):
            setattr(holder, attr, raw)


def summarize(spans: list[list], unit_prefix: str = "") -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds, over the
    spans whose unit id starts with ``unit_prefix``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _, unit) in enumerate(spans):
        if not unit.startswith(unit_prefix):
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[idx]
    return out


def nearest(spans: list[list], idx: int, prefix: str) -> str | None:
    """Name of the closest ancestor of span ``idx`` whose name starts with prefix."""
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0].startswith(prefix):
            return spans[parent][0]
        parent = spans[parent][3]
    return None


class AllocProbe:
    """Peak bytes allocated during each call of one function, via tracemalloc."""

    def __init__(self):
        self.peaks: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return probed

    @contextmanager
    def tracing(self):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    def median_mib(self) -> float:
        return median(self.peaks) / 2 ** 20 if self.peaks else 0.0

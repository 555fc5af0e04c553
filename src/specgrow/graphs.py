"""Weighted undirected graphs: construction, file formats, union and meet.

Edges are unordered node pairs stored under the canonical key
``(min(i, j), max(i, j))`` with a strictly positive weight. Graphs are
treated as immutable values; operations that change the edge set return
a new graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import GraphFormatError, NodeCountMismatch, SelfLoopEdge

Edge = tuple[int, int]

# The most nodes a dense Laplacian is built for: at this size one n x n
# float64 matrix takes 800 MB, and a solve holds several.
MAX_NODES = 10_000


def _integer(x, what: str) -> int:
    """x as an int: a float, bool or string is refused, never truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise GraphFormatError(f"{what} must be an integer, got {x!r}")
    return int(x)


def canonical_edge(i: int, j: int) -> Edge:
    """Return the unordered pair (i, j) as a canonical (low, high) tuple."""
    if type(i) is not int or type(j) is not int:  # plain ints skip the slower check
        i, j = _integer(i, "node id"), _integer(j, "node id")
    if i == j:
        raise SelfLoopEdge(f"self-loop on node {i}")
    return (i, j) if i < j else (j, i)


def node_pair(i: int, j: int, n) -> Edge:
    """canonical_edge(i, j), whose node ids must lie in [0, n)."""
    e = canonical_edge(i, j)
    if not (0 <= e[0] and e[1] < n):
        raise GraphFormatError(f"link {e} outside node range [0, {n})")
    return e


def read_links(triples: Iterable, n: int | None = None) -> dict[Edge, float]:
    """The canonical {edge: weight} map of (i, j, w) link triples.

    The one rule for every list of weighted links, graph or candidate set:
    node ids are integers in [0, n), or only nonnegative while n is None (a
    candidate file read before its graph), no link is a self-loop (raises
    SelfLoopEdge), weights are positive and finite, and no unordered pair is
    listed twice.  Every other fault raises GraphFormatError.
    """
    hi = math.inf if n is None else n
    links: dict[Edge, float] = {}
    try:
        for i, j, w in triples:
            e = node_pair(i, j, hi)
            w = float(w)
            if not 0.0 < w < math.inf:
                raise GraphFormatError(f"link {e} has weight {w}, not positive and finite")
            if e in links:
                raise GraphFormatError(f"link {e} listed twice")
            links[e] = w
    except (TypeError, ValueError) as exc:  # not an (i, j, w) triple, or w not a number
        raise GraphFormatError(f"bad link entry: {exc}") from exc
    return links


def load_json(source, *keys: str) -> dict:
    """The JSON object in `source`, text or already decoded; it must hold every key."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(source, dict) or not all(k in source for k in keys):
        raise GraphFormatError("expected an object with " + " and ".join(f'"{k}"' for k in keys))
    return source


def add_link(L: np.ndarray, i: int, j: int, w: float) -> None:
    """Add the weighted link {i, j} to the Laplacian matrix L in place."""
    L[i, i] += w
    L[j, j] += w
    L[i, j] -= w
    L[j, i] -= w


@dataclass(frozen=True)
class WeightedGraph:
    """A simple undirected graph with positive edge weights on n >= 2 nodes."""

    n: int
    edges: dict[Edge, float] = field(default_factory=dict)

    def __post_init__(self):
        self._read(self.n, ((i, j, w) for (i, j), w in self.edges.items()))

    def _read(self, n, triples) -> None:
        n = _integer(n, "node count")
        if n < 2:
            raise GraphFormatError(f"need at least 2 nodes, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", read_links(triples, n))

    @classmethod
    def from_edge_list(cls, n: int, links: Iterable[tuple[int, int, float]]) -> WeightedGraph:
        # One read of the triples, before they become dict keys (where a pair
        # listed twice would collapse); the constructor would read them again.
        graph = object.__new__(cls)
        graph._read(n, links)
        return graph

    def weight(self, i: int, j: int) -> float:
        """Weight of edge {i, j}, or 0.0 when absent."""
        return self.edges.get(canonical_edge(i, j), 0.0)

    def with_edge(self, edge: Edge, weight: float) -> WeightedGraph:
        """New graph with `weight` added on `edge` (reinforces a parallel edge)."""
        if not (weight > 0.0):
            raise GraphFormatError(f"edge weight must be positive, got {weight}")
        e = canonical_edge(*edge)
        edges = dict(self.edges)
        edges[e] = edges.get(e, 0.0) + float(weight)
        return WeightedGraph(self.n, edges)

    def laplacian(self) -> np.ndarray:
        """Dense Laplacian matrix (degree minus adjacency), up to MAX_NODES nodes."""
        if self.n > MAX_NODES:
            raise GraphFormatError(f"{self.n} nodes exceed the cap of {MAX_NODES} "
                                   "for a dense Laplacian")
        L = np.zeros((self.n, self.n))
        for (i, j), w in self.edges.items():
            add_link(L, i, j, w)
        return L

    def sorted_edges(self) -> list[tuple[Edge, float]]:
        return sorted(self.edges.items())

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [[i, j, w] for (i, j), w in self.sorted_edges()]}


def union(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Edgewise join: every edge of either graph, at the larger weight."""
    if g1.n != g2.n:
        raise NodeCountMismatch(f"{g1.n} != {g2.n}")
    edges = dict(g1.edges)
    for e, w in g2.edges.items():
        edges[e] = max(edges.get(e, 0.0), w)
    return WeightedGraph(g1.n, edges)


def meet(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Edgewise meet: only shared edges, at the smaller weight."""
    if g1.n != g2.n:
        raise NodeCountMismatch(f"{g1.n} != {g2.n}")
    edges = {e: min(w, g2.edges[e]) for e, w in g1.edges.items() if e in g2.edges}
    return WeightedGraph(g1.n, edges)


# --- file formats -----------------------------------------------------------
#
# JSON:  {"n": int, "edges": [[i, j, w], ...]}
# Text:  header line "n <count>", then one "i j w" line per edge.
# Both hold links under the rule of read_links; a node count or id is an
# integer (1.5 is refused, not truncated), and ids are 0-based.


def parse_graph_json(text: str) -> WeightedGraph:
    obj = load_json(text, "n", "edges")
    return WeightedGraph.from_edge_list(obj["n"], obj["edges"])


def parse_graph_text(text: str) -> WeightedGraph:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2 or rows[0][0] != "n":
        raise GraphFormatError('expected a first line "n <count>"')
    try:  # tokens to numbers only; read_links checks them
        n = int(rows[0][1])
        links = [(int(i), int(j), float(w)) for i, j, w in rows[1:]]
    except ValueError as exc:
        raise GraphFormatError(f"bad graph line: {exc}") from exc
    return WeightedGraph.from_edge_list(n, links)


def parse_graph(text: str) -> WeightedGraph:
    """Parse either supported format, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def dump_graph_json(g: WeightedGraph) -> str:
    return json.dumps(g.to_json_obj())

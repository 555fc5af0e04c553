"""Weighted undirected graphs: construction, file formats, union and meet.

Edges are unordered node pairs stored under the canonical key
``(min(i, j), max(i, j))`` with a strictly positive weight. Graphs are
treated as immutable values; operations that change the edge set return
a new graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import GraphFormatError, NodeCountMismatch, SelfLoopEdge

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Return the unordered pair (i, j) as a canonical (low, high) tuple."""
    i, j = int(i), int(j)
    if i == j:
        raise SelfLoopEdge(f"self-loop on node {i}")
    return (i, j) if i < j else (j, i)


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
        if int(self.n) < 2:
            raise GraphFormatError(f"need at least 2 nodes, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        canon: dict[Edge, float] = {}
        for (i, j), w in dict(self.edges).items():
            e = canonical_edge(i, j)
            if not (0 <= e[0] and e[1] < self.n):
                raise GraphFormatError(f"edge {e} outside node range [0, {self.n})")
            w = float(w)
            if not (w > 0.0) or not np.isfinite(w):
                raise GraphFormatError(f"edge {e} has non-positive weight {w}")
            if e in canon:
                raise GraphFormatError(f"duplicate edge {e}")
            canon[e] = w
        object.__setattr__(self, "edges", canon)

    @classmethod
    def from_edge_list(cls, n: int, links: Iterable[tuple[int, int, float]]) -> WeightedGraph:
        edges: dict[Edge, float] = {}
        for i, j, w in links:
            e = canonical_edge(i, j)
            if e in edges:
                raise GraphFormatError(f"duplicate edge {e}")
            edges[e] = float(w)
        return cls(n, edges)

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
        """Dense Laplacian matrix (degree minus adjacency)."""
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
# Indices are 0-based; duplicate edges are rejected.


def parse_graph_json(text: str) -> WeightedGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError('expected an object with "n" and "edges"')
    try:
        links = [(int(i), int(j), float(w)) for i, j, w in obj["edges"]]
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad edge entry: {exc}") from exc
    return WeightedGraph.from_edge_list(obj["n"], links)


def parse_graph_text(text: str) -> WeightedGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise GraphFormatError(f'expected header "n <count>", got {lines[0]!r}')
    try:
        n = int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad node count {header[1]!r}") from exc
    links = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'i j w', got {ln!r}")
        try:
            links.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
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

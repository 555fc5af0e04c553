"""Seeded benchmark instances, written to the JSON files the program reads.

The two generators are a frozen copy of ``random_connected`` and
``random_candidates`` in ``tests/util.py``: an edit to the test helpers
cannot silently change what the benchmark runs.  With ``--seed 0`` the
instances are the acceptance-test ones: ``grow-closed-n500`` and
``cli-grow-n500`` use the criterion-10 instance (rng seed 101010) and
``grow-small-many`` the criterion-1 sweep (rng seeds 1000..1049).
``PINNED`` holds their edge counts and edge-list hashes.

Seed ``s`` moves every rng seed by a per-workload stride, so distinct seeds
give distinct instances of the same shape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLOSED_BASE = 101010      # criterion-10 instance
SPECTRAL_BASE = 303030
SMALL_BASE = 1000         # criterion-1 sweep
SMALL_COUNT = 50

# (edge count, sha256 of the instance text) at --seed 0.  For the small
# sweep the count sums over the 50 instances and the hash covers all of them.
PINNED = {
    "n500": (1499, "657741fd4eb6f7dbaaae0f2ac63bced0bb32c49e14046c55e67738a540f504d8"),
    "n300": (899, "04593bbb5a56b372721423bfba9fa3080d90c8b3bf0f2bcecc68de537f85e544"),
    "small": (828, "e10a58ae5828d7e0c300eadc8d4ae67becfeea9eaab5d21a4d0432fe939ba57c"),
}


@dataclass(frozen=True)
class Instance:
    """One growth problem: a graph, candidate links, k and measure specs."""

    n: int
    edges: tuple[tuple[int, int, float], ...]   # generation order, kept in the file
    links: tuple[tuple[int, int, float], ...]
    k: int
    specs: tuple[str, ...]

    def text(self) -> str:
        """Canonical text of the whole instance; floats round-trip exactly."""
        return json.dumps([self.n, self.edges, self.links, self.k, self.specs])

    def write(self, directory: Path, stem: str) -> tuple[Path, Path]:
        """Write ``<stem>.graph.json`` and ``<stem>.cands.json``."""
        graph = directory / f"{stem}.graph.json"
        cands = directory / f"{stem}.cands.json"
        graph.write_text(json.dumps({"n": self.n, "edges": self.edges}), encoding="utf-8")
        cands.write_text(json.dumps({"links": self.links}), encoding="utf-8")
        return graph, cands


def random_connected(rng, n, extra=None, wlo=0.5, whi=2.0):
    """Random spanning tree plus `extra` random weighted chords, as (i, j, w)."""
    if extra is None:
        extra = n
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(wlo, whi))
    budget = extra
    guard = 0
    while budget > 0 and guard < 100 * n:
        guard += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j:
            continue
        e = (min(i, j), max(i, j))
        if e in edges:
            continue
        edges[e] = float(rng.uniform(wlo, whi))
        budget -= 1
    return tuple((i, j, w) for (i, j), w in edges.items())


def random_candidates(rng, n, p, wlo=0.5, whi=2.0):
    """p distinct candidate pairs (may coincide with existing edges)."""
    pairs = set()
    guard = 0
    while len(pairs) < p and guard < 1000 * p:
        guard += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return tuple((i, j, float(rng.uniform(wlo, whi))) for (i, j) in sorted(pairs))


def add_link(L: np.ndarray, i: int, j: int, w: float) -> None:
    """Add weight w on link {i, j} to the Laplacian L in place."""
    L[i, i] += w
    L[j, j] += w
    L[i, j] -= w
    L[j, i] -= w


def laplacian_of(n, edges) -> np.ndarray:
    """Dense Laplacian, summed in the same order as ``WeightedGraph.laplacian``."""
    L = np.zeros((n, n))
    for i, j, w in edges:
        add_link(L, i, j, w)
    return L


def kind_suite(n, edges) -> tuple[str, ...]:
    """One spec per measure family, as ``tests/util.py:kind_suite`` builds it.

    ``eigh`` (not ``eigvalsh``) on the identically summed Laplacian gives the
    same lambda_2 bits as ``build_laplacian``, so the gamma spec is identical.
    """
    lam2 = float(np.linalg.eigh(laplacian_of(n, edges))[0][1])
    return ("zeta:q=1", "zeta:q=2", f"gamma:gamma={10.0 / lam2}", "tau:t=1",
            "hankel", "volume", "hp:p=3", "mq:q=0.5")


def n500(seed: int) -> Instance:
    """Criterion-10 shape: tree plus 1,000 chords on 500 nodes, p=2000, k=20."""
    rng = np.random.default_rng(CLOSED_BASE + seed)
    edges = random_connected(rng, 500, extra=1000)
    links = random_candidates(rng, 500, 2000)
    return Instance(500, edges, links, 20, ("zeta:q=1", "zeta:q=2", "volume"))


def n300(seed: int) -> Instance:
    """Spectral shape: tree plus 600 chords on 300 nodes, p=1000, k=2, tau."""
    rng = np.random.default_rng(SPECTRAL_BASE + seed)
    edges = random_connected(rng, 300, extra=600)
    links = random_candidates(rng, 300, 1000)
    return Instance(300, edges, links, 2, ("tau:t=0.2",))


def small_sweep(seed: int) -> list[Instance]:
    """Criterion-1 shapes: 50 instances with n in 5-12, p in 3-8, k in 1-3.

    The shapes (n, p, k) are criterion 1's for every seed, so the seed moves
    only the graphs and links: a solve's cost depends mostly on its shape,
    and a sweep of 50 random shapes would make the timings a property of
    the seed rather than of the program.
    """
    def shape(rng):
        return int(rng.integers(5, 13)), int(rng.integers(3, 9)), int(rng.integers(1, 4))

    out = []
    for i in range(SMALL_COUNT):
        rng = np.random.default_rng(SMALL_BASE + SMALL_COUNT * seed + i)
        n, p, k = shape(rng)
        if seed:
            n, p, k = shape(np.random.default_rng(SMALL_BASE + i))
        edges = random_connected(rng, n)
        links = random_candidates(rng, n, p)
        out.append(Instance(n, edges, links, k, kind_suite(n, edges)))
    return out


def fingerprint(instances) -> tuple[int, str]:
    """(total edge count, sha256 over the instance texts)."""
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(inst.text().encode())
    return sum(len(inst.edges) for inst in instances), digest.hexdigest()

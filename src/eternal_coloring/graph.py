"""Simple undirected graphs with bitmask adjacency, G(n,p) sampling, named families.

Graphs are immutable after construction.  Adjacency is stored as one Python
int per vertex (bit u set in adj[v] iff uv is an edge), so neighbourhood
intersections are single AND operations; closed[v] is the same with bit v
set.  A graph keeps these masks only.  Bit planes count, for all bits at
once, how often each bit is set across many masks: bit v of plane j is bit j
of v's count.  ``planes_add`` and ``planes_sub`` add or subtract one at every
bit of a mask, and ``split_by_count`` groups the bits of a mask by count.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Iterator


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from arbitrary labelled parts.

    Contract (fixed, cross-platform): SHA-256 over the parts rendered as
    ``repr`` and joined by '|', truncated to the low 64 bits.
    """
    payload = "|".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class GnpSpec:
    """Deterministic G(n,p) sample specification."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    # __weakref__ lets per-graph caches (strategies' pair rows) die with the graph
    __slots__ = ("n", "adj", "closed", "full_mask", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set_adj(adj)

    def _set_adj(self, adj: list[int]) -> None:
        """Keep adj, whose rows must already be symmetric and loop-free, and
        derive the other masks from it: the one path every graph is built by."""
        self.n = n = len(adj)
        self.full_mask = (1 << n) - 1
        self.adj = adj
        self.closed = [m | 1 << v for v, m in enumerate(adj)]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(m):
                out.append((u, v))
        return out

    def to_text(self) -> str:
        """Edge-list serialization: 'n m' header then sorted 'u v' lines."""
        lines = [f"{self.n} {self.edge_count()}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("graph text has no header line")
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1 : m + 1]]
        if len(edges) != m:
            raise ValueError(f"expected {m} edges, found {len(edges)}")
        return cls(n, edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def planes_add(planes: list[int], mask: int) -> None:
    """Add 1 to the count of every bit of mask, in place, on bit planes (bit
    v of planes[j] is bit j of v's count): a ripple carry that stops once it
    is spent.  A carry out of the top plane is dropped, so the counts are
    taken modulo 2**len(planes), which holds two's-complement tallies as
    they are.  Counts from zero need planes enough for the largest."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= plane
        if not mask:
            break


def planes_sub(planes: list[int], mask: int) -> None:
    """Subtract 1 from the count of every bit of mask, in place: the ripple
    borrow of planes_add, with the borrow out of the top plane dropped."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= ~plane
        if not mask:
            break


def split_by_count(mask: int, planes: list[int]) -> list[tuple[int, int]]:
    """The bits of mask grouped by their count in planes (as planes_add
    keeps them): disjoint nonempty (bits, count) pairs that cover mask, in
    no set order.  The top plane splits first: counts close to each other
    share their high bits, so the groups multiply only in the last few
    planes."""
    groups = [(mask, 0)] if mask else []
    for j in range(len(planes) - 1, -1, -1):
        plane, bit = planes[j], 1 << j
        split = []
        add = split.append
        for m, count in groups:
            hi = m & plane
            if hi:
                add((hi, count | bit))
                m ^= hi
            if m:
                add((m, count))
        groups = split
    return groups


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def gnp_generate(spec: GnpSpec) -> Graph:
    """Sample G(n,p) deterministically from the spec.

    One Mersenne-Twister draw per vertex pair, pairs visited in lexicographic
    order (i, j) with i < j; identical spec always yields the identical graph.
    Each edge goes straight into both adjacency rows as it is drawn, without
    the constructor's edge checks, which a pair i < j < n cannot fail.
    """
    draw, n, p = random.Random(spec.seed).random, spec.n, spec.p
    adj = [0] * n
    for i in range(n):
        bit, row = 1 << i, 0
        for j in range(i + 1, n):
            if draw() < p:
                row |= 1 << j
                adj[j] |= bit
        adj[i] |= row
    graph = Graph.__new__(Graph)
    graph._set_adj(adj)
    return graph


NAMED_KINDS = ("star", "path", "cycle", "complete", "empty")


def make_named(kind: str, size: int) -> Graph:
    """Construct a named small graph, of a kind in NAMED_KINDS.

    kind: 'star' (size = number of leaves, vertex 0 is the centre),
    'path', 'cycle', 'complete', 'empty' (size = number of vertices).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if kind == "star":
        return Graph(size + 1, [(0, i) for i in range(1, size + 1)])
    if kind == "path":
        return Graph(size, [(i, i + 1) for i in range(size - 1)])
    if kind == "cycle":
        if size < 3:
            raise ValueError("cycle needs size >= 3")
        return Graph(size, [(i, (i + 1) % size) for i in range(size)])
    if kind == "complete":
        return Graph(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
    if kind == "empty":
        return Graph(size)
    raise ValueError(f"unknown graph kind {kind!r}")

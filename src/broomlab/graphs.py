"""Immutable simple graphs and digraphs over dense vertex ids 0..n-1.

Every other module builds on the two value types here.  Instances never
mutate after construction, so they can be shared freely across workers.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 4096


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count outside 0..MAX_VERTICES, the graphs this
    package builds."""
    if not (0 <= n <= MAX_VERTICES):
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph:
    """Undirected simple graph over ids 0..n-1, no self-loops.

    ``bits[v]`` is v's neighbourhood as an int mask, the one stored form
    of adjacency; equality, hashing and ``m`` read it too.
    """

    __slots__ = ("n", "bits", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.bits: tuple[int, ...] = tuple(bits)
        self._hash = hash((n, self.bits))

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in increasing order."""
        return ((u, v) for u in range(self.n) for v in members(self.bits[u] >> u << u))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self.edges())

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed graph, no self-arcs: ``out[v]`` is v's out-neighbourhood
    as an int mask, so parallel arcs collapse."""

    __slots__ = ("n", "out", "_hash")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            out[u] |= 1 << v
        self.n = n
        self.out: tuple[int, ...] = tuple(out)
        self._hash = hash((n, self.out))

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Each arc once, in increasing order."""
        return ((u, v) for u in range(self.n) for v in members(self.out[u]))

    def max_outdegree(self) -> int:
        return max((b.bit_count() for b in self.out), default=0)

    def underlying_graph(self) -> Graph:
        return Graph(self.n, self.arcs())

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; ``None`` when a directed cycle exists.

        Vertices of equal depth come out in increasing id order, so the
        result is reproducible.
        """
        indeg = [0] * self.n
        for _, v in self.arcs():
            indeg[v] += 1
        queue = deque(v for v in range(self.n) if indeg[v] == 0)
        order: list[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in members(self.out[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.n:
            return None
        return order

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sum(b.bit_count() for b in self.out)})"


def check_vertex_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Validate that every member lies in 0..n-1 and return a frozenset."""
    fs = frozenset(s)
    if fs and not (0 <= min(fs) and max(fs) < g.n):
        for v in fs:
            g.check_vertex(v)
    return fs


def mask_of(s: Iterable[int]) -> int:
    """The int mask with bit v set for every member v."""
    out = 0
    for v in s:
        out |= 1 << v
    return out


def members(mask: int) -> list[int]:
    """The set bits of ``mask`` as vertex ids, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def lowest(mask: int) -> int:
    """The lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def neighbors_of(g: Graph, mask: int) -> int:
    """Mask of the vertices adjacent to some member of ``mask``."""
    bits = g.bits
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


def remap(mask: int, to: dict[int, int]) -> int:
    """``mask`` with each set bit b replaced by the bits ``to[b]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= to[low]
        mask ^= low
    return out


SubsetView = NamedTuple("SubsetView", [("n", int), ("bits", tuple[int, ...])])


def ranked_view(g: Graph, mask: int) -> tuple[SubsetView, list[int]]:
    """The subgraph induced by the members of ``mask`` as the solvers
    read it, and the host id of each of its vertices.  Members are
    numbered 0..n-1 in DSATUR rank order (degree inside the set
    descending, then host id), and ``bits`` holds their neighbours
    inside the set, relabelled once.

    A ranked view is already in rank order, so the ranked view of a
    whole ranked view is that view, built without relabelling: the
    solvers rank every graph they colour, and a vertex set a caller
    ranked first is not relabelled again.
    """
    bits = g.bits
    # sorted is stable, so equal degrees stay in increasing id order.
    ids = sorted(members(mask), key=lambda v: -(bits[v] & mask).bit_count())
    if mask == (1 << g.n) - 1 and ids == list(range(g.n)):
        return SubsetView(g.n, tuple(bits)), ids
    to_rank = {1 << v: 1 << r for r, v in enumerate(ids)}  # host bit -> view bit
    # From a list: tuple(<generator>) over-allocates and shrinks, and freed ones pile up.
    return SubsetView(len(ids), tuple([remap(bits[v] & mask, to_rank) for v in ids])), ids


def bfs_levels(g: Graph, v: int, k: int) -> tuple[int, int]:
    """Breadth-first search from v up to depth k, as masks: the last
    level reached (distance exactly k, or empty) and every vertex seen."""
    g.check_vertex(v)
    if k < 0:
        raise ValueError("distance must be nonnegative")
    level = seen = 1 << v
    for _ in range(k):
        level = neighbors_of(g, level) & ~seen
        seen |= level
        if not level:
            break
    return level, seen


def neighborhood_exact(g: Graph, v: int, k: int) -> frozenset[int]:
    """Vertices at distance exactly k from v; k=0 gives {v}."""
    return frozenset(members(bfs_levels(g, v, k)[0]))


def neighborhood_closed(g: Graph, v: int, k: int) -> frozenset[int]:
    """Vertices at distance at most k from v."""
    return frozenset(members(bfs_levels(g, v, k)[1]))


def induced(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on s, plus the order-preserving relabeling map.

    The map is a tuple ``old_ids`` where new vertex i corresponds to host
    vertex ``old_ids[i]``; ids stay in increasing order.
    """
    mask = mask_of(check_vertex_set(g, s))
    ids = members(mask)
    pos = {1 << v: 1 << i for i, v in enumerate(ids)}  # host bit -> new bit
    rows = [remap(g.bits[v] & mask, pos) for v in ids]
    edges = [(i, j) for i, row in enumerate(rows) for j in members(row) if i < j]
    return Graph(len(ids), edges), tuple(ids)


def is_stable(g: Graph, s: Iterable[int]) -> bool:
    """True when no two members are adjacent; empty and singleton pass."""
    m = mask_of(check_vertex_set(g, s))
    return not neighbors_of(g, m) & m


def least_stable_subset(
    g: Graph, cand: Sequence[int], need: int
) -> list[int] | None:
    """Positions in ``cand`` of its lexicographically least ``need``
    members that are pairwise nonadjacent, or ``None`` when none exist.

    Order is list order, so the caller decides what "least" means; a
    vertex listed twice may be chosen twice.
    """
    bits = g.bits
    chosen: list[int] = []

    def grow(start: int, blocked: int) -> bool:
        if len(chosen) == need:
            return True
        for k in range(start, len(cand)):
            v = cand[k]
            if blocked >> v & 1:
                continue
            chosen.append(k)
            if grow(k + 1, blocked | bits[v]):
                return True
            chosen.pop()
        return False

    try:
        return chosen if grow(0, 0) else None
    finally:
        del grow  # break the closure's reference cycle


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True when every two members are adjacent; empty and singleton pass."""
    m = mask_of(check_vertex_set(g, s))
    return all(not m & ~g.bits[u] & ~(1 << u) for u in members(m))

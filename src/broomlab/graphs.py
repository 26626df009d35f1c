"""Immutable simple graphs and digraphs over dense vertex ids 0..n-1.

Every other module builds on the two value types here.  Instances never
mutate after construction, so they can be shared freely across workers.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 4096


class Graph:
    """Undirected simple graph: symmetric set adjacency, no self-loops."""

    __slots__ = ("n", "adj", "bits", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not (0 <= n <= MAX_VERTICES):
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        # Per-vertex neighbour bitmasks; hot loops in the solvers use these.
        self.bits: tuple[int, ...] = tuple(
            sum(1 << w for w in s) for s in self.adj
        )
        self._hash = hash((n, self.adj))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges())

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed graph: per-vertex out-neighbour sets, no self-arcs.

    Parallel arcs collapse because adjacency is a set.
    """

    __slots__ = ("n", "out", "_hash")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if not (0 <= n <= MAX_VERTICES):
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        out: list[set[int]] = [set() for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            out[u].add(v)
        self.n = n
        self.out: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in out)
        self._hash = hash((n, self.out))

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in sorted(self.out[u]):
                yield (u, v)

    def max_outdegree(self) -> int:
        return max((len(s) for s in self.out), default=0)

    def underlying_graph(self) -> Graph:
        return Graph(self.n, ((u, v) for u, v in self.arcs()))

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; ``None`` when a directed cycle exists.

        Vertices of equal depth come out in increasing id order, so the
        result is reproducible.
        """
        indeg = [0] * self.n
        for _, v in self.arcs():
            indeg[v] += 1
        ready = sorted(v for v in range(self.n) if indeg[v] == 0)
        order: list[int] = []
        queue = deque(ready)
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in sorted(self.out[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.n:
            return None
        return order

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sum(len(s) for s in self.out)})"


def check_vertex_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Validate that every member lies in 0..n-1 and return a frozenset."""
    fs = frozenset(s)
    for v in fs:
        g.check_vertex(v)
    return fs


def _bfs_levels(g: Graph, v: int, k: int) -> tuple[set[int], set[int]]:
    """Breadth-first search from v up to depth k: the last level reached
    (distance exactly k, or empty) and every vertex seen."""
    g.check_vertex(v)
    if k < 0:
        raise ValueError("distance must be nonnegative")
    level = {v}
    seen = {v}
    for _ in range(k):
        nxt: set[int] = set()
        for u in level:
            nxt |= g.adj[u]
        level = nxt - seen
        seen |= level
        if not level:
            break
    return level, seen


def neighborhood_exact(g: Graph, v: int, k: int) -> frozenset[int]:
    """Vertices at distance exactly k from v; k=0 gives {v}."""
    return frozenset(_bfs_levels(g, v, k)[0])


def neighborhood_closed(g: Graph, v: int, k: int) -> frozenset[int]:
    """Vertices at distance at most k from v."""
    return frozenset(_bfs_levels(g, v, k)[1])


def induced(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on s, plus the order-preserving relabeling map.

    The map is a tuple ``old_ids`` where new vertex i corresponds to host
    vertex ``old_ids[i]``; ids stay in increasing order.
    """
    members = sorted(check_vertex_set(g, s))
    index = {v: i for i, v in enumerate(members)}
    edges = [
        (index[u], index[v])
        for u in members
        for v in g.adj[u]
        if v in index and u < v
    ]
    return Graph(len(members), edges), tuple(members)


def is_stable(g: Graph, s: Iterable[int]) -> bool:
    """True when no two members are adjacent; empty and singleton pass."""
    members = sorted(check_vertex_set(g, s))
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if v in g.adj[u]:
                return False
    return True


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
    members = sorted(check_vertex_set(g, s))
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if v not in g.adj[u]:
                return False
    return True


def connected_component(g: Graph, v: int) -> frozenset[int]:
    return neighborhood_closed(g, v, g.n)

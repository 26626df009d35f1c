"""Brute-force reference implementations.

These deliberately share no code with the optimized operations they
check: containment is enumerated in plain vertex order, chromatic
number by exhaustive k-labeling, clique number by subset enumeration,
cores by direct part enumeration.  Each oracle reads the graph's edge
list and builds its own neighbour sets (:func:`adjacency`), never the
int masks the optimized code searches on.
Keep them dumb; their value is independence.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph


def adjacency(g: Graph) -> list[set[int]]:
    """Each vertex's neighbours as a set, built from ``g.edges()``."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def chromatic_number_oracle(g: Graph) -> int:
    """Minimum k admitting a proper k-labeling, by exhaustive assignment."""
    n = g.n
    if n == 0:
        return 0
    adj = adjacency(g)

    def assign(k: int, idx: int, colors: list[int]) -> bool:
        if idx == n:
            return True
        for c in range(k):
            ok = True
            for w in adj[idx]:
                if w < idx and colors[w] == c:
                    ok = False
                    break
            if ok:
                colors[idx] = c
                if assign(k, idx + 1, colors):
                    return True
        colors[idx] = -1
        return False

    for k in range(1, n + 1):
        if assign(k, 0, [-1] * n):
            return k
    return n


def clique_number_oracle(g: Graph) -> int:
    """Largest k such that some k-subset of the vertices is a clique,
    by enumerating subsets from the largest size down."""
    adj = adjacency(g)
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(v in adj[u] for u, v in combinations(sub, 2)):
                return k
    return 0


def contains_induced_oracle(host: Graph, pattern: Graph) -> bool:
    """Injective-mapping enumeration in plain index order."""
    pn, hn = pattern.n, host.n
    if pn == 0:
        return True
    if pn > hn:
        return False
    p_adj, h_adj = adjacency(pattern), adjacency(host)
    mapping = [-1] * pn
    used = [False] * hn

    def place(i: int) -> bool:
        if i == pn:
            return True
        for h in range(hn):
            if used[h]:
                continue
            ok = True
            for j in range(i):
                p_edge = j in p_adj[i]
                h_edge = mapping[j] in h_adj[h]
                if p_edge != h_edge:
                    ok = False
                    break
            if ok:
                mapping[i] = h
                used[h] = True
                if place(i + 1):
                    return True
                used[h] = False
                mapping[i] = -1
        return False

    return place(0)


def find_core_oracle(
    g: Graph, a: int, b: int
) -> tuple[frozenset[int], ...] | None:
    """Enumerate all ways to pick b disjoint stable a-sets, cross-complete."""
    verts = list(range(g.n))
    adj = adjacency(g)

    def stable(part: tuple[int, ...]) -> bool:
        return all(v not in adj[u] for u, v in combinations(part, 2))

    def cross(p1: tuple[int, ...], p2: tuple[int, ...]) -> bool:
        return all(v in adj[u] for u in p1 for v in p2)

    def extend(parts: list[tuple[int, ...]], remaining: list[int]):
        if len(parts) == b:
            return tuple(frozenset(p) for p in parts)
        for part in combinations(remaining, a):
            if parts and min(part) < min(parts[-1]):
                continue
            if not stable(part):
                continue
            if any(not cross(prev, part) for prev in parts):
                continue
            rest = [v for v in remaining if v not in part]
            found = extend(parts + [part], rest)
            if found:
                return found
        return None

    return extend([], verts)


def daisies_oracle(
    g: Graph,
    h_sets: list[frozenset[int]],
    blocks: list[frozenset[int]],
    x: frozenset[int],
    delta: int,
) -> list[tuple[int, int, frozenset[int]]]:
    """All (root, eye, petals) triples forming a daisy inside H union x.

    h_sets and blocks are indexed alike; petals must sit in a single
    block whose index differs from the root's template index.
    """
    adj = adjacency(g)
    h_union: set[int] = set()
    owner: dict[int, int] = {}
    for i, h in enumerate(h_sets):
        h_union |= h
        for v in h:
            owner[v] = i
    found = []
    for u in sorted(h_union):
        i = owner[u]
        for v in sorted(adj[u]):
            if v not in x or v in h_union:
                continue
            for j, block in enumerate(blocks):
                if j == i:
                    continue
                cand = sorted(
                    (block & x & adj[v]) - adj[u] - {u, v}
                )
                for petals in combinations(cand, delta):
                    if all(
                        q not in adj[p]
                        for p, q in combinations(petals, 2)
                    ):
                        found.append((u, v, frozenset(petals)))
    return found


def distances_oracle(g: Graph, v: int) -> list[int]:
    """Single-source distances by repeated relaxation (no BFS reuse)."""
    adj = adjacency(g)
    inf = g.n + 1
    dist = [inf] * g.n
    dist[v] = 0
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            for w in adj[u]:
                if dist[u] + 1 < dist[w]:
                    dist[w] = dist[u] + 1
                    changed = True
    return dist

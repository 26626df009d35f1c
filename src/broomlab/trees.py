"""Broom-shaped pattern trees and exact induced-containment search.

A broom of length k is a k-edge path with extra leaves at the far end;
the near end is the handle.  Multibrooms glue brooms at a shared handle.
The containment search is exact backtracking: induced tree matching in
general hosts is NP-hard, so candidates are pruned hard by degree, by
non-adjacency against already-placed vertices, by ordering
interchangeable sibling subtrees, by a look-ahead that each placed
vertex still has enough hosts left for its children, and by a far-supply
look-ahead that enough hosts next to no placed vertex remain for the
positions whose parent is not yet placed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph, least_stable_subset, lowest, mask_of, members, neighbors_of,
)
from .solvers import check_limit


@dataclass(frozen=True)
class BroomTag:
    """Which pattern vertices realize one constituent broom."""

    length: int
    leaf_count: int
    path_vertices: tuple[int, ...]  # handle first
    leaf_vertices: tuple[int, ...]


@dataclass(frozen=True)
class PatternTree:
    tree: Graph
    handle: int
    broom_tags: tuple[BroomTag, ...] | None = None

    def __post_init__(self):
        n = self.tree.n
        if n == 0:
            raise ValueError("pattern tree must be nonempty")
        if self.tree.m != n - 1:
            raise ValueError("pattern is not a tree: wrong edge count")
        if len(_bfs_order(self.tree, self.handle)) != n:
            raise ValueError("pattern is not connected")


@dataclass(frozen=True)
class Embedding:
    """Injective pattern-to-host map preserving edges and non-edges."""

    pairs: tuple[tuple[int, int], ...]  # (pattern vertex, host vertex)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def host_vertices(self) -> frozenset[int]:
        return frozenset(h for _, h in self.pairs)


def verify_embedding(host: Graph, pattern: PatternTree, emb: Embedding) -> bool:
    """Re-check the induced condition edge by edge; used by tests and audits."""
    m = emb.as_dict()
    if len(m) != pattern.tree.n or len(set(m.values())) != len(m):
        return False
    for p in m:
        if not (0 <= p < pattern.tree.n):
            return False
        host.check_vertex(m[p])
    pbits, hbits = pattern.tree.bits, host.bits
    for u in range(pattern.tree.n):
        for v in range(u + 1, pattern.tree.n):
            if pbits[u] >> v & 1 != hbits[m[u]] >> m[v] & 1:
                return False
    return True


def _bfs_order(g: Graph, root: int) -> list[int]:
    seen = 1 << root
    order = [root]
    for u in order:  # the list is the queue
        new = g.bits[u] & ~seen
        seen |= new
        order += members(new)
    return order


def build_broom(k: int, leaves: int) -> PatternTree:
    """Broom of length k with the given leaf count; handle is vertex 0.

    Vertices 0..k form the path, k+1..k+leaves the pendant leaves at the
    far end.
    """
    return build_multibroom([(k, leaves)])


def build_multibroom(specs: list[tuple[int, int]]) -> PatternTree:
    """Glue brooms at a common handle (vertex 0)."""
    if not specs:
        raise ValueError("multibroom needs at least one broom")
    edges: list[tuple[int, int]] = []
    tags: list[BroomTag] = []
    nxt = 1
    for k, leaves in specs:
        if k < 1:
            raise ValueError("broom length must be at least 1")
        if leaves < 0:
            raise ValueError("leaf count must be nonnegative")
        path = [0] + list(range(nxt, nxt + k))
        nxt += k
        leaf_ids = list(range(nxt, nxt + leaves))
        nxt += leaves
        edges += [(path[i], path[i + 1]) for i in range(k)]
        edges += [(path[-1], leaf) for leaf in leaf_ids]
        tags.append(
            BroomTag(
                length=k,
                leaf_count=leaves,
                path_vertices=tuple(path),
                leaf_vertices=tuple(leaf_ids),
            )
        )
    tree = Graph(nxt, edges)
    return PatternTree(tree=tree, handle=0, broom_tags=tuple(tags))


def build_T(delta: int) -> PatternTree:
    """The target tree: delta (1,delta)-brooms and delta (2,delta)-brooms
    glued at one handle.  Vertex count is 1 + delta*(2*delta+3)."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    specs = [(1, delta)] * delta + [(2, delta)] * delta
    return build_multibroom(specs)


def contains_induced(host: Graph, pattern: PatternTree) -> Embedding | None:
    """Find an induced embedding of a tree pattern, or None.

    Pattern vertices are placed in BFS order from the handle, so each new
    vertex has exactly one placed neighbour.  Candidates must match that
    neighbour, avoid all other placed vertices' neighbourhoods, and have
    host degree at least the pattern degree.  Ties break to the lowest
    host id, so the witness is the lexicographically least mapping in
    BFS-position order.

    Siblings whose rooted subtrees have the same shape (AHU canonical
    form) are interchangeable, so a later one only takes host ids above
    its earlier twin's image.  The witness does not move: swapping two
    such sibling subtrees changes no position before the first sibling,
    so the least mapping already puts them in increasing order.

    A look-ahead drops a host as soon as some placed vertex can no longer
    be given its remaining children: each of them needs a distinct host
    that is adjacent to its parent's image, unused, next to no other
    placed vertex and of high enough degree, and that supply only shrinks
    as the search goes deeper.  A far-supply look-ahead does the same for
    the far positions of position i, those whose parent comes after i:
    every pattern neighbour of such a position is still unplaced, so each
    needs a distinct host that is unused, next to no placed vertex and of
    high enough degree.  So only branches that cannot complete are cut;
    the order of the search is unchanged, and so is the first embedding
    it finds.
    """
    check_limit("contains_induced", host.n)
    pn = pattern.tree.n
    if pn > host.n:
        return None
    order = _bfs_order(pattern.tree, pattern.handle)
    pos = {p: i for i, p in enumerate(order)}
    parents = [-1] * pn
    children: list[list[int]] = [[] for _ in range(pn)]
    for i, p in enumerate(order):
        for q in members(pattern.tree.bits[p]):
            if pos[q] < i:
                parents[i] = pos[q]
                children[pos[q]].append(i)
    # AHU shape id of each position's subtree, children before parents.
    shape = [0] * pn
    shape_ids: dict[tuple[int, ...], int] = {}
    for i in reversed(range(pn)):
        key = tuple(sorted(shape[c] for c in children[i]))
        shape[i] = shape_ids.setdefault(key, len(shape_ids))
    # twin[i]: the nearest earlier sibling with the same shape, or -1.
    twin = [-1] * pn
    for kids in children:
        last: dict[int, int] = {}
        for c in kids:
            twin[c] = last.get(shape[c], -1)
            last[shape[c]] = c
    # fits[i]: the hosts whose degree reaches position i's pattern degree.
    pdeg = [pattern.tree.bits[p].bit_count() for p in order]
    hbits = host.bits
    masks = {
        d: sum(1 << h for h in range(host.n) if hbits[h].bit_count() >= d)
        for d in set(pdeg)
    }
    fits = [masks[d] for d in pdeg]
    # opens[i]: (j, need, fit) for each position j <= i with need of its
    # children placed after i; each of them takes a distinct host from
    # fit, the hosts of the least degree those children ask for.
    opens: list[list[tuple[int, int, int]]] = [[] for _ in range(pn)]
    for j, kids in enumerate(children):
        for i in range(j, kids[-1] if kids else j):
            rest = [c for c in kids if c > i]
            opens[i].append((j, len(rest), masks[min(pdeg[c] for c in rest)]))
    # far[i]: (count, fit) of the positions whose parent comes after i;
    # each takes a distinct host from fit that touches no placed host.
    far = [(0, 0)] * pn
    for i in range(pn):
        rest = [pdeg[c] for c in range(i + 1, pn) if parents[c] > i]
        if rest:
            far[i] = (len(rest), masks[min(rest)])
    mapping = [-1] * pn

    def place(i: int, used: int, once: int, twice: int) -> bool:
        # once/twice: hosts adjacent to at least one/two placed vertices.
        if i == pn:
            return True
        cand = fits[i] & ~used & ~twice
        if i:
            cand &= hbits[mapping[parents[i]]]
        if twin[i] >= 0:
            cand &= ~((2 << mapping[twin[i]]) - 1)
        far_need, far_fit = far[i]
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            mapping[i] = h
            nb = hbits[h]
            used_h = used | low
            if far_need and (far_fit & ~(used_h | once | nb)).bit_count() < far_need:
                continue
            twice_h = twice | (once & nb)
            free = ~(used_h | twice_h)
            for j, need, fit in opens[i]:
                if (fit & hbits[mapping[j]] & free).bit_count() < need:
                    break
            else:
                if place(i + 1, used_h, once | nb, twice_h):
                    return True
        return False

    try:
        if not place(0, 0, 0, 0):
            return None
    finally:
        del place  # break the closure's reference cycle
    return Embedding(tuple(sorted(zip(order, mapping))))


def is_T_delta_free(host: Graph, delta: int) -> bool:
    """True when the host has no induced copy of the delta target tree."""
    pattern = build_T(delta)
    if pattern.tree.n > host.n:
        return True
    return contains_induced(host, pattern) is None


def find_rooted_broom(
    host: Graph,
    handle: int,
    k: int,
    leaves: int,
    allowed: int,
) -> Embedding | None:
    """Induced (k, leaves)-broom with a fixed handle.

    All non-handle vertices come from the vertex mask ``allowed``;
    vertices outside it may touch the broom.  Lowest-id choices first.
    """
    check_limit("find_rooted_broom", host.n)
    host.check_vertex(handle)
    if allowed >> host.n:  # also catches a negative mask
        raise ValueError(f"vertex mask outside 0..{host.n - 1}")
    pattern = build_broom(k, leaves)
    pool = allowed & ~(1 << handle)
    path = [handle]

    def extend_path(body: int) -> Embedding | None:
        # body: the path so far as a mask.  The next path vertex, or a
        # leaf at the far end, touches the tail and no other path vertex.
        tail = path[-1]
        cand = host.bits[tail] & pool & ~body & ~neighbors_of(host, body ^ 1 << tail)
        if len(path) == k + 1:
            return pick_leaves(members(cand))
        for v in members(cand):
            path.append(v)
            result = extend_path(body | 1 << v)
            if result is not None:
                return result
            path.pop()
        return None

    def pick_leaves(cand: list[int]) -> Embedding | None:
        picked = least_stable_subset(host, cand, leaves)
        if picked is None:
            return None
        hosts = path + [cand[k] for k in picked]
        pairs = tuple([(p, hosts[p]) for p in range(len(hosts))])
        emb = Embedding(pairs)
        if not verify_embedding(host, pattern, emb):
            return None
        return emb

    try:
        return extend_path(1 << handle)
    finally:
        del extend_path  # break the closure's reference cycle


@dataclass(frozen=True)
class AssembleResult:
    embedding: Embedding | None
    pattern: PatternTree | None
    conflict_edge: tuple[int, int] | None = None
    detail: str = ""


def assemble_T_delta(
    host: Graph,
    handle: int,
    pieces: list[tuple[PatternTree, Embedding]],
) -> AssembleResult:
    """Join broom embeddings sharing one handle into a target-tree witness.

    Pieces must be delta (1,delta)-brooms and delta (2,delta)-brooms, all
    mapped onto the same host handle and otherwise vertex-disjoint
    (overlap is an error, not a search failure).  A cross edge between
    two pieces makes the union non-induced; the offending edge is
    reported as a diagnostic.
    """
    host.check_vertex(handle)
    if not pieces:
        raise ValueError("no pieces supplied")
    shapes: list[tuple[int, int]] = []
    maps: list[dict[int, int]] = []
    for pat, emb in pieces:
        if pat.broom_tags is None or len(pat.broom_tags) != 1:
            raise ValueError("each piece must be a single tagged broom")
        tag = pat.broom_tags[0]
        m = emb.as_dict()
        if m.get(pat.handle) != handle:
            raise ValueError("piece does not map its handle to the shared handle")
        if not verify_embedding(host, pat, emb):
            return AssembleResult(
                None, None, detail="piece fails induced re-verification"
            )
        shapes.append((tag.length, tag.leaf_count))
        maps.append(m)

    bodies = [
        mask_of(h for p, h in m.items() if p != pat.handle)
        for (pat, _), m in zip(pieces, maps)
    ]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = bodies[i] & bodies[j]
            if overlap:
                raise ValueError(
                    f"pieces {i} and {j} overlap outside handle: {members(overlap)}"
                )

    leaf_counts = {leaves for _, leaves in shapes}
    if len(leaf_counts) != 1:
        return AssembleResult(None, None, detail="mixed leaf counts")
    delta = leaf_counts.pop()
    ones = [i for i, (k, _) in enumerate(shapes) if k == 1]
    twos = [i for i, (k, _) in enumerate(shapes) if k == 2]
    if len(ones) != delta or len(twos) != delta or delta < 1:
        return AssembleResult(
            None,
            None,
            detail=f"need {delta} one-brooms and {delta} two-brooms, "
            f"got {len(ones)} and {len(twos)}",
        )

    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            for u in members(bodies[i]):
                hit = host.bits[u] & bodies[j]
                if hit:
                    return AssembleResult(
                        None,
                        None,
                        conflict_edge=(u, lowest(hit)),
                        detail=f"cross edge between pieces {i} and {j}",
                    )

    pattern = build_T(delta)
    assert pattern.broom_tags is not None
    pairs: list[tuple[int, int]] = [(pattern.handle, handle)]
    ordered_pieces = ones + twos
    for tag, piece_idx in zip(pattern.broom_tags, ordered_pieces):
        pat, _ = pieces[piece_idx]
        assert pat.broom_tags is not None
        src = pat.broom_tags[0]
        m = maps[piece_idx]
        for a, b in zip(
            tag.path_vertices[1:], src.path_vertices[1:]
        ):
            pairs.append((a, m[b]))
        for a, b in zip(tag.leaf_vertices, src.leaf_vertices):
            pairs.append((a, m[b]))
    emb = Embedding(tuple(sorted(pairs)))
    if not verify_embedding(host, pattern, emb):
        return AssembleResult(
            None, None, detail="assembled union failed induced re-verification"
        )
    return AssembleResult(emb, pattern)

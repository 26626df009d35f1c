"""Exact chromatic number, clique number, and the radius-k chromatic measure.

Every result here is exact or refused: an oversized instance raises
:class:`InstanceTooLarge`, and nothing is silently approximated.

``clique_number`` is a colour-bounded branch and bound on neighbour
bitmasks.  Its bound is a first-fit colouring of the candidates in id
order, built one class at a time as repeated greedy stable sets (San
Segundo et al., Optim. Lett. 2013), so placing a vertex costs one mask
operation instead of a scan over the classes.  A vertex's bound is the
number of classes whose lowest vertex is at or below it: the same
numbers first-fit gives, tested at the same vertices, so the search
tree and the witness are those of the vertex-at-a-time colouring.

``chromatic_number`` takes the clique number as its lower bound and a
greedy DSATUR colouring as its upper bound, then asks a DSATUR
backtracking search for a k-colouring at each k in between.  Both
DSATUR colourings run on the same bitsets: vertices relabelled by the
tie-break (degree descending, then id), one forbidden-vertex mask per
colour and bit-sliced saturation counters, so choosing the next vertex
costs O(log k) big-int operations.  The greedy colouring is the
backtracking search's first descent with unbounded colours: the same
pick, and the lowest colour free at the picked vertex.  It is an upper
bound only and is never reported as the chromatic number unless the
clique bound meets it.

The searches read only a graph's ``n`` and ``bits``, so they also run
on a :func:`~broomlab.graphs.subset_view` of a vertex set.

A :func:`solving` block is the one exact-search context: it holds the
size cap and a chi memo, so the stages of a pipeline run take neither
as an argument.  :func:`check_limit` is the one place the cap is
resolved (an explicit ``limit``, else the innermost block's cap, else
``DEFAULT_SOLVER_LIMIT``): every exact search refuses through it.
:func:`chi_of_set` is the exact chromatic number of the subgraph induced
by a vertex set: it refuses by size, then colours a subset view, whose
ids keep their order and whose degrees are counted inside the set, as
in ``induced``.  Inside a block it colours each vertex set once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Graph,
    check_vertex_set,
    mask_of,
    members,
    neighborhood_closed,
    remap,
    subset_view,
)

DEFAULT_SOLVER_LIMIT = 64


class InstanceTooLarge(Exception):
    """Raised when an instance exceeds the exact-solver size limit."""

    def __init__(self, what: str, size: int, limit: int):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what}: size {size} exceeds solver limit {limit}")


@dataclass(frozen=True)
class Coloring:
    """Per-vertex colours drawn from 0..palette_size-1."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if any(c < 0 or c >= self.palette_size for c in self.colors):
            raise ValueError("colour outside palette")


def validate_coloring(g: Graph, c: Coloring) -> bool:
    """True when c assigns every vertex a colour and no edge is monochromatic."""
    if len(c.colors) != g.n:
        raise ValueError(
            f"coloring covers {len(c.colors)} vertices, graph has {g.n}"
        )
    colors = c.colors
    return all(colors[u] != colors[v] for u in range(g.n) for v in members(g.bits[u]))


# (cap, chi by (graph, vertex mask)) while a ``solving`` block runs.
_SOLVING: ContextVar[tuple[int, dict[tuple[Graph, int], int]]] = ContextVar("solving")


def _cap(limit: int | None) -> int:
    """``limit``, else the innermost ``solving`` block's cap, else
    ``DEFAULT_SOLVER_LIMIT``."""
    if limit is not None:
        return limit
    context = _SOLVING.get(None)
    return DEFAULT_SOLVER_LIMIT if context is None else context[0]


@contextmanager
def solving(limit: int | None = None) -> Iterator[None]:
    """One exact-search context.  Inside the block, every search refuses
    above ``limit`` (with None, the enclosing cap) unless it is given
    its own, and ``chi_of_set`` colours each vertex set of a graph once;
    the memo is fresh per block and dropped when the block exits."""
    token = _SOLVING.set((_cap(limit), {}))
    try:
        yield
    finally:
        _SOLVING.reset(token)


def check_limit(what: str, size: int, limit: int | None = None) -> None:
    """Refuse ``what`` on an instance of ``size`` above the cap: ``limit``,
    or the ``solving`` context's when it is None."""
    cap = _cap(limit)
    if size > cap:
        raise InstanceTooLarge(what, size, cap)


def _dsatur_ranks(g: Graph) -> tuple[list[int], list[int]]:
    """DSATUR's tie-break as a relabelling: each vertex's rank (degree
    descending, then id) and each rank's neighbour mask over ranks."""
    bits = g.bits
    # sorted is stable, so equal degrees stay in increasing id order.
    rank = sorted(range(g.n), key=lambda u: -bits[u].bit_count())
    where = [0] * g.n
    to_rank = {}  # vertex bit -> rank bit
    for r, v in enumerate(rank):
        where[v] = r
        to_rank[1 << v] = 1 << r
    return where, [remap(bits[v], to_rank) for v in rank]


def greedy_coloring(g: Graph) -> Coloring:
    """DSATUR greedy colouring; an upper bound, never reported as chi.

    The next vertex has the most distinct neighbour colours, ties toward
    the highest static degree, then the lowest vertex id, so output is
    reproducible; it takes the lowest colour none of its neighbours has.
    Runs on the bitsets of ``_k_colorable``, of which it is the first
    descent.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    where, bits = _dsatur_ranks(g)
    forbidden: list[int] = []
    # A saturation never exceeds n - 1, so n.bit_length() planes hold it.
    planes = [0] * n.bit_length()
    color = [0] * n  # by rank
    uncolored = (1 << n) - 1
    while uncolored:
        cand = uncolored
        for plane in reversed(planes):
            top = cand & plane
            if top:
                cand = top
        low = cand & -cand
        uncolored ^= low
        v = low.bit_length() - 1
        c = 0
        for mask in forbidden:
            if not mask & low:
                break
            c += 1
        else:
            forbidden.append(0)
        color[v] = c
        nb = bits[v]
        carry = nb & ~forbidden[c]
        b = 0
        while carry:
            x = planes[b]
            planes[b] = x ^ carry
            carry &= x
            b += 1
        forbidden[c] |= nb
    return Coloring(tuple(color[r] for r in where), len(forbidden))


def clique_number(
    g: Graph, limit: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique.

    Branch and bound over candidate bitsets with a greedy-colouring
    bound; the search order is fixed, so the witness is deterministic.
    """
    check_limit("clique_number", g.n, limit)
    n = g.n
    if n == 0:
        return 0, ()
    bits = g.bits
    best_size = 0
    best_set: list[int] = []

    def expand(current: list[int], cand: int) -> None:
        nonlocal best_size, best_set
        # First-fit colouring of ``cand`` in id order, built one class at
        # a time: class k is the greedy stable set, lowest id first, of
        # the vertices no earlier class holds, so placing a vertex is one
        # mask operation.  Only each class's lowest vertex is kept.
        # ``first`` increases with k, and first-fit's class count once v
        # is placed, the number of ``first[k] <= v``, bounds the clique
        # among v and the candidates below it.
        first: list[int] = []
        uncolored = cand
        while uncolored:
            avail = uncolored
            first.append((avail & -avail).bit_length() - 1)
            while avail:
                low = avail & -avail
                uncolored ^= low
                avail &= ~(bits[low.bit_length() - 1] | low)
        # Branch from the highest candidate down.  The bound never grows
        # along that walk, so the first vertex that cannot beat the
        # incumbent ends this node: the test and the vertices it runs at
        # are those of colouring vertex by vertex, so the search tree and
        # the witness are too.  first[0] is the lowest candidate, so k
        # stays at least 1.
        k = len(first)
        while cand:
            v = cand.bit_length() - 1
            while first[k - 1] > v:
                k -= 1
            if len(current) + k <= best_size:
                return
            current.append(v)
            sub = cand & bits[v]
            if not sub:
                if len(current) > best_size:
                    best_size = len(current)
                    best_set = sorted(current)
            else:
                expand(current, sub)
            current.pop()
            cand ^= 1 << v

    try:
        expand([], (1 << n) - 1)
    finally:
        del expand  # break the closure's reference cycle
    return best_size, tuple(best_set)


def _k_colorable(
    g: Graph, k: int, ranks: tuple[list[int], list[int]] | None = None
) -> Coloring | None:
    """Backtracking k-colourability with DSATUR branching, on bitsets.

    The next vertex is the uncoloured one with the most distinct
    neighbour colours, ties toward the higher degree and then the lower
    id.  Colours are tried in increasing order, and symmetry is broken by
    allowing at most one previously unused colour per decision.

    Vertices are relabelled by that tie-break (degree descending, then
    id), so the pick is the lowest-rank vertex of maximum saturation.
    ``forbidden[c]`` masks the vertices with a neighbour coloured c, and
    saturations are bit-sliced: bit r of ``planes[b]`` is bit b of rank
    r's count, so a pick costs O(log k) big-int operations.  ``ranks``
    is ``_dsatur_ranks(g)``, passed by a caller that already has it.
    """
    n = g.n
    if k == 0:
        return Coloring((), 0) if n == 0 else None
    where, bits = ranks or _dsatur_ranks(g)
    forbidden = [0] * k
    color = [-1] * n  # by rank

    def solve(uncolored: int, planes: list[int], used: int) -> bool:
        if not uncolored:
            return True
        cand = uncolored
        for plane in reversed(planes):
            top = cand & plane
            if top:
                cand = top
        low = cand & -cand
        v = low.bit_length() - 1
        nb = bits[v]
        # Conditionals, not min() and max(): builtin calls are most of a
        # node's fixed cost.
        for c in range(used + 1 if used < k else k):
            before = forbidden[c]
            if before & low:
                continue
            # One more colour for each neighbour not yet next to colour c.
            carry = nb & ~before
            after = planes[:]
            b = 0
            while carry:
                x = after[b]
                after[b] = x ^ carry
                carry &= x
                b += 1
            forbidden[c] = before | nb
            color[v] = c
            if solve(uncolored ^ low, after, c + 1 if c == used else used):
                return True
            forbidden[c] = before
        return False

    # A saturation never exceeds k, so k.bit_length() planes hold it.
    try:
        if not solve((1 << n) - 1, [0] * k.bit_length(), 0):
            return None
    finally:
        # solve refers to itself through its closure; breaking the cycle
        # frees it now instead of at the next cycle collection.
        del solve
    colors = [color[r] for r in where]
    return Coloring(tuple(colors), max(colors) + 1 if colors else 0)


def chromatic_number(g: Graph, limit: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness colouring of that size."""
    check_limit("chromatic_number", g.n, limit)
    if g.n == 0:
        return 0, Coloring((), 0)
    if not any(g.bits):
        return 1, Coloring((0,) * g.n, 1)
    return _chromatic_given_omega(g, clique_number(g, limit=limit)[0])


def _chromatic_given_omega(g: Graph, omega: int) -> tuple[int, Coloring]:
    """``chromatic_number`` of a graph whose clique number ``omega`` is
    already known, so a caller that reports both searches for it once."""
    upper_col = greedy_coloring(g)
    upper = upper_col.palette_size
    if omega == upper:
        return upper, upper_col
    ranks = _dsatur_ranks(g)  # one relabelling for every k
    for k in range(omega, upper):
        col = _k_colorable(g, k, ranks)
        if col is not None:
            # Witness palette must be exactly k even when the search used
            # fewer colours than allowed.
            return k, Coloring(col.colors, k)
    return upper, upper_col


def chi_local(g: Graph, k: int, limit: int | None = None) -> int:
    """Maximum chromatic number over all closed distance-k balls.

    The null graph scores 0.  The solver limit applies to the largest
    ball, not to the graph itself.

    Distinct balls are walked in vertex order.  A ball whose DSATUR
    palette is no larger than the best chi so far is skipped, and the
    walk stops once the best chi reaches the DSATUR palette of ``g``.
    Both bounds are exact: a ball induces a subgraph of ``g``, so its
    chi is at most the host's chi, hence at most the host's palette, and
    at most the ball's own palette.  Only the remaining balls are
    coloured exactly.
    """
    if k < 1:
        raise ValueError("radius must be positive")
    if g.n == 0:
        return 0
    balls = [neighborhood_closed(g, v, k) for v in range(g.n)]
    biggest = max(len(b) for b in balls)
    check_limit(f"chi_local(k={k})", biggest, limit)
    cap = greedy_coloring(g).palette_size
    best = 0
    seen: set[frozenset[int]] = set()
    for ball in balls:
        if best == cap:
            break
        if ball in seen:
            continue
        seen.add(ball)
        if greedy_coloring(subset_view(g, mask_of(ball))[0]).palette_size > best:
            best = max(best, chi_of_set(g, ball, limit))
    return best


def chi_of_set(g: Graph, verts: frozenset[int], limit: int | None = None) -> int:
    """Exact chromatic number of the subgraph induced by ``verts``.

    A set above the solver limit is refused as ``chromatic_number``
    would refuse it, before any work; a vertex outside the graph raises
    ``ValueError``.
    """
    check_limit("chromatic_number", len(verts), limit)
    key = (g, mask_of(check_vertex_set(g, verts)))
    context = _SOLVING.get(None)
    known = {} if context is None else context[1]
    if key not in known:
        view, _ = subset_view(*key)
        known[key] = chromatic_number(view, limit=limit)[0]
    return known[key]

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
DSATUR colourings read one :func:`~broomlab.graphs.ranked_view` of the
graph, whose vertices are numbered by the tie-break (degree descending,
then id), and run on its bitsets: one forbidden-vertex mask per colour
and bit-sliced saturation counters, so choosing the next vertex costs
O(log k) big-int operations.  A ranked view is its own ranked view, so
the solvers take one built for a vertex set (degrees counted inside the
set) as it is, and each member is relabelled once.  The greedy colouring is the backtracking search's first descent
with unbounded colours: the same pick, and the lowest colour free at
the picked vertex.  It is an upper bound only and is never reported as
the chromatic number unless the clique bound meets it.

A :func:`solving` block is the one exact-search context and the one
way to set the size cap: it holds the cap and a chi memo, so no search
takes either as an argument (``with solving(100): chromatic_number(g)``).
:func:`check_limit` is the one place the cap is read (the innermost
block's, else ``DEFAULT_SOLVER_LIMIT``): every exact search refuses
through it.
:func:`chi_of_set` is the exact chromatic number of the subgraph induced
by a vertex set: it refuses by size, then colours the set's ranked
view, the one view ``chi_local`` also reads a ball's DSATUR palette
from.  Inside a block it colours each vertex set once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Graph,
    SubsetView,
    bfs_levels,
    check_vertex_set,
    mask_of,
    members,
    ranked_view,
)

DEFAULT_SOLVER_LIMIT = 64


class InstanceTooLarge(Exception):
    """Raised when an instance exceeds the exact-solver size limit."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.limit = cap
        super().__init__(f"{what}: size {size} exceeds solver limit {cap}")


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


def _cap() -> int:
    """The innermost ``solving`` block's cap, else ``DEFAULT_SOLVER_LIMIT``."""
    context = _SOLVING.get(None)
    return DEFAULT_SOLVER_LIMIT if context is None else context[0]


@contextmanager
def solving(limit: int | None = None) -> Iterator[None]:
    """One exact-search context, the only way to set the size cap.
    Inside the block, every search refuses above ``limit`` (with None,
    the enclosing cap), and ``chi_of_set`` colours each vertex set of a
    graph once; the memo is fresh per block and dropped when the block
    exits."""
    token = _SOLVING.set((_cap() if limit is None else limit, {}))
    try:
        yield
    finally:
        _SOLVING.reset(token)


def check_limit(what: str, size: int) -> None:
    """Refuse ``what`` on an instance of ``size`` above the cap of the
    innermost ``solving`` block, else ``DEFAULT_SOLVER_LIMIT``."""
    cap = _cap()
    if size > cap:
        raise InstanceTooLarge(what, size, cap)


def _by_id(color: list[int], ids: list[int]) -> tuple[int, ...]:
    """Colours listed by rank, relisted by the id each rank stands for."""
    out = [0] * len(ids)
    for c, v in zip(color, ids):
        out[v] = c
    return tuple(out)


def _dsatur_greedy(bits: tuple[int, ...]) -> tuple[list[int], int]:
    """The greedy DSATUR colouring of a ranked view's ``bits``: each
    rank's colour, and the number of colours used."""
    n = len(bits)
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
    return color, len(forbidden)


def greedy_coloring(g: Graph) -> Coloring:
    """DSATUR greedy colouring; an upper bound, never reported as chi.

    The next vertex has the most distinct neighbour colours, ties toward
    the highest static degree, then the lowest vertex id, so output is
    reproducible; it takes the lowest colour none of its neighbours has.
    Runs on the ranked view and bitsets of ``_k_colorable``, of which it
    is the first descent.
    """
    view, ids = ranked_view(g, (1 << g.n) - 1)
    color, palette = _dsatur_greedy(view.bits)
    return Coloring(_by_id(color, ids), palette)


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique.

    Branch and bound over candidate bitsets with a greedy-colouring
    bound; the search order is fixed, so the witness is deterministic.
    """
    check_limit("clique_number", g.n)
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


def _k_colorable(g: Graph, k: int) -> Coloring | None:
    """Backtracking k-colourability with DSATUR branching, on bitsets.

    The next vertex is the uncoloured one with the most distinct
    neighbour colours, ties toward the higher degree and then the lower
    id.  Colours are tried in increasing order, and symmetry is broken by
    allowing at most one previously unused colour per decision.

    The search reads the ranked view of ``g`` (ids in that tie-break's
    order: degree descending, then id), so the pick is the lowest-rank
    vertex of maximum saturation.  A ranked view is its own ranked view,
    so a caller that passes one has nothing relabelled here.
    ``forbidden[c]`` masks the vertices with a neighbour coloured c, and
    saturations are bit-sliced: bit r of ``planes[b]`` is bit b of rank
    r's count, so a pick costs O(log k) big-int operations.
    """
    n = g.n
    if k == 0:
        return Coloring((), 0) if n == 0 else None
    view, ids = ranked_view(g, (1 << n) - 1)
    bits = view.bits
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
    colors = _by_id(color, ids)
    return Coloring(colors, max(colors) + 1 if colors else 0)


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness colouring of that size."""
    check_limit("chromatic_number", g.n)
    if g.n == 0:
        return 0, Coloring((), 0)
    if not any(g.bits):
        return 1, Coloring((0,) * g.n, 1)
    return _chromatic_given_omega(g, clique_number(g)[0])


def _chromatic_given_omega(g: Graph, omega: int) -> tuple[int, Coloring]:
    """``chromatic_number`` of a graph whose clique number ``omega`` is
    already known, so a caller that reports both searches for it once."""
    view, ids = ranked_view(g, (1 << g.n) - 1)  # one relabelling for every k
    color, upper = _dsatur_greedy(view.bits)
    for k in range(omega, upper):
        found = _k_colorable(view, k)
        if found is not None:
            # Witness palette must be exactly k even when the search used
            # fewer colours than allowed.
            return k, Coloring(_by_id(found.colors, ids), k)
    return upper, Coloring(_by_id(color, ids), upper)


def chi_local(g: Graph, k: int) -> int:
    """Maximum chromatic number over all closed distance-k balls.

    The null graph scores 0.  The solver cap applies to the largest
    ball, not to the graph itself.

    Distinct balls are walked in vertex order, each as one ranked view.
    A ball whose DSATUR palette, read off that view, is no larger than
    the best chi so far is skipped, and the walk stops once the best chi
    reaches the DSATUR palette of ``g``.  Both bounds are exact: a ball
    induces a subgraph of ``g``, so its chi is at most the host's chi,
    hence at most the host's palette, and at most the ball's own
    palette.  Only the remaining balls are coloured exactly, from the
    same view.
    """
    if k < 1:
        raise ValueError("radius must be positive")
    if g.n == 0:
        return 0
    balls = list(dict.fromkeys(bfs_levels(g, v, k)[1] for v in range(g.n)))
    check_limit(f"chi_local(k={k})", max(b.bit_count() for b in balls))
    cap = greedy_coloring(g).palette_size
    best = 0
    for ball in balls:
        if best == cap:
            break
        view, _ = ranked_view(g, ball)
        if _dsatur_greedy(view.bits)[1] > best:
            best = max(best, _chi_of_mask(g, ball, view))
    return best


def chi_of_set(g: Graph, verts: frozenset[int]) -> int:
    """Exact chromatic number of the subgraph induced by ``verts``.

    A set above the solver cap is refused as ``chromatic_number`` would
    refuse it, before any work; a vertex outside the graph raises
    ``ValueError``.  Inside a ``solving`` block each set is coloured
    once.
    """
    check_limit("chromatic_number", len(verts))
    return _chi_of_mask(g, mask_of(check_vertex_set(g, verts)))


def _chi_of_mask(g: Graph, mask: int, view: SubsetView | None = None) -> int:
    """``chi_of_set`` of the members of ``mask``, from the memo of the
    ``solving`` block if any; ``view`` is their ranked view when the
    caller has built it already."""
    context = _SOLVING.get(None)
    known = {} if context is None else context[1]
    key = (g, mask)
    if key not in known:
        if view is None:
            view, _ = ranked_view(g, mask)
        known[key] = chromatic_number(view)[0]
    return known[key]

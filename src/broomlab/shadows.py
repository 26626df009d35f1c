"""Shadowings of template arrays, daisy and bunch search, the private
cover construction, privatization, and the strong-triple audit.

A shadowing splits U into blocks, one per template, each block attached
to its template.  A daisy is an induced star with its root in some H,
its eye in U, and its petals inside a single foreign block.  The private
cover construction peels off matching-covered layers of a covered set
until every surviving cover vertex owns an exact number of private
clients; privatization applies it to the Z part of an array.

Every vertex set that a search here is given or stores is an int mask
over vertex ids.  Frozensets stay only on the sets a caller hands to
``private_cover`` and ``verify_private_cover``, on the array that
``privatize`` builds, and in ``Shadowing.blocks``, the oracle's view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .constants import nested_s_of, shadow_chi_bound_of, shadow_chi_r_of
from .graphs import (
    Graph,
    check_vertex_set,
    least_stable_subset,
    lowest,
    mask_of,
    members,
    neighbors_of,
)
from .solvers import _chi_or_none
from .structures import is_matching_covered
from .templates import (
    Template,
    TemplateArray,
    _contacts,
    _longest_path,
    is_2_cleaned,
)


@dataclass(frozen=True)
class Shadowing:
    """One block of U per template, each an int mask over vertex ids."""

    masks: tuple[int, ...]

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as vertex sets, for the set-based daisy oracle."""
        return tuple([frozenset(members(b)) for b in self.masks])

    def to_json_dict(self) -> dict:
        return {"blocks": [members(b) for b in self.masks]}


def validate_shadowing(arr: TemplateArray, s: Shadowing) -> list[str]:
    if len(s.masks) != arr.size:
        return ["block count differs from template count"]
    problems = []
    union = 0
    for i, b in enumerate(s.masks):
        if b & union:
            problems.append(f"block {i} overlaps an earlier block")
        union |= b
        for v in members(b & ~neighbors_of(arr.graph, arr.templates[i].hmask)):
            problems.append(f"block {i} vertex {v} misses template {i}")
    if union != arr.umask:
        problems.append("blocks do not partition U")
    return problems


def build_shadowing(arr: TemplateArray) -> Shadowing:
    """Partition U into per-template blocks: each vertex goes to the
    first template it touches (the least-index shadowing)."""
    g, n, hs = arr.graph, arr.size, arr.h_masks()
    blocks = [0] * n
    for u in members(arr.umask):
        i = min(i for i in range(n) if g.bits[u] & hs[i])
        blocks[i] |= 1 << u
    return Shadowing(tuple(blocks))


def shadowing_degree(
    arr: TemplateArray, s: Shadowing, x: int | None = None
) -> tuple[int, int | None]:
    """Maximum number of blocks (restricted to ``x``, an int mask of
    vertex ids, all of U when None) any array vertex touches, with the
    lowest vertex attaining it."""
    xs = arr.umask if x is None else x
    if xs >> arr.graph.n:  # also catches a negative mask
        raise ValueError(f"vertex mask outside 0..{arr.graph.n - 1}")
    best, argmax = 0, None
    for v, idx in _contacts(arr, [b & xs for b in s.masks]):
        if len(idx) > best:
            best, argmax = len(idx), v
    return best, argmax


@dataclass(frozen=True)
class Daisy:
    root: int
    eye: int
    petals: int  # a mask
    root_index: int
    petal_index: int


def validate_daisy(arr: TemplateArray, s: Shadowing, d: Daisy) -> list[str]:
    g, p = arr.graph, arr.params
    problems = []
    if d.petals.bit_count() != p.delta:
        problems.append("petal count is not delta")
    if not arr.templates[d.root_index].hmask >> d.root & 1:
        problems.append("root outside its declared template")
    if not arr.umask >> d.eye & 1:
        problems.append("eye outside U")
    if d.petal_index == d.root_index:
        problems.append("petal block equals root template")
    if d.petals & ~s.masks[d.petal_index]:
        problems.append("petals leave their block")
    if (d.petals | 1 << d.eye) & arr.h_mask:
        problems.append("eye or petal inside H")
    bits = g.bits
    if not bits[d.root] >> d.eye & 1:
        problems.append("eye not adjacent to root")
    for q in members(d.petals):
        if not bits[d.eye] >> q & 1:
            problems.append("petal not adjacent to eye")
        if bits[d.root] >> q & 1:
            problems.append("petal adjacent to root")
    if neighbors_of(g, d.petals) & d.petals:
        problems.append("petals not stable")
    return problems


def find_daisy(arr: TemplateArray, s: Shadowing) -> Daisy | None:
    """Exhaustive daisy search inside H union U, lowest choices first."""
    g, p = arr.graph, arr.params
    bits, um, hs = g.bits, arr.umask, arr.h_masks()
    for eye in members(um):
        for root in members(bits[eye] & arr.h_mask):
            i = next(i for i, h in enumerate(hs) if h >> root & 1)
            # Petals: U neighbours of the eye, off the root's neighbours and block.
            near = bits[eye] & um & ~bits[root] & ~s.masks[i]
            for j, block in enumerate(s.masks):
                cand = members(near & block)
                picked = least_stable_subset(g, cand, p.delta)
                if picked is not None:
                    petals = sum(1 << cand[k] for k in picked)
                    return Daisy(root, eye, petals, i, j)
    return None


def validate_bunch(
    arr: TemplateArray, s: Shadowing, daisies: tuple[Daisy, ...]
) -> list[str]:
    g = arr.graph
    problems = []
    block_ids = [d.petal_index for d in daisies]
    if len(set(block_ids)) != len(block_ids):
        problems.append("petal blocks are not distinct")
    root_indices = {d.root_index for d in daisies}
    if len(root_indices) != 1:
        problems.append("roots do not share a template index")
    elif root_indices & set(block_ids):
        problems.append("root template index collides with a petal block")
    for d in daisies:
        problems += validate_daisy(arr, s, d)
    for a, b in combinations(daisies, 2):
        problems += _interference(g, a, b)
    return problems


def _interference(g: Graph, a: Daisy, b: Daisy) -> list[str]:
    """Every way two daisies of a bunch fail to be separated."""
    sa, sb = a.petals | 1 << a.eye, b.petals | 1 << b.eye
    problems = []
    if sa & sb:
        problems.append("eye/petal sets intersect")
    if neighbors_of(g, sa) & sb:
        problems.append("edge between eye/petal sets")
    for x, y in ((a, b), (b, a)):
        if g.bits[x.root] & y.petals:
            problems.append("root adjacent to a foreign petal")
    return problems


def find_bunch(
    arr: TemplateArray, s: Shadowing, count: int
) -> tuple[Daisy, ...] | None:
    """Search for ``count`` daisies with eyes and petals in U, distinct
    petal blocks, a common root template not among those blocks, and
    full pairwise separation."""
    if count < 1:
        raise ValueError("count must be positive")
    g, p = arr.graph, arr.params
    bits, umask, n = g.bits, arr.umask, arr.size

    def daisies_for(i: int, j: int) -> list[Daisy]:
        out = []
        block = s.masks[j] & umask
        for eye in members(umask):
            for root in members(bits[eye] & arr.templates[i].hmask):
                cand = members(bits[eye] & block & ~bits[root])
                for petals in combinations(cand, p.delta):
                    m = sum(1 << q for q in petals)
                    if not neighbors_of(g, m) & m:
                        out.append(Daisy(root, eye, m, i, j))
        return out

    for i in range(n):
        blocks = [j for j in range(n) if j != i and s.masks[j] & umask]
        if len(blocks) < count:
            continue
        options = [daisies_for(i, j) for j in blocks]
        chosen: list[Daisy] = []

        def pick(start: int) -> bool:
            if len(chosen) == count:
                return True
            for k in range(start, len(blocks)):
                for d in options[k]:
                    if not any(_interference(g, d, c) for c in chosen):
                        chosen.append(d)
                        if pick(k + 1):
                            return True
                        chosen.pop()
            return False

        try:
            if pick(0):
                return tuple(chosen)
        finally:
            del pick  # break the closure's reference cycle
    return None


# ---------------------------------------------------------------------------
# Private cover and privatization


@dataclass(frozen=True)
class PrivateCover:
    """The kept cover, the peeled set and its layers, as int masks."""

    a_prime: int
    b_prime: int
    decomposition: tuple[int, ...]


def private_cover(
    g: Graph, a: frozenset[int], b: frozenset[int], d: int
) -> PrivateCover:
    """Peel d matching-covered layers off a covered set.

    Level by level: shrink the cover greedily in increasing vertex order
    while it still covers what remains, then hand every surviving cover
    vertex its lowest private client.  The construction guarantees:
    the shrunken cover still covers b minus the peeled part, each peeled
    vertex keeps at most one cover neighbour, and every cover vertex
    owns exactly d peeled clients.
    """
    a_mask = mask_of(check_vertex_set(g, a))
    b_mask = mask_of(check_vertex_set(g, b))
    if a_mask & b_mask:
        raise ValueError("cover and covered sets must be disjoint")
    if d < 0:
        raise ValueError("layer count must be nonnegative")
    for v in members(b_mask):
        if not g.bits[v] & a_mask:
            raise ValueError(f"vertex {v} is not covered")
    return _peel(g, a_mask, b_mask, d)


def _peel(g: Graph, a_mask: int, b_mask: int, d: int) -> PrivateCover:
    """``private_cover`` on masks whose preconditions hold."""
    bits = g.bits
    kept, peeled = a_mask, 0
    layers: list[int] = []
    for _ in range(d):
        remaining = b_mask & ~peeled
        clients = members(remaining)
        # Greedy minimization: drop cover vertices in increasing order
        # whenever the rest still covers the remaining clients.
        for u in members(kept):
            trial = kept & ~(1 << u)
            if all(bits[v] & trial for v in clients):
                kept = trial
        layer = 0
        for u in members(kept):
            private = [
                v
                for v in members(bits[u] & remaining)
                if (bits[v] & kept).bit_count() == 1
            ]
            # Minimality guarantees at least one private client.
            layer |= 1 << private[0]
        layers.append(layer)
        peeled |= layer
    return PrivateCover(a_prime=kept, b_prime=peeled, decomposition=tuple(layers))


def verify_private_cover(
    g: Graph, a: frozenset[int], b: frozenset[int], d: int, pc: PrivateCover
) -> list[str]:
    bits, kept, peeled = g.bits, pc.a_prime, pc.b_prime
    b_mask = mask_of(b)
    problems = []
    if kept & ~mask_of(a) or peeled & ~b_mask:
        problems.append("outputs leave their source sets")
    for v in members(b_mask & ~peeled & ~neighbors_of(g, kept)):
        problems.append(f"vertex {v} lost its cover")
    if len(pc.decomposition) != d:
        problems.append("wrong number of layers")
    union = 0
    for layer in pc.decomposition:
        union |= layer
        if not is_matching_covered(g, members(layer)).ok:
            problems.append("layer is not matching-covered")
    if union != peeled:
        problems.append("layers do not union to the peeled set")
    for v in members(peeled):
        if (bits[v] & kept).bit_count() > 1:
            problems.append(f"peeled vertex {v} keeps several cover neighbours")
    for u in members(kept):
        if (bits[u] & peeled).bit_count() != d:
            problems.append(f"cover vertex {u} owns {(bits[u] & peeled).bit_count()} != {d} clients")
    return problems


@dataclass(frozen=True)
class Privatization:
    """``pi``, the peeled layers and the peeled set, as int masks."""

    pi: int
    private_neighbor: tuple[tuple[int, int], ...]  # (pi vertex, Z vertex)
    cover_decomposition: tuple[int, ...]
    b_source: int

    def to_json_dict(self) -> dict:
        return {
            "pi": members(self.pi),
            "private_neighbor": {str(k): v for k, v in self.private_neighbor},
            "cover_decomposition": [members(s) for s in self.cover_decomposition],
            "b_source": members(self.b_source),
        }


def validate_privatization(arr: TemplateArray, p: Privatization) -> list[str]:
    bits, y = arr.graph.bits, arr.y_mask
    z = arr.h_mask & ~y
    problems = []
    nm = dict(p.private_neighbor)
    for v in members(p.pi):
        zn = bits[v] & z
        if zn.bit_count() != 1:
            problems.append(f"pi vertex {v} has {zn.bit_count()} Z neighbours")
        elif lowest(zn) != nm.get(v):
            problems.append(f"pi vertex {v} maps to a non-neighbour")
        if bits[v] & y:
            problems.append(f"pi vertex {v} touches a core")
    quota = arr.params.delta * arr.params.tau
    for u in members(z):
        count = (bits[u] & p.pi).bit_count()
        if count != quota:
            problems.append(f"Z vertex {u} has {count} != {quota} pi neighbours")
    return problems


def privatize(arr: TemplateArray) -> tuple[TemplateArray, Privatization, dict]:
    """Apply the private cover to the Z part of a 2-cleaned array.

    The clients are the U vertices with no core neighbour; peeling
    delta*tau layers leaves a shrunken array whose surviving Z vertices
    each own exactly delta*tau private U vertices.  The chromatic cost
    of the peeled set is recorded exactly when computable.
    """
    if not is_2_cleaned(arr):
        raise ValueError("privatize requires a 2-cleaned array")
    g, p = arr.graph, arr.params
    bits, y = g.bits, arr.y_mask
    z = arr.h_mask & ~y
    b = arr.umask & ~neighbors_of(g, y)
    stray = b & ~neighbors_of(g, z)
    if stray:
        raise ValueError(
            f"corrupt array: U vertex {lowest(stray)} has neighbours in neither Y nor Z"
        )
    quota = p.delta * p.tau
    pc = _peel(g, z, b, quota)
    kept, peeled = pc.a_prime, pc.b_prime
    pi = peeled & neighbors_of(g, kept)
    pairs = tuple([(v, lowest(bits[v] & kept)) for v in members(pi)])
    new_templates = tuple([
        Template(core=t.core, h=frozenset(members((t.hmask & kept) | t.core.mask)))
        for t in arr.templates
    ])
    rest = arr.umask & ~peeled  # the new U is rest and pi
    out = replace(arr, templates=new_templates, u=frozenset(members(rest | pi)))
    priv = Privatization(pi, pairs, pc.decomposition, peeled)
    chi_u_before = _chi_or_none(g, arr.umask)
    chi_rest = _chi_or_none(g, rest)
    chi_peeled = _chi_or_none(g, peeled)
    report = {
        "pass": "privatize",
        "quota": quota,
        "pi_size": pi.bit_count(),
        "peeled": members(peeled),
        "chi_u_before": chi_u_before,
        "chi_u_after_minus_pi": chi_rest,
        "chi_peeled": chi_peeled,
        "claimed_subtraction": p.delta * p.tau * p.tau,
        "unconditional_inequality_holds": (
            None
            if None in (chi_u_before, chi_rest, chi_peeled)
            else chi_rest >= chi_u_before - chi_peeled
        ),
    }
    return out, priv, report


# ---------------------------------------------------------------------------
# Strong triples


@dataclass(frozen=True)
class StrongTripleReport:
    triples_by_base: dict[int, tuple[tuple[int, int, int], ...]]
    packing_by_base: dict[int, int]
    r_bound: int
    chi_unprivatized: int | None
    chi_bound: int
    orientation_palette: int
    orientation_proper: bool

    def to_json_dict(self) -> dict:
        return {
            "triples_by_base": {
                str(i): [list(t) for t in ts]
                for i, ts in self.triples_by_base.items()
            },
            "packing_by_base": {str(i): c for i, c in self.packing_by_base.items()},
            "r_bound": self.r_bound,
            "chi_unprivatized": self.chi_unprivatized,
            "chi_bound": self.chi_bound,
            "orientation_palette": self.orientation_palette,
            "orientation_proper": self.orientation_proper,
        }


def strong_triple_audit(
    arr: TemplateArray, s: Shadowing, priv: Privatization
) -> StrongTripleReport:
    """Enumerate strong triples over the unprivatized blocks and run the
    earlier-to-later orientation check.

    Base index i is strong to (a, b, c) when i precedes all three,
    a precedes c, some adjacent pair (u, v) sits in blocks i and a, u
    has delta stable block-b neighbours, and v has delta stable block-c
    neighbours avoiding u.  Counts are compared against the (enormous)
    derived bound; the orientation directs cross-block edges
    from earlier to later blocks and must colour properly by longest
    path.
    """
    g, p = arr.graph, arr.params
    bits, n = g.bits, arr.size
    pi = priv.pi
    rest = [b & ~pi for b in s.masks]

    def has_stable_neighbors(v: int, pool: int, avoid: int | None) -> bool:
        cand = bits[v] & pool & ~(0 if avoid is None else bits[avoid])
        return least_stable_subset(g, members(cand), p.delta) is not None

    triples: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(n):
        found: list[tuple[int, int, int]] = []
        for a in range(i + 1, n):
            pairs = [(u, v) for u in members(rest[i]) for v in members(bits[u] & rest[a])]
            if not pairs:
                continue
            for b in range(i + 1, n):
                for c in range(a + 1, n):
                    if any(
                        has_stable_neighbors(u, rest[b], None)
                        and has_stable_neighbors(v, rest[c], u)
                        for u, v in pairs
                    ):
                        found.append((a, b, c))
        if found:
            triples[i] = found

    packing: dict[int, int] = {}
    for i, ts in triples.items():
        used = count = 0
        for a, b, c in sorted(ts):
            abc = 1 << a | 1 << b | 1 << c
            if not abc & used:
                used |= abc
                count += 1
        packing[i] = count

    s_obs = max(shadowing_degree(arr, s, arr.umask & ~pi)[0], 1)
    r_bound = shadow_chi_r_of(p, max(s_obs, nested_s_of(p)))

    # Cross-block edges, directed from the earlier block to the later:
    # block order is a topological order, and each vertex's arcs in come
    # from its neighbours in earlier blocks.
    into: list[tuple[int, int]] = []
    earlier = 0
    for r in rest:
        into += [(v, bits[v] & earlier) for v in members(r)]
        earlier |= r
    colors, palette = _longest_path(into)
    proper = all(colors[u] != colors[v] for v, m in into for u in members(m))

    return StrongTripleReport(
        triples_by_base={i: tuple(ts) for i, ts in triples.items()},
        packing_by_base=packing,
        r_bound=r_bound,
        chi_unprivatized=_chi_or_none(g, arr.umask & ~pi),
        chi_bound=shadow_chi_bound_of(p),
        orientation_palette=palette,
        orientation_proper=proper,
    )


"""Template arrays over multipartite cores, the greedy extraction loop,
bounded-outdegree digraph colouring, the three cleaning passes, the
per-lemma bound audit, and target-tree witness extraction from audit
violations.

A template pairs a core Y with a set H of vertices all eta-mixed on Y.
A template array strings templates together with strong non-interaction
conditions plus an attached outside set U.  Cleaning passes trade
chromatic content of U for progressively stronger separation; every
pass validates its declared output predicate and is the identity on
already-clean input.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

from .constants import (
    clean2_t_of,
    dense_bound_of,
    epsilon_of,
    gamma_of,
    nested_s_of,
    nested_side_conditions_ok,
    partial2_d_of,
    shadow_chi_bound_of,
    strong_s_of,
)
from .graphs import (
    Digraph,
    Graph,
    least_stable_subset,
    lowest,
    mask_of,
    members,
    neighbors_of,
    ranked_view,
)
from .solvers import (
    Coloring,
    _chi_or_none,
    chi_of_set,
    greedy_coloring,
)
from .structures import (
    CoreWitness,
    Params,
    density_masks,
    find_core,
    verify_core,
)
from .trees import (
    AssembleResult,
    Embedding,
    PatternTree,
    assemble_T_delta,
    build_broom,
    find_rooted_broom,
)

@dataclass(frozen=True)
class Template:
    core: CoreWitness
    h: frozenset[int]
    hmask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hmask", mask_of(self.h))


@dataclass(frozen=True)
class TemplateArray:
    """Templates and U.  ``umask``, ``h_mask`` (the union of the H sets)
    and ``y_mask`` (of the cores) hold the same sets as int masks over
    vertex ids; ``density`` holds each template's ``density_masks``."""

    graph: Graph
    templates: tuple[Template, ...]
    u: frozenset[int]
    params: Params
    cleanliness: str = "raw"
    partial2_degree: int | None = None
    umask: int = field(init=False, repr=False, compare=False)
    h_mask: int = field(init=False, repr=False, compare=False)
    y_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cleanliness not in CLEANLINESS_LEVELS:
            raise ValueError(f"unknown cleanliness level {self.cleanliness!r}")
        object.__setattr__(self, "umask", mask_of(self.u))
        object.__setattr__(self, "h_mask", _union(self.h_masks()))
        object.__setattr__(self, "y_mask", _union(self.y_masks()))
        if (self.umask | self.h_mask) >> self.graph.n:
            raise ValueError(f"array vertex out of range for n={self.graph.n}")

    @property
    def size(self) -> int:
        return len(self.templates)

    def h_sets(self) -> list[frozenset[int]]:
        return [t.h for t in self.templates]

    def h_masks(self) -> list[int]:
        return [t.hmask for t in self.templates]

    def y_masks(self) -> list[int]:
        return [t.core.mask for t in self.templates]

    @functools.cached_property
    def density(self) -> list[tuple[int, int]]:
        g, p = self.graph, self.params
        return [density_masks(g, t.core, p.alpha, p.eta) for t in self.templates]

    def to_json_dict(self) -> dict:
        return {
            "cleanliness": self.cleanliness,
            "partial2_degree": self.partial2_degree,
            "templates": [
                {
                    "core_parts": [sorted(p) for p in t.core.parts],
                    "h": sorted(t.h),
                }
                for t in self.templates
            ],
            "u": sorted(self.u),
        }


def validate_template_array(arr: TemplateArray) -> list[str]:
    """All structural invariants; returns human-readable violations."""
    g, p = arr.graph, arr.params
    problems: list[str] = []
    # verify_core runs first: it raises for a core vertex outside the graph.
    core_ok = [verify_core(g, t.core, p.zeta, p.beta) for t in arr.templates]
    mixed = [m for _, m in arr.density]
    for idx, t in enumerate(arr.templates):
        if not core_ok[idx]:
            problems.append(f"template {idx}: core is not a ({p.zeta},{p.beta})-core")
            continue
        if t.core.mask & ~t.hmask:
            problems.append(f"template {idx}: core not contained in H")
        for v in members(t.hmask & ~mixed[idx]):
            problems.append(f"template {idx}: H vertex {v} not mixed on core")
    hs = arr.h_masks()
    near_y = [neighbors_of(g, y) for y in arr.y_masks()]
    n = arr.size
    for i in range(n):
        for j in range(i + 1, n):
            if hs[i] & hs[j]:
                problems.append(f"templates {i},{j}: H sets intersect")
            if hs[i] & near_y[j]:
                u = lowest(hs[i] & near_y[j])
                problems.append(f"edge between H_{i} vertex {u} and core {j}")
            if hs[j] & mixed[i]:
                v = lowest(hs[j] & mixed[i])
                problems.append(f"H_{j} vertex {v} is mixed on earlier core {i}")
    h_all = arr.h_mask
    for u in members(arr.umask):
        if h_all >> u & 1:
            problems.append(f"U vertex {u} lies in H")
            continue
        if not g.bits[u] & h_all:
            problems.append(f"U vertex {u} has no neighbour in H")
        for i, m in enumerate(mixed):
            if m >> u & 1:
                problems.append(f"U vertex {u} is mixed on core {i}")
    if not cleanliness_holds(arr):
        problems.append(
            f"declared cleanliness {arr.cleanliness!r} does not hold"
        )
    return problems


# ---------------------------------------------------------------------------
# Cleanliness predicates


def _union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def is_partially_1_cleaned(arr: TemplateArray) -> bool:
    bits, hs = arr.graph.bits, arr.h_masks()
    for i, (dense, _) in enumerate(arr.density):
        others = _union(hs[:i] + hs[i + 1 :])
        if dense & others:
            return False
        if any(bits[v] & others for v in members(dense & arr.umask)):
            return False
    return True


def is_1_cleaned(arr: TemplateArray) -> bool:
    verts = arr.h_mask | arr.umask
    return not any(dense & verts for dense, _ in arr.density)


def is_partially_2_cleaned(arr: TemplateArray, d: int) -> bool:
    if not is_1_cleaned(arr):
        return False
    bits, h_all = arr.graph.bits, arr.h_mask
    for t in arr.templates:
        other = h_all & ~t.hmask
        if any((bits[v] & other).bit_count() > d for v in members(t.hmask)):
            return False
    return True


def is_2_cleaned(arr: TemplateArray) -> bool:
    return is_1_cleaned(arr) and _separated(arr)


def _separated(arr: TemplateArray) -> bool:
    """What 2-cleanliness adds to 1-cleanliness: no edge between the H
    sets of two templates, and each template's Z (H minus core) stable."""
    g = arr.graph
    later = 0
    for t in reversed(arr.templates):
        z = t.hmask & ~t.core.mask
        if later and neighbors_of(g, t.hmask) & later or neighbors_of(g, z) & z:
            return False
        later |= t.hmask
    return True


def is_3_cleaned(arr: TemplateArray) -> bool:
    if not is_2_cleaned(arr):
        return False
    bits, h_all, eps = arr.graph.bits, arr.h_mask, epsilon_of(arr.params)
    return all((bits[u] & h_all).bit_count() < eps for u in members(arr.umask))


# Each cleanliness level with the predicate that verifies it, weakest
# first: a level's rank is its position.
CLEANLINESS_LEVELS: dict[str, Callable[[TemplateArray], bool]] = {
    "raw": lambda arr: True,
    "partial1": is_partially_1_cleaned,
    "clean1": is_1_cleaned,
    "partial2": lambda arr: (arr.partial2_degree is not None
                             and is_partially_2_cleaned(arr, arr.partial2_degree)),
    "clean2": is_2_cleaned,
    "clean3": is_3_cleaned,
}


def cleanliness_holds(arr: TemplateArray) -> bool:
    return CLEANLINESS_LEVELS[arr.cleanliness](arr)


# ---------------------------------------------------------------------------
# Digraph colouring helpers


def color_bounded_outdegree(d: Digraph, bound: int) -> Coloring:
    """Proper colouring of the underlying graph within 2*bound+1 colours,
    or bound+1 when the digraph is acyclic.

    Acyclic case: greedy from the sinks backward, avoiding out-neighbour
    colours only; the in-side resolves itself later.  General case: the
    underlying graph is 2*bound-degenerate, so a minimum-degree
    elimination order makes greedy colouring fit.
    """
    if bound < 0:
        raise ValueError("outdegree bound must be nonnegative")
    worst = d.max_outdegree()
    if worst > bound:
        raise ValueError(f"outdegree {worst} exceeds bound {bound}")
    n = d.n
    if n == 0:
        return Coloring((), 0)
    topo = d.topological_order()
    if topo is not None:
        order, nbrs = topo, d.out
    else:
        # Repeatedly remove a vertex of least remaining degree, lowest id
        # first; colouring in reverse sees at most 2*bound coloured
        # neighbours at each vertex.
        nbrs = d.underlying_graph().bits
        order, alive = [], (1 << n) - 1
        while alive:
            v = min(members(alive), key=lambda x: (nbrs[x] & alive).bit_count())
            order.append(v)
            alive ^= 1 << v
    colors = [-1] * n
    for v in reversed(order):
        used = {colors[w] for w in members(nbrs[v])}
        colors[v] = min(set(range(len(used) + 1)) - used)  # lowest free colour
    palette = max(colors) + 1
    cap = bound + 1 if topo is not None else 2 * bound + 1
    if palette > cap:
        raise AssertionError("palette exceeded guaranteed cap")
    return Coloring(tuple(colors), palette)


def gallai_roy_color(d: Digraph) -> Coloring:
    """Colour by longest directed path ending at each vertex.

    Colour c means c+1 vertices on that path; along any arc the value
    strictly increases, so the underlying graph is properly coloured.
    """
    topo = d.topological_order()
    if topo is None:
        raise ValueError("cycle detected; longest-path colouring needs a DAG")
    into = [0] * d.n
    for u, v in d.arcs():
        into[v] |= 1 << u
    colors, palette = _longest_path((v, into[v]) for v in topo)
    return Coloring(tuple([colors[v] for v in range(d.n)]), palette)


def _longest_path(order: Iterable[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Longest-path colours and the palette size.  ``order`` gives each
    vertex with the mask of its in-neighbours, in a topological order;
    a vertex's colour is one more than the largest among them, or 0."""
    colors: dict[int, int] = {}
    for v, into in order:
        colors[v] = 1 + max((colors[u] for u in members(into)), default=-1)
    return colors, max(colors.values(), default=-1) + 1


# ---------------------------------------------------------------------------
# Extraction


def extract_template_array(g: Graph, p: Params) -> tuple[TemplateArray, frozenset[int]]:
    """Greedy template extraction.

    Repeatedly find a core in the unclaimed region and absorb every
    mixed vertex as its H; stop when the unclaimed region is core-free.
    The leftover therefore contains no core by construction.  Each core
    is the first one in the deterministic search order, not the
    sequence-maximizing choice, which is computationally out of reach;
    the array conditions are validated after the fact.
    """
    if p.eta < 1:
        raise ValueError("eta must be at least 1")
    if p.zeta < max(p.eta, p.alpha):
        raise ValueError("zeta must be at least max(eta, alpha)")
    full = (1 << g.n) - 1
    templates: list[Template] = []
    h_all = claimed = 0
    while True:
        unclaimed = full & ~claimed
        if unclaimed.bit_count() < p.zeta * p.beta:
            break
        core = find_core(g, p.zeta, p.beta, within=unclaimed)
        if core is None:
            break
        h_new = density_masks(g, core, p.alpha, p.eta)[1]
        if h_new & h_all:
            raise AssertionError("new template H intersects earlier H")
        templates.append(Template(core=core, h=frozenset(members(h_new))))
        h_all |= h_new
        claimed = h_all | neighbors_of(g, h_all)
    arr = TemplateArray(g, tuple(templates), frozenset(members(claimed & ~h_all)), p)
    return arr, frozenset(members(full & ~claimed))


# ---------------------------------------------------------------------------
# Cleaning passes


def _most_chromatic(g: Graph, masks: list[int]) -> tuple[list[int], int]:
    """The exact chi of each vertex mask, and the position of the first
    largest."""
    chis = [chi_of_set(g, m) for m in masks]
    return chis, chis.index(max(chis))


def _index_classes(n: int, arcs: list[tuple[int, int]]) -> list[list[int]]:
    """The colour classes of the digraph on indices 0..n-1 with ``arcs``,
    coloured by ``color_bounded_outdegree``."""
    if not arcs:  # every index takes colour 0
        return [list(range(n))] if n else []
    dgraph = Digraph(n, arcs)
    col = color_bounded_outdegree(dgraph, dgraph.max_outdegree())
    return [[i for i in range(n) if col.colors[i] == c] for c in range(col.palette_size)]


def clean1(arr: TemplateArray) -> tuple[TemplateArray, dict]:
    """First cleaning pass: kill density interactions.

    Assign each U vertex to a template it touches (preferring one it is
    not dense to; ties to the lowest index), colour the index digraph of
    density interactions, keep the colour class whose vertex set has the
    largest exact chromatic number, then delete the remaining dense
    vertices outright.  The deleted set is matching-covered in theory;
    its exact chromatic number is recorded, not assumed.
    """
    g, p = arr.graph, arr.params
    t_bound = dense_bound_of(p)
    report: dict = {
        "pass": "clean1",
        "t": t_bound,
        "claimed_factor": 2 * t_bound + 1,
        "claimed_subtraction": t_bound * p.tau,
    }
    report["identity"] = is_1_cleaned(arr)
    if report["identity"]:
        return replace(arr, cleanliness="clean1", partial2_degree=None), report
    n = arr.size
    bits, hs = g.bits, arr.h_masks()
    dense = [d for d, _ in arr.density]

    # Each U vertex joins the first template it touches and is not dense
    # to, or else the first it touches.
    buckets = [0] * n
    for u in members(arr.umask):
        touching = [i for i in range(n) if bits[u] & hs[i]]
        good = [i for i in touching if not dense[i] >> u & 1]
        buckets[min(good or touching)] |= 1 << u

    keeps = _index_classes(n, [(i, j) for i in range(n) for j in range(n)
                               if i != j and dense[i] & (hs[j] | buckets[j])])
    # Each class by the vertices its array would hold: H and the buckets.
    verts = [_union(hs[i] | buckets[i] for i in keep) for keep in keeps]
    class_chis, chosen = _most_chromatic(g, verts)
    report["class_chis"] = class_chis
    report["chosen_class"] = chosen
    keep = keeps[chosen]
    u_keep = _union(buckets[i] for i in keep)

    dense_left = _union(dense[i] for i in keep) & verts[chosen]
    if dense_left & ~u_keep:
        raise AssertionError("dense vertex survived outside U after partial pass")
    templates = tuple([arr.templates[i] for i in keep])
    out = TemplateArray(g, templates, frozenset(members(u_keep & ~dense_left)), p, "clean1")
    report["removed_dense"] = members(dense_left)
    report["chi_removed"] = chi_of_set(g, dense_left) if dense_left else 0
    if not is_1_cleaned(out):
        raise AssertionError("clean1 output fails its predicate")
    return out, report


def clean2(arr: TemplateArray) -> tuple[TemplateArray, dict]:
    """Second cleaning pass: separate the templates from each other.

    Colour the index digraph of heavy cross-template attachment, keep
    the best class, drop the Z vertices that still see another class
    core (the stable split alone cannot remove those edges), then split
    the remaining H into stable classes and keep the one whose U has the
    largest exact chromatic number.
    """
    g, p = arr.graph, arr.params
    if not is_1_cleaned(arr):
        raise ValueError("clean2 requires a 1-cleaned array")
    report: dict = {
        "pass": "clean2",
        "ledger_d": partial2_d_of(p),
        "ledger_s": strong_s_of(p),
    }
    # is_1_cleaned held above, so this is is_2_cleaned(arr).
    report["identity"] = _separated(arr)
    if report["identity"]:
        return replace(arr, cleanliness="clean2", partial2_degree=None), report
    n = arr.size
    bits, hs = g.bits, arr.h_masks()
    # The heavy arcs: j -> i when an H_j vertex sees H_i delta times.
    heavy = [(j, i) for j, idx in _strong_contacts(arr) for i in idx if i != j]
    keeps = _index_classes(n, heavy)
    # Each class by the vertices its array would hold: H and the U next to it.
    h_keeps = [_union(hs[i] for i in keep) for keep in keeps]
    u_keeps = [arr.umask & neighbors_of(g, h) for h in h_keeps]
    class_chis, chosen = _most_chromatic(g, [h | u for h, u in zip(h_keeps, u_keeps)])
    keep, h_keep, u_keep = keeps[chosen], h_keeps[chosen], u_keeps[chosen]
    report["partial"] = {
        "class_chis": class_chis,
        "chosen_class": chosen,
        "observed_degree": max(
            ((bits[v] & h_keep & ~hs[i]).bit_count() for i in keep for v in members(hs[i])),
            default=0,
        ),
    }

    # Z vertices with a neighbour in another surviving core would leak
    # a cross-template edge past any stable split; drop them first.
    kept = [arr.templates[i] for i in keep]
    ys = [t.core.mask for t in kept]
    dropped: list[int] = []
    filtered_h: list[int] = []
    for i, t in enumerate(kept):
        y_other = _union(ys[:i] + ys[i + 1 :])
        cut = [z for z in members(t.hmask & ~ys[i]) if bits[z] & y_other]
        dropped += cut
        filtered_h.append((t.hmask | ys[i]) & ~mask_of(cut))
    report["dropped_cross_core"] = dropped

    view, ids = ranked_view(g, _union(filtered_h))
    split = greedy_coloring(view)
    w_classes = [0] * split.palette_size
    for v, color in zip(ids, split.colors):
        w_classes[color] |= 1 << v

    # Each class by its H sets and the U next to them.
    h_classes = [[(h & w) | y for h, y in zip(filtered_h, ys)] for w in w_classes]
    u_classes = [u_keep & neighbors_of(g, _union(h_w)) for h_w in h_classes]
    class_chis_u, chosen = _most_chromatic(g, u_classes)
    report["split"] = {
        "class_chis_u": class_chis_u,
        "chosen_class": chosen,
        "palette": split.palette_size,
        "claimed_t": clean2_t_of(p),
    }
    new_templates = tuple([
        Template(core=t.core, h=frozenset(members(h)))
        for t, h in zip(kept, h_classes[chosen])
    ])
    out = TemplateArray(g, new_templates, frozenset(members(u_classes[chosen])), p, "clean2")
    if not is_2_cleaned(out):
        raise AssertionError("clean2 output fails its predicate")
    return out, report


def clean3(arr: TemplateArray) -> tuple[TemplateArray, dict]:
    """Third cleaning pass: drop U vertices with too many H neighbours."""
    g, p = arr.graph, arr.params
    if not is_2_cleaned(arr):
        raise ValueError("clean3 requires a 2-cleaned array")
    eps = epsilon_of(p)
    h_all = arr.h_mask
    removed = _union(
        1 << u for u in members(arr.umask) if (g.bits[u] & h_all).bit_count() >= eps
    )
    u_left = frozenset(members(arr.umask & ~removed))
    out = replace(arr, u=u_left, cleanliness="clean3", partial2_degree=None)
    report = {
        "pass": "clean3",
        "epsilon": eps,
        "removed": members(removed),
        "chi_removed": chi_of_set(g, removed) if removed else 0,
    }
    if not is_3_cleaned(out):
        raise AssertionError("clean3 output fails its predicate")
    return out, report


# ---------------------------------------------------------------------------
# Bound audit


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    vertex: int
    indices: tuple[int, ...]
    count: int
    bound: int


@dataclass(frozen=True)
class AuditCheck:
    rule: str
    status: str  # pass / violation / skipped / precondition_failed
    bound: int | None = None
    worst: int | None = None
    violations: tuple[AuditViolation, ...] = ()
    reason: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: dict[str, AuditCheck]

    def to_json_dict(self) -> dict:
        out = {}
        for rule, c in self.checks.items():
            out[rule] = {
                "status": c.status,
                "bound": c.bound,
                "worst": c.worst,
                "reason": c.reason,
                "violations": [
                    {
                        "vertex": v.vertex,
                        "indices": list(v.indices),
                        "count": v.count,
                        "bound": v.bound,
                    }
                    for v in c.violations
                ],
            }
        return out


def _gate(
    rule: str,
    arr: TemplateArray,
    holds: Callable[[], bool],
    required: str,
    side_ok: bool,
    side_msg: str,
) -> AuditCheck | None:
    """None means run; otherwise the skipped or failed check.  ``holds``
    answers whether the declared cleanliness predicate holds."""
    levels = list(CLEANLINESS_LEVELS)
    if levels.index(arr.cleanliness) < levels.index(required):
        return AuditCheck(
            rule,
            "skipped",
            reason=f"requires {required}; array declares {arr.cleanliness}",
        )
    if not side_ok:
        return AuditCheck(rule, "skipped", reason=side_msg)
    if not holds():
        return AuditCheck(
            rule,
            "precondition_failed",
            reason=f"declared cleanliness {arr.cleanliness!r} fails verification",
        )
    return None


# A counter yields (item, indices) for every item its rule bounds.
Counts = Iterator[tuple[int, tuple[int, ...]]]


def _contacts(arr: TemplateArray, masks: list[int]) -> Counts:
    """Per array vertex, lowest first, the positions in ``masks`` (the
    cores, the H sets, or a shadowing's blocks) of the sets it touches."""
    verts = arr.h_mask | arr.umask
    touched: dict[int, list[int]] = {v: [] for v in members(verts)}
    for i, m in enumerate(masks):
        for v in members(neighbors_of(arr.graph, m) & verts):
            touched[v].append(i)
    return ((v, tuple(idx)) for v, idx in touched.items())


def _strong_contacts(arr: TemplateArray) -> Counts:
    """Per template, the templates that one of its H vertices sees at
    least delta times."""
    bits, hs, delta = arr.graph.bits, arr.h_masks(), arr.params.delta
    for j, hj in enumerate(hs):
        h_ids = members(hj)
        yield j, tuple([
            i
            for i, h in enumerate(hs)
            if any((bits[v] & h).bit_count() >= delta for v in h_ids)
        ])


def _dense_count(arr: TemplateArray) -> Counts:
    """Per template, the host vertices dense to its core."""
    for i, (dense, _) in enumerate(arr.density):
        yield i, tuple(members(dense))


def _nested_indices(arr: TemplateArray) -> Counts:
    """Per U vertex, the templates its U neighbours touch."""
    g, u = arr.graph, arr.umask
    near = [neighbors_of(g, h) for h in arr.h_masks()]
    for v in members(u):
        around = g.bits[v] & u
        yield v, tuple([i for i, m in enumerate(near) if m & around])


_TEMPLATE_SIDE = (
    lambda p: p.eta >= p.delta and p.zeta >= max(p.eta, p.alpha) + p.delta,
    "needs eta >= delta and zeta >= max(eta, alpha) + delta",
)

# The counter rules in audit order; ``bound_audit`` describes the columns.
COUNTER_RULES = (
    ("core_contacts", "clean1",
     lambda p: p.zeta >= max(p.eta + p.delta, p.alpha),
     "needs zeta >= max(eta + delta, alpha)",
     lambda arr: _contacts(arr, arr.y_masks()), lambda p: 2 * p.delta, operator.gt),
    ("template_contacts", "clean1", *_TEMPLATE_SIDE,
     lambda arr: _contacts(arr, arr.h_masks()), gamma_of, operator.ge),
    ("strong_contacts", "clean1", *_TEMPLATE_SIDE,
     _strong_contacts, strong_s_of, operator.gt),
    ("dense_count", None, None, "",
     _dense_count, dense_bound_of, operator.gt),
    ("nested_indices", "clean3", nested_side_conditions_ok,
     "needs eta >= alpha + 2*(delta+1)^3*(epsilon+1)^2 and zeta >= eta + delta",
     _nested_indices, nested_s_of, operator.ge),
)


def bound_audit(arr: TemplateArray, privatization=None) -> AuditReport:
    """Check every per-vertex counter bound the cleaning theory promises.

    Each row of ``COUNTER_RULES`` is one rule: its name; the least
    declared cleanliness it needs (None for no gate); a side condition
    on the params, with the reason reported when it fails; a counter
    that yields each bounded item with the indices it reaches; the bound
    as a function of the params; and ``operator.gt`` or ``operator.ge``,
    which says whether a count must exceed the bound or only reach it to
    be a violation.  A gated rule is skipped below its level or when its
    side condition fails, and fails its precondition when the declared
    cleanliness does not hold.  ``shadow_chi``, the chromatic bound on
    the unprivatized part of U, is the one rule outside the table.

    Inapplicable rules are skipped with a reason, never guessed.  A
    violation on a host that genuinely satisfies the five conditions
    means a bug, and the witness extractor can tell which: it either
    produces a forbidden-tree embedding (the host lied) or reports the
    failing construction step (the audit lied).
    """
    p = arr.params
    checks: dict[str, AuditCheck] = {}
    # The array is immutable, so its predicate is evaluated at most once.
    verdict: list[bool] = []

    def holds() -> bool:
        if not verdict:
            verdict.append(cleanliness_holds(arr))
        return verdict[0]

    for rule, required, side, side_msg, counts, bound_of, exceeds in COUNTER_RULES:
        gate = required and _gate(rule, arr, holds, required, side(p), side_msg)
        if gate:
            checks[rule] = gate
            continue
        bound = bound_of(p)
        viol = []
        worst = 0
        for item, idx in counts(arr):
            worst = max(worst, len(idx))
            if exceeds(len(idx), bound):
                viol.append(AuditViolation(rule, item, idx, len(idx), bound))
        checks[rule] = AuditCheck(
            rule,
            "violation" if viol else "pass",
            bound=bound,
            worst=worst,
            violations=tuple(viol),
        )
    checks["shadow_chi"] = _shadow_chi(arr, privatization, holds)
    return AuditReport(checks=checks)


def _shadow_chi(
    arr: TemplateArray, privatization, holds: Callable[[], bool]
) -> AuditCheck:
    """Chromatic bound on the unprivatized part of U."""
    if privatization is None:
        return AuditCheck("shadow_chi", "skipped", reason="no privatization supplied")
    gate = _gate("shadow_chi", arr, holds, "clean2", True, "")
    if gate:
        return gate
    s_bound = nested_s_of(arr.params)
    if any(len(idx) >= s_bound for _, idx in _nested_indices(arr)):
        return AuditCheck(
            "shadow_chi", "skipped", reason="second-neighbourhood hypothesis fails"
        )
    chi = _chi_or_none(arr.graph, arr.umask & ~privatization.pi)
    if chi is None:
        return AuditCheck(
            "shadow_chi",
            "skipped",
            reason="unprivatized U exceeds the exact solver limit",
        )
    bound = shadow_chi_bound_of(arr.params)
    return AuditCheck(
        "shadow_chi",
        "pass" if chi <= bound else "violation",
        bound=bound,
        worst=chi,
    )


# ---------------------------------------------------------------------------
# Witness extraction


@dataclass(frozen=True)
class WitnessResult:
    embedding: Embedding | None
    pattern: PatternTree | None
    failed_step: str | None = None
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.embedding is not None


def extract_T_delta_witness(
    arr: TemplateArray, violation: AuditViolation | None
) -> WitnessResult:
    """Replay the contact-bound proofs constructively.

    Given an audited contact violation, rebuild the forbidden tree one
    broom per implicated template and verify the union.  Any failing
    construction step is reported by name, which distinguishes a
    genuine host-condition violation from an audit bug.
    """
    if violation is None:
        raise ValueError("no violation supplied")
    if violation.kind not in ("core_contacts", "template_contacts"):
        raise ValueError(
            f"violation kind {violation.kind!r} has no constructive replay"
        )
    g, p = arr.graph, arr.params
    delta = p.delta
    v = violation.vertex
    cores = [t.core for t in arr.templates]
    hs = arr.h_masks()

    if violation.kind == "core_contacts":
        indices = sorted(violation.indices)
        if len(indices) <= 2 * delta:
            raise ValueError("violation malformed: not enough contact indices")
        # The largest index is unusable in general; 2*delta remain.
        chosen = indices[: 2 * delta]
        for i in chosen:
            if hs[i] >> v & 1:
                return WitnessResult(
                    None, None, "handle_inside_template",
                    f"handle {v} lies in template {i}",
                )
        return _brooms(
            g, v, delta, chosen, lambda i: cores[i].mask, "inside core"
        )

    # template_contacts replay
    indices = sorted(violation.indices)
    core_free = [i for i in indices if not g.bits[v] & cores[i].mask]
    if len(core_free) < 2 * delta:
        return WitnessResult(
            None, None, "core_free_index_supply",
            f"only {len(core_free)} contact indices avoid the cores",
        )
    carriers: dict[int, int] = {}
    for i in core_free:
        att = g.bits[v] & hs[i] & ~cores[i].mask
        if not att:
            return WitnessResult(
                None, None, "attachment_missing",
                f"no attachment vertex for template {i}",
            )
        carriers[i] = lowest(att)

    arcs = [
        (pj, pi)
        for pj, j in enumerate(core_free)
        for pi, i in enumerate(core_free)
        if i != j and g.bits[carriers[j]] & cores[i].mask
    ]
    classes = [
        [core_free[k] for k in cls] for cls in _index_classes(len(core_free), arcs)
    ]

    best_achieved = 0
    chosen = None
    for cls in sorted(classes, key=lambda c: (-len(c), c)):
        # Least index set whose carriers are pairwise nonadjacent.
        idx = sorted(cls)
        carried = [carriers[i] for i in idx]
        picked = least_stable_subset(g, carried, 2 * delta)
        if picked is not None:
            chosen = [idx[k] for k in picked]
            break
        probe = 2 * delta - 1
        while probe > best_achieved:
            if least_stable_subset(g, carried, probe) is not None:
                best_achieved = probe
                break
            probe -= 1
    if chosen is None:
        return WitnessResult(
            None, None, "stable_set_extraction",
            f"needed {2 * delta} pairwise nonadjacent attachments, best class "
            f"gives {best_achieved}",
        )
    return _brooms(
        g, v, delta, chosen,
        lambda i: cores[i].mask | 1 << carriers[i], "through template",
    )


def _brooms(
    g: Graph,
    handle: int,
    delta: int,
    chosen: list[int],
    allowed: Callable[[int], int],
    where: str,
) -> WitnessResult:
    """One broom per chosen index, inside the mask ``allowed(i)``: delta
    (1,delta)-brooms, then delta (2,delta)-brooms, joined at the handle."""
    pieces: list[tuple[PatternTree, Embedding]] = []
    for pos, i in enumerate(chosen):
        k = 1 if pos < delta else 2
        emb = find_rooted_broom(g, handle, k, delta, allowed=allowed(i))
        if emb is None:
            return WitnessResult(
                None, None, "broom_construction",
                f"no ({k},{delta})-broom with handle {handle} {where} {i}",
            )
        pieces.append((build_broom(k, delta), emb))
    result: AssembleResult = assemble_T_delta(g, handle, pieces)
    if result.embedding is None:
        return WitnessResult(
            None,
            None,
            "induced_union",
            result.detail
            + (
                f" (edge {result.conflict_edge})"
                if result.conflict_edge
                else ""
            ),
        )
    return WitnessResult(result.embedding, result.pattern)

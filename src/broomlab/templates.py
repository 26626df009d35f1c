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
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .constants import (
    dense_bound_of,
    epsilon_of,
    gamma_of,
    nested_s_of,
    nested_side_conditions_ok,
    shadow_chi_bound_of,
    strong_s_of,
)
from .graphs import Digraph, Graph, induced, least_stable_subset
from .solvers import (
    Coloring,
    InstanceTooLarge,
    chi_of_set,
    greedy_coloring,
)
from .structures import (
    CoreWitness,
    Params,
    find_core,
    is_dense_to,
    is_eta_mixed,
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

CLEANLINESS_RANK = {
    "raw": 0,
    "partial1": 1,
    "clean1": 2,
    "partial2": 3,
    "clean2": 4,
    "clean3": 5,
}


@dataclass(frozen=True)
class Template:
    core: CoreWitness
    h: frozenset[int]


@dataclass(frozen=True)
class TemplateArray:
    graph: Graph
    templates: tuple[Template, ...]
    u: frozenset[int]
    params: Params
    cleanliness: str = "raw"
    partial2_degree: int | None = None

    def __post_init__(self):
        if self.cleanliness not in CLEANLINESS_RANK:
            raise ValueError(f"unknown cleanliness level {self.cleanliness!r}")

    @property
    def size(self) -> int:
        return len(self.templates)

    def h_sets(self) -> list[frozenset[int]]:
        return [t.h for t in self.templates]

    def y_sets(self) -> list[frozenset[int]]:
        return [t.core.vertices() for t in self.templates]

    def h_union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for t in self.templates:
            out |= t.h
        return out

    def y_union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for t in self.templates:
            out |= t.core.vertices()
        return out

    def z_union(self) -> frozenset[int]:
        return self.h_union() - self.y_union()

    def vertices(self) -> frozenset[int]:
        return self.h_union() | self.u

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
    for idx, t in enumerate(arr.templates):
        if not verify_core(g, t.core, p.zeta, p.beta):
            problems.append(f"template {idx}: core is not a ({p.zeta},{p.beta})-core")
            continue
        if not t.core.vertices() <= t.h:
            problems.append(f"template {idx}: core not contained in H")
        for v in sorted(t.h):
            if not is_eta_mixed(g, v, t.core, p.eta, p.alpha):
                problems.append(f"template {idx}: H vertex {v} not mixed on core")
    hs = arr.h_sets()
    ys = arr.y_sets()
    n = arr.size
    for i in range(n):
        for j in range(i + 1, n):
            if hs[i] & hs[j]:
                problems.append(f"templates {i},{j}: H sets intersect")
            for u in sorted(hs[i]):
                if g.adj[u] & ys[j]:
                    problems.append(
                        f"edge between H_{i} vertex {u} and core {j}"
                    )
                    break
            for v in sorted(hs[j]):
                if is_eta_mixed(g, v, arr.templates[i].core, p.eta, p.alpha):
                    problems.append(
                        f"H_{j} vertex {v} is mixed on earlier core {i}"
                    )
                    break
    h_all = arr.h_union()
    for u in sorted(arr.u):
        if u in h_all:
            problems.append(f"U vertex {u} lies in H")
            continue
        if not g.adj[u] & h_all:
            problems.append(f"U vertex {u} has no neighbour in H")
        for i, t in enumerate(arr.templates):
            if is_eta_mixed(g, u, t.core, p.eta, p.alpha):
                problems.append(f"U vertex {u} is mixed on core {i}")
    if not cleanliness_holds(arr):
        problems.append(
            f"declared cleanliness {arr.cleanliness!r} does not hold"
        )
    return problems


# ---------------------------------------------------------------------------
# Cleanliness predicates


def _dense_outside(g: Graph, v: int, core: CoreWitness, alpha: int) -> bool:
    # Density is defined only for vertices outside the core.
    if v in core.vertices():
        return False
    return is_dense_to(g, v, core, alpha)


def is_partially_1_cleaned(arr: TemplateArray) -> bool:
    g, p = arr.graph, arr.params
    hs, n = arr.h_sets(), arr.size
    for i in range(n):
        core = arr.templates[i].core
        for j in range(n):
            if i == j:
                continue
            if any(_dense_outside(g, v, core, p.alpha) for v in hs[j]):
                return False
        for v in arr.u:
            if _dense_outside(g, v, core, p.alpha):
                for j in range(n):
                    if j != i and g.adj[v] & hs[j]:
                        return False
    return True


def is_1_cleaned(arr: TemplateArray) -> bool:
    g, p = arr.graph, arr.params
    verts = arr.vertices()
    for t in arr.templates:
        if any(_dense_outside(g, v, t.core, p.alpha) for v in verts):
            return False
    return True


def is_partially_2_cleaned(arr: TemplateArray, d: int) -> bool:
    if not is_1_cleaned(arr):
        return False
    g = arr.graph
    h_all = arr.h_union()
    for t in arr.templates:
        other = h_all - t.h
        if any(len(g.adj[v] & other) > d for v in t.h):
            return False
    return True


def is_2_cleaned(arr: TemplateArray) -> bool:
    return is_1_cleaned(arr) and _separated(arr)


def _separated(arr: TemplateArray) -> bool:
    """What 2-cleanliness adds to 1-cleanliness: no edge between the H
    sets of two templates, and each template's Z (H minus core) stable."""
    g = arr.graph
    hs, n = arr.h_sets(), arr.size
    for i in range(n):
        for j in range(i + 1, n):
            if any(g.adj[v] & hs[j] for v in hs[i]):
                return False
    for t in arr.templates:
        z = sorted(t.h - t.core.vertices())
        for a_idx, va in enumerate(z):
            for vb in z[a_idx + 1 :]:
                if vb in g.adj[va]:
                    return False
    return True


def is_3_cleaned(arr: TemplateArray) -> bool:
    if not is_2_cleaned(arr):
        return False
    g = arr.graph
    eps = epsilon_of(arr.params)
    h_all = arr.h_union()
    return all(len(g.adj[u] & h_all) < eps for u in arr.u)


def cleanliness_holds(arr: TemplateArray) -> bool:
    level = arr.cleanliness
    if level == "raw":
        return True
    if level == "partial1":
        return is_partially_1_cleaned(arr)
    if level == "clean1":
        return is_1_cleaned(arr)
    if level == "partial2":
        d = arr.partial2_degree
        return d is not None and is_partially_2_cleaned(arr, d)
    if level == "clean2":
        return is_2_cleaned(arr)
    return is_3_cleaned(arr)


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
    colors = [-1] * n
    if topo is not None:
        for v in reversed(topo):
            used = {colors[w] for w in d.out[v]}
            c = 0
            while c in used:
                c += 1
            colors[v] = c
    else:
        under = d.underlying_graph()
        degree = {v: len(under.adj[v]) for v in range(n)}
        alive = set(range(n))
        order: list[int] = []
        while alive:
            v = min(alive, key=lambda x: (degree[x], x))
            order.append(v)
            alive.discard(v)
            for w in under.adj[v]:
                if w in alive:
                    degree[w] -= 1
        for v in reversed(order):
            used = {colors[w] for w in under.adj[v] if colors[w] != -1}
            c = 0
            while c in used:
                c += 1
            colors[v] = c
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
    count = [1] * d.n
    into: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.arcs():
        into[v].append(u)
    for v in topo:
        if into[v]:
            count[v] = 1 + max(count[u] for u in into[v])
    palette = max(count, default=1)
    return Coloring(tuple(c - 1 for c in count), palette if d.n else 0)


# ---------------------------------------------------------------------------
# Extraction


def extract_template_array(
    g: Graph, p: Params, limit: int | None = None
) -> tuple[TemplateArray, frozenset[int]]:
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
    templates: list[Template] = []
    h_all: set[int] = set()
    while True:
        claimed = set(h_all)
        for v in h_all:
            claimed |= g.adj[v]
        unclaimed = sorted(set(range(g.n)) - claimed)
        if len(unclaimed) < p.zeta * p.beta:
            break
        sub, back = induced(g, unclaimed)
        local = find_core(sub, p.zeta, p.beta, limit=limit)
        if local is None:
            break
        core = CoreWitness(
            tuple(frozenset(back[v] for v in part) for part in local.parts)
        )
        h_new = frozenset(
            v for v in range(g.n) if is_eta_mixed(g, v, core, p.eta, p.alpha)
        )
        if h_new & h_all:
            raise AssertionError("new template H intersects earlier H")
        templates.append(Template(core=core, h=h_new))
        h_all |= h_new
    u = frozenset(
        v for v in range(g.n) if v not in h_all and g.adj[v] & h_all
    )
    arr = TemplateArray(
        graph=g,
        templates=tuple(templates),
        u=u,
        params=p,
        cleanliness="raw",
    )
    leftover = frozenset(range(g.n)) - arr.vertices()
    return arr, leftover


# ---------------------------------------------------------------------------
# Cleaning passes


def _most_chromatic(
    g: Graph, vertex_sets: list[frozenset[int]], limit: int | None
) -> tuple[list[int], int]:
    """The exact chi of each set, and the position of the first largest."""
    chis = [chi_of_set(g, vs, limit) for vs in vertex_sets]
    return chis, chis.index(max(chis))


def _subarray(
    arr: TemplateArray,
    keep: list[int],
    u: frozenset[int],
    cleanliness: str,
    partial2_degree: int | None = None,
) -> TemplateArray:
    return TemplateArray(
        graph=arr.graph,
        templates=tuple(arr.templates[i] for i in keep),
        u=u,
        params=arr.params,
        cleanliness=cleanliness,
        partial2_degree=partial2_degree,
    )


def clean1(
    arr: TemplateArray, limit: int | None = None
) -> tuple[TemplateArray, dict]:
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
    hs = arr.h_sets()
    cores = [t.core for t in arr.templates]

    assign: dict[int, int] = {}
    for u in sorted(arr.u):
        touching = [i for i in range(n) if g.adj[u] & hs[i]]
        good = [
            i for i in touching if not _dense_outside(g, u, cores[i], p.alpha)
        ]
        assign[u] = min(good) if good else min(touching)
    buckets: list[set[int]] = [set() for _ in range(n)]
    for u, i in assign.items():
        buckets[i].add(u)

    arcs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pool = hs[j] | buckets[j]
            if any(_dense_outside(g, v, cores[i], p.alpha) for v in pool):
                arcs.append((i, j))
    dgraph = Digraph(n, arcs)
    coloring = color_bounded_outdegree(dgraph, dgraph.max_outdegree())

    cands = []
    for c in range(coloring.palette_size):
        keep = [i for i in range(n) if coloring.colors[i] == c]
        u_c = frozenset().union(*(buckets[i] for i in keep)) if keep else frozenset()
        cands.append(_subarray(arr, keep, u_c, "partial1"))
    class_chis, chosen = _most_chromatic(g, [c.vertices() for c in cands], limit)
    report["class_chis"] = class_chis
    report["chosen_class"] = chosen
    partial = cands[chosen]

    dense_left = set()
    for t in partial.templates:
        for v in sorted(partial.vertices()):
            if _dense_outside(g, v, t.core, p.alpha):
                dense_left.add(v)
    if not dense_left <= partial.u:
        raise AssertionError("dense vertex survived outside U after partial pass")
    u_final = partial.u - dense_left
    out = TemplateArray(
        graph=g,
        templates=partial.templates,
        u=u_final,
        params=p,
        cleanliness="clean1",
    )
    report["removed_dense"] = sorted(dense_left)
    report["chi_removed"] = (
        chi_of_set(g, frozenset(dense_left), limit) if dense_left else 0
    )
    if not is_1_cleaned(out):
        raise AssertionError("clean1 output fails its predicate")
    return out, report


def clean2(
    arr: TemplateArray, limit: int | None = None
) -> tuple[TemplateArray, dict]:
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
    gamma = gamma_of(p)
    report: dict = {
        "pass": "clean2",
        "ledger_d": gamma * (p.delta - 1),
        "ledger_s": strong_s_of(p),
    }
    # is_1_cleaned held above, so this is is_2_cleaned(arr).
    report["identity"] = _separated(arr)
    if report["identity"]:
        return replace(arr, cleanliness="clean2", partial2_degree=None), report
    n = arr.size
    hs = arr.h_sets()

    arcs = []
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if any(len(g.adj[v] & hs[i]) >= p.delta for v in hs[j]):
                arcs.append((j, i))
    dgraph = Digraph(n, arcs)
    coloring = color_bounded_outdegree(dgraph, dgraph.max_outdegree())

    cands = []
    for c in range(coloring.palette_size):
        keep = [i for i in range(n) if coloring.colors[i] == c]
        h_keep = frozenset().union(*(hs[i] for i in keep)) if keep else frozenset()
        u_c = frozenset(u for u in arr.u if g.adj[u] & h_keep)
        d_obs = 0
        for i in keep:
            for v in arr.templates[i].h:
                d_obs = max(d_obs, len(g.adj[v] & (h_keep - hs[i])))
        cands.append(_subarray(arr, keep, u_c, "partial2", partial2_degree=d_obs))
    class_chis, chosen = _most_chromatic(g, [c.vertices() for c in cands], limit)
    partial = cands[chosen]
    report["partial"] = {
        "class_chis": class_chis,
        "chosen_class": chosen,
        "observed_degree": partial.partial2_degree,
    }

    # Z vertices with a neighbour in another surviving core would leak
    # a cross-template edge past any stable split; drop them first.
    y_other: list[frozenset[int]] = []
    m = partial.size
    ys = partial.y_sets()
    for i in range(m):
        other: frozenset[int] = frozenset()
        for j in range(m):
            if j != i:
                other |= ys[j]
        y_other.append(other)
    dropped: list[int] = []
    filtered_h: list[frozenset[int]] = []
    for i, t in enumerate(partial.templates):
        keep_h = set(t.core.vertices())
        for z in sorted(t.h - t.core.vertices()):
            if g.adj[z] & y_other[i]:
                dropped.append(z)
            else:
                keep_h.add(z)
        filtered_h.append(frozenset(keep_h))
    report["dropped_cross_core"] = dropped

    h_all = frozenset().union(*filtered_h) if filtered_h else frozenset()
    sub, back = induced(g, h_all)
    split = greedy_coloring(sub)
    w_classes: list[set[int]] = [set() for _ in range(split.palette_size)]
    for local, color in enumerate(split.colors):
        w_classes[color].add(back[local])

    cands = []
    for w in w_classes:
        new_templates = tuple(
            Template(
                core=partial.templates[i].core,
                h=frozenset(
                    (filtered_h[i] & w) | partial.templates[i].core.vertices()
                ),
            )
            for i in range(m)
        )
        h_new = frozenset().union(*(t.h for t in new_templates)) if new_templates else frozenset()
        u_new = frozenset(u for u in partial.u if g.adj[u] & h_new)
        cands.append(TemplateArray(
            graph=g,
            templates=new_templates,
            u=u_new,
            params=p,
            cleanliness="clean2",
        ))
    class_chis_u, chosen = _most_chromatic(g, [c.u for c in cands], limit)
    report["split"] = {
        "class_chis_u": class_chis_u,
        "chosen_class": chosen,
        "palette": split.palette_size,
        "claimed_t": (report["ledger_d"] + 1) * p.beta * p.zeta * p.tau,
    }
    out = cands[chosen]
    if not is_2_cleaned(out):
        raise AssertionError("clean2 output fails its predicate")
    return out, report


def clean3(
    arr: TemplateArray, limit: int | None = None
) -> tuple[TemplateArray, dict]:
    """Third cleaning pass: drop U vertices with too many H neighbours."""
    g, p = arr.graph, arr.params
    if not is_2_cleaned(arr):
        raise ValueError("clean3 requires a 2-cleaned array")
    eps = epsilon_of(p)
    h_all = arr.h_union()
    removed = frozenset(u for u in arr.u if len(g.adj[u] & h_all) >= eps)
    out = TemplateArray(
        graph=g,
        templates=arr.templates,
        u=arr.u - removed,
        params=p,
        cleanliness="clean3",
    )
    report = {
        "pass": "clean3",
        "epsilon": eps,
        "removed": sorted(removed),
        "chi_removed": chi_of_set(g, removed, limit) if removed else 0,
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
    if CLEANLINESS_RANK[arr.cleanliness] < CLEANLINESS_RANK[required]:
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


def _contacts(
    sets_of: Callable[[TemplateArray], list[frozenset[int]]],
) -> Callable[[TemplateArray], Counts]:
    """A counter of the sets (the cores or the H sets) each array vertex
    touches."""

    def counts(arr: TemplateArray) -> Counts:
        g, sets = arr.graph, sets_of(arr)
        for v in sorted(arr.vertices()):
            yield v, tuple(i for i, s in enumerate(sets) if g.adj[v] & s)

    return counts


def _strong_contacts(arr: TemplateArray) -> Counts:
    """Per template, the templates that one of its H vertices sees at
    least delta times."""
    g, hs, delta = arr.graph, arr.h_sets(), arr.params.delta
    for j, hj in enumerate(hs):
        yield j, tuple(
            i
            for i, h in enumerate(hs)
            if any(len(g.adj[v] & h) >= delta for v in hj)
        )


def _dense_count(arr: TemplateArray) -> Counts:
    """Per template, the host vertices dense to its core."""
    g, alpha = arr.graph, arr.params.alpha
    for i, t in enumerate(arr.templates):
        yield i, tuple(
            v for v in range(g.n) if _dense_outside(g, v, t.core, alpha)
        )


def _nested_indices(arr: TemplateArray) -> Counts:
    """Per U vertex, the templates its U neighbours touch."""
    g, hs = arr.graph, arr.h_sets()
    for v in sorted(arr.u):
        near = g.adj[v] & arr.u
        yield v, tuple(
            i for i, h in enumerate(hs) if any(g.adj[w] & h for w in near)
        )


_TEMPLATE_SIDE = (
    lambda p: p.eta >= p.delta and p.zeta >= max(p.eta, p.alpha) + p.delta,
    "needs eta >= delta and zeta >= max(eta, alpha) + delta",
)

# The counter rules in audit order; ``bound_audit`` describes the columns.
COUNTER_RULES = (
    ("core_contacts", "clean1",
     lambda p: p.zeta >= max(p.eta + p.delta, p.alpha),
     "needs zeta >= max(eta + delta, alpha)",
     _contacts(TemplateArray.y_sets), lambda p: 2 * p.delta, operator.gt),
    ("template_contacts", "clean1", *_TEMPLATE_SIDE,
     _contacts(TemplateArray.h_sets), gamma_of, operator.ge),
    ("strong_contacts", "clean1", *_TEMPLATE_SIDE,
     _strong_contacts, strong_s_of, operator.gt),
    ("dense_count", None, None, "",
     _dense_count, dense_bound_of, operator.gt),
    ("nested_indices", "clean3", nested_side_conditions_ok,
     "needs eta >= alpha + 2*(delta+1)^3*(epsilon+1)^2 and zeta >= eta + delta",
     _nested_indices, nested_s_of, operator.ge),
)


def bound_audit(
    arr: TemplateArray,
    privatization=None,
    limit: int | None = None,
) -> AuditReport:
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
    holds = functools.cache(lambda: cleanliness_holds(arr))
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
    checks["shadow_chi"] = _shadow_chi(arr, privatization, holds, limit)
    return AuditReport(checks=checks)


def _shadow_chi(
    arr: TemplateArray,
    privatization,
    holds: Callable[[], bool],
    limit: int | None,
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
    try:
        chi = chi_of_set(arr.graph, arr.u - privatization.pi, limit)
    except InstanceTooLarge:
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
    hs = arr.h_sets()

    if violation.kind == "core_contacts":
        indices = sorted(violation.indices)
        if len(indices) <= 2 * delta:
            raise ValueError("violation malformed: not enough contact indices")
        # The largest index is unusable in general; 2*delta remain.
        chosen = indices[: 2 * delta]
        for i in chosen:
            if v in hs[i]:
                return WitnessResult(
                    None, None, "handle_inside_template",
                    f"handle {v} lies in template {i}",
                )
        return _brooms(
            g, v, delta, chosen, lambda i: cores[i].vertices(), "inside core"
        )

    # template_contacts replay
    indices = sorted(violation.indices)
    core_free = [i for i in indices if not g.adj[v] & cores[i].vertices()]
    if len(core_free) < 2 * delta:
        return WitnessResult(
            None, None, "core_free_index_supply",
            f"only {len(core_free)} contact indices avoid the cores",
        )
    carriers: dict[int, int] = {}
    for i in core_free:
        att = sorted(g.adj[v] & (hs[i] - cores[i].vertices()))
        if not att:
            return WitnessResult(
                None, None, "attachment_missing",
                f"no attachment vertex for template {i}",
            )
        carriers[i] = att[0]

    pos_of = {i: k for k, i in enumerate(core_free)}
    arcs = []
    for j in core_free:
        for i in core_free:
            if i != j and g.adj[carriers[j]] & cores[i].vertices():
                arcs.append((pos_of[j], pos_of[i]))
    dgraph = Digraph(len(core_free), arcs)
    coloring = color_bounded_outdegree(dgraph, dgraph.max_outdegree())
    classes: list[list[int]] = [[] for _ in range(coloring.palette_size)]
    for i in core_free:
        classes[coloring.colors[pos_of[i]]].append(i)

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
        lambda i: cores[i].vertices() | {carriers[i]}, "through template",
    )


def _brooms(
    g: Graph,
    handle: int,
    delta: int,
    chosen: list[int],
    allowed: Callable[[int], frozenset[int]],
    where: str,
) -> WitnessResult:
    """One broom per chosen index, inside ``allowed(i)``: delta
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

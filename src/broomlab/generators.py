"""Deterministic, seeded graph families for fixtures and surveys.

Randomness comes from ``random.Random`` (Mersenne Twister) seeded
explicitly, so the same spec and seed always yield a byte-identical
graph.  Each family refuses a vertex count above 4096 after its own
argument checks, before it draws or lists anything.  The fixture family
encodes the hand-built template, daisy, and strong-triple scenarios used
throughout the test suite, versioned by id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .graphs import Graph, check_vertex_count, members
from .structures import CoreWitness


@dataclass(frozen=True)
class GenSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def key(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}({inner})#{self.seed}"


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    check_vertex_count(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    check_vertex_count(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(sizes: list[int]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    check_vertex_count(n)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
        for u in bounds[i]
        for v in bounds[j]
    ]
    return Graph(n, edges)


def kneser(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of an n-set in lexicographic order;
    edges join disjoint subsets.  kneser(5, 2) is the Petersen graph."""
    if k < 1 or n < 2 * k:
        raise ValueError("kneser needs n >= 2k and k >= 1")
    check_vertex_count(comb(n, k))
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, a in enumerate(subsets):
        sa = set(a)
        for b in subsets[i + 1 :]:
            if not sa & set(b):
                edges.append((i, index[b]))
    return Graph(len(subsets), edges)


def petersen() -> Graph:
    """Standard labeling: outer cycle 0-4, inner pentagram 5-9, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def mycielski(g: Graph) -> Graph:
    """One Mycielski step: preserves triangle-freeness, bumps chi by one."""
    n = g.n
    check_vertex_count(2 * n + 1)
    edges = list(g.edges())
    for u in range(n):
        for v in members(g.bits[u]):
            edges.append((u, n + v))
    apex = 2 * n
    edges += [(n + u, apex) for u in range(n)]
    return Graph(2 * n + 1, edges)


def mycielski_tower(base: Graph, levels: int) -> Graph:
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    out = base
    for _ in range(levels):
        out = mycielski(out)
    return out


def groetzsch() -> Graph:
    return mycielski_tower(cycle(5), 1)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    if n < 0 or not (0.0 <= p <= 1.0):
        raise ValueError("need n >= 0 and probability in [0, 1]")
    check_vertex_count(n)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def plant_core(
    n: int, a: int, b: int, noise_p: float, seed: int
) -> tuple[Graph, CoreWitness]:
    """Plant an (a,b)-core and sprinkle noise that cannot damage it.

    Noise edges never join two vertices of the same planted part; all
    cross-part pairs are already present.  The returned witness is the
    plant itself (a search may legitimately find a different core).
    """
    if a < 1 or b < 1 or a * b > n:
        raise ValueError("need a, b >= 1 and a*b <= n")
    if not (0.0 <= noise_p <= 1.0):
        raise ValueError("noise probability outside [0, 1]")
    check_vertex_count(n)
    rng = random.Random(seed)
    positions = sorted(rng.sample(range(n), a * b))
    parts = [
        frozenset(positions[i * a : (i + 1) * a]) for i in range(b)
    ]
    planted = set(positions)
    edges = [
        (u, v)
        for i in range(b)
        for j in range(i + 1, b)
        for u in parts[i]
        for v in parts[j]
    ]
    for u in range(n):
        for v in range(u + 1, n):
            if u in planted and v in planted:
                continue
            if rng.random() < noise_p:
                edges.append((u, v))
    return Graph(n, edges), CoreWitness(tuple(parts))


def _fixture_c4_pendant_path() -> Graph:
    # C4 core, one mixed attachment w, one outside vertex hanging off w.
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])


def _fixture_c4_double_pendant() -> Graph:
    # Two pendant chains on the same core vertex keep induced paths short.
    return Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (0, 6), (6, 7)],
    )


def _fixture_c4_z_vertex() -> Graph:
    # z sees both vertices of one part; u hangs off z.
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2), (4, 5)])


def _fixture_kp22_pair() -> Graph:
    return Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)],
    )


def _fixture_c4_isolated() -> Graph:
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0)])


def _fixture_k44_z_pendant() -> Graph:
    edges = [(i, 4 + j) for i in range(4) for j in range(4)]
    edges += [(8, 0), (8, 1), (8, 9)]
    return Graph(10, edges)


def _fixture_many_y_violation() -> Graph:
    """Three disjoint (3,2)-cores plus an apex adjacent to exactly one
    vertex of each part.  The apex contacts three cores, one more than
    the two the contact bound allows at delta=1, and the replayed
    construction recovers the six-vertex forbidden path."""
    edges = []
    for c in range(3):
        base = 6 * c
        edges += [
            (base + i, base + 3 + j) for i in range(3) for j in range(3)
        ]
    apex = 18
    for c in range(3):
        base = 6 * c
        edges += [(apex, base), (apex, base + 3)]
    return Graph(19, edges)


def _fixture_daisy_basic() -> Graph:
    """Two C4 cores with one Z vertex each, an eye on the first Z, and a
    single petal on the second Z."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (8, 0), (8, 2)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 4), (11, 4), (11, 6)]
    edges += [(9, 8), (9, 10), (10, 11)]
    return Graph(12, edges)


def _fixture_strong_triple() -> Graph:
    """Four C4 cores, each with a Z vertex, four sacrificial pendant
    vertices (which privatization will claim, one per Z vertex), and
    four surviving U vertices wired so block 0 is strong to (1, 2, 3)
    at delta=1."""
    edges = []
    for c in range(4):
        base = 5 * c
        edges += [
            (base, base + 1),
            (base + 1, base + 2),
            (base + 2, base + 3),
            (base + 3, base),
            (base + 4, base),
            (base + 4, base + 2),
        ]
    for c in range(4):
        edges.append((20 + c, 5 * c + 4))  # sacrificial clients
    u0, v0, wb, wc = 24, 25, 26, 27
    edges += [(u0, 4), (v0, 9), (wb, 14), (wc, 19)]
    edges += [(u0, v0), (u0, wb), (v0, wc)]
    return Graph(28, edges)


FIXTURES = {
    "c4": lambda: cycle(4),
    "c5": lambda: cycle(5),
    "c6": lambda: cycle(6),
    "c7": lambda: cycle(7),
    "k33": lambda: complete_multipartite([3, 3]),
    "k23": lambda: complete_multipartite([2, 3]),
    "petersen": petersen,
    "groetzsch": groetzsch,
    "c4_pendant_path": _fixture_c4_pendant_path,
    "c4_double_pendant": _fixture_c4_double_pendant,
    "c4_z_vertex": _fixture_c4_z_vertex,
    "c4_isolated": _fixture_c4_isolated,
    "kp22_pair": _fixture_kp22_pair,
    "k44_z_pendant": _fixture_k44_z_pendant,
    "many_y_violation": _fixture_many_y_violation,
    "daisy_basic": _fixture_daisy_basic,
    "strong_triple": _fixture_strong_triple,
}


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not a JSON object")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a JSON string")
    return value


def _field(family: str, params: dict, name: str, convert, default=None):
    """``params[name]`` read through ``convert``, or ``default`` when the
    field is absent and a default is given.  A missing field, or a value
    ``convert`` rejects, raises ``ValueError`` naming the family and the
    field."""
    if name not in params and default is None:
        raise ValueError(f"{family}: missing field {name!r}")
    value = params.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{family}: bad value {value!r} for field {name!r}") from None


def generate(spec: GenSpec) -> Graph:
    """Build the graph a spec describes; deterministic for fixed seed."""
    fam = spec.family

    def field(name: str, convert=int, default=None):
        return _field(fam, spec.params, name, convert, default)

    if fam == "erdos_renyi":
        return erdos_renyi(field("n"), field("p", float), spec.seed)
    if fam == "cycle":
        return cycle(field("n"))
    if fam == "path":
        return path(field("n"))
    if fam == "complete_multipartite":
        return complete_multipartite(field("sizes", lambda v: [int(s) for s in v]))
    if fam == "kneser":
        return kneser(field("n"), field("k"))
    if fam == "mycielski_tower":
        base = field("base", _object, {"family": "cycle", "params": {"n": 5}})
        where = f"{fam}.base"
        base_spec = GenSpec(
            family=_field(where, base, "family", _string),
            params=_field(where, base, "params", _object, {}),
            seed=spec.seed,
        )
        return mycielski_tower(generate(base_spec), field("levels", default=1))
    if fam == "planted_core":
        g, _ = plant_core(
            field("n"), field("a"), field("b"),
            field("noise_p", float, 0.0), spec.seed,
        )
        return g
    if fam == "fixture":
        fid = field("id", _string)
        if fid not in FIXTURES:
            raise ValueError(f"unknown fixture id {fid!r}")
        return FIXTURES[fid]()
    raise ValueError(f"unknown family {fam!r}")

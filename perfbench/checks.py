"""Independent checkers for the benchmark's outputs.

Nothing here imports broomlab: every check is written against plain
adjacency sets built from the input edges, so a fault in the library
cannot hide itself by also breaking its own checker.  Each ``check_*``
function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import ast
import hashlib
import operator
import random
from itertools import combinations

# Fixed moduli for the ledger cross-check.  A wrong entry would have to
# agree with the formula modulo all three (about 2**150 combined).
PRIMES = (1_000_000_007, 998_244_353, 2_305_843_009_213_693_951)
# Ledger values up to this many bits are also evaluated exactly.
EXACT_BITS = 1 << 16


# ---------------------------------------------------------------------------
# Inputs


def gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) edge list from the benchmark's own generator."""
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def graph_digest(n: int, edges) -> str:
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()


def ball(adj: list[set[int]], v: int, radius: int) -> set[int]:
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        frontier = [w for u in frontier for w in adj[u] if w not in seen]
        seen.update(frontier)
    return seen


def induced_adjacency(adj: list[set[int]], verts) -> list[set[int]]:
    order = sorted(verts)
    index = {v: i for i, v in enumerate(order)}
    return [{index[w] for w in adj[v] if w in index} for v in order]


# ---------------------------------------------------------------------------
# Cliques and colourings


def check_clique(adj: list[set[int]], clique) -> list[str]:
    verts = list(clique)
    if len(set(verts)) != len(verts):
        return ["clique repeats a vertex"]
    for u, v in combinations(verts, 2):
        if v not in adj[u]:
            return [f"clique vertices {u} and {v} are not adjacent"]
    return []


def check_coloring(adj: list[set[int]], colors, palette: int, chi: int) -> list[str]:
    """Proper, and uses exactly ``chi`` colours from a palette of ``chi``."""
    if len(colors) != len(adj):
        return [f"colouring covers {len(colors)} of {len(adj)} vertices"]
    problems = []
    if palette != chi:
        problems.append(f"palette {palette} != chi {chi}")
    if any(not 0 <= c < palette for c in colors):
        problems.append("colour outside palette")
    if len(set(colors)) != chi:
        problems.append(f"{len(set(colors))} colours used, chi is {chi}")
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if u < v and colors[u] == colors[v]:
                problems.append(f"edge {u}-{v} is monochromatic")
                return problems
    return problems


def k_coloring(adj: list[set[int]], k: int, clique=()) -> list[int] | None:
    """A proper k-colouring, or None when none exists.

    DSATUR backtracking with ``clique`` pre-coloured 0..|clique|-1, and
    at most one unused colour tried per decision (colours are
    interchangeable), so None proves that no k-colouring exists.
    """
    n = len(adj)
    if len(clique) > k:
        return None
    colors = [-1] * n
    counts = [[0] * k for _ in range(n)]  # neighbours of v coloured c
    sat = [0] * n

    def assign(v: int, c: int) -> None:
        colors[v] = c
        for w in adj[v]:
            counts[w][c] += 1
            if counts[w][c] == 1:
                sat[w] += 1

    def unassign(v: int) -> None:
        c = colors[v]
        colors[v] = -1
        for w in adj[v]:
            counts[w][c] -= 1
            if counts[w][c] == 0:
                sat[w] -= 1

    for c, v in enumerate(clique):
        assign(v, c)

    def solve(used: int) -> bool:
        best, key = -1, None
        for v in range(n):
            if colors[v] == -1:
                cand = (sat[v], len(adj[v]))
                if key is None or cand > key:
                    best, key = v, cand
        if best == -1:
            return True
        if sat[best] == k:
            return False
        for c in range(min(used + 1, k)):
            if counts[best][c] == 0:
                assign(best, c)
                if solve(max(used, c + 1)):
                    return True
                unassign(best)
        return False

    return colors if solve(len(clique)) else None


def chromatic_reference(adj: list[set[int]], clique) -> tuple[int, list[int]]:
    """Smallest k >= |clique| with a k-colouring, and that colouring.

    Every k below the result was refuted by :func:`k_coloring`.
    """
    if not adj:
        return 0, []
    k = max(1, len(clique))
    while True:
        col = k_coloring(adj, k, clique)
        if col is not None:
            return k, col
        k += 1


# ---------------------------------------------------------------------------
# The target tree and induced embeddings


def t_delta(delta: int) -> tuple[int, list[tuple[int, int]]]:
    """delta (1,delta)-brooms and delta (2,delta)-brooms glued at vertex 0."""
    edges: list[tuple[int, int]] = []
    nxt = 1
    for length in [1] * delta + [2] * delta:
        tail = 0
        for _ in range(length):
            edges.append((tail, nxt))
            tail, nxt = nxt, nxt + 1
        for _ in range(delta):
            edges.append((tail, nxt))
            nxt += 1
    return nxt, edges


def tree_canon(adj: list[set[int]]) -> str:
    """Canonical string of a tree: least rooted AHU encoding over all roots."""

    def encode(v: int, parent: int) -> str:
        return "(" + "".join(sorted(encode(w, v) for w in adj[v] if w != parent)) + ")"

    return min(encode(r, -1) for r in range(len(adj)))


def check_induced_tree(adj: list[set[int]], host_vertices, delta: int) -> list[str]:
    """The host vertices of an embedding induce a copy of T(delta).

    Adjacency is read pair by pair from the host; the induced subgraph
    must be a tree with the same canonical form as T(delta).
    """
    verts = list(host_vertices)
    n_t, edges_t = t_delta(delta)
    if len(set(verts)) != len(verts):
        return ["embedding is not injective"]
    if len(verts) != n_t:
        return [f"embedding has {len(verts)} vertices, T({delta}) has {n_t}"]
    sub = [set() for _ in verts]
    m = 0
    for i, j in combinations(range(len(verts)), 2):
        if verts[j] in adj[verts[i]]:
            sub[i].add(j)
            sub[j].add(i)
            m += 1
    if m != n_t - 1:
        return [f"induced subgraph has {m} edges, a tree on {n_t} has {n_t - 1}"]
    seen, stack = {0}, [0]
    while stack:
        for w in sub[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != n_t:
        return ["induced subgraph is not connected"]
    if tree_canon(sub) != tree_canon(adjacency(n_t, edges_t)):
        return [f"induced tree is not T({delta})"]
    return []


# ---------------------------------------------------------------------------
# Cores


def check_core(adj: list[set[int]], parts, a: int, b: int) -> list[str]:
    """b disjoint stable parts of size a, every cross pair adjacent."""
    if len(parts) != b:
        return [f"core has {len(parts)} parts, want {b}"]
    if any(len(set(p)) != a for p in parts):
        return [f"core part sizes {[len(p) for p in parts]}, want {a}"]
    seen: set[int] = set()
    for p in parts:
        if seen & set(p):
            return ["core parts overlap"]
        seen |= set(p)
        for u, v in combinations(p, 2):
            if v in adj[u]:
                return [f"core part has edge {u}-{v}"]
    for p, q in combinations(parts, 2):
        for u in p:
            for v in q:
                if v not in adj[u]:
                    return [f"core parts not joined at {u}-{v}"]
    return []


def find_induced_c4(adj: list[set[int]], verts) -> tuple[int, int, int, int] | None:
    """An induced 4-cycle inside ``verts``: at zeta = beta = 2 a core is
    exactly this."""
    pool = set(verts)
    for u, w in combinations(sorted(pool), 2):
        if w in adj[u]:
            continue
        common = sorted(adj[u] & adj[w] & pool)
        for x, y in combinations(common, 2):
            if y not in adj[x]:
                return (u, x, w, y)
    return None


# ---------------------------------------------------------------------------
# Ledger entries in modular arithmetic


_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _evaluate(node: ast.AST, env: dict) -> tuple[int | None, tuple[int, ...]]:
    """Value of a formula as (exact value or None, residues mod PRIMES).

    Exponents must be known exactly; bases may be known by residue only,
    in which case ``pow(b, e, m)`` gives the residue of the power.
    """
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return _number(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        (base, base_res), (exp, _) = _evaluate(node.left, env), _evaluate(node.right, env)
        if exp is None or exp < 0:
            raise ValueError("exponent must be a known nonnegative integer")
        res = tuple(pow(r, exp, m) for r, m in zip(base_res, PRIMES))
        small = base is not None and base.bit_length() * exp <= EXACT_BITS
        return (base**exp if small else None), res
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
        op = _ARITH[type(node.op)]
        (x, xr), (y, yr) = _evaluate(node.left, env), _evaluate(node.right, env)
        exact = op(x, y) if x is not None and y is not None else None
        if exact is not None and abs(exact).bit_length() > EXACT_BITS:
            exact = None
        return exact, tuple(op(a, b) % m for a, b, m in zip(xr, yr, PRIMES))
    raise ValueError(f"unsupported formula syntax: {ast.dump(node)}")


def _number(x: int) -> tuple[int, tuple[int, ...]]:
    return x, tuple(x % m for m in PRIMES)


def decimal_residues(text: str) -> tuple[int, ...]:
    """Residues of a decimal string, in linear time (no int() of the
    whole string, so no digit limit applies)."""
    out = []
    for m in PRIMES:
        x = 0
        for i in range(0, len(text), 18):
            chunk = text[i : i + 18]
            x = (x * pow(10, len(chunk), m) + int(chunk)) % m
        out.append(x)
    return tuple(out)


def check_ledger(params: dict, entries: list[dict], values: dict[str, int]) -> list[str]:
    """Each entry of a ``broomlab constants`` document against the
    benchmark's own modular evaluation of its formula string.

    ``entries`` are the document's entries (key, formula, and either a
    decimal or a bit length); ``values`` are the entries re-derived by
    the library's evaluator.  Both must agree with the formula residues,
    and with each other.
    """
    env = {name: _number(int(v)) for name, v in params.items()}
    problems = []
    for e in entries:
        key = e["key"]
        want, want_res = _evaluate(ast.parse(e["formula"], mode="eval"), env)
        env[key.replace(".", "_")] = (want, want_res)
        got = values.get(key)
        if got is None:
            problems.append(f"{key}: missing from the re-evaluation")
            continue
        if tuple(got % m for m in PRIMES) != want_res or (want is not None and got != want):
            problems.append(f"{key}: re-evaluated value disagrees with its formula")
        decimal = e.get("decimal")
        if decimal is not None:
            if not decimal.isdigit() or decimal_residues(decimal) != want_res:
                problems.append(f"{key}: printed decimal disagrees with its formula")
        elif e.get("bit_length") != got.bit_length():
            problems.append(f"{key}: printed bit length {e.get('bit_length')} != {got.bit_length()}")
    return problems

"""Seeded property suites.

Each suite runs a fixed number of randomized trials against an
independent oracle or a postcondition re-check and reports failures
individually.  The CLI exposes them under ``lemma-check``; the
acceptance tests run them at their contractual trial counts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .generators import erdos_renyi, plant_core
from .graphs import Digraph, Graph, induced, is_stable, mask_of
from .oracles import (
    chromatic_number_oracle,
    contains_induced_oracle,
    daisies_oracle,
    find_core_oracle,
)
from .pipeline import run_pipeline
from .shadows import (
    build_shadowing,
    find_daisy,
    private_cover,
    validate_daisy,
    verify_private_cover,
)
from .solvers import chromatic_number, validate_coloring
from .structures import Params, find_core, verify_core
from .templates import color_bounded_outdegree, extract_template_array
from .trees import PatternTree, contains_induced, verify_embedding

# Suites that draw instances until enough qualify give up after this
# many draws per trial and report the shortfall as a failure.
ATTEMPTS_PER_TRIAL = 10


@dataclass
class SuiteResult:
    """One suite run.  ``elapsed`` is its wall time in seconds: it stays
    out of the JSON, but ``lemma-check`` prints it to stderr and
    acceptance criteria 1, 4 and 7 gate on it."""

    name: str
    trials: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "ok": self.ok,
        }


def _random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def suite_containment(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Optimized induced-tree matcher versus plain injective enumeration."""
    rng = random.Random(seed)
    result = SuiteResult("containment", trials)
    start = time.perf_counter()
    for t in range(trials):
        host = erdos_renyi(rng.randint(4, 8), rng.uniform(0.15, 0.8), rng.getrandbits(32))
        pn = rng.randint(2, 6)
        tree = _random_tree(rng, pn)
        pattern = PatternTree(tree=tree, handle=0)
        emb = contains_induced(host, pattern)
        expected = contains_induced_oracle(host, tree)
        if (emb is not None) != expected:
            result.failures.append(
                f"trial {t}: matcher={emb is not None} oracle={expected}"
            )
        elif emb is not None and not verify_embedding(host, pattern, emb):
            result.failures.append(f"trial {t}: returned embedding not induced")
    result.elapsed = time.perf_counter() - start
    return result


def suite_chromatic(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Exact solver versus exhaustive k-labeling on small graphs."""
    rng = random.Random(seed)
    result = SuiteResult("chromatic", trials)
    start = time.perf_counter()
    for t in range(trials):
        g = erdos_renyi(rng.randint(1, 8), rng.uniform(0.1, 0.9), rng.getrandbits(32))
        chi, col = chromatic_number(g)
        want = chromatic_number_oracle(g)
        if chi != want:
            result.failures.append(f"trial {t}: solver={chi} oracle={want}")
        elif g.n and (not validate_coloring(g, col) or col.palette_size != chi):
            result.failures.append(f"trial {t}: witness colouring invalid")
    result.elapsed = time.perf_counter() - start
    return result


def suite_digraph(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Bounded-outdegree colouring: 2d+1 in general, d+1 when acyclic.

    Runs ``trials`` general digraphs and ``trials`` acyclic ones.
    """
    rng = random.Random(seed)
    result = SuiteResult("digraph", 2 * trials)
    start = time.perf_counter()
    for t in range(trials):
        n = rng.randint(2, 60)
        d = rng.randint(1, 5)
        arcs = []
        for v in range(n):
            outs = rng.sample([w for w in range(n) if w != v], min(rng.randint(0, d), n - 1))
            arcs += [(v, w) for w in outs]
        dg = Digraph(n, arcs)
        col = color_bounded_outdegree(dg, d)
        under = dg.underlying_graph()
        if not validate_coloring(under, col):
            result.failures.append(f"general trial {t}: colouring improper")
        elif col.palette_size > 2 * d + 1:
            result.failures.append(
                f"general trial {t}: {col.palette_size} colours > {2 * d + 1}"
            )
    for t in range(trials):
        n = rng.randint(2, 60)
        d = rng.randint(1, 5)
        arcs = []
        for v in range(n):
            later = [w for w in range(v + 1, n)]
            if later:
                outs = rng.sample(later, min(rng.randint(0, d), len(later)))
                arcs += [(v, w) for w in outs]
        dg = Digraph(n, arcs)
        col = color_bounded_outdegree(dg, d)
        under = dg.underlying_graph()
        if not validate_coloring(under, col):
            result.failures.append(f"acyclic trial {t}: colouring improper")
        elif col.palette_size > d + 1:
            result.failures.append(
                f"acyclic trial {t}: {col.palette_size} colours > {d + 1}"
            )
    result.elapsed = time.perf_counter() - start
    return result


def suite_private_cover(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Random covered instances; all four construction bullets re-checked."""
    rng = random.Random(seed)
    result = SuiteResult("private_cover", trials)
    start = time.perf_counter()
    for t in range(trials):
        n = rng.randint(6, 14)
        g0 = erdos_renyi(n, rng.uniform(0.2, 0.5), rng.getrandbits(32))
        sizes = rng.randint(2, max(2, n // 3))
        verts = list(range(n))
        rng.shuffle(verts)
        a = frozenset(verts[:sizes])
        b_size = rng.randint(1, n - sizes - 1) if n - sizes > 1 else 1
        b = frozenset(verts[sizes : sizes + b_size])
        # Patch the cover property: every b vertex needs an a neighbour.
        extra = []
        a_mask = mask_of(a)
        for v in sorted(b):
            if not g0.bits[v] & a_mask:
                extra.append((v, rng.choice(sorted(a))))
        g = Graph(n, list(g0.edges()) + extra) if extra else g0
        d = rng.randint(0, 3)
        pc = private_cover(g, a, b, d)
        problems = verify_private_cover(g, a, b, d, pc)
        if problems:
            result.failures.append(f"trial {t}: {problems[0]}")
    result.elapsed = time.perf_counter() - start
    return result


def suite_stable_removal(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Removing a stable set that lowers chi leaves a high-degree witness.

    Instances are built so the hypotheses hold: X is a colour class of
    an optimal colouring (so chi drops) and d is below chi.
    """
    rng = random.Random(seed)
    result = SuiteResult("stable_removal", trials)
    start = time.perf_counter()
    done = attempts = 0
    while done < trials and attempts < ATTEMPTS_PER_TRIAL * trials:
        attempts += 1
        g = erdos_renyi(rng.randint(5, 10), rng.uniform(0.3, 0.7), rng.getrandbits(32))
        chi, col = chromatic_number(g)
        if chi < 2:
            continue
        cls = rng.randrange(col.palette_size)
        x = frozenset(v for v in range(g.n) if col.colors[v] == cls)
        if not x:
            continue
        rest = frozenset(range(g.n)) - x
        sub, _ = induced(g, rest)
        if chromatic_number(sub)[0] >= chi:
            continue
        d = rng.randint(0, chi - 1)
        if not is_stable(g, x):
            result.failures.append(f"trial {done}: chosen class not stable")
            done += 1
            continue
        outside = ~mask_of(x)
        witness = max(((g.bits[v] & outside).bit_count() for v in x), default=-1)
        if witness < d:
            result.failures.append(
                f"trial {done}: best outside degree {witness} < {d}"
            )
        done += 1
    _report_shortfall(result, done, attempts)
    result.elapsed = time.perf_counter() - start
    return result


def suite_core(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Core search versus exhaustive part enumeration."""
    rng = random.Random(seed)
    result = SuiteResult("core", trials)
    start = time.perf_counter()
    for t in range(trials):
        g = erdos_renyi(rng.randint(2, 10), rng.uniform(0.2, 0.9), rng.getrandbits(32))
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        got = find_core(g, a, b)
        want = find_core_oracle(g, a, b)
        if (got is not None) != (want is not None):
            result.failures.append(
                f"trial {t}: search={got is not None} oracle={want is not None}"
            )
        elif got is not None and not verify_core(g, got, a, b):
            result.failures.append(f"trial {t}: witness core invalid")
    result.elapsed = time.perf_counter() - start
    return result


def suite_daisy(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Daisy search versus the naive (root, eye, petals) enumerator."""
    rng = random.Random(seed)
    result = SuiteResult("daisy", trials)
    start = time.perf_counter()
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    done = attempts = 0
    while done < trials and attempts < ATTEMPTS_PER_TRIAL * trials:
        attempts += 1
        g, _ = plant_core(
            rng.randint(8, 12), 2, 2, rng.uniform(0.05, 0.3), rng.getrandbits(32)
        )
        arr, _ = extract_template_array(g, p)
        if not arr.templates:
            continue
        shadow = build_shadowing(arr)
        daisy = find_daisy(arr, shadow)
        naive = daisies_oracle(
            g, arr.h_sets(), list(shadow.blocks), arr.u, p.delta
        )
        if (daisy is not None) != bool(naive):
            result.failures.append(
                f"trial {done}: search={daisy is not None} naive={bool(naive)}"
            )
        elif daisy is not None:
            problems = validate_daisy(arr, shadow, daisy)
            if problems:
                result.failures.append(f"trial {done}: {problems[0]}")
        done += 1
    _report_shortfall(result, done, attempts)
    result.elapsed = time.perf_counter() - start
    return result


def _report_shortfall(result: SuiteResult, done: int, attempts: int) -> None:
    if done < result.trials:
        result.failures.append(
            f"only {done} of {result.trials} trials qualified in {attempts} attempts"
        )


def _pipeline_instances(count: int, seed: int):
    """A deterministic mix of planted-core, sparse random, and fixture
    hosts, all at desk scale."""
    rng = random.Random(seed)
    out = []
    from .generators import FIXTURES

    fixture_ids = [
        "c4", "c4_pendant_path", "c4_double_pendant", "c4_z_vertex",
        "kp22_pair", "k33", "k23", "c5", "c6", "petersen",
        "c4_isolated", "daisy_basic", "strong_triple",
    ]
    for fid in fixture_ids:
        if len(out) < count:
            out.append((f"fixture:{fid}", FIXTURES[fid]()))
    while len(out) < count:
        kind = rng.random()
        if kind < 0.45:
            n = rng.randint(10, 40)
            b = 2
            a = rng.randint(2, 3)
            g, _ = plant_core(n, a, b, rng.uniform(0.0, 0.15), rng.getrandbits(32))
            out.append((f"planted:{len(out)}", g))
        elif kind < 0.75:
            n1 = rng.randint(8, 20)
            n2 = rng.randint(8, 20)
            g1, _ = plant_core(n1, 2, 2, rng.uniform(0.0, 0.12), rng.getrandbits(32))
            g2, _ = plant_core(n2, rng.randint(2, 3), 2, rng.uniform(0.0, 0.12),
                               rng.getrandbits(32))
            edges = list(g1.edges())
            edges += [(u + n1, v + n1) for u, v in g2.edges()]
            cross = rng.uniform(0.0, 0.04)
            for u in range(n1):
                for v in range(n1, n1 + n2):
                    if rng.random() < cross:
                        edges.append((u, v))
            out.append((f"double:{len(out)}", Graph(n1 + n2, edges)))
        else:
            n = rng.randint(8, 36)
            g = erdos_renyi(n, rng.uniform(0.03, 0.12), rng.getrandbits(32))
            out.append((f"sparse:{len(out)}", g))
    return out


def suite_pipeline(instances: int = 100, seed: int = 0) -> SuiteResult:
    """Full pipeline validity over generated hosts.

    Every stage must pass its declared cleanliness predicate and the
    structural invariants (the pipeline raises otherwise), and the
    leftover region must be core-free.
    """
    result = SuiteResult("pipeline", instances)
    start = time.perf_counter()
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    for name, g in _pipeline_instances(instances, seed):
        try:
            trace = run_pipeline(g, p)
        except Exception as exc:  # noqa: BLE001 - report, do not mask
            result.failures.append(f"{name}: {exc}")
            continue
        if not trace.leftover_core_free:
            result.failures.append(f"{name}: leftover region contains a core")
    result.elapsed = time.perf_counter() - start
    return result


# In alphabetical order: an unknown suite's error lists them in this order.
SUITES = {
    "chromatic": suite_chromatic,
    "containment": suite_containment,
    "core": suite_core,
    "daisy": suite_daisy,
    "digraph": suite_digraph,
    "pipeline": suite_pipeline,
    "private_cover": suite_private_cover,
    "stable_removal": suite_stable_removal,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (known: {', '.join(SUITES)})")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    if name == "pipeline":
        return fn(instances=trials, seed=seed)
    return fn(trials=trials, seed=seed)

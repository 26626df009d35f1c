import random
from dataclasses import replace

import pytest

from broomlab.generators import FIXTURES
from broomlab.graphs import Digraph, Graph, induced, mask_of, members
from broomlab.oracles import adjacency, daisies_oracle
from broomlab import pipeline
from broomlab.pipeline import StageError, run_pipeline
from broomlab.shadows import (
    Daisy,
    PrivateCover,
    Privatization,
    Shadowing,
    build_shadowing,
    find_bunch,
    find_daisy,
    private_cover,
    privatize,
    shadowing_degree,
    strong_triple_audit,
    validate_bunch,
    validate_daisy,
    validate_privatization,
    validate_shadowing,
    verify_private_cover,
)
from broomlab.solvers import chromatic_number, solving
from broomlab.structures import Params
from broomlab.templates import (
    extract_template_array,
    gallai_roy_color,
    validate_template_array,
)
from broomlab.graphs import is_stable

from conftest import random_graph


def extract(fid, params):
    arr, _ = extract_template_array(FIXTURES[fid](), params)
    return arr


# --- shadowings --------------------------------------------------------------


def test_shadowing_empty_u(small_params):
    arr = extract("kp22_pair", small_params)
    s = build_shadowing(arr)
    assert all(not b for b in s.blocks)
    assert validate_shadowing(arr, s) == []


def test_shadowing_least_index(small_params):
    # One U vertex attached to both templates lands in the first block,
    # also when it touches the second template more often.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (8, 0), (8, 2)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 4), (9, 4), (9, 6)]
    edges += [(10, 8), (10, 9)]
    g = Graph(11, edges)
    arr, _ = extract_template_array(g, small_params)
    s = build_shadowing(arr)
    assert 10 in s.blocks[0] and 10 not in s.blocks[1]
    assert validate_shadowing(arr, s) == []
    # Vertex 10 touches template one once and template two twice.
    g = Graph(12, edges + [(11, 4), (11, 6), (10, 11)])
    arr, _ = extract_template_array(g, small_params)
    least = build_shadowing(arr)
    assert 10 in least.blocks[0]
    assert validate_shadowing(arr, least) == []


def test_shadowing_degree(small_params):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (8, 0), (8, 2)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 4), (9, 4), (9, 6)]
    edges += [(10, 8), (11, 8), (11, 9)]
    g = Graph(12, edges)
    arr, _ = extract_template_array(g, small_params)
    assert arr.u == frozenset({10, 11})
    custom = Shadowing((1 << 10, 1 << 11))
    assert validate_shadowing(arr, custom) == []
    degree, argmax = shadowing_degree(arr, custom)
    assert degree == 2 and argmax == 8  # 8 sees both blocks
    assert shadowing_degree(arr, custom, 0)[0] == 0
    single = Shadowing((mask_of({10, 11}), 0))
    assert shadowing_degree(arr, single)[0] <= 1


def test_mask_arguments_refuse_bits_outside_the_graph(small_params):
    from broomlab.trees import find_rooted_broom

    arr = extract("kp22_pair", small_params)
    s = build_shadowing(arr)
    n = arr.graph.n
    for bad in (1 << n, -1):
        with pytest.raises(ValueError, match=f"vertex mask outside 0..{n - 1}"):
            shadowing_degree(arr, s, bad)
        with pytest.raises(ValueError, match=f"vertex mask outside 0..{n - 1}"):
            find_rooted_broom(arr.graph, 0, 1, 1, allowed=bad)


# --- daisies -----------------------------------------------------------------


def daisy_setup():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    arr, _ = extract_template_array(FIXTURES["daisy_basic"](), p)
    return arr, build_shadowing(arr)


def test_find_daisy_fixture():
    arr, s = daisy_setup()
    d = find_daisy(arr, s)
    assert d is not None
    assert validate_daisy(arr, s, d) == []
    assert d.root == 8 and d.eye == 9 and d.petals == 1 << 10


def test_find_daisy_blocked_by_root_edges():
    base = FIXTURES["daisy_basic"]()
    g = Graph(12, list(base.edges()) + [(8, 10), (11, 9)])
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    arr, _ = extract_template_array(g, p)
    s = build_shadowing(arr)
    assert find_daisy(arr, s) is None
    assert not daisies_oracle(
        g, arr.h_sets(), list(s.blocks), arr.u, p.delta
    )


def test_daisy_oracle_agreement_200():
    from broomlab.suites import suite_daisy

    result = suite_daisy(trials=200, seed=21)
    assert result.ok, result.failures[:3]


def bunch_fixture():
    edges = []
    for c in range(3):
        base = 4 * c
        edges += [
            (base, base + 1),
            (base + 1, base + 2),
            (base + 2, base + 3),
            (base + 3, base),
        ]
    z0, z1, z2 = 12, 13, 14
    edges += [(z0, 0), (z0, 2), (z1, 4), (z1, 6), (z2, 8), (z2, 10)]
    v1, p1, v2, p2 = 15, 16, 17, 18
    edges += [(v1, z0), (v1, p1), (p1, z1)]
    edges += [(v2, z0), (v2, p2), (p2, z2)]
    return Graph(19, edges)


def test_find_bunch():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    g = bunch_fixture()
    arr, _ = extract_template_array(g, p)
    assert arr.size == 3
    s = build_shadowing(arr)
    single = find_bunch(arr, s, 1)
    assert single is not None and validate_bunch(arr, s, single) == []
    pair = find_bunch(arr, s, 2)
    assert pair is not None
    assert validate_bunch(arr, s, pair) == []
    assert {d.petal_index for d in pair} == {1, 2}
    assert {d.root_index for d in pair} == {0}
    with pytest.raises(ValueError):
        find_bunch(arr, s, 0)


def test_find_bunch_blocked_by_petal_edge():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    g0 = bunch_fixture()
    g = Graph(19, list(g0.edges()) + [(16, 18)])
    arr, _ = extract_template_array(g, p)
    s = build_shadowing(arr)
    assert find_bunch(arr, s, 2) is None


# --- private cover -----------------------------------------------------------


def test_private_cover_d0():
    g = Graph(4, [(0, 2), (1, 3)])
    pc = private_cover(g, frozenset({0, 1}), frozenset({2, 3}), 0)
    assert pc.a_prime == mask_of({0, 1}) and pc.b_prime == 0
    assert pc.decomposition == ()


def test_private_cover_single_cover_vertex():
    g = Graph(3, [(0, 1), (0, 2)])
    pc = private_cover(g, frozenset({0}), frozenset({1, 2}), 1)
    assert pc.a_prime == 1 << 0
    assert pc.b_prime == 1 << 1  # lowest private client
    assert verify_private_cover(g, frozenset({0}), frozenset({1, 2}), 1, pc) == []


def test_private_cover_perfect_matching():
    g = Graph(6, [(0, 3), (1, 4), (2, 5)])
    a, b = frozenset({0, 1, 2}), frozenset({3, 4, 5})
    pc = private_cover(g, a, b, 1)
    assert pc.a_prime == mask_of(a) and pc.b_prime == mask_of(b)
    assert verify_private_cover(g, a, b, 1, pc) == []


def test_private_cover_preconditions():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        private_cover(g, frozenset({0}), frozenset({0, 1}), 1)
    with pytest.raises(ValueError):
        private_cover(g, frozenset({0}), frozenset({1, 2}), 1)  # 2 uncovered


def test_private_cover_random_sample():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(6, 12)
        g0 = random_graph(rng, n, rng.uniform(0.2, 0.5))
        verts = list(range(n))
        rng.shuffle(verts)
        na = rng.randint(2, max(2, n // 3))
        a = frozenset(verts[:na])
        nb = rng.randint(1, n - na - 1) if n - na > 1 else 1
        b = frozenset(verts[na : na + nb])
        adj = adjacency(g0)
        extra = [
            (v, rng.choice(sorted(a)))
            for v in sorted(b)
            if not adj[v] & a
        ]
        g = Graph(n, list(g0.edges()) + extra) if extra else g0
        d = rng.randint(0, 3)
        pc = private_cover(g, a, b, d)
        assert verify_private_cover(g, a, b, d, pc) == []


# --- privatization -----------------------------------------------------------


def test_privatize_trivial_cases(small_params):
    arr = extract("kp22_pair", small_params)
    arr1, _ = __import__("broomlab.templates", fromlist=["clean1"]).clean1(arr)
    out, priv, report = privatize(arr1)
    assert priv.pi == 0
    assert out.templates == arr1.templates and out.u == arr1.u
    assert validate_privatization(out, priv) == []


def pendant_quota_fixture(quota):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)]
    pendants = list(range(5, 5 + quota))
    edges += [(4, v) for v in pendants]
    return Graph(5 + quota, edges), pendants


def test_privatize_pendant_quota():
    p = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1)
    g, pendants = pendant_quota_fixture(quota=2)
    arr, _ = extract_template_array(g, p)
    from broomlab.templates import clean1, clean2

    arr, _ = clean1(arr)
    arr, _ = clean2(arr)
    out, priv, report = privatize(arr)
    assert priv.pi == mask_of(pendants)
    assert all(z == 4 for _, z in priv.private_neighbor)
    assert validate_privatization(out, priv) == []
    assert report["quota"] == 2
    assert validate_template_array(out) == []
    assert out.y_mask == arr.y_mask


def test_privatize_reports_a_refused_chi_as_none():
    # At cap 0 every non-empty set is refused: the chi of U and of the
    # peeled set read None, and so does the inequality that needs them.
    # U minus pi is empty here, so its chi is still 0.  The array, the
    # privatization and the rest of the report are those at the default.
    p = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1)
    g, _ = pendant_quota_fixture(quota=2)
    arr, _ = extract_template_array(g, p)
    from broomlab.templates import clean1, clean2

    arr, _ = clean1(arr)
    arr, _ = clean2(arr)
    out, priv, report = privatize(arr)
    with solving(0):
        refused_out, refused_priv, refused = privatize(arr)
    assert (refused_out, refused_priv) == (out, priv)
    assert refused["chi_u_before"] is None and refused["chi_peeled"] is None
    assert refused["unconditional_inequality_holds"] is None
    assert refused["chi_u_after_minus_pi"] == 0
    assert report["chi_u_before"] is not None and report["chi_peeled"] is not None
    changed = {"chi_u_before", "chi_peeled", "unconditional_inequality_holds"}
    assert {k: v for k, v in refused.items() if k not in changed} == {
        k: v for k, v in report.items() if k not in changed}


def test_privatize_quota_zero():
    p = Params(delta=1, tau=0, alpha=1, beta=2, zeta=2, eta=1)
    g, _ = pendant_quota_fixture(quota=1)
    arr, _ = extract_template_array(g, p)
    from broomlab.templates import clean1, clean2

    arr, _ = clean1(arr)
    arr, _ = clean2(arr)
    out, priv, _ = privatize(arr)
    assert priv.pi == 0


def test_privatize_requires_2_cleaned(small_params):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2), (5, 0), (5, 2), (4, 5)]
    g = Graph(6, edges)
    arr, _ = extract_template_array(g, small_params)
    with pytest.raises(ValueError):
        privatize(arr)


# --- strong triples ----------------------------------------------------------


def test_strong_triples_single_template(small_params):
    g, pendants = pendant_quota_fixture(quota=1)
    arr, _ = extract_template_array(g, small_params)
    from broomlab.templates import clean1, clean2

    arr, _ = clean1(arr)
    arr, _ = clean2(arr)
    out, priv, _ = privatize(arr)
    s = build_shadowing(out)
    report = strong_triple_audit(out, s, priv)
    assert report.triples_by_base == {}
    assert priv.pi == mask_of(pendants)  # everything privatized, nothing left


def test_strong_triple_fixture_detected():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    arr, _ = extract_template_array(FIXTURES["strong_triple"](), p)
    from broomlab.templates import clean1, clean2

    arr, _ = clean1(arr)
    arr, _ = clean2(arr)
    out, priv, _ = privatize(arr)
    s = build_shadowing(out)
    report = strong_triple_audit(out, s, priv)
    assert (1, 2, 3) in report.triples_by_base[0]
    assert report.packing_by_base[0] >= 1
    assert report.orientation_proper
    assert report.chi_unprivatized is not None
    assert report.chi_unprivatized <= report.chi_bound


def _orientation_reference(arr, s, priv):
    """Palette and properness of ``gallai_roy_color`` on a digraph of the
    cross-block edges of the unprivatized blocks, earlier to later."""
    owner = {v: i for i, b in enumerate(s.masks) for v in members(b & ~priv.pi)}
    verts = sorted(owner)
    pos = {v: k for k, v in enumerate(verts)}
    cross = [(u, v) for u in verts for v in members(arr.graph.bits[u]) if v in owner]
    arcs = [(pos[u], pos[v]) for u, v in cross if owner[v] > owner[u]]
    col = gallai_roy_color(Digraph(len(verts), arcs))
    proper = all(col.colors[pos[u]] != col.colors[pos[v]]
                 for u, v in cross if owner[v] != owner[u])
    return col.palette_size, proper


def test_strong_triple_orientation_matches_digraph_colouring(pipeline_traces):
    palettes = set()
    for trace in pipeline_traces:
        arr, s, priv = trace.stages[-1][1], trace.shadowing, trace.privatization
        assert strong_triple_audit(arr, s, priv) == trace.strong_triples
        # With nothing privatized, more of U is oriented.
        for pv in (priv, replace(priv, pi=0)):
            report = strong_triple_audit(arr, s, pv)
            got = report.orientation_palette, report.orientation_proper
            assert got == _orientation_reference(arr, s, pv)
            palettes.add(got[0])
    assert palettes == {0, 1, 2, 3}


# --- stable-removal property --------------------------------------------------


def test_stable_removal_witness_sample():
    rng = random.Random(17)
    done = 0
    while done < 50:
        g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.3, 0.7))
        chi, col = chromatic_number(g)
        if chi < 2:
            continue
        cls = rng.randrange(col.palette_size)
        x = frozenset(v for v in range(g.n) if col.colors[v] == cls)
        if not x:
            continue
        sub, _ = induced(g, frozenset(range(g.n)) - x)
        if chromatic_number(sub)[0] >= chi:
            continue
        assert is_stable(g, x)
        d = rng.randint(0, chi - 1)
        adj = adjacency(g)
        assert max(len(adj[v] - x) for v in x) >= d
        done += 1


# --- validator problem strings -------------------------------------------------


def _shadowing(*blocks):
    return Shadowing(tuple([mask_of(b) for b in blocks]))


def _daisy(root, eye, petals, root_index, petal_index):
    return Daisy(root, eye, mask_of(petals), root_index, petal_index)


def _cover(a_prime, b_prime, layers):
    return PrivateCover(
        mask_of(a_prime), mask_of(b_prime), tuple([mask_of(x) for x in layers])
    )


def _privatization(pi, pairs):
    return Privatization(mask_of(pi), tuple(pairs), (), 0)


# U is {10, 11}: 10 touches template 0 only, 11 touches both.
SHADOWING_CASES = [
    ([[10, 11], []], []),
    ([[10, 11]], ["block count differs from template count"]),
    ([[10, 11], [11]], ["block 1 overlaps an earlier block"]),
    ([[11], [10]], ["block 1 vertex 10 misses template 1"]),
    ([[10], []], ["blocks do not partition U"]),
]


@pytest.mark.parametrize("blocks, want", SHADOWING_CASES)
def test_validate_shadowing_problems(small_params, blocks, want):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (8, 0), (8, 2)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 4), (9, 4), (9, 6)]
    edges += [(10, 8), (11, 8), (11, 9)]
    arr, _ = extract_template_array(Graph(12, edges), small_params)
    assert validate_shadowing(arr, _shadowing(*blocks)) == want


# On ``bunch_fixture``: H_0, H_1 and H_2 hold 12, 13 and 14 beside their
# cores, and the blocks are {15, 17}, {16} and {18}.
DAISY_CASES = [
    ((12, 15, [16], 0, 1), []),
    ((12, 15, [], 0, 1), ["petal count is not delta"]),
    ((12, 15, [16], 2, 1), ["root outside its declared template"]),
    ((12, 0, [16], 0, 1),
     ["eye outside U", "eye or petal inside H", "petal not adjacent to eye"]),
    ((12, 15, [16], 0, 0), ["petal block equals root template", "petals leave their block"]),
    ((12, 15, [16], 0, 2), ["petals leave their block"]),
    ((0, 15, [16], 0, 1), ["eye not adjacent to root"]),
    ((12, 15, [18], 0, 2), ["petal not adjacent to eye"]),
    ((12, 16, [15], 0, 1),
     ["petals leave their block", "eye not adjacent to root", "petal adjacent to root"]),
    ((12, 15, [13, 16], 0, 1),
     ["petal count is not delta", "petals leave their block", "eye or petal inside H",
      "petal not adjacent to eye", "petals not stable"]),
]

BUNCH_CASES = [
    (((12, 15, [16], 0, 1), (12, 17, [18], 0, 2)), []),
    (((12, 15, [16], 0, 1), (12, 15, [16], 0, 1)),
     ["petal blocks are not distinct", "eye/petal sets intersect",
      "edge between eye/petal sets"]),
    (((13, 16, [15], 1, 0), (12, 17, [18], 0, 2)),
     ["roots do not share a template index", "root adjacent to a foreign petal"]),
    (((12, 15, [16], 0, 1), (12, 17, [18], 0, 0)),
     ["root template index collides with a petal block",
      "petal block equals root template", "petals leave their block"]),
]


def _bunch_array():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    arr, _ = extract_template_array(bunch_fixture(), p)
    return arr, build_shadowing(arr)


@pytest.mark.parametrize("daisy, want", DAISY_CASES)
def test_validate_daisy_problems(daisy, want):
    arr, s = _bunch_array()
    assert validate_daisy(arr, s, _daisy(*daisy)) == want


@pytest.mark.parametrize("daisies, want", BUNCH_CASES)
def test_validate_bunch_problems(daisies, want):
    arr, s = _bunch_array()
    assert validate_bunch(arr, s, tuple([_daisy(*d) for d in daisies])) == want


MATCHING = (6, [(0, 3), (1, 4), (2, 5)])
PEELED = ([0, 1, 2], [3, 4, 5], [[3, 4, 5]])

# (graph, a, b, d, cover, problems); the first row is a valid cover.
COVER_CASES = [
    (MATCHING, [0, 1, 2], [3, 4, 5], 1, PEELED, []),
    (MATCHING, [0, 1, 2], [3, 4], 1, PEELED, ["outputs leave their source sets"]),
    (MATCHING, [0, 1, 2], [3, 4, 5], 1, ([0, 1], [3, 4], [[3, 4]]),
     ["vertex 5 lost its cover"]),
    (MATCHING, [0, 1, 2], [3, 4, 5], 1, ([0, 1, 2], [3, 4, 5], [[3, 4, 5], []]),
     ["wrong number of layers"]),
    ((7, [(0, 3), (0, 4), (0, 5), (1, 6)]), [0, 1], [3, 4, 5, 6], 2,
     ([0, 1], [3, 4, 5, 6], [[3, 4, 5], [6]]),
     ["layer is not matching-covered", "cover vertex 0 owns 3 != 2 clients",
      "cover vertex 1 owns 1 != 2 clients"]),
    (MATCHING, [0, 1, 2], [3, 4, 5], 1, ([0, 1, 2], [3, 4, 5], [[3, 4]]),
     ["layers do not union to the peeled set"]),
    ((5, [(0, 2), (1, 2), (0, 3), (1, 4)]), [0, 1], [2, 3, 4], 2,
     ([0, 1], [2, 3, 4], [[3, 4], [2]]),
     ["peeled vertex 2 keeps several cover neighbours"]),
    (MATCHING, [0, 1, 2], [3, 4], 1, ([0, 1, 2], [3, 4], [[3, 4]]),
     ["cover vertex 2 owns 0 != 1 clients"]),
]


@pytest.mark.parametrize("graph, a, b, d, cover, want", COVER_CASES)
def test_verify_private_cover_problems(graph, a, b, d, cover, want):
    g = Graph(*graph)
    problems = verify_private_cover(g, frozenset(a), frozenset(b), d, _cover(*cover))
    assert problems == want


# On ``privatize(pendant_cleaned())``: the core is 0-3, Z is {4}, the quota is 2.
PRIVATIZATION_CASES = [
    ([5, 6], [(5, 4), (6, 4)], []),
    ([5, 6, 7], [(5, 4), (6, 4)], ["pi vertex 7 has 0 Z neighbours"]),
    ([5, 6], [(5, 4), (6, 0)], ["pi vertex 6 maps to a non-neighbour"]),
    ([0, 5], [(0, 4), (5, 4)], ["pi vertex 0 touches a core"]),
    ([5], [(5, 4)], ["Z vertex 4 has 1 != 2 pi neighbours"]),
    ([0, 5, 6], [(0, 4), (5, 4), (6, 4)],
     ["pi vertex 0 touches a core", "Z vertex 4 has 3 != 2 pi neighbours"]),
]


def pendant_cleaned():
    """``pendant_quota_fixture(2)`` with an isolated vertex 7 added,
    extracted and cleaned at quota 2."""
    from broomlab.templates import clean1, clean2

    p = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1)
    g, _ = pendant_quota_fixture(quota=2)
    arr, _ = extract_template_array(Graph(8, list(g.edges())), p)
    return clean2(clean1(arr)[0])[0]


@pytest.mark.parametrize("pi, pairs, want", PRIVATIZATION_CASES)
def test_validate_privatization_problems(pi, pairs, want):
    out, _, _ = privatize(pendant_cleaned())
    assert validate_privatization(out, _privatization(pi, pairs)) == want


def test_privatize_rejects_a_u_vertex_off_y_and_z():
    arr = pendant_cleaned()
    with pytest.raises(ValueError) as err:
        privatize(replace(arr, u=arr.u | {7}))
    assert str(err.value) == (
        "corrupt array: U vertex 7 has neighbours in neither Y nor Z"
    )


def test_run_pipeline_names_the_failing_shadow_and_privatize_stages(
    monkeypatch, small_params
):
    g = FIXTURES["c4_pendant_path"]()
    run_pipeline(g, small_params)
    monkeypatch.setattr(pipeline, "build_shadowing", lambda arr: _shadowing())
    with pytest.raises(StageError) as err:
        run_pipeline(g, small_params)
    assert err.value.stage == "shadow"
    assert err.value.problems == ["block count differs from template count"]

    def broken_privatize(arr):
        out, _, report = privatize(arr)
        return out, _privatization([], []), report

    monkeypatch.setattr(pipeline, "privatize", broken_privatize)
    with pytest.raises(StageError) as err:
        run_pipeline(g, small_params)
    assert err.value.stage == "privatize"
    assert err.value.problems == ["Z vertex 4 has 0 != 1 pi neighbours"]
    assert str(err.value) == "stage privatize: Z vertex 4 has 0 != 1 pi neighbours"

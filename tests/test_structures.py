import random

import pytest

from broomlab.generators import erdos_renyi, plant_core
from broomlab.graphs import Graph, induced, mask_of, members
from broomlab.oracles import adjacency, find_core_oracle
from broomlab.solvers import InstanceTooLarge, solving
from broomlab.structures import (
    CoreWitness,
    Params,
    ThetaTable,
    check_conditions,
    density_masks,
    find_core,
    is_dense_to,
    is_eta_mixed,
    is_matching_covered,
    max_matching_covered_chi,
    verify_core,
)


def test_find_core_examples(c4, c5, k5):
    core = find_core(c4, 2, 2)
    assert core is not None and set(core.parts) == {
        frozenset({0, 2}),
        frozenset({1, 3}),
    }
    assert find_core(c5, 2, 2) is None
    assert find_core_oracle(c5, 2, 2) is None
    small = find_core(k5, 1, 3)
    assert small is not None and verify_core(k5, small, 1, 3)


def test_find_core_matches_oracle_witness():
    # The exact parts, in order, not just existence: both searches take
    # the lexicographically least parts, minimum vertices increasing.
    rng = random.Random(2024)
    found = 0
    for _ in range(400):
        n = rng.randint(1, 11)
        g = erdos_renyi(n, rng.choice((0.3, 0.5, 0.7, 0.85)), rng.getrandbits(32))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        core = find_core(g, a, b)
        want = find_core_oracle(g, a, b)
        assert (core.parts if core else None) == want, (g.sorted_edges(), a, b)
        found += core is not None
    assert 50 < found < 350  # both outcomes are exercised


def test_find_core_bound_keeps_the_oracle_witness():
    # A part is only grown from vertices whose common neighbourhood can
    # still hold every later part.  Planted (a0, 3)-cores make the bound
    # pass deep branches; dense hosts without the asked core make the
    # search exhaustive, so every cut is tested against the oracle.
    rng = random.Random(77)
    planted_hits = exhausted = 0
    for trial in range(160):
        if trial % 2:
            a0 = rng.randint(1, 3)
            n = rng.randint(3 * a0, 12)
            g, _ = plant_core(n, a0, 3, rng.uniform(0.1, 0.6), rng.getrandbits(32))
        else:
            n = rng.randint(6, 12)
            g = erdos_renyi(n, rng.choice((0.6, 0.75, 0.9)), rng.getrandbits(32))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                core = find_core(g, a, b)
                want = find_core_oracle(g, a, b)
                assert (core.parts if core else None) == want, (g.sorted_edges(), a, b)
                if b == 3 and trial % 2 and a <= a0:
                    planted_hits += 1
                exhausted += core is None and a * b <= g.n
    assert planted_hits >= 100 and exhausted >= 100


def test_find_core_floor_rule():
    # Vertex 0 sees every vertex of the C4 on 1..4, so it stays a
    # candidate for the second part although it lies below that part's
    # floor (the minimum of the first part); it is in no (2,2)-core.
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)] + [(0, v) for v in range(1, 5)])
    core = find_core(g, 2, 2)
    assert core.parts == (frozenset({1, 3}), frozenset({2, 4}))
    assert core.parts == find_core_oracle(g, 2, 2)
    assert find_core(g, 1, 3).parts == find_core_oracle(g, 1, 3)


def test_find_core_beyond_64_vertices():
    # Bitmasks wider than a machine word: the core uses ids above 64.
    n = 70
    parts = ({0, 65, 67}, {1, 66, 69})
    g = Graph(n, [(u, v) for u in parts[0] for v in parts[1]] + [(2, 68)])
    with pytest.raises(InstanceTooLarge):
        find_core(g, 3, 2)
    with solving(n):
        core = find_core(g, 3, 2)
        assert find_core(g, 3, 3) is None
    assert core.parts == tuple(frozenset(p) for p in parts)
    assert verify_core(g, core, 3, 2)


def test_find_core_oracle_200():
    from broomlab.suites import suite_core

    result = suite_core(trials=200, seed=13)
    assert result.ok, result.failures[:3]


def test_dense_and_mixed(c4):
    core = CoreWitness((frozenset({0, 2}), frozenset({1, 3})))
    apex = Graph(5, list(c4.edges()) + [(4, 0), (4, 1), (4, 2), (4, 3)])
    assert is_dense_to(apex, 4, core, 1)
    assert not is_eta_mixed(apex, 4, core, 1, 1)  # dense, so not mixed
    lonely = Graph(5, list(c4.edges()))
    assert not is_dense_to(lonely, 4, core, 1)
    assert not is_eta_mixed(lonely, 4, core, 1, 1)
    one_part = Graph(5, list(c4.edges()) + [(4, 0), (4, 2)])
    assert is_eta_mixed(one_part, 4, core, 2, 1)
    assert is_eta_mixed(one_part, 0, core, 2, 1)  # core members are mixed
    with pytest.raises(ValueError):
        is_dense_to(one_part, 0, core, 1)
    two_each = Graph(5, list(c4.edges()) + [(4, 0), (4, 1)])
    assert not is_dense_to(two_each, 4, core, 2)  # alpha=2 needs two per part


def _dense_ref(adj, v, core, alpha):
    return all(len(adj[v] & part) >= alpha for part in core.parts)


def _mixed_ref(adj, v, core, eta, alpha):
    if v in core.vertices():
        return True
    if _dense_ref(adj, v, core, alpha):
        return False
    return any(len(adj[v] & part) >= eta for part in core.parts)


def _verify_ref(adj, core, a, b):
    if core.b != b or any(len(p) != a for p in core.parts):
        return False
    seen = set()
    for p in core.parts:
        if p & seen:
            return False
        seen |= p
        if any(v in adj[u] for u in p for v in p):
            return False
    return all(
        core.parts[j] <= adj[u]
        for i in range(b)
        for j in range(i + 1, b)
        for u in core.parts[i]
    )


def _random_witness(rng, g):
    """Real cores, planted-style parts, disjoint random parts and parts
    that overlap, so every predicate meets both verdicts."""
    kind = rng.randrange(4)
    if kind == 0:
        core = find_core(g, rng.randint(1, 2), rng.randint(1, 3))
        if core is not None:
            return core
    b = rng.randint(0, 3)
    size = rng.randint(1, 3)
    if kind == 3 and b:
        return CoreWitness(tuple(
            frozenset(rng.sample(range(g.n), min(size, g.n))) for _ in range(b)
        ))
    verts = rng.sample(range(g.n), min(g.n, b * size))
    return CoreWitness(tuple(
        frozenset(verts[i * size:(i + 1) * size]) for i in range(b)
        if verts[i * size:(i + 1) * size]
    ))


def test_density_and_core_checks_match_set_reference():
    rng = random.Random(31)
    verdicts = set()
    part_counts = set()
    for _ in range(300):
        n = rng.randint(1, 14)
        g = erdos_renyi(n, rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(32))
        core = _random_witness(rng, g)
        adj = adjacency(g)
        part_counts.add(core.b)
        for a in {core.a, 1, 2}:
            for b in {core.b, 2, 3}:
                got = verify_core(g, core, a, b)
                assert got == _verify_ref(adj, core, a, b), (g.sorted_edges(), core, a, b)
                verdicts.add(("core", got))
        for alpha in (1, 2, 3):
            for eta in (1, 2, 3):
                dense, mixed = density_masks(g, core, alpha, eta)
                for v in range(n):
                    inside = v in core.vertices()
                    want = not inside and _dense_ref(adj, v, core, alpha)
                    assert bool(dense >> v & 1) == want, (g.sorted_edges(), core, v)
                    want = _mixed_ref(adj, v, core, eta, alpha)
                    assert bool(mixed >> v & 1) == want, (g.sorted_edges(), core, v)
                    assert is_eta_mixed(g, v, core, eta, alpha) == want
                    verdicts.add(("mixed", inside, want))
                    if not inside:
                        got = is_dense_to(g, v, core, alpha)
                        assert got == _dense_ref(adj, v, core, alpha)
                        verdicts.add(("dense", got))
                assert not (dense | mixed) >> n  # no bits past the graph
    assert part_counts == {0, 1, 2, 3}
    assert verdicts == {
        ("core", True), ("core", False), ("dense", True), ("dense", False),
        ("mixed", True, True), ("mixed", False, True), ("mixed", False, False),
    }


def test_find_core_within_a_set_matches_induced():
    # Searching inside a vertex set finds the core the induced subgraph
    # gives, in host ids, and refuses by the size of the set.
    rng = random.Random(5)
    found = 0
    for _ in range(320):
        n = rng.randint(1, 16)
        g = erdos_renyi(n, rng.choice((0.3, 0.5, 0.7, 0.85)), rng.getrandbits(32))
        verts = [v for v in range(n) if rng.random() < 0.7]
        sub, back = induced(g, verts)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        local = find_core(sub, a, b)
        want = tuple(frozenset(back[v] for v in p) for p in local.parts) if local else None
        core = find_core(g, a, b, within=mask_of(verts))
        assert (core.parts if core else None) == want, (g.sorted_edges(), verts, a, b)
        found += core is not None
    assert 50 < found < 270
    g = erdos_renyi(20, 0.5, 3)
    for limit in (4, 9):
        verts = rng.sample(range(20), limit + 1)
        with pytest.raises(InstanceTooLarge) as mine, solving(limit):
            find_core(g, 2, 2, within=mask_of(verts))
        with pytest.raises(InstanceTooLarge) as ref, solving(limit):
            find_core(induced(g, verts)[0], 2, 2)
        assert str(mine.value) == str(ref.value) == (
            f"find_core: size {limit + 1} exceeds solver limit {limit}")
    with pytest.raises(ValueError):
        find_core(g, 2, 2, within=1 << 20)
    assert find_core(g, 1, 1, within=0) is None
    assert members(find_core(g, 1, 1, within=1 << 7).mask) == [7]


def test_density_with_no_parts(c4):
    # Every vertex is vacuously dense to an empty witness, so none is
    # mixed, and the empty witness is a (0, 0)-core.
    empty = CoreWitness(())
    assert empty.masks == () and empty.vertices() == frozenset()
    for v in range(c4.n):
        assert is_dense_to(c4, v, empty, 1)
        assert not is_eta_mixed(c4, v, empty, 1, 1)
    assert verify_core(c4, empty, 0, 0)
    assert not verify_core(c4, empty, 1, 1)


def test_matching_covered_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = is_matching_covered(star, frozenset({0}))
    assert res.ok and res.witnesses[0] == 1
    res = is_matching_covered(star, frozenset({1, 2}))
    assert not res.ok
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = is_matching_covered(p4, frozenset({1, 2}))
    assert res.ok and res.witnesses == {1: 0, 2: 3}
    assert is_matching_covered(p4, frozenset()).ok


def test_max_matching_covered_chi_examples(k4):
    edgeless = Graph(5)
    verdict = max_matching_covered_chi(edgeless, 1)
    assert verdict.status == "pass_exhaustive"
    # A shared edge with private pendants: both ends form a matching-
    # covered set of chromatic number two.
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    verdict = max_matching_covered_chi(g, 1)
    assert verdict.status == "violation"
    assert verdict.violating_set == frozenset({0, 1})
    assert verdict.violating_chi == 2
    # Complete graphs only carry singleton matching-covered sets.
    assert max_matching_covered_chi(k4, 1).status == "pass_exhaustive"


def test_max_matching_covered_refuses_above_the_exhaustive_limit():
    big = Graph(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(InstanceTooLarge) as info:
        max_matching_covered_chi(big, 1)
    assert str(info.value) == "max_matching_covered_chi: size 20 exceeds solver limit 16"
    with pytest.raises(InstanceTooLarge) as info:
        max_matching_covered_chi(Graph(4, [(0, 1), (0, 2), (1, 3)]), 1, exhaustive_limit=3)
    assert str(info.value) == "max_matching_covered_chi: size 4 exceeds solver limit 3"
    # The host check refuses too: it never passes a host it did not scan.
    p = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1)
    with pytest.raises(InstanceTooLarge):
        check_conditions(big, p)
    assert max_matching_covered_chi(Graph(16), 1).status == "pass_exhaustive"


def test_theta_table():
    t = ThetaTable((0, 1, 2, 5))
    assert t(0) == 0 and t(3) == 5 and t(10) == 5
    with pytest.raises(ValueError):
        ThetaTable((2, 1))
    with pytest.raises(ValueError):
        ThetaTable(())
    with pytest.raises(ValueError):
        t(-1)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(delta=0)
    with pytest.raises(ValueError):
        Params(beta=1)
    with pytest.raises(ValueError):
        Params(alpha=0)
    p = Params.with_minimal_sides(delta=2, tau=1, alpha=1, beta=2)
    assert p.eta == 2 and p.zeta == 4


def test_check_conditions_petersen(pet):
    p = Params(delta=1, tau=3, alpha=1, beta=2, zeta=2, eta=1,
               theta=ThetaTable((3, 3, 3)))
    rep = check_conditions(pet, p)
    assert rep.t_free
    assert rep.chi2 == 3 and rep.chi2_ok
    assert rep.matching_covered.status == "pass_exhaustive"
    assert rep.no_forbidden_core  # triangle-free
    assert rep.all_ok


def test_check_conditions_k4(k4):
    p = Params(delta=1, tau=3, alpha=1, beta=2, zeta=2, eta=1,
               theta=ThetaTable((6, 6)))
    rep = check_conditions(k4, p)
    assert not rep.no_forbidden_core  # K4 houses a (1,3)-core
    assert not rep.all_ok


def test_check_conditions_null():
    p = Params(delta=1, tau=0, alpha=1, beta=2, zeta=2, eta=1)
    rep = check_conditions(Graph(0), p)
    assert rep.all_ok


def test_core_threshold_condition(c4):
    # chi(C4) = 2 > theta(1) = 1 forces an (1,2)-core to exist; it does.
    p = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1,
               theta=ThetaTable((1, 1, 1)))
    rep = check_conditions(c4, p)
    assert rep.core_threshold_ok
    # Edgeless graph with chi=1 > theta(a)=0 has no (a,2)-core at all.
    p0 = Params(delta=1, tau=2, alpha=1, beta=2, zeta=2, eta=1,
                theta=ThetaTable((0, 0)))
    rep = check_conditions(Graph(3), p0)
    assert not rep.core_threshold_ok

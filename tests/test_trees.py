import random
import sys

import pytest

from broomlab.graphs import Graph, induced, mask_of
from broomlab.oracles import adjacency, contains_induced_oracle
from broomlab.solvers import InstanceTooLarge, solving
from broomlab.trees import (
    PatternTree,
    assemble_T_delta,
    build_T,
    build_broom,
    build_multibroom,
    contains_induced,
    find_rooted_broom,
    is_T_delta_free,
    verify_embedding,
)
from broomlab.generators import complete_multipartite

from conftest import random_graph


def is_path_graph(g: Graph) -> bool:
    degs = sorted(len(s) for s in adjacency(g))
    return g.m == g.n - 1 and degs.count(1) == 2 and degs[-1] <= 2


def test_build_broom():
    b = build_broom(1, 1)
    assert b.tree.n == 3 and b.handle == 0 and is_path_graph(b.tree)
    b = build_broom(2, 1)
    assert b.tree.n == 4 and is_path_graph(b.tree)
    b = build_broom(2, 3)
    assert b.tree.n == 6
    assert len(adjacency(b.tree)[2]) == 4  # far end of the two-edge path
    with pytest.raises(ValueError):
        build_broom(0, 2)


def test_build_multibroom():
    mb = build_multibroom([(1, 1), (2, 1)])
    assert mb.tree.n == 6 and is_path_graph(mb.tree)
    assert build_multibroom([(1, 0)]).tree.n == 2
    double = build_multibroom([(1, 2), (1, 2)])
    assert double.tree.n == 7
    adj = adjacency(double.tree)
    assert len(adj[0]) == 2  # the shared handle joins two stars
    assert sorted(len(s) for s in adj) == [1, 1, 1, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        build_multibroom([])


def test_build_T_sizes():
    for delta in range(1, 6):
        t = build_T(delta)
        assert t.tree.n == 1 + delta * (2 * delta + 3)
    assert is_path_graph(build_T(1).tree)
    assert len(adjacency(build_T(2).tree)[0]) == 4
    with pytest.raises(ValueError):
        build_T(0)


def test_contains_induced_examples(c7, k4, pet):
    p6 = build_multibroom([(1, 1), (2, 1)])
    emb = contains_induced(c7, p6)
    assert emb is not None and verify_embedding(c7, p6, emb)
    p3 = build_broom(2, 0)
    assert contains_induced(k4, p3) is None
    assert contains_induced(pet, p6) is None
    assert contains_induced_oracle(pet, p6.tree) is False


def test_t_delta_freeness(c7, pet):
    assert is_T_delta_free(pet, 1)
    assert not is_T_delta_free(c7, 1)
    assert is_T_delta_free(Graph(4, [(0, 1)]), 1)  # host smaller than pattern
    assert is_T_delta_free(pet, 2)


def test_containment_size_refusal():
    big = Graph(80, [(i, i + 1) for i in range(79)])
    with pytest.raises(InstanceTooLarge):
        contains_induced(big, build_T(1))
    with solving(80):
        assert contains_induced(big, build_T(1)) is not None


def test_oracle_equivalence_sample():
    rng = random.Random(5)
    for _ in range(120):
        host = random_graph(rng, rng.randint(4, 8), rng.uniform(0.15, 0.85))
        n = rng.randint(2, 6)
        tree = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
        pattern = PatternTree(tree=tree, handle=0)
        emb = contains_induced(host, pattern)
        assert (emb is not None) == contains_induced_oracle(host, tree)
        if emb is not None:
            assert verify_embedding(host, pattern, emb)


def least_embedding_brute(host: Graph, pattern: PatternTree) -> dict | None:
    """The lexicographically least induced embedding, with pattern
    vertices in BFS order from the handle (neighbours in increasing id):
    host ids are tried in increasing order and every pair of placed
    vertices is compared, adjacency for adjacency."""
    p_adj, h_adj = adjacency(pattern.tree), adjacency(host)
    order = [pattern.handle]
    for p in order:
        order += [q for q in sorted(p_adj[p]) if q not in order]
    images: list[int] = []

    def extend() -> bool:
        i = len(images)
        if i == len(order):
            return True
        for h in range(host.n):
            if h in images:
                continue
            if all(
                (order[j] in p_adj[order[i]]) == (images[j] in h_adj[h])
                for j in range(i)
            ):
                images.append(h)
                if extend():
                    return True
                images.pop()
        return False

    return dict(zip(order, images)) if extend() else None


def plant(rng: random.Random, host: Graph, pattern: PatternTree) -> Graph:
    """The host with an induced copy of the pattern on a random vertex set."""
    spot = rng.sample(range(host.n), pattern.tree.n)
    inside = set(spot)
    edges = [(u, v) for u, v in host.edges() if not {u, v} <= inside]
    edges += [(spot[u], spot[v]) for u, v in pattern.tree.edges()]
    return Graph(host.n, edges)


def test_contains_induced_is_least_embedding():
    # Same-shape siblings (star and broom leaves, spider legs) are
    # searched in increasing host order; where shapes mix, as in T(1) or
    # the (1,1),(1,2),(1,1) multibroom, only identical ones are
    # constrained.  The witness must stay the least embedding of the
    # unconstrained search.  About half of the hosts have a copy of the
    # pattern planted on a random vertex set, so larger patterns occur.
    def star(k: int, handle: int = 0) -> PatternTree:
        return PatternTree(Graph(k + 1, [(0, i) for i in range(1, k + 1)]), handle)

    fixed = [
        star(3),
        star(4),
        star(3, handle=2),
        build_multibroom([(2, 0)] * 3),
        build_T(1),
        build_multibroom([(1, 1), (1, 2), (1, 1)]),
        build_multibroom([(2, 1), (1, 1), (2, 1)]),
        build_broom(1, 3),
    ]
    rng = random.Random(17)
    found = [0] * (len(fixed) + 1)
    for trial in range(480):
        if trial % 3 == 0:
            n = rng.randint(2, 8)
            tree = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
            pattern, kind = PatternTree(tree=tree, handle=rng.randrange(n)), -1
        else:
            kind = trial % len(fixed)
            pattern = fixed[kind]
        host = random_graph(rng, rng.randint(pattern.tree.n, 10), rng.uniform(0.1, 0.5))
        if rng.random() < 0.5:
            host = plant(rng, host, pattern)
        emb = contains_induced(host, pattern)
        want = least_embedding_brute(host, pattern)
        assert (None if emb is None else emb.as_dict()) == want
        found[kind] += want is not None
    assert all(count >= 10 for count in found), found


def test_look_ahead_keeps_least_embedding():
    # Patterns whose inner vertices have several children, on hosts large
    # enough that the child-supply look-ahead cuts branches: the witness
    # must still be the least embedding.
    patterns = [
        build_T(2),
        build_multibroom([(2, 2), (1, 2), (2, 2)]),
        build_multibroom([(1, 2), (2, 1), (1, 3)]),
        build_multibroom([(2, 3), (1, 1)]),
    ]
    rng = random.Random(41)
    found = 0
    nodes = [0]

    def count_nodes(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "place":
            nodes[0] += 1

    for trial in range(40):
        pattern = patterns[trial % len(patterns)]
        host = random_graph(rng, rng.randint(15, 18), rng.uniform(0.15, 0.35))
        if trial % 2:
            host = plant(rng, host, pattern)
        sys.setprofile(count_nodes)
        try:
            emb = contains_induced(host, pattern)
        finally:
            sys.setprofile(None)
        want = least_embedding_brute(host, pattern)
        assert (None if emb is None else emb.as_dict()) == want
        found += want is not None
    assert 20 <= found < 40, found
    # The cuts themselves, counted in search nodes (calls of the inner
    # ``place``): 1943 with the child-supply and far-supply look-aheads,
    # 3014 without the far-supply one (also when its supply counts hosts
    # next to placed vertices), 7321 with only the far-supply one, 15887
    # with neither.  Without the far-supply cut: 9361 when each
    # position's last child goes unchecked, 15662 when hosts next to two
    # placed vertices count as free.
    assert 0 < nodes[0] <= 1943, nodes[0]


def test_far_supply_keeps_least_embedding():
    # The far-supply cut on small hosts, about half with a planted copy:
    # the witness is the least embedding and the verdict is the oracle's.
    patterns = [
        build_T(2),
        build_multibroom([(2, 2), (1, 1)]),
        build_multibroom([(1, 3), (2, 1), (1, 1)]),
    ]
    rng = random.Random(23)
    found = 0
    for trial in range(36):
        pattern = patterns[trial % len(patterns)]
        host = random_graph(rng, rng.randint(pattern.tree.n, 16), rng.uniform(0.1, 0.4))
        if trial % 2:
            host = plant(rng, host, pattern)
        emb = contains_induced(host, pattern)
        want = least_embedding_brute(host, pattern)
        assert (None if emb is None else emb.as_dict()) == want
        assert (emb is not None) == contains_induced_oracle(host, pattern.tree)
        found += want is not None
    assert 12 <= found < 36, found


def test_single_vertex_pattern(pet):
    dot = PatternTree(tree=Graph(1), handle=0)
    emb = contains_induced(pet, dot)
    assert emb is not None and emb.as_dict() == {0: 0}
    assert contains_induced(Graph(0), dot) is None


def test_hereditary_consistency(pet):
    rng = random.Random(11)
    assert is_T_delta_free(pet, 1)
    for _ in range(10):
        keep = frozenset(rng.sample(range(10), rng.randint(6, 9)))
        sub, _ = induced(pet, keep)
        assert is_T_delta_free(sub, 1)


def test_find_rooted_broom_star_absent():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    emb = find_rooted_broom(
        star, 0, 1, 3, allowed=mask_of({1, 2, 3})
    )
    assert emb is None  # leaves would need neighbours of a leaf


def test_find_rooted_broom_complete_bipartite():
    zeta = 4
    g = complete_multipartite([2, zeta])  # parts {0,1} and {2..5}
    handle = 2
    emb = find_rooted_broom(
        g, handle, 1, zeta - 1, allowed=mask_of(range(g.n)) & ~(1 << handle)
    )
    assert emb is not None
    m = emb.as_dict()
    assert m[0] == handle
    assert m[1] in (0, 1)  # path end on the small side
    assert verify_embedding(g, build_broom(1, zeta - 1), emb)


def test_find_rooted_broom_empty_allowed():
    g = complete_multipartite([2, 4])
    assert find_rooted_broom(g, 2, 1, 1, allowed=0) is None


def test_assemble_in_c7(c7):
    one = find_rooted_broom(c7, 0, 1, 1, allowed=mask_of({1, 2}))
    two = find_rooted_broom(c7, 0, 2, 1, allowed=mask_of({4, 5, 6}))
    assert one is not None and two is not None
    result = assemble_T_delta(
        c7, 0, [(build_broom(1, 1), one), (build_broom(2, 1), two)]
    )
    assert result.embedding is not None
    assert verify_embedding(c7, result.pattern, result.embedding)
    assert result.pattern.tree.n == build_T(1).tree.n


def test_assemble_cross_edge_diagnostic():
    # Two pieces joined only at the handle, plus one poisoning edge
    # between their leaf sets.
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (2, 5)]
    g = Graph(6, edges)
    one = find_rooted_broom(g, 0, 1, 1, allowed=mask_of({1, 2}))
    two = find_rooted_broom(g, 0, 2, 1, allowed=mask_of({3, 4, 5}))
    assert one is not None and two is not None
    result = assemble_T_delta(
        g, 0, [(build_broom(1, 1), one), (build_broom(2, 1), two)]
    )
    assert result.embedding is None
    assert result.conflict_edge in ((2, 5), (5, 2))


def test_assemble_overlap_is_error(c7):
    one = find_rooted_broom(c7, 0, 1, 1, allowed=mask_of({1, 2}))
    assert one is not None
    with pytest.raises(ValueError):
        assemble_T_delta(
            c7, 0, [(build_broom(1, 1), one), (build_broom(1, 1), one)]
        )

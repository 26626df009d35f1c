import random

import pytest
from hypothesis import given, settings, strategies as st

from broomlab.graphs import (
    Digraph,
    Graph,
    induced,
    is_clique,
    is_stable,
    least_stable_subset,
    neighborhood_closed,
    neighborhood_exact,
)
from broomlab.oracles import adjacency, distances_oracle

from conftest import random_graph


def test_c5_neighborhoods(c5):
    assert neighborhood_exact(c5, 0, 2) == {2, 3}
    assert neighborhood_closed(c5, 0, 2) == {0, 1, 2, 3, 4}
    assert neighborhood_exact(c5, 3, 0) == {3}


def test_k4_closed_ball(k4):
    assert neighborhood_closed(k4, 0, 1) == {0, 1, 2, 3}


def test_path_endpoint_ball(p6):
    assert len(neighborhood_closed(p6, 0, 2)) == 3


def test_petersen_distance_two(pet):
    assert neighborhood_exact(pet, 0, 2) == {2, 3, 6, 7, 8, 9}
    dist = distances_oracle(pet, 0)
    assert {v for v in range(10) if dist[v] == 2} == neighborhood_exact(pet, 0, 2)


def test_vertex_range_errors(c5):
    with pytest.raises(ValueError):
        neighborhood_exact(c5, 9, 1)
    with pytest.raises(ValueError):
        induced(c5, {0, 7})
    with pytest.raises(ValueError):
        is_stable(c5, {-1})


def test_induced_examples(c5, pet):
    sub, relabel = induced(c5, {0, 1, 2})
    assert sub.n == 3 and sorted(sub.edges()) == [(0, 1), (1, 2)]
    assert relabel == (0, 1, 2)
    empty, relabel = induced(c5, frozenset())
    assert empty.n == 0 and relabel == ()
    outer, relabel = induced(pet, {0, 1, 2, 3, 4})
    assert relabel == (0, 1, 2, 3, 4)
    assert sorted(outer.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_stable_and_clique(c4, c5, k4):
    assert is_stable(c4, {0, 2})
    assert is_clique(k4, {0, 1, 3})
    assert not is_stable(c5, {0, 1})
    assert is_stable(c5, set()) and is_clique(c5, set())
    assert is_stable(c5, {2}) and is_clique(c5, {2})


def test_least_stable_subset(c5):
    # Positions into the list, least first in list order.
    assert least_stable_subset(c5, [0, 1, 2, 3, 4], 2) == [0, 2]
    assert least_stable_subset(c5, [4, 3, 2, 1, 0], 2) == [0, 2]
    assert least_stable_subset(c5, [0, 1, 2, 3, 4], 3) is None
    assert least_stable_subset(c5, [1, 0], 2) is None
    assert least_stable_subset(c5, [], 0) == []
    # A repeated vertex is not adjacent to itself.
    assert least_stable_subset(c5, [3, 3], 2) == [0, 1]


def test_graph_construction_rules():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.m == 1
    assert g == Graph(3, [(1, 0)])
    assert hash(g) == hash(Graph(3, [(0, 1)]))
    # Equal from the same edges in any order or orientation; n counts.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    g = Graph(4, edges)
    for other in (Graph(4, edges[::-1]), Graph(4, [(v, u) for u, v in edges]),
                  Graph(4, edges + [(v, u) for u, v in edges])):
        assert other == g and hash(other) == hash(g) and other.m == 5
    assert g != Graph(5, edges) and g.bits == Graph(5, edges).bits[:4]
    assert g.bits == (0b1010, 0b1101, 0b1010, 0b0111)
    assert list(g.edges()) == sorted(edges)


def test_digraph_rules():
    with pytest.raises(ValueError):
        Digraph(2, [(1, 1)])
    d = Digraph(3, [(0, 1), (0, 1), (1, 2)])
    assert sum(b.bit_count() for b in d.out) == 2
    assert d.topological_order() == [0, 1, 2]
    assert Digraph(2, [(0, 1), (1, 0)]).topological_order() is None
    # Out-neighbourhoods are masks; parallel arcs collapse.
    e = Digraph(4, [(2, 0), (0, 3), (0, 1), (0, 3), (3, 1), (2, 1)])
    assert e.out == (0b1010, 0, 0b0011, 0b0010)
    assert list(e.arcs()) == [(0, 1), (0, 3), (2, 0), (2, 1), (3, 1)]
    assert e.max_outdegree() == 2 and Digraph(0).max_outdegree() == 0
    same = Digraph(4, list(e.arcs())[::-1])
    assert e == same and hash(e) == hash(same) and e != Digraph(5, e.arcs())
    assert e.topological_order() == [2, 0, 3, 1]


graphs = st.builds(
    lambda seed, n, p: random_graph(random.Random(seed), n, p),
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, derandomize=True)
@given(graphs, st.integers(0, 6))
def test_ball_recurrence(g, k):
    for v in range(g.n):
        closed_prev = neighborhood_closed(g, v, max(k - 1, 0))
        exact = neighborhood_exact(g, v, k)
        closed = neighborhood_closed(g, v, k)
        if k == 0:
            assert closed == {v} == exact
        else:
            assert closed == closed_prev | exact
    # The ball sequence stabilizes at the connected component.
    for v in range(g.n):
        dist = distances_oracle(g, v)
        component = {u for u in range(g.n) if dist[u] <= g.n}
        assert neighborhood_closed(g, v, g.n) == component


def test_induced_matches_the_adjacency_sets():
    # New vertex i is the i-th member in increasing host id, whatever
    # order the set comes in, and two new vertices are adjacent exactly
    # when their host vertices are.
    rng = random.Random(43)
    for _ in range(320):
        g = random_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.7))
        verts = [v for v in range(g.n) if rng.random() < 0.5]
        sub, back = induced(g, rng.sample(verts, len(verts)))
        assert back == tuple(verts)
        adj = adjacency(g)
        assert sub.n == len(verts) and sub.sorted_edges() == [
            (i, j) for i, u in enumerate(verts) for j, v in enumerate(verts)
            if i < j and v in adj[u]
        ]


@settings(max_examples=40, derandomize=True)
@given(graphs)
def test_induced_identity(g):
    sub, relabel = induced(g, range(g.n))
    assert sub == g
    assert relabel == tuple(range(g.n))


@settings(max_examples=40, derandomize=True)
@given(graphs, st.integers(0, 200))
def test_stable_clique_agreement(g, seed):
    rng = random.Random(seed)
    size = rng.randint(0, g.n)
    s = frozenset(rng.sample(range(g.n), size))
    agree = is_stable(g, s) == is_clique(g, s)
    assert agree == (len(s) <= 1) or (is_stable(g, s) and is_clique(g, s)) == (
        len(s) <= 1
    )
    if len(s) <= 1:
        assert is_stable(g, s) and is_clique(g, s)
    else:
        assert not (is_stable(g, s) and is_clique(g, s))

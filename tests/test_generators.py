import math

import pytest

from broomlab.generators import (
    FIXTURES,
    GenSpec,
    complete_multipartite,
    cycle,
    erdos_renyi,
    generate,
    groetzsch,
    kneser,
    mycielski,
    mycielski_tower,
    path,
    petersen,
    plant_core,
)
from broomlab.graph_io import render_graph
from broomlab.graphs import Digraph, Graph
from broomlab.oracles import adjacency
from broomlab.solvers import chromatic_number, clique_number
from broomlab.structures import find_core, verify_core


def test_determinism():
    spec = GenSpec("erdos_renyi", {"n": 24, "p": 0.31}, seed=99)
    a = render_graph(generate(spec))
    b = render_graph(generate(spec))
    assert a == b
    other = GenSpec("erdos_renyi", {"n": 24, "p": 0.31}, seed=100)
    assert render_graph(generate(other)) != a


def test_kneser_petersen():
    g = kneser(5, 2)
    assert g.n == 10 and g.m == 15
    assert all(len(s) == 3 for s in adjacency(g))
    assert chromatic_number(g)[0] == 3
    p = petersen()
    assert p.n == 10 and p.m == 15 and clique_number(p)[0] == 2


def test_kneser_degrees():
    for n, k in ((6, 2), (7, 3), (7, 2)):
        g = kneser(n, k)
        want = math.comb(n - k, k)
        assert all(len(s) == want for s in adjacency(g))
    with pytest.raises(ValueError):
        kneser(3, 2)


def test_kneser_refuses_too_many_vertices_before_building_them(monkeypatch):
    def refuse(*args):
        raise AssertionError("kneser built its subsets")

    monkeypatch.setattr("broomlab.generators.combinations", refuse)
    for n, k, count in ((36, 3, 7140), (10**6, 3, math.comb(10**6, 3))):
        with pytest.raises(ValueError) as info:
            generate(GenSpec("kneser", {"n": n, "k": k}))
        assert str(info.value) == f"vertex count {count} outside 0..4096"


def test_families_refuse_too_many_vertices_before_building_them(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family drew or built before refusing")

    base = Graph(2048)  # one Mycielski step gives 2 * 2048 + 1 = 4097
    monkeypatch.setattr("broomlab.generators.Graph", refuse)
    monkeypatch.setattr("random.Random", refuse)
    calls = [
        lambda: Graph(4097),  # the package's own Graph, not the patched name
        lambda: Digraph(4097),
        lambda: cycle(4097),
        lambda: path(4097),
        lambda: complete_multipartite([4000, 97]),
        lambda: erdos_renyi(4097, 0.5, 1),
        lambda: plant_core(4097, 2, 2, 0.1, 1),
        lambda: mycielski(base),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "vertex count 4097 outside 0..4096"
    # A family's own argument checks still come first.
    with pytest.raises(ValueError, match="probability"):
        erdos_renyi(4097, 1.5, 1)
    with pytest.raises(ValueError, match="a\\*b <= n"):
        plant_core(4097, 4097, 2, 0.1, 1)


def test_mycielski_tower():
    g1 = mycielski_tower(cycle(5), 1)
    assert g1.n == 11
    assert clique_number(g1)[0] == 2  # triangle-free is preserved
    assert chromatic_number(g1)[0] == 4
    g2 = mycielski_tower(cycle(5), 2)
    assert g2.n == 23
    assert clique_number(g2)[0] == 2
    assert chromatic_number(g2)[0] == 5
    assert groetzsch() == g1


def test_complete_multipartite():
    g = complete_multipartite([2, 2])
    # A relabeled four-cycle: 2-regular, bipartite, connected.
    assert g.n == 4 and g.m == 4
    assert all(len(s) == 2 for s in adjacency(g))
    assert chromatic_number(g)[0] == 2
    with pytest.raises(ValueError):
        complete_multipartite([])


def test_plant_core_exact():
    g, witness = plant_core(4, 2, 2, 0.0, seed=1)
    assert g == complete_multipartite([2, 2]) or g.m == 4
    assert verify_core(g, witness, 2, 2)


def test_plant_core_noisy_still_findable():
    g, witness = plant_core(8, 2, 2, 0.1, seed=5)
    assert verify_core(g, witness, 2, 2)
    found = find_core(g, 2, 2)
    assert found is not None and verify_core(g, found, 2, 2)


def test_plant_core_stable_plant():
    g, witness = plant_core(6, 3, 1, 0.5, seed=2)
    assert witness.b == 1
    part = witness.parts[0]
    adj = adjacency(g)
    assert all(v not in adj[u] for u in part for v in part if u != v)


def test_plant_core_validation():
    with pytest.raises(ValueError):
        plant_core(3, 2, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        plant_core(9, 2, 2, 1.5, seed=0)


def test_generate_families():
    assert generate(GenSpec("cycle", {"n": 5})) == cycle(5)
    assert generate(GenSpec("path", {"n": 3})).m == 2
    assert generate(GenSpec("kneser", {"n": 5, "k": 2})).n == 10
    g = generate(GenSpec("mycielski_tower", {"base": {"family": "cycle", "params": {"n": 5}}, "levels": 1}))
    assert g.n == 11
    assert generate(GenSpec("planted_core", {"n": 8, "a": 2, "b": 2, "noise_p": 0.1}, seed=4)).n == 8
    assert generate(GenSpec("fixture", {"id": "petersen"})).n == 10
    with pytest.raises(ValueError):
        generate(GenSpec("fixture", {"id": "missing"}))
    with pytest.raises(ValueError):
        generate(GenSpec("nonsense", {}))


def test_fixture_registry():
    for fid, builder in FIXTURES.items():
        g = builder()
        assert isinstance(g, Graph) and g.n > 0

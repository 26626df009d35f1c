import random
import sys
from collections import Counter

import pytest

from broomlab import solvers
from broomlab.generators import complete_multipartite, cycle, erdos_renyi
from broomlab.graphs import Graph, induced, mask_of, members, ranked_view
from broomlab.oracles import (
    adjacency,
    chromatic_number_oracle,
    clique_number_oracle,
    distances_oracle,
)
from broomlab.solvers import (
    Coloring,
    InstanceTooLarge,
    _k_colorable,
    chi_local,
    chi_of_set,
    chromatic_number,
    clique_number,
    greedy_coloring,
    solving,
    validate_coloring,
)

from conftest import random_graph


def test_named_chromatic_numbers(c5, k33, pet, groe):
    assert chromatic_number(c5)[0] == 3
    assert chromatic_number(k33)[0] == 2
    assert chromatic_number(pet)[0] == 3
    assert chromatic_number(groe)[0] == 4
    assert chromatic_number(Graph(0))[0] == 0


def test_chromatic_witnesses(c5, pet, groe):
    for g in (c5, pet, groe):
        chi, col = chromatic_number(g)
        assert validate_coloring(g, col)
        assert col.palette_size == chi


def test_clique_numbers(pet, k5):
    omega, witness = clique_number(pet)
    assert omega == 2
    # Independent check: triangle-freeness by edge enumeration.
    adj = adjacency(pet)
    assert all(
        not (adj[u] & adj[v]) for u in range(10) for v in adj[u]
    )
    assert clique_number(k5) == (5, (0, 1, 2, 3, 4))
    assert clique_number(Graph(0)) == (0, ())
    assert len(witness) == 2 and witness[1] in adj[witness[0]]


def test_clique_number_matches_subset_oracle():
    # erdos_renyi(10, 0.5, 4) has a 5-clique that a non-monotone colour
    # bound used to prune away.
    cases = [erdos_renyi(10, 0.5, 4)]
    rng = random.Random(2024)
    cases += [random_graph(rng, rng.randint(1, 14), rng.choice((0.3, 0.5, 0.7)))
              for _ in range(150)]
    for g in cases:
        omega, witness = clique_number(g)
        assert omega == clique_number_oracle(g)
        assert len(witness) == omega
        adj = adjacency(g)
        assert all(v in adj[u] for u in witness for v in witness if u != v)
    assert clique_number(cases[0])[0] == 5


def clique_reference(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum clique by plain colour-bounded branch and bound over
    vertex sets: first-fit colour classes in id order bound each vertex
    by the class count once it is placed, the highest id branches first,
    a branch stops at the first vertex whose bound cannot beat the
    incumbent, and only a strictly larger clique replaces it."""
    adj = adjacency(g)
    best: list[int] = []

    def branch(current: list[int], cand: set[int]) -> None:
        nonlocal best
        classes: list[set[int]] = []
        bound = {}
        for v in sorted(cand):
            for cls in classes:
                if not cls & adj[v]:
                    cls.add(v)
                    break
            else:
                classes.append({v})
            bound[v] = len(classes)
        for v in sorted(cand, reverse=True):
            if len(current) + bound[v] <= len(best):
                return
            current.append(v)
            sub = cand & adj[v]
            if sub:
                branch(current, sub)
            elif len(current) > len(best):
                best = sorted(current)
            current.pop()
            cand = cand - {v}

    if g.n:
        branch([], set(range(g.n)))
    return len(best), tuple(best)


def test_clique_number_matches_set_reference():
    # The bitset search is the set-based search above: the same size and
    # the same witness on small graphs and on three dense ones, where the
    # bound prunes most of the tree.
    rng = random.Random(21)
    cases = [erdos_renyi(10, 0.5, 4)]
    cases += [random_graph(rng, rng.randint(1, 30), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(150)]
    for g in cases:
        assert clique_number(g) == clique_reference(g)
    # The search tree itself, counted in calls of the inner ``expand``.
    calls = [0]

    def count_calls(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "expand":
            calls[0] += 1

    for n, seed, want in ((40, 1, 69), (45, 2, 63), (50, 3, 92)):
        g = erdos_renyi(n, 0.5, seed)
        calls[0] = 0
        sys.setprofile(count_calls)
        try:
            got = clique_number(g)
        finally:
            sys.setprofile(None)
        assert got == clique_reference(g)
        assert calls[0] == want, (n, seed, calls[0])


def dsatur_reference(g: Graph, k: int) -> tuple[int, ...] | None:
    """k-colouring by plain DSATUR backtracking over colour sets: the
    uncoloured vertex with the most neighbour colours goes next (ties to
    the higher degree, then the lower id), colours in increasing order,
    at most one unused colour per decision."""
    adj = adjacency(g)
    colors = [-1] * g.n

    def priority(u: int) -> tuple[int, int, int]:
        saturation = len({colors[w] for w in adj[u]} - {-1})
        return saturation, len(adj[u]), -u

    def solve(used: int) -> bool:
        free = [u for u in range(g.n) if colors[u] == -1]
        if not free:
            return True
        v = max(free, key=priority)
        for c in range(min(used + 1, k)):
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if solve(max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    return tuple(colors) if solve(0) else None


def test_chromatic_number_above_clique_number(groe, pet):
    # Where chi > omega the clique bound does not settle chi and the
    # k-colourability search decides it: chi - 1 colours are refused, and
    # the witness is proper with palette chi and the DSATUR reference's.
    rng = random.Random(29)
    graphs = [groe, pet, cycle(7)]
    graphs += [random_graph(rng, rng.randint(1, 14), 0.5) for _ in range(100)]
    graphs += [random_graph(rng, 14, 0.5) for _ in range(40)]
    above = 0
    for g in graphs:
        chi, col = chromatic_number(g)
        assert chi == chromatic_number_oracle(g)
        assert col.palette_size == chi and validate_coloring(g, col)
        if g.n:
            assert _k_colorable(g, chi - 1) is None
            witness = _k_colorable(g, chi)
            assert witness is not None and validate_coloring(g, witness)
            assert witness.palette_size == chi
            # Greedy DSATUR is the search's first descent, so a greedy
            # witness of chi colours is the search's witness too.
            assert witness.colors == col.colors == dsatur_reference(g, chi)
        above += chi > clique_number(g)[0]
    assert above >= 12


def test_chi_local(c5):
    assert chi_local(c5, 2) == 3
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert chi_local(star, 1) == 2
    assert chi_local(Graph(0), 3) == 0
    with pytest.raises(ValueError):
        chi_local(c5, 0)


def test_chi_local_matches_ball_oracle():
    # The dumb answer: every closed ball from relaxed distances, coloured
    # by exhaustive assignment.  Walking the distinct balls in vertex
    # order, "stop" counts cases where the running maximum reaches the
    # host's DSATUR palette before the last ball, and "skip" counts balls
    # whose own palette is no larger than the running maximum in cases
    # where the host's palette is above the answer.
    rng = random.Random(18)
    graphs = [Graph(0), Graph(5), complete_multipartite([1] * 6)]
    graphs += [random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5)))
               for _ in range(300)]
    stop = skip = 0
    for g in graphs:
        cap = greedy_coloring(g).palette_size
        for k in (1, 2, 3):
            balls = list(dict.fromkeys(
                frozenset(u for u, d in enumerate(distances_oracle(g, v)) if d <= k)
                for v in range(g.n)
            ))
            chis = [chromatic_number_oracle(induced(g, ball)[0]) for ball in balls]
            assert chi_local(g, k) == max(chis, default=0)
            best = 0
            for ball, chi in zip(balls, chis):
                if best == cap:
                    stop += 1
                    break
                palette = greedy_coloring(induced(g, ball)[0]).palette_size
                skip += palette <= best and max(chis) < cap
                best = max(best, chi)
    assert stop >= 100 and skip >= 10, (stop, skip)


def test_validate_coloring_examples(c5):
    assert validate_coloring(c5, Coloring((0, 1, 0, 1, 2), 3))
    k2 = Graph(2, [(0, 1)])
    assert not validate_coloring(k2, Coloring((0, 0), 1))
    assert validate_coloring(Graph(0), Coloring((), 0))
    with pytest.raises(ValueError):
        validate_coloring(c5, Coloring((0, 1), 2))


def test_size_refusals():
    big = Graph(70, [(i, i + 1) for i in range(69)])
    with pytest.raises(InstanceTooLarge):
        chromatic_number(big)
    with pytest.raises(InstanceTooLarge):
        clique_number(big)
    with solving(70):
        assert chromatic_number(big)[0] == 2
    star = Graph(70, [(0, i) for i in range(1, 70)])
    with pytest.raises(InstanceTooLarge):
        chi_local(star, 1)  # the centre ball is the whole star


def test_oracle_agreement_300():
    from broomlab.suites import suite_chromatic

    result = suite_chromatic(trials=300, seed=42)
    assert result.ok, result.failures[:3]


def test_omega_le_chi_and_monotonicity():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
        omega, _ = clique_number(g)
        chi, _ = chromatic_number(g)
        assert omega <= chi
        v = rng.randrange(g.n)
        sub, _ = induced(g, frozenset(range(g.n)) - {v})
        assert chromatic_number(sub)[0] <= chi
        assert clique_number(sub)[0] <= omega


def test_greedy_is_internal_upper_bound(pet):
    col = greedy_coloring(pet)
    assert validate_coloring(pet, col)
    assert col.palette_size >= chromatic_number(pet)[0]


def greedy_reference(g: Graph) -> tuple[int, ...]:
    """DSATUR greedy over colour sets: the uncoloured vertex with the
    most distinct neighbour colours goes next (ties to the higher degree,
    then the lower id) and takes the lowest colour no neighbour has."""
    adj = adjacency(g)
    colors = [-1] * g.n
    for _ in range(g.n):
        best = None
        for u in range(g.n):
            if colors[u] != -1:
                continue
            key = (len({colors[w] for w in adj[u]} - {-1}), len(adj[u]), -u)
            if best is None or key > best[0]:
                best = (key, u)
        v = best[1]
        taken = {colors[w] for w in adj[v]}
        colors[v] = min(c for c in range(g.n) if c not in taken)
    return tuple(colors)


def test_greedy_coloring_matches_set_reference():
    rng = random.Random(31)
    graphs = [Graph(0), Graph(1), Graph(9), Graph(6, [(u, v) for u in range(6)
                                                       for v in range(u + 1, 6)])]
    graphs += [random_graph(rng, rng.randint(1, 40), rng.uniform(0.05, 0.95))
               for _ in range(320)]
    for g in graphs:
        col = greedy_coloring(g)
        assert col.colors == greedy_reference(g)
        assert col.palette_size == len(set(col.colors))
        assert validate_coloring(g, col)
    assert greedy_coloring(graphs[2]).colors == (0,) * 9
    assert greedy_coloring(graphs[3]).palette_size == 6


def test_witness_uses_exactly_chi_colors(pet, groe):
    for g in (pet, groe):
        chi, col = chromatic_number(g)
        assert len(set(col.colors)) == chi


def test_chi_equals_local_with_big_radius(c5, pet):
    # Closed balls of radius >= diameter hold the whole graph.
    assert chi_local(c5, 2) == chromatic_number(c5)[0]
    assert chi_local(pet, 2) == chromatic_number(pet)[0]


def test_chi_of_set_matches_oracle():
    rng = random.Random(29)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        verts = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        sub, _ = induced(g, verts)
        assert chi_of_set(g, mask_of(verts)) == chromatic_number_oracle(sub)


def test_chi_of_set_refuses_above_the_limit(monkeypatch):
    g = Graph(70, [(i, i + 1) for i in range(69)])
    assert chi_of_set(g, mask_of(range(64))) == 2
    with solving(5):
        assert chi_of_set(g, mask_of(range(5))) == 2
    # The refusal comes before the ranked view is built.
    monkeypatch.setattr("broomlab.solvers.ranked_view", None)
    for verts, limit, cap in ((range(65), None, 64), (range(6), 5, 5)):
        with pytest.raises(InstanceTooLarge) as info, solving(limit):
            chi_of_set(g, mask_of(verts))
        assert (info.value.what, info.value.size, info.value.limit) == (
            "chromatic_number", cap + 1, cap)


def test_chi_of_set_matches_induced_subgraph():
    # The subset view gives the chromatic number of the induced subgraph,
    # on empty, singleton, edgeless and random vertex sets.
    rng = random.Random(41)
    kinds = set()
    for trial in range(330):
        g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.05, 0.9))
        kind = trial % 4
        if kind == 0:
            verts = frozenset()
        elif kind == 1:
            verts = frozenset({rng.randrange(g.n)})
        elif kind == 2:  # a greedy stable set
            adj = adjacency(g)
            picked = set()
            for v in rng.sample(range(g.n), g.n):
                if not adj[v] & picked:
                    picked.add(v)
            verts = frozenset(picked)
        else:
            verts = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        want = chromatic_number(induced(g, verts)[0])[0]
        assert chi_of_set(g, mask_of(verts)) == want, (g.sorted_edges(), sorted(verts))
        kinds.add((kind, min(want, 2)))
    assert {(0, 0), (1, 1), (2, 1), (3, 2)} <= kinds
    g = cycle(5)
    for bad in (mask_of({0, 5}), -1):
        with pytest.raises(ValueError, match=r"outside 0\.\.4"):
            chi_of_set(g, bad)
    with pytest.raises(InstanceTooLarge) as info, solving(4):
        chi_of_set(g, mask_of(range(5)))
    assert str(info.value) == "chromatic_number: size 5 exceeds solver limit 4"


def test_ranked_view_colours_as_the_set_reference():
    # The one view the solvers read: a vertex set's members in DSATUR rank
    # order (degree inside the set descending, then host id).  Its greedy
    # colouring, listed back by host id, is the set-based reference's
    # colouring of the induced subgraph, and a view is its own ranked view.
    rng = random.Random(47)
    in_order = Counter()
    for trial in range(300):
        g = random_graph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.9))
        kind = trial % 4
        if kind == 0:
            verts = []
        elif kind == 1:
            verts = [rng.randrange(g.n)]
        elif kind == 2:  # a whole graph whose ids are already in rank order
            view, _ = ranked_view(g, (1 << g.n) - 1)
            g = Graph(g.n, [(r, s) for r, row in enumerate(view.bits) for s in members(row)
                            if r < s])
            verts = list(range(g.n))
        else:
            verts = [v for v in range(g.n) if rng.random() < 0.6]
        view, ids = ranked_view(g, mask_of(verts))
        sub, back = induced(g, verts)
        adj = adjacency(sub)
        pos = {v: i for i, v in enumerate(back)}
        assert ids == sorted(back, key=lambda v: (-len(adj[pos[v]]), v))
        assert [{pos[ids[r]] for r in members(row)} for row in view.bits] == [
            adj[pos[v]] for v in ids]
        color = dict(zip(ids, greedy_coloring(view).colors))
        assert tuple(color[v] for v in back) == greedy_reference(sub)
        assert ranked_view(view, (1 << view.n) - 1) == (view, list(range(view.n)))
        assert chi_of_set(g, mask_of(verts)) == chromatic_number_oracle(sub)
        in_order[kind, ids == list(back)] += 1
    assert in_order[0, True] == in_order[1, True] == in_order[2, True] == 75
    assert in_order[3, False] >= 30  # in-set degrees reorder half the random sets


def _count_chromatic(monkeypatch) -> list[int]:
    calls = [0]
    original = solvers.chromatic_number

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "chromatic_number", counted)
    return calls


def test_solving_memo_lives_for_one_block(monkeypatch):
    calls = _count_chromatic(monkeypatch)
    g = cycle(7)
    s = mask_of({0, 1, 2, 4})
    with solving():
        assert [chi_of_set(g, s) for _ in range(3)] == [2, 2, 2]
        assert calls[0] == 1
        chi_of_set(cycle(9), s)  # another graph is not served from the memo
        assert calls[0] == 2
        with solving():  # a nested block opens a fresh memo
            chi_of_set(g, s)
            chi_of_set(g, s)
        chi_of_set(g, s)  # and the outer one is back once it exits
        assert calls[0] == 3
    with solving():
        chi_of_set(g, s)
    chi_of_set(g, s)
    chi_of_set(g, s)
    assert calls[0] == 6


def _refusal(call) -> tuple[str, int, int]:
    with pytest.raises(InstanceTooLarge) as info:
        call()
    return info.value.what, info.value.size, info.value.limit


def test_solving_block_sets_the_cap():
    g = cycle(8)
    assert chromatic_number(g)[0] == 2  # outside every block: cap 64
    with solving(10):
        assert chromatic_number(g)[0] == 2
        with solving(5):
            assert _refusal(lambda: clique_number(g)) == ("clique_number", 8, 5)
            assert _refusal(lambda: chi_of_set(g, mask_of(range(6)))) == (
                "chromatic_number", 6, 5)
            with solving():  # keeps the enclosing cap
                assert _refusal(lambda: chromatic_number(g)) == (
                    "chromatic_number", 8, 5)
        # The outer cap is back once the inner block exits.
        assert chromatic_number(g)[0] == 2
        assert _refusal(lambda: chromatic_number(cycle(11))) == (
            "chromatic_number", 11, 10)
        with solving(2):
            assert _refusal(lambda: chi_local(g, 1)) == ("chi_local(k=1)", 3, 2)
    assert chromatic_number(erdos_renyi(40, 0.1, 1))[0] >= 2  # cap 64 again


def test_run_pipeline_limit_reaches_the_stages():
    from broomlab.pipeline import run_pipeline
    from broomlab.structures import Params

    # Two disjoint K(2,2) cores: extract finds both, so its core search
    # covers the whole 8-vertex graph and refuses under a cap of 7.
    g = Graph(8, [(u, v) for base in (0, 4) for u in (base, base + 1)
                  for v in (base + 2, base + 3)])
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    with solving(8):
        run_pipeline(g, p)
    with solving(7):
        assert _refusal(lambda: run_pipeline(g, p)) == ("find_core", 8, 7)


def test_pipeline_runs_do_not_share_a_memo(monkeypatch):
    from broomlab.pipeline import run_pipeline
    from broomlab.structures import Params
    from broomlab.suites import _pipeline_instances

    calls = _count_chromatic(monkeypatch)
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    for _, g in _pipeline_instances(20, 11)[12:]:
        counts = []
        for _ in range(2):
            calls[0] = 0
            run_pipeline(g, p)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0
    # chi_local runs outside any pipeline, so every call colours its balls
    # again.  Here the first ball's chi meets the host's DSATUR palette,
    # so it is the one ball coloured.
    g = erdos_renyi(30, 0.1, 5)
    counts = []
    for _ in range(2):
        calls[0] = 0
        chi_local(g, 2)
        counts.append(calls[0])
    assert counts == [1, 1]

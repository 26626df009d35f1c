"""Rebuild references.json, the independent answers for exact_survey.

    python3 perfbench/build_refs.py

Uses networkx and the benchmark's own search in checks.py; nothing from
broomlab.  Takes several minutes, almost all of it in the T(2) searches.

- omega: networkx ``max_weight_clique(G, weight=None)``;
- chi: the smallest k for which checks.k_coloring, started from that
  maximum clique, finds a colouring; every smaller k is refuted;
- T(delta)-free: networkx ``GraphMatcher(host, T).subgraph_is_isomorphic()``,
  which decides node-induced subgraph isomorphism;
- chi_local at radius 2: the largest such chi over the closed balls.
"""

from __future__ import annotations

import json
import sys
import time

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

import checks
from workloads import EXACT_SURVEY, REFERENCES, instance_id


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def chi_with_clique(adj: list[set[int]]) -> tuple[int, int]:
    if not adj:
        return 0, 0
    clique, _ = nx.max_weight_clique(nx_graph(len(adj), [(u, v) for u in range(len(adj))
                                                          for v in adj[u] if u < v]), weight=None)
    chi, coloring = checks.chromatic_reference(adj, clique)
    assert not checks.check_coloring(adj, coloring, chi, chi)
    return len(clique), chi


def reference(role: str, n: int, p: float, seed: int) -> dict:
    edges = checks.gnp(n, p, seed)
    adj = checks.adjacency(n, edges)
    ref = {"n": n, "p": p, "seed": seed, "digest": checks.graph_digest(n, edges)}
    if role == "dense":
        ref["omega"], ref["chi"] = chi_with_clique(adj)
    elif role == "tree":
        host = nx_graph(n, edges)
        ref["t_free"] = {}
        for delta in (1, 2):
            size, t_edges = checks.t_delta(delta)
            found = GraphMatcher(host, nx_graph(size, t_edges)).subgraph_is_isomorphic()
            ref["t_free"][str(delta)] = not found
    else:
        ref["chi_local_2"] = max(
            chi_with_clique(checks.induced_adjacency(adj, checks.ball(adj, v, 2)))[1]
            for v in range(n))
    return ref


def main() -> int:
    refs = {}
    for role, n, p, seed in EXACT_SURVEY:
        start = time.perf_counter()
        key = instance_id(role, n, seed)
        refs[key] = reference(role, n, p, seed)
        print(f"{key}: {refs[key]} ({time.perf_counter() - start:.1f}s)", file=sys.stderr)
    REFERENCES.write_text(json.dumps({"exact_survey": refs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

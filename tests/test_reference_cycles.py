"""Exact searches are recursive closures; each call must break its own
function -> cell -> function cycle, so no garbage waits for the cycle
collector (which a long run pays for in peak memory).  Nor may repeated
pipeline runs pile up blocks that no collection frees."""

import gc
import sys

import pytest

from broomlab.generators import erdos_renyi
from broomlab.graphs import Graph, least_stable_subset
from broomlab.pipeline import run_pipeline
from broomlab.shadows import build_shadowing, find_bunch
from broomlab.solvers import _k_colorable, chi_local, chromatic_number, clique_number
from broomlab.structures import Params, find_core, max_matching_covered_chi
from broomlab.suites import _pipeline_instances
from broomlab.templates import extract_template_array
from broomlab.trees import build_T, contains_induced, find_rooted_broom

from test_shadows import bunch_fixture

DENSE = erdos_renyi(30, 0.5, 3)
SPARSE = erdos_renyi(30, 0.1, 3)


def _bunch_inputs():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    arr, _ = extract_template_array(bunch_fixture(), p)
    return arr, build_shadowing(arr)


CALLS = {
    "clique_number": lambda: clique_number(DENSE),
    "_k_colorable": lambda: _k_colorable(DENSE, 4),
    "chromatic_number": lambda: chromatic_number(erdos_renyi(14, 0.5, 3)),
    "chi_local": lambda: chi_local(SPARSE, 2),
    "find_core": lambda: find_core(DENSE, 2, 2),
    "contains_induced": lambda: contains_induced(SPARSE, build_T(1)),
    "contains_induced_absent": lambda: contains_induced(SPARSE, build_T(2)),
    "find_rooted_broom": lambda: find_rooted_broom(SPARSE, 0, 2, 1, (1 << 30) - 1),
    "least_stable_subset": lambda: least_stable_subset(DENSE, list(range(30)), 3),
    "max_matching_covered_chi": lambda: max_matching_covered_chi(
        Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)]), 1),
    "find_bunch": lambda: find_bunch(*_bunch_inputs(), 2),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_search_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()  # first call: imports and caches settle
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def pipeline_blocks_retained() -> int:
    """Allocated blocks gained over 5 passes of ``run_pipeline`` on the
    100-host acceptance mix at the ``pipeline_mix`` flags, after 2 warm-up
    passes.  A full collection empties the interpreter's free lists, so
    the collector is off while the passes run."""
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)
    hosts = [g for _, g in _pipeline_instances(100, 11)]

    def run(passes: int) -> None:
        for _ in range(passes):
            for g in hosts:
                run_pipeline(g, p)

    gc.collect()
    gc.disable()
    try:
        run(2)
        before = sys.getallocatedblocks()
        run(5)
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def test_pipeline_passes_retain_no_memory():
    # A tuple built at a guessed length retains about 650 blocks a pass.
    assert pipeline_blocks_retained() < 500

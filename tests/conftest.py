import random

import pytest

from broomlab.generators import (
    FIXTURES,
    complete_multipartite,
    cycle,
    groetzsch,
    path,
    petersen,
)
from broomlab.graphs import Graph
from broomlab.pipeline import run_pipeline
from broomlab.structures import Params
from broomlab.suites import _pipeline_instances


@pytest.fixture(scope="session")
def c4():
    return cycle(4)


@pytest.fixture(scope="session")
def c5():
    return cycle(5)


@pytest.fixture(scope="session")
def c7():
    return cycle(7)


@pytest.fixture(scope="session")
def p6():
    return path(6)


@pytest.fixture(scope="session")
def k4():
    return Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture(scope="session")
def k5():
    return Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


@pytest.fixture(scope="session")
def k33():
    return complete_multipartite([3, 3])


@pytest.fixture(scope="session")
def pet():
    return petersen()


@pytest.fixture(scope="session")
def groe():
    return groetzsch()


@pytest.fixture(scope="session")
def small_params():
    return Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1)


@pytest.fixture(scope="session")
def pipeline_traces(small_params):
    """``run_pipeline`` on the first 40 hosts of the acceptance mix (seed 11)."""
    return [run_pipeline(g, small_params) for _, g in _pipeline_instances(40, 11)]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


@pytest.fixture(scope="session")
def fixtures():
    return FIXTURES

import pytest

from broomlab import suites
from broomlab.graphs import Graph


@pytest.mark.parametrize(
    "suite, generator, edgeless",
    [
        (suites.suite_stable_removal, "erdos_renyi", lambda n, p, seed: Graph(n)),
        (suites.suite_daisy, "plant_core", lambda n, a, b, p, seed: (Graph(n), None)),
    ],
)
def test_suite_gives_up_when_no_attempt_qualifies(monkeypatch, suite, generator, edgeless):
    # An edgeless host has chi < 2 and no core, so no attempt becomes a trial.
    monkeypatch.setattr(suites, generator, edgeless)
    result = suite(trials=7, seed=0)
    assert result.trials == 7
    assert result.failures == ["only 0 of 7 trials qualified in 70 attempts"]
    assert not result.ok

"""``import broomlab`` loads a submodule only when a public name from it
is first used."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import broomlab

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement: str) -> list[str]:
    """The broomlab modules a fresh interpreter holds after ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        f"{statement}\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'broomlab'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_importing_submodules_loads_only_those():
    assert loaded_after("from broomlab import graphs, solvers, trees") == [
        "broomlab", "broomlab.graphs", "broomlab.solvers", "broomlab.trees",
    ]


def test_constants_does_not_load_structures():
    loaded = loaded_after("import broomlab.constants")
    assert "broomlab.constants" in loaded
    assert "broomlab.structures" not in loaded


# What ``import broomlab.cli`` loads; each subcommand adds the modules it runs.
CLI = {"broomlab", "broomlab.cli", "broomlab.constants", "broomlab.graphs",
       "broomlab.solvers", "broomlab.structures"}
HEAVY = {f"broomlab.{m}" for m in
         ("trees", "templates", "shadows", "pipeline", "suites", "oracles")}


def test_each_cli_command_loads_only_the_modules_it_runs(tmp_path):
    from broomlab.graph_io import render_graph
    from broomlab.graphs import Graph

    graph = tmp_path / "c4.edges"
    graph.write_text(render_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"instances": [{"family": "cycle", "params": {"n": 5}}]}')
    out = str(tmp_path / "out")
    pipeline = {"graph_io", "pipeline", "shadows", "templates", "trees"}
    commands = {
        "constants": (["constants"], {"bignum"}),
        "gen": (["gen", "--family", "cycle", "--params", '{"n": 5}'],
                {"generators", "graph_io"}),
        "analyze": (["analyze", "--graph", str(graph)], {"graph_io", "trees"}),
        "survey": (["survey", "--manifest", str(manifest)], {"generators", "trees"}),
        "pipeline": (["pipeline", "--graph", str(graph)], pipeline),
        "audit": (["audit", "--graph", str(graph)], pipeline),
    }
    for name, (argv, adds) in commands.items():
        loaded = loaded_after(
            f"from broomlab import cli\nassert cli.main({argv + ['--out', out]!r}) == 0")
        assert loaded == sorted(CLI | {f"broomlab.{m}" for m in adds}), name
        if name in ("constants", "gen"):
            assert not HEAVY & set(loaded), name
    assert loaded_after("import broomlab.cli") == sorted(CLI)
    assert "broomlab.trees" not in loaded_after("import broomlab.structures")


def test_public_names_are_the_submodules_objects():
    assert len(broomlab.__all__) == 70
    for name in broomlab.__all__:
        module = importlib.import_module(f"broomlab.{broomlab._SUBMODULE[name]}")
        assert getattr(broomlab, name) is getattr(module, name), name
    assert set(broomlab.__all__) <= set(dir(broomlab))
    namespace: dict = {}
    exec("from broomlab import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(broomlab.__all__)


def test_only_solving_takes_a_solver_limit():
    # A ``solving`` block is the one way to set the exact-search cap.
    takes = [
        name for name in broomlab.__all__
        if callable(obj := getattr(broomlab, name))
        and "limit" in inspect.signature(obj).parameters
    ]
    assert takes == ["solving"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        broomlab.no_such_name
    assert not hasattr(broomlab, "no_such_name")

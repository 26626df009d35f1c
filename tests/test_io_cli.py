import errno
import json
import locale
import os
import stat
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from broomlab.cli import _params_from_args, build_parser, main, render_json
from broomlab.generators import petersen
from broomlab.graph_io import GraphParseError, read_graph, render_graph
from broomlab.graphs import Graph


def test_dimacs_triangle(tmp_path):
    text = "c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    f = tmp_path / "t.col"
    f.write_text(text)
    g = read_graph(f)
    assert g.n == 3 and g.m == 3


def test_edgelist_header_only(tmp_path):
    f = tmp_path / "empty.edges"
    f.write_text("4 0\n")
    g = read_graph(f)
    assert g.n == 4 and g.m == 0


def test_round_trip_identity(tmp_path):
    g = petersen()
    for fmt, name in (("edgelist", "p.edges"), ("dimacs", "p.col")):
        f = tmp_path / name
        f.write_text(render_graph(g, fmt), newline="\n")
        first = f.read_bytes()
        again = read_graph(f, fmt)
        assert again == g
        f.write_text(render_graph(again, fmt), newline="\n")
        assert f.read_bytes() == first


def test_parse_errors_name_lines(tmp_path):
    # Full texts: edge lines name vertices as the file numbers them,
    # 0-based in an edge list and 1-based in DIMACS.
    cases = [
        ("bad.col", "p edge 3 1\ne 1 1\n", 2, "self-loop at 1"),
        ("bad2.col", "e 1 2\n", 1, "edge before problem line"),
        ("bad3.col", "p edge 2 1\ne 1 5\n", 2, "endpoint out of range 1..2"),
        ("bad4.col", "p edge 2 1\nq 1 2\n", 2, "unknown record 'q'"),
        ("bad5.col", "p edge 2 2\ne 1 2\n", 1,
         "problem line promises 2 edges, file has 1"),
        ("bad6.edges", "2\n", 1, "header must be 'n m'"),
        ("bad7.edges", "2 1\n0 0\n", 2, "self-loop at 0"),
        ("int.edges", "2 1\n0 x\n", 2, "edge endpoints must be integers"),
        ("range.edges", "2 1\n0 2\n", 2, "endpoint out of range 0..1"),
        ("dup.edges", "3 2\n0 1\n1 0\n", 3, "edge 1 0 repeats line 2"),
        ("int.col", "p edge 2 1\ne 1 x\n", 2, "edge endpoints must be integers"),
        ("range.col", "p edge 2 1\ne 0 1\n", 2, "endpoint out of range 1..2"),
        ("dup.col", "p edge 2 1\ne 1 2\ne 2 1\n", 3, "edge 2 1 repeats line 2"),
    ]
    for name, text, line_no, message in cases:
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(GraphParseError) as err:
            read_graph(f)
        assert err.value.line_no == line_no
        assert str(err.value) == f"{f}:{line_no}: {message}"


@pytest.mark.parametrize("name, text, line_no, message", [
    ("header.edges", "2 x\n", 1, "header must be integers"),
    ("edge.edges", "3 1\n# c\n0 1 2\n", 3, "edge line must be 'u v'"),
    ("edge.col", "p edge 3 1\ne 1\n", 2, "edge line must be 'e u v'"),
    ("empty.edges", "", 1, "missing 'n m' header"),
    ("comment.edges", "# no header\n", 1, "missing 'n m' header"),
    ("count.edges", "3 2\n0 1\n", 1, "header promises 2 edges, file has 1"),
    ("short.col", "c x\np edge 3\n", 2, "problem line must be 'p edge N M'"),
    ("kind.col", "p graph 3 1\n", 1, "problem line must be 'p edge N M'"),
    ("int.col", "p edge 3 x\n", 1, "problem line must carry integers"),
    ("none.col", "c only a comment\n", 1, "missing problem line"),
])
def test_parse_error_table(tmp_path, name, text, line_no, message):
    f = tmp_path / name
    f.write_text(text)
    with pytest.raises(GraphParseError) as err:
        read_graph(f)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{f}:{line_no}: {message}"


def test_unknown_graph_format(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("2 1\n0 1\n")
    with pytest.raises(ValueError) as err:
        read_graph(f, "gml")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown format 'gml'"
    with pytest.raises(ValueError) as err:
        render_graph(Graph(2, [(0, 1)]), "gml")
    assert str(err.value) == "unknown format 'gml'"


def test_edgelist_rejects_repeated_edges(tmp_path):
    # "3 2 / 0 1 / 1 0" names one edge twice; it must not pass as the two
    # edges its header promises.
    for text, line in (("3 2\n0 1\n1 0\n", 3), ("3 3\n0 1\n1 2\n# c\n0 1\n", 5)):
        f = tmp_path / "dup.edges"
        f.write_text(text)
        with pytest.raises(GraphParseError) as err:
            read_graph(f)
        assert err.value.line_no == line
        assert f"dup.edges:{line}: edge" in str(err.value)
        assert "repeats line 2" in str(err.value)
    f = tmp_path / "ok.edges"
    f.write_text("3 2\n0 1\n2 1\n")
    assert read_graph(f) == Graph(3, [(0, 1), (1, 2)])


def test_dimacs_rejects_repeated_edges(tmp_path):
    # "p edge 2 1 / e 1 2 / e 2 1" names one edge twice, in either
    # orientation; the reader refuses it as the edge-list reader does.
    for text, line, first in (
        ("p edge 2 1\ne 1 2\ne 2 1\n", 3, 2),
        ("c x\np edge 3 3\ne 1 2\ne 2 3\nc y\ne 1 2\n", 6, 3),
    ):
        f = tmp_path / "dup.col"
        f.write_text(text)
        with pytest.raises(GraphParseError) as err:
            read_graph(f)
        assert err.value.line_no == line
        assert f"dup.col:{line}: edge" in str(err.value)
        assert f"repeats line {first}" in str(err.value)
    f = tmp_path / "ok.col"
    f.write_text("p edge 3 2\ne 1 2\ne 3 2\n")
    assert read_graph(f) == Graph(3, [(0, 1), (1, 2)])


def test_render_graph_sorted():
    g = Graph(3, [(2, 1), (1, 0)])
    assert render_graph(g) == "3 2\n0 1\n1 2\n"
    assert render_graph(g, "dimacs") == "p edge 3 2\ne 1 2\ne 2 3\n"


# --- CLI ----------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_analyze_constants(tmp_path, capsys):
    graph_file = tmp_path / "pet.edges"
    code = run_cli(
        "gen", "--family", "fixture", "--params", '{"id": "petersen"}',
        "--out", str(graph_file),
    )
    assert code == 0
    report_file = tmp_path / "report.json"
    code = run_cli(
        "analyze", "--graph", str(graph_file), "--delta", "1",
        "--tau", "3", "--out", str(report_file),
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["results"]["omega"]["value"] == 2
    assert report["results"]["chi"]["value"] == 3
    assert report["results"]["chi_ball_2"]["value"] == 3
    assert report["results"]["t_free"]["value"] is True
    # Any edge carries a (1,2)-core, but the girth rules out (2,2).
    assert report["results"]["best_core"]["a"] == 1

    ledger_file = tmp_path / "ledger.json"
    code = run_cli(
        "constants", "--delta", "1", "--tau", "1", "--beta", "2",
        "--zeta", "3", "--out", str(ledger_file),
    )
    assert code == 0
    payload = json.loads(ledger_file.read_text())
    values = {e["key"]: e["decimal"] for e in payload["entries"]}
    assert values["gamma"] == "9"
    assert values["epsilon"] == "27"
    assert values["strong_contacts.s"] == "498"


@pytest.mark.parametrize("eta", [None, 0, 4])
@pytest.mark.parametrize("zeta", [None, 7])
def test_cli_eta_zeta_defaults(eta, zeta):
    # Given or omitted, each as the CLI's own formula had it: eta
    # defaults to max(1, delta), zeta to max(eta, alpha) + delta with the
    # eta in force, explicit or not.
    for delta, alpha in ((1, 1), (2, 1), (1, 3), (3, 2)):
        argv = ["constants", "--delta", str(delta), "--alpha", str(alpha)]
        argv += [] if eta is None else ["--eta", str(eta)]
        argv += [] if zeta is None else ["--zeta", str(zeta)]
        p = _params_from_args(build_parser().parse_args(argv))
        want_eta = max(1, delta) if eta is None else eta
        want_zeta = max(want_eta, alpha) + delta if zeta is None else zeta
        assert (p.delta, p.alpha, p.eta, p.zeta) == (delta, alpha, want_eta, want_zeta)


def test_cli_pipeline_and_audit(tmp_path):
    graph_file = tmp_path / "g.edges"
    assert run_cli(
        "gen", "--family", "fixture", "--params", '{"id": "c4_pendant_path"}',
        "--out", str(graph_file),
    ) == 0
    out = tmp_path / "trace.json"
    assert run_cli(
        "pipeline", "--graph", str(graph_file), "--out", str(out),
    ) == 0
    trace = json.loads(out.read_text())
    names = [s["name"] for s in trace["trace"]["stages"]]
    assert names == ["extract", "clean1", "clean2", "privatize", "clean3"]
    assert trace["trace"]["leftover_core_free"] is True
    audit_out = tmp_path / "audit.json"
    assert run_cli(
        "audit", "--graph", str(graph_file), "--out", str(audit_out),
    ) == 0
    audit = json.loads(audit_out.read_text())
    assert audit["audit"]["core_contacts"]["status"] == "pass"


def test_cli_lemma_check(tmp_path):
    out = tmp_path / "suite.json"
    code = run_cli(
        "lemma-check", "--suite", "digraph", "--trials", "20",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True and payload["trials"] == 40


def test_cli_survey(tmp_path):
    manifest = {
        "analysis": {"delta": 1, "beta": 2},
        "instances": [
            {"id": "pet", "family": "fixture", "params": {"id": "petersen"}},
            {"id": "c7", "family": "cycle", "params": {"n": 7}},
            {"id": "big", "family": "erdos_renyi",
             "params": {"n": 120, "p": 0.2}, "seed": 3},
        ],
    }
    mfile = tmp_path / "manifest.json"
    mfile.write_text(json.dumps(manifest))
    out = tmp_path / "rows.csv"
    assert run_cli("survey", "--manifest", str(mfile), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per instance, refusals included
    assert lines[0].startswith("id,family,n,omega,chi,t_free,error")
    assert lines[1].startswith("pet,fixture,10,2,3,True,")
    assert lines[2].startswith("c7,cycle,7,2,3,False,")
    assert "exceeds solver limit" in lines[3]


def test_cli_searches_omega_once(tmp_path, monkeypatch):
    # analyze and survey report omega and chi; chi reuses the omega they
    # already searched for.  Wrapped in every module that binds it.
    from broomlab import cli, solvers

    seen = []
    original = solvers.clique_number

    def counted(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(solvers, "clique_number", counted)
    monkeypatch.setattr(cli, "clique_number", counted)
    manifest = {
        "analysis": {"delta": 1},
        "instances": [
            {"id": "pet", "family": "fixture", "params": {"id": "petersen"}},
            {"id": "gnp", "family": "erdos_renyi",
             "params": {"n": 40, "p": 0.5}, "seed": 1},
        ],
    }
    mfile = tmp_path / "manifest.json"
    mfile.write_text(json.dumps(manifest))
    out = tmp_path / "rows.csv"
    assert run_cli("survey", "--manifest", str(mfile), "--out", str(out)) == 0
    assert len(seen) == 2
    rows = out.read_text().splitlines()
    assert rows[1].startswith("pet,fixture,10,2,3,")

    graph_file = tmp_path / "pet.edges"
    graph_file.write_text(render_graph(petersen()))
    seen.clear()
    assert run_cli("analyze", "--graph", str(graph_file),
                   "--out", str(tmp_path / "report.json")) == 0
    # chi_local colours balls, which are other graphs; the host is
    # searched once.
    assert sum(g is seen[0] for g in seen) == 1


def test_cli_exit_codes(tmp_path):
    missing = run_cli("analyze", "--graph", str(tmp_path / "nope.edges"))
    assert missing == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("not a header\n")
    assert run_cli("analyze", "--graph", str(bad)) == 2
    big = tmp_path / "big.edges"
    big.write_text(render_graph(Graph(70, [(i, i + 1) for i in range(69)])))
    assert run_cli("analyze", "--graph", str(big)) == 3
    assert run_cli("analyze", "--graph", str(big), "--solver-limit", "70") == 0


def error_of(capsys) -> dict:
    """The JSON error a refused command put on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return json.loads(err)["error"]


@pytest.mark.parametrize("params", ["3", "[1]", '"n"', "null"])
def test_cli_gen_refuses_params_that_are_not_an_object(params, capsys):
    assert run_cli("gen", "--family", "cycle", "--params", params) == 2
    error = error_of(capsys)
    assert error["type"] == "ValueError"
    assert error["message"] == f"--params must be a JSON object, not {params}"


def test_cli_survey_refuses_params_that_are_not_an_object(tmp_path, capsys):
    manifest = {"instances": [
        {"id": "c5", "family": "cycle", "params": {"n": 5}},
        {"id": "bad", "family": "cycle", "params": 3},
    ]}
    mfile = tmp_path / "manifest.json"
    mfile.write_text(json.dumps(manifest))
    assert run_cli("survey", "--manifest", str(mfile)) == 2
    error = error_of(capsys)
    assert error["type"] == "ValueError"
    assert error["message"] == "instances[1].params must be a JSON object, not 3"


@pytest.mark.parametrize("manifest, message", [
    ([], "the manifest must be a JSON object, not []"),
    ({"analysis": 1, "instances": []}, "analysis must be a JSON object, not 1"),
    ({"analysis": {"delta": "x"}, "instances": []},
     "analysis: bad value 'x' for field 'delta'"),
    ({"analysis": {"delta": None}, "instances": []},
     "analysis: bad value None for field 'delta'"),
    ({"instances": {"family": "cycle"}},
     'instances must be a JSON array, not {"family": "cycle"}'),
    ({"instances": [{"family": "cycle", "params": {"n": 5}}, 3]},
     "instances[1] must be a JSON object, not 3"),
    ({"instances": [{"family": "cycle", "params": {"n": 5}, "seed": [1]}]},
     "instances[0]: bad value [1] for field 'seed'"),
    ({"analysis": {"delta": 1}}, "the manifest: missing field 'instances'"),
    ({"instances": [{"id": "c5", "params": {"n": 5}}]},
     "instances[0]: missing field 'family'"),
    ({"instances": [{"family": ["cycle"], "params": {"n": 5}}]},
     "instances[0]: bad value ['cycle'] for field 'family'"),
    ({"instances": [{"id": [1], "family": "cycle", "params": {"n": 5}}]},
     "instances[0]: bad value [1] for field 'id'"),
    ({"instances": [{"id": {"a": 1}, "family": "cycle", "params": {"n": 5}}]},
     "instances[0]: bad value {'a': 1} for field 'id'"),
    ({"instances": [{"id": 7, "family": "cycle", "params": {"n": 5}}]},
     "instances[0]: bad value 7 for field 'id'"),
])
def test_cli_survey_refuses_mistyped_manifest_fields(tmp_path, capsys, manifest, message):
    mfile = tmp_path / "manifest.json"
    mfile.write_text(json.dumps(manifest))
    assert run_cli("survey", "--manifest", str(mfile)) == 2
    assert error_of(capsys) == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("via", ["gen", "survey"])
@pytest.mark.parametrize("family, params, message", [
    ("complete_multipartite", {"sizes": 3},
     "complete_multipartite: bad value 3 for field 'sizes'"),
    ("cycle", {"n": [4]}, "cycle: bad value [4] for field 'n'"),
    ("cycle", {}, "cycle: missing field 'n'"),
    ("erdos_renyi", {"n": 5, "p": "x"}, "erdos_renyi: bad value 'x' for field 'p'"),
    ("mycielski_tower", {"base": {"family": "cycle", "params": 3}},
     "mycielski_tower.base: bad value 3 for field 'params'"),
    ("mycielski_tower", {"base": {"params": {"n": 4}}},
     "mycielski_tower.base: missing field 'family'"),
    ("mycielski_tower", {"base": {"family": "cycle", "params": {"n": None}}},
     "cycle: bad value None for field 'n'"),
    ("mycielski_tower", {"base": {"family": ["cycle"]}},
     "mycielski_tower.base: bad value ['cycle'] for field 'family'"),
    ("fixture", {"id": 3}, "fixture: bad value 3 for field 'id'"),
])
def test_cli_refuses_mistyped_or_missing_family_fields(
    tmp_path, capsys, via, family, params, message
):
    if via == "gen":
        code = run_cli("gen", "--family", family, "--params", json.dumps(params))
    else:
        mfile = tmp_path / "manifest.json"
        mfile.write_text(json.dumps({"instances": [
            {"id": "c5", "family": "cycle", "params": {"n": 5}},
            {"id": "bad", "family": family, "params": params},
        ]}))
        code = run_cli("survey", "--manifest", str(mfile))
    assert code == 2
    assert error_of(capsys) == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_lemma_check_refuses_fewer_than_one_trial(tmp_path, trials, capsys):
    out = tmp_path / "suite.json"
    assert run_cli("lemma-check", "--suite", "core", "--trials", trials,
                   "--out", str(out)) == 2
    assert error_of(capsys)["message"] == f"trials must be at least 1, not {trials}"
    assert not out.exists()


def test_cli_lemma_check_refuses_an_unknown_suite_naming_the_known(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert run_cli("lemma-check", "--suite", "nope", "--out", str(out)) == 2
    assert error_of(capsys) == {
        "type": "ValueError",
        "message": "unknown suite 'nope' (known: chromatic, containment, core, "
        "daisy, digraph, pipeline, private_cover, stable_removal)",
    }
    assert not out.exists()


def test_cli_calls_the_library_through_its_traced_names(tmp_path, monkeypatch):
    # perfbench's tracer times the library behind these commands by
    # rebinding cli.run_pipeline and cli.ledger; a command that reached
    # the library another way would read 0 there.
    from broomlab import cli

    calls = []

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cli, name, wrapper)

    counted("run_pipeline")
    counted("ledger")
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(render_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
    for command in ("pipeline", "audit"):
        assert run_cli(command, "--graph", str(graph_file),
                       "--out", str(tmp_path / f"{command}.json")) == 0
    assert run_cli("constants", "--out", str(tmp_path / "ledger.json")) == 0
    assert calls == ["run_pipeline", "run_pipeline", "ledger"]


@pytest.mark.parametrize("command", ["analyze", "pipeline", "audit", "survey"])
def test_cli_refuses_a_negative_solver_limit(tmp_path, command, capsys):
    # Refused before the input is read: the input file does not exist.
    source = "--manifest" if command == "survey" else "--graph"
    out = tmp_path / "out"
    assert run_cli(command, source, str(tmp_path / "missing"),
                   "--solver-limit", "-1", "--out", str(out)) == 2
    assert error_of(capsys) == {
        "type": "ValueError", "message": "--solver-limit must be at least 0, not -1"}
    assert not out.exists()


@pytest.mark.parametrize("command, search", [
    ("analyze", "clique_number"), ("pipeline", "find_core"), ("audit", "find_core"),
])
def test_cli_refuses_above_a_positive_solver_limit(tmp_path, command, search, capsys):
    # The Petersen graph has 10 vertices.  A cap of 9 refuses the first
    # search over all of them (analyze's clique search, extract's core
    # search); a cap of 10 refuses nothing and writes the default's bytes.
    graph_file = tmp_path / "pet.edges"
    graph_file.write_text(render_graph(petersen()))
    out = tmp_path / "out.json"
    argv = (command, "--graph", str(graph_file), "--out", str(out))
    assert run_cli(*argv, "--solver-limit", "9") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "type": "solver_refusal", "message": f"{search}: size 10 exceeds solver limit 9",
        "size": 10, "limit": 9}}
    assert not out.exists()
    assert run_cli(*argv) == 0
    default = out.read_bytes()
    out.unlink()
    assert run_cli(*argv, "--solver-limit", "10") == 0
    assert out.read_bytes() == default


def test_cli_survey_row_carries_a_positive_solver_limit_refusal(tmp_path):
    manifest = {"instances": [
        {"id": "pet", "family": "fixture", "params": {"id": "petersen"}},
        {"id": "c7", "family": "cycle", "params": {"n": 7}},
    ]}
    mfile = tmp_path / "manifest.json"
    mfile.write_text(json.dumps(manifest))
    out = tmp_path / "rows.csv"
    assert run_cli("survey", "--manifest", str(mfile), "--solver-limit", "8",
                   "--out", str(out)) == 0
    assert out.read_text().splitlines() == [
        "id,family,n,omega,chi,t_free,error",
        "pet,fixture,,,,,clique_number: size 10 exceeds solver limit 8",
        "c7,cycle,7,2,3,False,",
    ]


def test_cli_unreadable_and_unwritable_paths_exit_2(tmp_path, capsys):
    graph_file = tmp_path / "c5.edges"
    graph_file.write_text(render_graph(Graph(5, [(i, (i + 1) % 5) for i in range(5)])))
    for argv in (
        ("analyze", "--graph", str(tmp_path)),
        ("survey", "--manifest", str(tmp_path)),
        ("analyze", "--graph", str(graph_file), "--out", str(tmp_path)),
        ("gen", "--family", "cycle", "--params", '{"n": 4}', "--out", str(tmp_path)),
    ):
        assert run_cli(*argv) == 2, argv
        assert error_of(capsys)["type"] == "IsADirectoryError", argv


def _out_commands(tmp_path) -> dict:
    """The argv, less ``--out``, of four commands that write an output file."""
    graph_file = tmp_path / "c6.edges"
    graph_file.write_text(render_graph(Graph(6, [(i, (i + 1) % 6) for i in range(6)])))
    # A non-ASCII id shows the CSV goes out in the locale encoding.
    pet = "p\u00e9t" if "\u00e9".encode(locale.getpreferredencoding(False), "ignore") else "pet"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"analysis": {"delta": 1}, "instances": [
        {"id": pet, "family": "fixture", "params": {"id": "petersen"}},
        {"id": "g1", "family": "erdos_renyi", "params": {"n": 18, "p": 0.2}, "seed": 3},
    ]}))
    return {
        "gen": ("gen", "--family", "erdos_renyi", "--params", '{"n": 14, "p": 0.3}',
                "--seed", "5"),
        "pipeline": ("pipeline", "--graph", str(graph_file)),
        "constants": ("constants", "--delta", "1", "--tau", "1"),
        "survey": ("survey", "--manifest", str(manifest)),
    }


def _written_bytes(tmp_path, text: str) -> bytes:
    """The bytes ``Path.write_text(text, newline="")`` puts in a new file."""
    want_file = tmp_path / "want"
    want_file.write_text(text, newline="")
    return want_file.read_bytes()


@pytest.mark.parametrize("command", ["gen", "pipeline", "constants", "survey"])
def test_cli_rewrites_an_existing_out_file_byte_for_byte(tmp_path, capsys, command):
    # An existing --out file is overwritten in place and cut to the new
    # length; whatever it held, the result is what a new path gets.
    argv = _out_commands(tmp_path)[command]
    assert run_cli(*argv) == 0
    want = _written_bytes(tmp_path, capsys.readouterr().out)
    umask = os.umask(0)
    os.umask(umask)
    befores = {"none": None, "longer": b"#" * (2 * len(want) + 4096),
               "same length": b"#" * len(want), "shorter": b"#"}
    for name, before in befores.items():
        out = tmp_path / f"out {name}"
        if before is not None:
            out.write_bytes(before)
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == want, name
    # As Path.write_text: 0o666 less the umask, not os.open's 0o777.
    assert stat.S_IMODE((tmp_path / "out none").stat().st_mode) == 0o666 & ~umask


def test_cli_out_to_the_null_device(tmp_path, capsys):
    for argv in _out_commands(tmp_path).values():
        assert run_cli(*argv, "--out", os.devnull) == 0, argv
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_cli_out_to_a_fifo(tmp_path, capsys):
    # A FIFO is written, not truncated; its reader gets every byte.
    argv = _out_commands(tmp_path)["survey"]
    assert run_cli(*argv) == 0
    want = _written_bytes(tmp_path, capsys.readouterr().out)
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(*argv, "--out", str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [want]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX errno and path texts")
def test_cli_unwritable_out_reports_the_os_error(tmp_path, capsys):
    # The error names the path as Path(out) does: a trailing slash is
    # dropped, so "dir/" is reported as "dir" and "new/" creates "new".
    argv = ("gen", "--family", "cycle", "--params", '{"n": 4}', "--out")
    missing = tmp_path / "missing" / "g.edges"
    for out, code, path in ((str(tmp_path), errno.EISDIR, tmp_path),
                            (f"{tmp_path}/", errno.EISDIR, tmp_path),
                            (str(missing), errno.ENOENT, missing)):
        assert run_cli(*argv, out) == 2, out
        exc = OSError(code, os.strerror(code), str(path))
        assert error_of(capsys) == {"type": type(exc).__name__, "message": str(exc)}
    assert not missing.parent.exists()
    assert run_cli(*argv, f"{tmp_path / 'new'}/") == 0
    assert (tmp_path / "new").is_file()


def test_cli_constants_refuses_a_base_it_cannot_materialize(capsys):
    # beta*zeta = 2,200,000: nested.t1 would raise a base holding
    # 2**2200000 to a power, and that base is never materialized.
    assert run_cli("constants", "--zeta", "1100000") == 2
    error = error_of(capsys)
    assert error["type"] == "ValueError"
    assert "**2200000" in error["message"] and "never materialized" in error["message"]


def test_cli_renders_ints_over_the_digit_limit(tmp_path):
    # At zeta 20000, clean1's report holds ints built from 2**40000,
    # 12,042 digits: over the default int-to-str limit of 4300.
    graph_file = tmp_path / "c6.edges"
    graph_file.write_text(render_graph(Graph(6, [(i, (i + 1) % 6) for i in range(6)])))
    out = tmp_path / "trace.json"
    assert run_cli("pipeline", "--graph", str(graph_file), "--zeta", "20000",
                   "--out", str(out)) == 0
    text = out.read_text()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        assert len(str(payload["trace"]["stages"][1]["report"]["t"])) > old
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_suite_failure_exit_code(tmp_path, monkeypatch):
    import broomlab.suites as suites
    from broomlab.suites import SuiteResult

    def always_fails(trials=1, seed=0):
        return SuiteResult("rigged", trials, failures=["boom"])

    monkeypatch.setitem(suites.SUITES, "rigged", always_fails)
    out = tmp_path / "fail.json"
    code = run_cli("lemma-check", "--suite", "rigged", "--out", str(out))
    assert code == 4
    assert json.loads(out.read_text())["ok"] is False


def test_cli_determinism(tmp_path):
    for name in ("a", "b"):
        graph_file = tmp_path / f"{name}.edges"
        assert run_cli(
            "gen", "--family", "erdos_renyi", "--params",
            '{"n": 14, "p": 0.3}', "--seed", "5", "--out", str(graph_file),
        ) == 0
        assert run_cli(
            "analyze", "--graph", str(graph_file),
            "--out", str(tmp_path / f"{name}.json"),
        ) == 0
        assert run_cli(
            "constants", "--delta", "1", "--tau", "1",
            "--out", str(tmp_path / f"{name}_ledger.json"),
        ) == 0
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    a["instance"].pop("graph")
    b["instance"].pop("graph")
    assert a == b
    assert (tmp_path / "a_ledger.json").read_bytes() == (
        tmp_path / "b_ledger.json"
    ).read_bytes()


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
)
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_payloads = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4),
        st.dictionaries(st.integers(-300, 300), kids, max_size=4),
        st.dictionaries(_keys, kids, max_size=3),
    ),
    max_leaves=30,
)


def _encoded(fn, obj):
    try:
        return fn(obj)
    except TypeError:  # keys of mixed types do not sort
        return TypeError


@settings(max_examples=200, derandomize=True)
@given(_payloads)
def test_render_json_matches_json_dumps(obj):
    want = _encoded(lambda o: json.dumps(o, indent=2, sort_keys=True), obj)
    assert _encoded(render_json, obj) == want


def test_render_json_orders_keys_before_stringifying():
    obj = {10: [], 9: {}, -1: [{}], 2.5: "\u00e9\U0001f600", "x": float("nan")}
    with pytest.raises(TypeError):
        render_json(obj)
    del obj["x"]
    text = render_json(obj)
    assert text == json.dumps(obj, indent=2, sort_keys=True)
    # Numeric order; sorting the key strings would put "10" before "2.5".
    assert [text.index(f'"{k}"') for k in ("-1", "2.5", "9", "10")] == sorted(
        text.index(f'"{k}"') for k in ("-1", "2.5", "9", "10")
    )

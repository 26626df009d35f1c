"""Pinned CLI outputs: sha256 digests of ``pipeline``, ``audit`` and
``analyze`` payloads on fixed hosts, of ``gen`` for every family, of
``survey`` rows on a small manifest of trees, sparse and dense hosts,
and of the ``constants`` ledger on the acceptance grid and at three
large zetas.

Repeated runs of the same code are compared elsewhere (acceptance
criterion 11); these digests pin the bytes across refactors and Python
versions.  A refactor that keeps every output must leave them unchanged.
To see which payload moved, print ``_digests()`` per command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from broomlab.cli import main
from broomlab.generators import FIXTURES
from broomlab.suites import _pipeline_instances

# The pipeline_mix benchmark's flags.
FLAGS = ["--delta", "1", "--tau", "1", "--alpha", "1",
         "--beta", "2", "--zeta", "2", "--eta", "1"]
HOSTS = 20
HOST_SEED = 11
ANALYZE_HOSTS = (9, 12, 13, 14, 19)

GOLDEN = {
    "pipeline": "edec5ff8b57816794a019b5823b3d17b679fc6a3fc61b442ac0ac38a55445aa2",
    "audit": "e7e55ac2cc40f4547ea149fbe061130cf11e7b70d3972ab37767085c4a4453ec",
    "analyze_delta1": "4fcf201960a2c023f0b608170de6d742d22aaddfea4c8091636080712af88691",
    "analyze_delta2": "5da746f82bb4f844302abd8ebfd0a6762547fd4c338e8ae3fe7af26e1a0a80c6",
}

# (family, params, seed) for ``gen``: every family, every fixture id.
GEN_SPECS = [
    ("erdos_renyi", {"n": 30, "p": 0.3}, 5),
    ("cycle", {"n": 9}, 0),
    ("path", {"n": 7}, 0),
    ("complete_multipartite", {"sizes": [2, 3, 4]}, 0),
    ("kneser", {"n": 6, "k": 2}, 0),
    ("mycielski_tower", {"levels": 2}, 0),
    ("mycielski_tower", {"base": {"family": "erdos_renyi",
                                  "params": {"n": 9, "p": 0.4}}, "levels": 2}, 3),
    ("planted_core", {"n": 20, "a": 2, "b": 3, "noise_p": 0.2}, 4),
] + [("fixture", {"id": fid}, 0) for fid in FIXTURES]
# Trees, sparse and dense hosts; T(delta)-free and not at both deltas.
SURVEY_INSTANCES = [
    {"id": "path", "family": "path", "params": {"n": 16}},
    {"id": "star", "family": "complete_multipartite", "params": {"sizes": [1, 6]}},
    {"id": "sparse", "family": "erdos_renyi", "params": {"n": 40, "p": 0.08}, "seed": 2},
    {"id": "sparse2", "family": "erdos_renyi", "params": {"n": 36, "p": 0.15}, "seed": 7},
    {"id": "planted", "family": "planted_core",
     "params": {"n": 24, "a": 2, "b": 3, "noise_p": 0.1}, "seed": 1},
    {"id": "dense", "family": "erdos_renyi", "params": {"n": 22, "p": 0.6}, "seed": 3},
    {"id": "kneser", "family": "kneser", "params": {"n": 7, "k": 2}},
    {"id": "mycielski", "family": "mycielski_tower", "params": {"levels": 2}},
    {"id": "triple", "family": "fixture", "params": {"id": "strong_triple"}},
]
GOLDEN_GEN_SURVEY = {
    "gen": "b228062e9214cb9180a5064c49254a214948f58ac89c7b681954e6bd5453dae8",
    "survey_delta1": "fa1198f8b83ef61a4a78c3557311da03464d719394fc0f14e4fa55a0fdb0b78a",
    "survey_delta2": "c7c10f92acad82c08ceb7d101151e38496255a846b482d5019f6f60891f649e7",
}


def _scrubbed(path) -> str:
    # The reports embed the input path; drop it, as criterion 11 does.
    payload = json.loads(path.read_text())
    payload.get("instance", {}).pop("graph", None)
    return json.dumps(payload, sort_keys=True)


def _digests(tmp_path) -> dict[str, str]:
    runs = {name: hashlib.sha256() for name in GOLDEN}
    for i, (_, g) in enumerate(_pipeline_instances(HOSTS, HOST_SEED)):
        edges = g.sorted_edges()
        graph = tmp_path / f"host{i}.edges"
        graph.write_text(
            f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        )
        commands = [("pipeline", FLAGS), ("audit", FLAGS)]
        if i in ANALYZE_HOSTS:
            commands += [("analyze_delta1", ["--delta", "1"]),
                         ("analyze_delta2", ["--delta", "2"])]
        for name, flags in commands:
            out = tmp_path / f"host{i}.{name}.json"
            argv = [name.split("_")[0], "--graph", str(graph), *flags, "--out", str(out)]
            with contextlib.redirect_stderr(io.StringIO()):  # timing line
                assert main(argv) == 0, argv
            runs[name].update(_scrubbed(out).encode() + b"\n")
    return {name: h.hexdigest() for name, h in runs.items()}


def test_cli_outputs_match_pinned_digests(tmp_path):
    assert _digests(tmp_path) == GOLDEN


def _gen_survey_digests(tmp_path) -> dict[str, str]:
    gen = hashlib.sha256()
    out = tmp_path / "gen.out"
    for family, params, seed in GEN_SPECS:
        for fmt in ("edgelist", "dimacs"):
            argv = ["gen", "--family", family, "--params", json.dumps(params),
                    "--seed", str(seed), "--format", fmt, "--out", str(out)]
            assert main(argv) == 0, argv
            gen.update(out.read_bytes())
    digests = {"gen": gen.hexdigest()}
    for delta in (1, 2):
        manifest = tmp_path / f"survey{delta}.json"
        manifest.write_text(json.dumps(
            {"analysis": {"delta": delta}, "instances": SURVEY_INSTANCES}))
        out = tmp_path / f"survey{delta}.csv"
        assert main(["survey", "--manifest", str(manifest), "--out", str(out)]) == 0
        digests[f"survey_delta{delta}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_gen_and_survey_outputs_match_pinned_digests(tmp_path):
    assert _gen_survey_digests(tmp_path) == GOLDEN_GEN_SURVEY


# ``constants`` on the 12-point acceptance grid, then at three zetas with
# the other flags at their defaults: dense_count.bound = 2**(2*zeta) is
# then over 1024 bits, over the int-to-str digit limit, and one bit under
# SERIALIZE_BITS_CAP.
CONSTANTS_ARGS = [
    ["--delta", str(d), "--tau", str(t), "--beta", str(b)]
    for d in (1, 2) for t in (0, 1, 2) for b in (2, 3)
] + [["--zeta", z] for z in ("600", "20000", "1048575")]
GOLDEN_CONSTANTS = "4c90accf044afa173ef4699c7a48d44fb64ddbbc53578c098014754103e74acd"


def test_constants_outputs_match_pinned_digest(tmp_path):
    digest = hashlib.sha256()
    out = tmp_path / "ledger.json"
    for flags in CONSTANTS_ARGS:
        assert main(["constants", *flags, "--out", str(out)]) == 0, flags
        digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_CONSTANTS

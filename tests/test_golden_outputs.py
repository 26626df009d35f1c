"""Pinned CLI outputs: sha256 digests of ``pipeline``, ``audit`` and
``analyze`` payloads on fixed hosts.

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

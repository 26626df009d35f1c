"""Compare this checkout's ``pipeline`` and ``audit`` outputs with those
of another tree, host by host.

The hosts are ``_pipeline_instances(N, 11)`` of this checkout, written
once as edge lists to a temporary directory.  Each tree then runs
``broomlab pipeline`` and ``broomlab audit`` in-process on every host at
the ``pipeline_mix`` flags, in a subprocess of its own with its own
``src`` first on the path, and writes its outputs beside the hosts.
Every host whose output bytes or exit codes differ is printed, then a
total line; the exit status is 1 on any difference.  Library return
values and error texts are not compared.

REF_DIR is the root of another checkout of this repository, such as a
``git worktree`` (or ``git archive``) of the base commit.  Run from
anywhere:

    python tests/compare_outputs.py REF_DIR [--hosts N]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
# The pipeline_mix flags (perfbench/workloads.py).
FLAGS = ["--delta", "1", "--tau", "1", "--alpha", "1",
         "--beta", "2", "--zeta", "2", "--eta", "1"]
COMMANDS = ("pipeline", "audit")


def write_hosts(hosts: Path, count: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from broomlab.suites import _pipeline_instances

    hosts.mkdir()
    for i, (_, g) in enumerate(_pipeline_instances(count, SEED)):
        edges = g.sorted_edges()
        text = f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        (hosts / f"host{i}.edges").write_text(text)


def run_tree(hosts: Path, out: Path, count: int) -> None:
    """Both commands on every host, with the ``broomlab`` on the path;
    each host's exit codes go to ``codes.json``."""
    from broomlab import cli

    out.mkdir()
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        for i in range(count):
            codes.append([
                cli.main([command, "--graph", str(hosts / f"host{i}.edges"), *FLAGS,
                          "--out", str(out / f"{command}{i}.json")])
                for command in COMMANDS
            ])
    (out / "codes.json").write_text(json.dumps(codes))


def spawn(tree: Path, hosts: Path, out: Path, count: int) -> None:
    """``run_tree`` in a fresh interpreter that imports ``tree``'s package."""
    src = (tree / "src").resolve()
    code = ("import sys, broomlab, compare_outputs; from pathlib import Path; "
            f"assert Path(broomlab.__file__).resolve().parent == Path({str(src)!r}, 'broomlab'); "
            "compare_outputs.run_tree(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]))")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")])}
    subprocess.run([sys.executable, "-c", code, str(hosts), str(out), str(count)],
                   env=env, check=True)


def outputs(out: Path, count: int) -> list[tuple]:
    """Per host, its exit codes and output bytes (None for a missing file)."""
    codes = json.loads((out / "codes.json").read_text())
    files = [[out / f"{command}{i}.json" for command in COMMANDS] for i in range(count)]
    return [(codes[i], [f.read_bytes() if f.exists() else None for f in files[i]])
            for i in range(count)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref_dir", type=Path)
    ap.add_argument("--hosts", type=int, default=200)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_hosts(work / "hosts", args.hosts)
        spawn(ROOT, work / "hosts", work / "ours", args.hosts)
        spawn(args.ref_dir, work / "hosts", work / "ref", args.hosts)
        pairs = zip(outputs(work / "ours", args.hosts), outputs(work / "ref", args.hosts))
        differ = [i for i, (ours, ref) in enumerate(pairs) if ours != ref]
    for i in differ:
        print(f"host{i}: outputs differ")
    print(f"{len(differ)} of {args.hosts} hosts differ from {args.ref_dir}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads and the measuring loop of one benchmark process.

Each workload builds its inputs in ``__init__`` (that is the set-up that
``setup_s`` times, together with importing broomlab) and exposes
``ops``: one entry per operation of a pass, as ``(label, run, check)``.
``run()`` returns ``(seconds, output)`` and times only the library's
work; ``check(output)`` returns ``(failed, problems)`` and is never
timed.  Every pass runs the same operations in the same order.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
REFERENCES = HERE / "references.json"

# pipeline_mix: hosts from the acceptance mix, at the acceptance parameters.
PIPELINE_HOSTS = 500
PIPELINE_FLAGS = ["--delta", "1", "--tau", "1", "--alpha", "1",
                  "--beta", "2", "--zeta", "2", "--eta", "1"]

# exact_survey: fixed instances, (role, n, p, graph seed).  Their
# references take minutes to compute (build_refs.py), so they do not
# depend on --seed; the seed orders the operations of a pass.
EXACT_SURVEY = (
    [("dense", n, 0.5, s) for n, s in ((48, 1), (50, 2), (52, 3), (54, 4), (56, 5), (58, 6))]
    + [("tree", n, 0.3, s) for n, s in ((32, 1), (34, 2), (36, 3), (38, 4))]
    + [("sparse", n, 0.1, s) for n, s in ((40, 1), (44, 2), (48, 3), (52, 4), (56, 5))]
)

# constants_grid: the acceptance grid (delta, tau, beta) up to (2, 1, 2).
CONSTANTS_GRID = [
    (d, t, b) for d in (1, 2) for t in (0, 1, 2) for b in (2, 3) if (d, t, b) <= (2, 1, 2)
]


def instance_id(role: str, n: int, seed: int) -> str:
    return f"{role}-{n}-{seed}"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PipelineMix:
    """``broomlab pipeline`` in-process, once per acceptance-mix host."""

    def __init__(self, seed: int):
        from broomlab import cli
        from broomlab.suites import _pipeline_instances

        self.cli = cli
        self.sink = open(os.devnull, "w")
        out = OUT / "pipeline_mix"
        out.mkdir(parents=True, exist_ok=True)
        self.digests: dict[int, str] = {}
        self.ops = []
        for i, (name, g) in enumerate(_pipeline_instances(PIPELINE_HOSTS, seed)):
            edges = g.sorted_edges()
            graph_file = out / f"host{i}.edges"
            graph_file.write_text(f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            trace_file = out / f"host{i}.json"
            argv = ["pipeline", "--graph", str(graph_file), *PIPELINE_FLAGS, "--out", str(trace_file)]
            adj = checks.adjacency(g.n, edges)
            self.ops.append((
                name,
                lambda argv=argv: self._run(argv),
                lambda code, i=i, adj=adj, f=trace_file: self._check(code, i, adj, f),
            ))

    def _run(self, argv):
        with contextlib.redirect_stderr(self.sink):  # the command's timing line
            start = time.perf_counter()
            code = self.cli.main(argv)
            return time.perf_counter() - start, code

    def _check(self, code, i, adj, trace_file: Path):
        if code != 0:
            return True, []
        digest = _digest(trace_file)
        if i in self.digests:
            same = digest == self.digests[i]
            return False, [] if same else ["output bytes differ between passes"]
        self.digests[i] = digest
        trace = json.loads(trace_file.read_text())["trace"]
        problems = []
        for t in trace["stages"][-1]["array"]["templates"]:
            problems += checks.check_core(adj, t["core_parts"], 2, 2)
        if not trace["leftover_core_free"]:
            problems.append("leftover reported to contain a core")
        c4 = checks.find_induced_c4(adj, trace["leftover"])
        if c4 is not None:
            problems.append(f"leftover contains the (2,2)-core {c4}")
        return False, problems


class ExactSurvey:
    """The queries of ``survey`` and ``analyze``, through the library's
    public functions, checked against stored references."""

    def __init__(self, seed: int):
        from broomlab import graphs, solvers, trees

        self.solvers, self.trees = solvers, trees
        refs = json.loads(REFERENCES.read_text())["exact_survey"]
        self.ops = []
        for role, n, p, s in EXACT_SURVEY:
            ref = refs[instance_id(role, n, s)]
            edges = checks.gnp(n, p, s)
            if checks.graph_digest(n, edges) != ref["digest"]:
                raise SystemExit(f"references.json is stale for {instance_id(role, n, s)}")
            g = graphs.Graph(n, edges)
            adj = checks.adjacency(n, edges)
            if role == "dense":
                self._add(f"omega {n}", lambda g=g: solvers.clique_number(g),
                          lambda out, adj=adj, ref=ref: self._check_omega(out, adj, ref["omega"]))
                self._add(f"chi {n}", lambda g=g: solvers.chromatic_number(g),
                          lambda out, adj=adj, ref=ref: self._check_chi(out, adj, ref["chi"]))
            elif role == "tree":
                for delta in (2, 1):
                    self._add(f"t_free d{delta} {n}",
                              lambda g=g, d=delta: trees.is_T_delta_free(g, d),
                              lambda out, g=g, adj=adj, d=delta, ref=ref:
                                  self._check_t_free(out, g, adj, d, ref["t_free"][str(d)]))
            else:
                self._add(f"chi_local {n}", lambda g=g: solvers.chi_local(g, 2),
                          lambda out, ref=ref: (False, [] if out == ref["chi_local_2"] else
                                                [f"chi_local {out} != reference {ref['chi_local_2']}"]))

    def _add(self, label, call, check):
        def run():
            start = time.perf_counter()
            out = call()
            return time.perf_counter() - start, out

        self.ops.append((label, run, check))

    @staticmethod
    def _check_omega(out, adj, omega):
        size, clique = out
        problems = checks.check_clique(adj, clique)
        if len(clique) != size:
            problems.append(f"omega {size} but witness has {len(clique)} vertices")
        if size > omega:
            problems.append(f"omega {size} above the reference {omega}")
        return size < omega, problems

    @staticmethod
    def _check_chi(out, adj, chi):
        value, coloring = out
        problems = [] if value == chi else [f"chi {value} != reference {chi}"]
        return False, problems + checks.check_coloring(adj, coloring.colors, coloring.palette_size, chi)

    def _check_t_free(self, free, g, adj, delta, want):
        if free != want:
            return False, [f"T({delta})-free is {free}, reference says {want}"]
        if free:
            return False, []
        emb = self.trees.contains_induced(g, self.trees.build_T(delta))
        if emb is None:
            return False, [f"no T({delta}) witness behind the 'found' verdict"]
        return False, checks.check_induced_tree(adj, emb.host_vertices(), delta)


class ConstantsGrid:
    """``broomlab constants`` in-process, then ``reevaluate``, per grid point."""

    def __init__(self, seed: int):
        from broomlab import cli, constants
        from broomlab.structures import Params

        self.cli, self.constants = cli, constants
        self.max_entry_bits = 0
        out = OUT / "constants_grid"
        out.mkdir(parents=True, exist_ok=True)
        self.digests: dict[tuple, str] = {}
        self.ops = []
        for d, t, b in CONSTANTS_GRID:
            params = Params.with_minimal_sides(delta=d, tau=t, beta=b)
            path = out / f"ledger_{d}_{t}_{b}.json"
            argv = ["constants", "--delta", str(d), "--tau", str(t), "--beta", str(b),
                    "--out", str(path)]
            self.ops.append((
                f"constants {d} {t} {b}",
                lambda argv=argv, params=params, path=path: self._run(argv, params, path),
                lambda out, key=(d, t, b), path=path: self._check(out, key, path),
            ))

    def _run(self, argv, params, path: Path):
        start = time.perf_counter()
        code = self.cli.main(argv)
        cli_seconds = time.perf_counter() - start
        if code != 0:
            return cli_seconds, (code, None, None)
        # reevaluate reads only the parameters and the formula strings, so
        # the ledger is rebuilt from the command's output as a reader of
        # the file would; the values stay 0.
        doc = json.loads(path.read_text())
        lg = self.constants.ConstantsLedger(params=params, entries=tuple(
            self.constants.LedgerEntry(key=e["key"], value=0, rule=e["rule"], formula=e["formula"])
            for e in doc["entries"]))
        start = time.perf_counter()
        values = self.constants.reevaluate(lg)
        return cli_seconds + time.perf_counter() - start, (code, doc, values)

    def _check(self, out, key, path: Path):
        code, doc, values = out
        if code != 0:
            return True, []
        self.max_entry_bits = max(self.max_entry_bits, *(v.bit_length() for v in values.values()))
        digest = _digest(path)
        if key in self.digests:
            return False, [] if digest == self.digests[key] else ["output bytes differ between passes"]
        self.digests[key] = digest
        return False, checks.check_ledger(doc["params"], doc["entries"], values)


WORKLOADS = {"pipeline_mix": PipelineMix, "exact_survey": ExactSurvey,
             "constants_grid": ConstantsGrid}

# Per-layer metrics: name -> (unit, value from one traced pass).
PER_LAYER = {
    "graph_io.read_graph_ms": ("ms", lambda s, c: 1e3 * s["graph_io.read_graph"]),
    "cli.render_ms": ("ms", lambda s, c: 1e3 * (s["cli.main"] - s["graph_io.read_graph"]
                                                - s["cli.library"])),
    **{f"pipeline.{stage}_s": ("s", lambda s, c, k=f"pipeline.{stage}": s[k])
       for stage in ("extract", "clean1", "clean2", "privatize", "clean3", "leftover_core",
                     "shadow", "audit", "strong_triples", "validate")},
    "structures.find_core_calls": ("count", lambda s, c: c["structures.find_core"]),
    "structures.find_core_s": ("s", lambda s, c: s["structures.find_core"]),
    "templates.cleanliness_holds_calls": ("count", lambda s, c: c["templates.cleanliness_holds"]),
    "templates.cleanliness_holds_s": ("s", lambda s, c: s["templates.cleanliness_holds"]),
    "solvers.clique_number_calls": ("count", lambda s, c: c["solvers.clique_number"]),
    "solvers.clique_number_s": ("s", lambda s, c: s["solvers.clique_number"]),
    "solvers.chromatic_number_calls": ("count", lambda s, c: c["solvers.chromatic_number"]),
    "solvers.chromatic_number_s": ("s", lambda s, c: s["solvers.chromatic_number"]),
    "solvers.chi_local_s": ("s", lambda s, c: s["solvers.chi_local"]),
    "trees.is_T_delta_free_calls": ("count", lambda s, c: c["trees.is_T_delta_free"]),
    "trees.t_free_d1_s": ("s", lambda s, c: s["trees.t_free_d1"]),
    "trees.t_free_d2_s": ("s", lambda s, c: s["trees.t_free_d2"]),
    "constants.ledger_s": ("s", lambda s, c: s["constants.ledger"]),
    "constants.to_json_s": ("s", lambda s, c: s["constants.to_json"]),
    "constants.reevaluate_s": ("s", lambda s, c: s["constants.reevaluate"]),
}


def run_pass(workload, tracer: Tracer | None) -> dict:
    """One pass over the workload's operations; checks are not timed."""
    if tracer is not None:
        tracer.reset()
    times, failed, problems = [], [], []
    for label, run, check in workload.ops:
        if tracer is not None:
            tracer.recording = True
        try:
            seconds, out = run()
        except Exception:  # a failed operation; the run goes on
            traceback.print_exc()
            failed.append(label)
            continue
        finally:
            if tracer is not None:
                tracer.recording = False
        times.append(seconds)
        op_failed, op_problems = check(out)
        if op_failed:
            failed.append(label)
        problems += [f"{label}: {p}" for p in op_problems]
    layers = {}
    if tracer is not None:
        layers = {name: fn(tracer.seconds, tracer.calls) for name, (_, fn) in PER_LAYER.items()}
    return {"times": times, "wall": sum(times), "failed": failed, "problems": problems,
            "layers": layers}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Untraced passes for ``seconds`` (half of it when tracing), then
    traced passes for the rest; always at least one pass of each."""
    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    untraced, traced = [], []
    while not untraced or time.perf_counter() < untraced_until:
        untraced.append(run_pass(workload, None))
    if trace:
        tracer = Tracer()
        tracer.install()
        while not traced or time.perf_counter() < start + seconds:
            traced.append(run_pass(workload, tracer))
    passes = untraced + traced
    problems = sorted({p for pr in passes for p in pr["problems"]})
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    if passes[0]["failed"]:
        print(f"failed per pass: {len(passes[0]['failed'])} of {len(workload.ops)} "
              f"({', '.join(sorted(passes[0]['failed']))})", file=sys.stderr)
    if trace:
        metrics = {name: _metric(statistics.median(pr["layers"][name] for pr in traced), unit)
                   for name, (unit, _) in PER_LAYER.items()}
        metrics["constants.max_entry_bits"] = _metric(getattr(workload, "max_entry_bits", 0), "bits")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(pr["wall"] for pr in traced)
            - statistics.median(pr["wall"] for pr in untraced), "s")
    else:
        metrics = {
            "wall_s": _metric(statistics.median(pr["wall"] for pr in untraced), "s"),
            "op_ms_p50": _metric(1e3 * statistics.median(
                statistics.median(pr["times"]) for pr in untraced), "ms"),
            "op_ms_p90": _metric(1e3 * statistics.median(
                statistics.quantiles(pr["times"], n=10, method="inclusive")[8]
                for pr in untraced), "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
    return {
        "correct": not problems,
        "attempted": len(passes) * len(workload.ops),
        "failed": sum(len(pr["failed"]) for pr in passes),
        "metrics": metrics,
    }


def main(workload_name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    """Set up (timed from before broomlab is imported), then measure."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[workload_name](seed)
    random.Random(seed).shuffle(workload.ops)
    setup_s = time.perf_counter() - start
    if setup_only:
        return {"setup_s": setup_s}
    gc.collect()
    gc.freeze()  # the benchmark's own inputs stay out of the collector's way
    result = measure(workload, seconds, trace)
    result["setup_s"] = setup_s
    return result

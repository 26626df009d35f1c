"""Command-line interface.

Subcommands: gen, analyze, pipeline, audit, lemma-check, constants,
survey.  All output files are deterministic for fixed inputs and seeds;
timing diagnostics go to stderr only, never into the artifact.  Exit
codes: 0 success, 2 parse or parameter error (an input file that cannot
be read or an output file that cannot be written included), 3
exact-solver refusal, 4 property-suite failure.

Each subcommand imports the modules it runs when it runs, so a light
one starts fast: ``constants`` loads ``cli``, ``constants``,
``structures``, ``solvers``, ``graphs`` and ``bignum`` (which renders
the ledger's decimals), and no pipeline, suite or containment code.

An existing ``--out`` file is overwritten in place and cut to the new
length, not truncated first; devices and FIFOs are not truncated.  A
write interrupted midway can leave new bytes followed by old ones, where
truncating first would have left a short file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import stat
import sys
import time
from json.encoder import INFINITY, encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .constants import ledger
from .solvers import (
    InstanceTooLarge, _chromatic_given_omega, chi_local, clique_number, solving,
)
from .structures import Params, ThetaTable, find_core

if TYPE_CHECKING:
    from .graphs import Graph
    from .pipeline import PipelineTrace


def run_pipeline(g: Graph, p: Params) -> PipelineTrace:
    """``pipeline.run_pipeline``, whose module is imported on the first call.

    perfbench's tracer times the library behind ``pipeline`` and
    ``audit`` through this name in ``cli``; the shim goes when the
    tracer stops wrapping bound names (ROADMAP item 6).
    """
    from . import pipeline

    return pipeline.run_pipeline(g, p)


def _params_from_args(args) -> Params:
    theta = ThetaTable(tuple(args.theta)) if args.theta else None
    p = Params.with_minimal_sides(
        delta=args.delta, tau=args.tau, alpha=args.alpha, beta=args.beta,
        theta=theta, eta=args.eta,
    )
    return p if args.zeta is None else dataclasses.replace(p, zeta=args.zeta)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=int, default=1)
    sub.add_argument("--tau", type=int, default=1)
    sub.add_argument("--alpha", type=int, default=1)
    sub.add_argument("--beta", type=int, default=2)
    sub.add_argument("--zeta", type=int, default=None,
                     help="default: max(eta, alpha) + delta")
    sub.add_argument("--eta", type=int, default=None,
                     help="default: max(1, delta)")
    sub.add_argument("--theta", type=int, nargs="+", default=None,
                     help="finite non-decreasing table for the core threshold")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is empty.

    An existing file is overwritten in place and then cut to the new
    length, where opening with ``O_TRUNC`` would first free its blocks:
    reruns rewrite the same paths, and freeing and reallocating cost
    several times the write.  Devices and FIFOs are not truncated
    (``O_TRUNC`` never applied to them either).  A write interrupted
    midway can leave new bytes followed by old ones, where truncating
    first would have left a short file.  The bytes and a new file's mode
    are those of ``Path.write_text(text, newline="")``: the locale
    encoding, newlines untranslated, 0o666 less the umask.
    """
    if not out:
        sys.stdout.write(text)
        return
    # Path() drops a trailing slash: "dir/" is reported as "dir", "new/" creates "new".
    fd = os.open(Path(out), os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def _scalar(x) -> str:
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        try:
            return int.__repr__(x)
        except ValueError:  # over the int-to-str digit limit
            from .bignum import decimal_string

            return "-" * (x < 0) + decimal_string(abs(x))
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == INFINITY:
            return "Infinity"
        if x == -INFINITY:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def render_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    json's encoder falls back to pure Python whenever it indents (before
    Python 3.13); this renderer joins whole containers instead of
    yielding one token at a time.  Dict items are sorted by their
    original keys before the keys become strings, as ``sort_keys`` does,
    so int keys sort numerically and mixed key types raise TypeError.
    ``pad`` is the newline and indentation of the enclosing level.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return (
            "[" + inner
            + ("," + inner).join([render_json(x, inner) for x in obj])
            + pad + "]"
        )
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return (
            "{" + inner
            + ("," + inner).join([
                encode_basestring_ascii(_key(k)) + ": " + render_json(v, inner)
                for k, v in sorted(obj.items())
            ])
            + pad + "}"
        )
    return _scalar(obj)


def _dump(payload: dict, out: str | None) -> None:
    _emit(render_json(payload) + "\n", out)


def _load(args) -> tuple[Graph, Params, dict]:
    """The graph and params of a command that reads a graph, and the
    ``tool``/``instance`` head its payload starts with."""
    from .graph_io import read_graph

    g = read_graph(args.graph, args.format)
    head = {
        "tool": {"name": "broomlab", "version": __version__},
        "instance": {"graph": str(args.graph), "n": g.n, "m": g.m},
    }
    return g, _params_from_args(args), head


def _json_object(value, name: str) -> dict:
    """``value``, which must be a JSON object; ``name`` is the field it
    was read from."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {json.dumps(value)}")
    return value


def _solver_limit(args) -> int | None:
    """``--solver-limit`` (None for a command without it), refused when
    below 0 before any work starts."""
    limit = getattr(args, "solver_limit", None)
    if limit is not None and limit < 0:
        raise ValueError(f"--solver-limit must be at least 0, not {limit}")
    return limit


def _tag(value) -> dict:
    return {"value": value, "provenance": "exact"}


def cmd_gen(args) -> int:
    from .generators import GenSpec, generate
    from .graph_io import render_graph

    params = _json_object(json.loads(args.params), "--params") if args.params else {}
    spec = GenSpec(family=args.family, params=params, seed=args.seed)
    g = generate(spec)
    fmt = args.format or ("dimacs" if args.out and args.out.endswith(".col") else "edgelist")
    _emit(render_graph(g, fmt), args.out)
    return 0


def cmd_analyze(args) -> int:
    from .trees import is_T_delta_free

    g, p, head = _load(args)
    omega, omega_witness = clique_number(g)
    chi, _ = _chromatic_given_omega(g, omega)
    chi1 = chi_local(g, 1) if g.n else 0
    chi2 = chi_local(g, 2) if g.n else 0
    t_free = is_T_delta_free(g, p.delta)
    best_core = None
    a = 1
    while a * p.beta <= g.n:
        found = find_core(g, a, p.beta)
        if found is None:
            break
        best_core = {"a": a, "b": p.beta, "parts": [sorted(x) for x in found.parts]}
        a += 1
    report = {
        **head,
        "params": p.as_dict(),
        "results": {
            "omega": _tag(omega),
            "omega_witness": sorted(omega_witness),
            "chi": _tag(chi),
            "chi_ball_1": _tag(chi1),
            "chi_ball_2": _tag(chi2),
            "t_free": _tag(t_free),
            "best_core": best_core,
        },
    }
    _dump(report, args.out)
    return 0


def cmd_pipeline(args) -> int:
    g, p, head = _load(args)
    started = time.perf_counter()
    trace = run_pipeline(g, p)
    elapsed = time.perf_counter() - started
    print(f"pipeline completed in {elapsed:.3f}s", file=sys.stderr)
    payload = {**head, "params": p.as_dict(), "trace": trace.to_json_dict()}
    _dump(payload, args.out)
    return 0


def cmd_audit(args) -> int:
    g, p, head = _load(args)
    trace = run_pipeline(g, p)
    payload = {
        **head,
        "audit": trace.audit.to_json_dict(),
        "strong_triples": trace.strong_triples.to_json_dict(),
        "leftover_core_free": trace.leftover_core_free,
    }
    _dump(payload, args.out)
    return 0


def cmd_lemma_check(args) -> int:
    from .suites import run_suite

    result = run_suite(args.suite, trials=args.trials, seed=args.seed)
    print(
        f"suite {args.suite}: {result.trials} trials, "
        f"{len(result.failures)} failures in {result.elapsed:.3f}s",
        file=sys.stderr,
    )
    payload = {
        "tool": {"name": "broomlab", "version": __version__},
        "seed": args.seed,
        **result.to_json_dict(),
    }
    _dump(payload, args.out)
    return 0 if result.ok else 4


def cmd_constants(args) -> int:
    p = _params_from_args(args)
    lg = ledger(p)
    _dump(lg.to_json_dict(), args.out)
    return 0


def cmd_survey(args) -> int:
    from .generators import GenSpec, _field, _string, generate
    from .trees import is_T_delta_free

    manifest = _json_object(json.loads(Path(args.manifest).read_text()), "the manifest")
    analysis = _json_object(manifest.get("analysis", {}), "analysis")
    delta = _field("analysis", analysis, "delta", int, 1)
    instances = _field("the manifest", manifest, "instances", lambda v: v)
    if not isinstance(instances, list):
        raise ValueError(f"instances must be a JSON array, not {json.dumps(instances)}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["id", "family", "n", "omega", "chi", "t_free", "error"])
    for i, inst in enumerate(instances):
        where = f"instances[{i}]"
        _json_object(inst, where)
        spec = GenSpec(
            family=_field(where, inst, "family", _string),
            params=_json_object(inst.get("params", {}), f"{where}.params"),
            seed=_field(where, inst, "seed", int, 0),
        )
        row_id = _field(where, inst, "id", _string, spec.key())
        try:
            g = generate(spec)
            omega, _ = clique_number(g)
            chi, _ = _chromatic_given_omega(g, omega)
            t_free = is_T_delta_free(g, delta)
            writer.writerow([row_id, spec.family, g.n, omega, chi, t_free, ""])
        except InstanceTooLarge as exc:
            writer.writerow([row_id, spec.family, "", "", "", "", str(exc)])
    _emit(buffer.getvalue(), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a parser can serve any
    number of ``parse_args`` calls, and building one takes milliseconds."""
    parser = argparse.ArgumentParser(
        prog="broomlab",
        description="Graph laboratory for multibroom containment, cores, "
        "template arrays, daisies, and exact bound audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen", help="generate a graph file")
    sub.add_argument("--family", required=True)
    sub.add_argument("--params", help="family parameters as a JSON object")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_gen)

    for name, fn in (
        ("analyze", cmd_analyze),
        ("pipeline", cmd_pipeline),
        ("audit", cmd_audit),
    ):
        sub = subs.add_parser(name)
        sub.add_argument("--graph", required=True)
        sub.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
        sub.add_argument("--solver-limit", type=int, default=None)
        sub.add_argument("--out")
        _add_param_flags(sub)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("lemma-check", help="run a named property suite")
    # No choices: argparse reads them when the argument is added, which
    # would import every suite; run_suite refuses an unknown name.
    sub.add_argument("--suite", required=True, metavar="SUITE",
                     help="an unknown name is refused with the known ones")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_lemma_check)

    sub = subs.add_parser("constants", help="emit the exact bound ledger")
    sub.add_argument("--out")
    _add_param_flags(sub)
    sub.set_defaults(fn=cmd_constants)

    sub = subs.add_parser("survey", help="sweep a manifest into CSV rows")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--solver-limit", type=int, default=None)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One search context for the command: every exact search in it
        # refuses above --solver-limit.
        with solving(_solver_limit(args)):
            return args.fn(args)
    except InstanceTooLarge as exc:
        _error({"type": "solver_refusal", "message": str(exc),
                "size": exc.size, "limit": exc.limit})
        return 3
    except (OSError, KeyError, ValueError) as exc:  # parse errors are ValueErrors
        _error({"type": type(exc).__name__, "message": str(exc)})
        return 2


def _error(payload: dict) -> None:
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

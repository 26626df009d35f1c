"""Edge-list and DIMACS col readers, and ``render_graph``, the one writer.

Canonical output sorts edges and uses LF line endings, so a render
followed by a read and a second render is byte-identical.  DIMACS is
1-indexed on the wire and converted to 0-indexed here, in one place.
"""

from __future__ import annotations

from pathlib import Path

from .graphs import Graph


class GraphParseError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _add_edge(
    parts: list[str], base: int, n: int, seen: dict, path: str, line_no: int
) -> None:
    """Check one edge line's endpoints, numbered from ``base`` in the
    file, and record the edge 0-based in ``seen`` with its line.  Every
    message names vertices as the file numbers them."""
    try:
        u, v = int(parts[0]) - base, int(parts[1]) - base
    except ValueError:
        raise GraphParseError(path, line_no, "edge endpoints must be integers")
    if u == v:
        raise GraphParseError(path, line_no, f"self-loop at {u + base}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphParseError(
            path, line_no, f"endpoint out of range {base}..{n - 1 + base}"
        )
    key = (min(u, v), max(u, v))
    if key in seen:
        raise GraphParseError(
            path, line_no, f"edge {u + base} {v + base} repeats line {seen[key]}"
        )
    seen[key] = line_no


def _parse_edgelist(text: str, path: str) -> Graph:
    n = None
    m = None
    seen: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise GraphParseError(path, line_no, "header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(path, line_no, "header must be integers")
            continue
        if len(parts) != 2:
            raise GraphParseError(path, line_no, "edge line must be 'u v'")
        _add_edge(parts, 0, n, seen, path, line_no)
    if n is None:
        raise GraphParseError(path, 1, "missing 'n m' header")
    if len(seen) != m:
        raise GraphParseError(
            path, 1, f"header promises {m} edges, file has {len(seen)}"
        )
    return Graph(n, seen)


def _parse_dimacs(text: str, path: str) -> Graph:
    n = None
    seen: dict[tuple[int, int], int] = {}
    declared = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphParseError(path, line_no, "problem line must be 'p edge N M'")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(path, line_no, "problem line must carry integers")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(path, line_no, "edge before problem line")
            if len(parts) != 3:
                raise GraphParseError(path, line_no, "edge line must be 'e u v'")
            _add_edge(parts[1:], 1, n, seen, path, line_no)
        else:
            raise GraphParseError(path, line_no, f"unknown record {parts[0]!r}")
    if n is None:
        raise GraphParseError(path, 1, "missing problem line")
    g = Graph(n, seen)
    if g.m != declared:
        raise GraphParseError(
            path, 1, f"problem line promises {declared} edges, file has {g.m}"
        )
    return g


def read_graph(path: str | Path, fmt: str | None = None) -> Graph:
    p = Path(path)
    text = p.read_text()
    kind = fmt or ("dimacs" if p.suffix == ".col" else "edgelist")
    if kind == "dimacs":
        return _parse_dimacs(text, str(p))
    if kind == "edgelist":
        return _parse_edgelist(text, str(p))
    raise ValueError(f"unknown format {kind!r}")


def render_graph(g: Graph, fmt: str = "edgelist") -> str:
    edges = g.sorted_edges()
    if fmt == "edgelist":
        lines = [f"{g.n} {len(edges)}"]
        lines += [f"{u} {v}" for u, v in edges]
        return "\n".join(lines) + "\n"
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {len(edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")

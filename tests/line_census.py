"""Line census of tier-1: which lines of ``src/broomlab`` no test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, then prints, per ``src/broomlab`` module, its executable lines
(those that start bytecode), how many of them never ran and where they
are.  The last line is the total.  It reports and gates nothing: the
exit status is 0 whatever the tests do, and pytest's own status is
printed with the total.

``tests/test_reference_cycles.py`` is left out: it asserts that no
reference cycles are left for the collector, and a trace function keeps
frames alive that the untraced run frees.  Tier-1 still runs that file
as it is.

Run from anywhere, with the test dependencies installed:

    python tests/line_census.py
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "broomlab"

# Lines seen per broomlab file, and each file name's verdict: is it ours?
_hits: dict[str, set[int]] = defaultdict(set)
_ours: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
    return _line if ours else None


def executable_lines(path: Path) -> set[int]:
    """The lines that start bytecode in ``path`` or in any code object
    nested in it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # Line 0 (or None) marks set-up code, such as a module's first RESUME.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as runs: ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main([
            "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore", "tests/test_reference_cycles.py",
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[Path, set[int]] = defaultdict(set)
    for name, lines in _hits.items():
        ran[Path(os.path.realpath(name))] |= lines
    total = never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran[path])
        total += len(lines)
        never += len(missed)
        print(f"{path.name:16} {len(lines):5} executable {len(missed):4} never run"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"src/broomlab: {never} of {total} executable lines never ran in tier-1 "
          f"without test_reference_cycles.py (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

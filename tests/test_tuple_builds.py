"""No library module builds a tuple from an iterator of unknown length.

``tuple(<generator>)`` and ``tuple(map|filter|zip(...))`` allocate the
tuple at a guessed length and shrink it, so a freed one goes back to the
free list of another size; over hundreds of pipeline runs those lists
hold megabytes.  ``tuple([...])`` is allocated at its final size.
``oracles.py`` is reference code and is left as written.
"""

import ast

from test_unused_imports import SRC, walk

UNSIZED = {"map", "filter", "zip"}


def _named_call(node, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def unsized_tuples(source: str) -> list[int]:
    return sorted(
        node.lineno
        for node in walk(source)
        if _named_call(node, {"tuple"}) and len(node.args) == 1
        and (isinstance(node.args[0], ast.GeneratorExp) or _named_call(node.args[0], UNSIZED))
    )


def test_no_module_builds_a_tuple_of_unknown_length():
    assert unsized_tuples(
        "a = tuple(x for x in y)\nb = tuple([x for x in y])\n"
        "c = tuple(map(f, y))\nd = tuple(zip(y, z))\ne = tuple(sorted(y))\n"
        "f = tuple(filter(None, y))\n"
    ) == [1, 3, 4, 6]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "oracles.py"
        for line in unsized_tuples(path.read_text())
    ]
    assert found == []

"""No library module imports a name it never uses.

A deletion that leaves its last import behind (``json`` once the only
``json.dumps`` goes) fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "broomlab"


def walk(source: str):
    """Every node of ``source``'s syntax tree, and the strings some
    nodes list (``global`` names).  A plain stack walk: ``ast.walk``
    would cost about twice as long."""
    stack: list = [ast.parse(source)]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.AST):
            for field in node._fields:
                value = getattr(node, field)
                if isinstance(value, list):
                    stack.extend(value)
                elif isinstance(value, ast.AST):
                    stack.append(value)


def unused_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in walk(source):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_module_imports_an_unused_name():
    assert unused_imports("import json\nimport os\nos.sep\n") == ["line 1: json"]
    assert unused_imports("from a import b as c\nc()\n") == []
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        for names in [unused_imports(path.read_text())]
        if names
    }
    assert found == {}

"""Every module under ``src/headspan`` uses each name it imports.

No linter ships with the package, so this stands in for pyflakes' F401.
An import whose lines carry ``# noqa: F401`` is exempt: it binds a name
for callers that look it up on the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "headspan"


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or any("# noqa: F401" in line for line in
                       lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Parts" or "LinearModel"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in
            sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from a import (\n    b,  # noqa: F401\n)\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f() -> 'list[B]': pass\n", []),
])
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused

"""Every name an import binds is read somewhere in its module.

Walks each module of the package and of the tests with the stdlib ast: a
name bound by import or from-import (``__future__`` aside) must appear as a
loaded Name in the same module, so a rule moved elsewhere leaves no stale
import behind.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/shopfloor/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [(line, name) for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert {"model.py", "conftest.py"} <= {path.name for path in MODULES}
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path)
    ]
    assert unused == []


def test_an_unread_import_is_reported(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "load('1')\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os"), (3, "dumps")]

"""Every name an import binds is read somewhere in its module, and every
module-level name of the package is read somewhere.

Walks each module of the package and of the tests with the stdlib ast: a
name bound by import or from-import (``__future__`` aside) must appear as a
loaded Name in the same module, so a rule moved elsewhere leaves no stale
import behind; a function, class or variable that a package module defines
at its top level (dunders aside) must be read, as a loaded name, an
attribute or a from-import, by some module of the package or the tests, or,
for a public name, of perfbench, so a helper whose last caller went does
not stay.
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


def top_level_names(path: Path) -> dict[str, int]:
    """Each name the module binds at its top level, dunders aside, with its line."""
    defined: dict[str, int] = {}
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    return defined


def names_read(path: Path) -> set[str]:
    """Every name the module loads, reads as an attribute or imports."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(
    defining: list[Path], reading: list[Path], private: bool
) -> list[tuple[Path, int, str]]:
    """(module, line, name) of each private name (public when private is
    False) a defining module binds at its top level that no reading module
    reads."""
    read = set().union(*map(names_read, reading))
    return [
        (path, line, name)
        for path in defining
        for name, line in top_level_names(path).items()
        if name.startswith("_") == private and name not in read
    ]


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


def test_every_private_name_of_the_package_is_read():
    package = [path for path in MODULES if path.parent.name == "shopfloor"]
    assert {"executor.py", "model.py"} <= {path.name for path in package}
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in unread_names(package, MODULES, private=True)
    ]
    assert unread == []


def test_every_public_name_of_the_package_is_read():
    package = [path for path in MODULES if path.parent.name == "shopfloor"]
    readers = [*MODULES, *ROOT.glob("perfbench/*.py")]
    assert "workloads.py" in {path.name for path in readers}
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in unread_names(package, readers, private=False)
    ]
    assert unread == []


def test_an_unread_private_name_is_reported(tmp_path):
    module, reader = tmp_path / "probe.py", tmp_path / "reader.py"
    module.write_text(
        "__all__ = ()\n"
        "_CALLS: dict = {}\n"
        "_left, _right = 1, 2\n"
        "def _helper(): return _right\n"
        "class _Stale: pass\n"
        "def public(): return _CALLS\n",
        encoding="utf-8",
    )
    reader.write_text("import probe\nprobe._helper()\n", encoding="utf-8")
    assert unread_names([module], [module, reader], private=True) == [
        (module, 3, "_left"), (module, 5, "_Stale"),
    ]


def test_an_unread_public_name_is_reported(tmp_path):
    module, reader = tmp_path / "probe.py", tmp_path / "reader.py"
    module.write_text(
        "__version__ = '1'\n"
        "LIMIT, SPARE = 3, 4\n"
        "def run(): return _step()\n"
        "def _step(): return LIMIT\n"
        "def stale(): pass\n"
        "class Stale: pass\n",
        encoding="utf-8",
    )
    reader.write_text("from probe import run\nrun()\n", encoding="utf-8")
    assert unread_names([module], [module, reader], private=False) == [
        (module, 2, "SPARE"), (module, 5, "stale"), (module, 6, "Stale"),
    ]

"""The package holds the library only, and its surface is what the README says."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import qcsense

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcsense"
TEST_ONLY = {"oracles", "fractions", "hypothesis"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_imports_no_test_code():
    found = {p.name: imported_modules(p) & TEST_ONLY for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_every_exported_name_resolves():
    missing = [name for name in qcsense.__all__ if not hasattr(qcsense, name)]
    assert missing == []
    assert len(set(qcsense.__all__)) == len(qcsense.__all__)


def test_readme_layout_lists_the_modules():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Repository layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    # the indented lines under src/qcsense/, up to the next top-level entry
    entries = re.search(r"^src/qcsense/\n((?:  .*\n)*)", block, re.M).group(1)
    listed = [line.split()[0] for line in entries.splitlines()]
    assert sorted(listed) == sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names one file imports and never reads, apart from those in its
    `__all__` and `from __future__` imports."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_every_import_is_used():
    dirs = (PACKAGE, ROOT / "tests", ROOT / "tests" / "oracles", ROOT / "scripts")
    found = {str(p.relative_to(ROOT)): unused_imports(p) for d in dirs for p in sorted(d.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names one package module imports from another
    (dunder names such as __version__ excepted)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qcsense")):
            found += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name():
    found = {p.name: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}

"""Every name the package exports has a user.

A name that ``cylbill/__init__.py`` re-exports or that a module lists in
``__all__`` passes if the package reads it outside its own definition, if
the benchmark under ``cylbench/`` reads it (the traced pass binds names by
string, so string constants count there), or if README mentions it in
backticks.  A name that only tests call belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cylbill"
BENCHMARK = ROOT / "cylbench"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def exported() -> dict[str, set[str]]:
    """Each exported name, with the modules that export it."""
    names: dict[str, set[str]] = {}
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                names.setdefault(alias.asname or alias.name,
                                 set()).add(node.module)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                for entry in node.value.elts:
                    names.setdefault(entry.value, set()).add(path.stem)
    return names


def references(path: Path, strings: bool = False) -> set[str]:
    """Names a module reads, as identifiers or attributes, except inside a
    function or class of the same name; with ``strings``, also a string
    constant naming one (``"w_plus"`` or ``"paths.w_plus"``).  Imports,
    assignments and ``__all__`` entries are not reads."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            name = node.value.rpartition(".")[2]
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(_parse(path), frozenset())
    return found


def readme_mentions() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in IDENTIFIER.findall(span)}


def test_every_exported_name_has_a_user():
    used = readme_mentions()
    for path in PACKAGE.glob("*.py"):
        used |= references(path)
    for path in BENCHMARK.glob("*.py"):
        used |= references(path, strings=True)
    unused = {name: sorted(modules) for name, modules in exported().items()
              if name not in used}
    assert unused == {}


def test_the_walk_sees_every_module():
    names = exported()
    assert {module for modules in names.values() for module in modules} >= {
        "builders", "classify", "errors", "fileio", "geometry", "intlat",
        "model", "paths", "torusflow"}
    assert "trace" in names and "__all__" not in names

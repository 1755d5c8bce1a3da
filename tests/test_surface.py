"""Every name the package exports has a user.

A name that ``cylbill/__init__.py`` re-exports or that a module lists in
``__all__`` passes if the package reads it outside its own definition, if
the benchmark under ``cylbench/`` reads it from the package (an attribute
of a name imported from ``cylbill``, or a string constant, since the
traced pass binds names by string), or if README mentions it in
backticks.  A name that only tests call belongs in ``tests/``.  So does a
private module-level function, class or constant that the package itself
never reads.

Likewise every keyword parameter of an exported function, one with a
default or keyword-only, is passed by its name somewhere in the package or
the benchmark: a value that only tests set is a constant.
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


def references(path: Path) -> set[str]:
    """Names a module reads, as identifiers or attributes, except inside a
    function or class of the same name.  Imports, assignments and
    ``__all__`` entries are not reads."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(_parse(path), frozenset())
    return found


def benchmark_references(path: Path) -> set[str]:
    """Names a benchmark module reads from the package: an attribute of a
    name it imports from ``cylbill`` (``tf.flow``, ``paths.trace``), or a
    string constant naming one (``"w_plus"`` or ``"paths.w_plus"``).  An
    attribute of anything else, such as ``json.loads`` or
    ``np.linalg.matrix_rank``, is not a read."""
    tree = _parse(path)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").partition(".")[0] == "cylbill":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.asname or "cylbill" for a in node.names
                         if a.name.partition(".")[0] == "cylbill"}
    found: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rpartition(".")[2])
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
        used |= benchmark_references(path)
    unused = {name: sorted(modules) for name, modules in exported().items()
              if name not in used}
    assert unused == {}


def private_definitions() -> dict[str, set[str]]:
    """Each private module-level function, class or constant, with the
    modules that define it."""
    names: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__"):
                    names.setdefault(name, set()).add(path.stem)
    return names


def test_every_private_helper_has_a_user():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        used |= references(path)
    unused = {name: sorted(modules)
              for name, modules in private_definitions().items()
              if name not in used}
    assert unused == {}


def keyword_parameters() -> dict[str, list[str]]:
    """The keyword parameters of each exported function, by
    ``module.function``."""
    names = exported()
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                found[f"{path.stem}.{node.name}"] = [
                    a.arg for a in defaulted + args.kwonlyargs]
    return found


def passed_by_name(path: Path) -> set[str]:
    """Keyword names a module passes in calls, with the string keys of a
    dict passed as ``**``: a dict literal, or the dict literals that a
    function of the same module returns."""
    tree = _parse(path)
    returned: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            returned[node.name] = {
                key.value for ret in ast.walk(node)
                if isinstance(ret, ast.Return)
                and isinstance(ret.value, ast.Dict)
                for key in ret.value.keys if isinstance(key, ast.Constant)}
    found: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            value = kw.value
            if kw.arg is not None:
                found.add(kw.arg)
            elif isinstance(value, ast.Dict):
                found |= {key.value for key in value.keys
                          if isinstance(key, ast.Constant)}
            elif isinstance(value, ast.Call):
                func = value.func
                name = getattr(func, "id", None) or getattr(func, "attr", "")
                found |= returned.get(name, set())
    return found


def test_every_keyword_parameter_is_set_outside_tests():
    passed: set[str] = set()
    for path in [*PACKAGE.glob("*.py"), *BENCHMARK.glob("*.py")]:
        passed |= passed_by_name(path)
    unset = {function: [p for p in params if p not in passed]
             for function, params in keyword_parameters().items()}
    assert {f: p for f, p in unset.items() if p} == {}


def test_the_knob_walk_sees_every_keyword_route():
    params = keyword_parameters()
    assert "seed" in params["torusflow.lyapunov_max"]    # keyword-only
    assert params["builders.direct_sum_system"] == [
        "translations", "lattice_basis"]
    # the CLI passes these two only through the dict of _directsum_params
    assert {"translations", "lattice_basis"} <= passed_by_name(
        PACKAGE / "cli.py")


def test_the_walk_sees_every_module():
    names = exported()
    assert {module for modules in names.values() for module in modules} >= {
        "builders", "classify", "errors", "fileio", "geometry", "intlat",
        "model", "paths", "torusflow"}
    assert "trace" in names and "__all__" not in names

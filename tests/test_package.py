"""The package namespace exports exactly the documented entry points."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bellbounds

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_entry_points():
    """Library names the README mentions: backticked bare identifiers
    (optionally called, as in `eta(...)`) and the names its example imports
    from ``bellbounds``, kept when a bellbounds submodule defines them."""
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", text))
    example = re.search(r"from bellbounds import \((.*?)\)", text, re.S)
    names |= set(re.findall(r"\w+", example.group(1)))
    modules = [
        importlib.import_module(f"bellbounds.{info.name}")
        for info in pkgutil.iter_modules(bellbounds.__path__)
    ]
    return {
        name
        for name in names
        for module in modules
        if getattr(vars(module).get(name), "__module__", None) == module.__name__
    }


def test_every_exported_name_resolves():
    assert len(set(bellbounds.__all__)) == len(bellbounds.__all__)
    for name in bellbounds.__all__:
        assert getattr(bellbounds, name) is not None


def test_every_readme_entry_point_is_exported():
    named = readme_entry_points()
    assert {"realize", "covariance_inequality", "verify_bounds_random"} <= named
    assert named <= set(bellbounds.__all__)


def test_no_unused_imports():
    """Every name a module imports is read somewhere in it as a plain name.

    ``__init__.py`` only re-exports, and ``__future__`` imports are
    directives, so both are skipped.
    """
    unused = []
    for path in sorted([*ROOT.glob("src/bellbounds/*.py"), *ROOT.glob("tests/*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used)]
    assert not unused


def _reads(tree) -> set:
    """Names a syntax tree reads: every loaded plain name and every attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def _source_trees() -> dict:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(ROOT.glob("src/bellbounds/*.py"))
    }
    assert trees
    return trees


def test_no_unread_private_names():
    """Every module-level private function, class or constant in
    ``src/bellbounds/`` is read somewhere in ``src/``, so a helper goes when
    its last caller does."""
    trees = _source_trees()
    read = set().union(*map(_reads, trees.values()))
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [
                f"{path.relative_to(ROOT)}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert not unread


def test_every_public_name_has_a_caller():
    """Every public module-level function or class in ``src/bellbounds/``,
    and every public method, is read in ``src/``, read in a benchmark module
    (whose span table names its targets as dotted strings), or exported in
    ``bellbounds.__all__``.  So library surface that only tests reach goes."""
    trees = _source_trees()
    read = set().union(*map(_reads, trees.values()))
    for path in ROOT.glob("benchmarks/*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _reads(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets
            ):
                read |= {
                    part for _, attribute, _ in ast.literal_eval(node.value)
                    for part in attribute.split(".")
                }
    read |= set(bellbounds.__all__)

    def public(body):
        return [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]

    unread = []
    for path, tree in trees.items():
        for node in public(tree.body):
            members = public(node.body) if isinstance(node, ast.ClassDef) else []
            unread += [
                f"{path.relative_to(ROOT)}: {name}"
                for name in [node.name, *(f"{node.name}.{m.name}" for m in members)]
                if name.rpartition(".")[2] not in read
            ]
    assert not unread


def test_every_oracle_has_a_caller():
    """Every top-level function in ``tests/oracles.py`` is read by a test or
    benchmark module, or by another oracle, so a reference goes when the
    check that uses it does.  The benchmarks load the oracles as a module,
    so attribute reads count."""
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    functions = [node for node in oracles.body if isinstance(node, ast.FunctionDef)]
    assert functions
    read = set()
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("benchmarks/*.py")]:
        if path.name != "oracles.py":
            read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    inside = {f.name: _reads(f) for f in functions}
    uncalled = [
        name
        for name in inside
        # a call from inside the function itself does not count
        if name not in read.union(*(r for other, r in inside.items() if other != name))
    ]
    assert not uncalled

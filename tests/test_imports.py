"""Static scan of the package and the tests: every imported name is used, and
every __all__ entry is bound."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gl2kisin").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    # name bound by each import in the module, at any depth
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _module_bindings(tree):
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def unused_imports(tree):
    """Imported names never referenced; a name re-exported through __all__
    counts as used."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(_imported(tree)) - used - _all_entries(tree))


def unbound_exports(tree):
    return sorted(_all_entries(tree) - _module_bindings(tree))


@pytest.mark.parametrize("path", FILES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_imports_used_and_all_bound(path):
    tree = ast.parse(path.read_text(), str(path))
    assert unused_imports(tree) == []
    assert unbound_exports(tree) == []


def test_scan_sees_stale_imports_and_exports():
    tree = ast.parse(
        "import os\nimport a.b\nfrom x import y as z, w\n"
        "__all__ = ['w', 'gone']\nprint(a)\n"
    )
    assert unused_imports(tree) == ["os", "z"]
    assert unbound_exports(tree) == ["gone"]

"""Static scan of the package and the tests: every imported name is used,
every __all__ entry is bound, and every private module-level name of the
package is read somewhere in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "gl2kisin").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


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


def unread_private_names(trees):
    """(module, name) for each module-level _name, dunders aside, that no
    tree reads, as a name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in _module_bindings(tree) - set(_imported(tree))
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


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


def test_private_names_are_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC}
    assert unread_private_names(trees) == []


def test_scan_sees_unread_private_names():
    trees = {
        "a.py": ast.parse(
            "import b\n_used = 1\n_left = 2\n__all__ = []\ndef _f(): return _used\nprint(b._C)\n"
        ),
        "b.py": ast.parse("from a import _g\nclass _C: pass\n"),
    }
    assert unread_private_names(trees) == [("a.py", "_f"), ("a.py", "_left")]

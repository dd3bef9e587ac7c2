"""Invariants of the package source, checked on its syntax tree: it imports
only the standard library and itself, no module imports another's
underscore names, it has no ``assert`` statement
(``python -O`` strips those, so no check may rest on one), every
module-level function or class is used somewhere, and none is used by the
tests alone unless the package exports it."""

import ast
import os
import sys

import bmwgram

PACKAGE_DIR = os.path.dirname(os.path.abspath(bmwgram.__file__))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USER_DIRS = ("src", "tests", "bench", "tools")


def package_trees():
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), path)


def test_package_has_modules():
    assert len(list(package_trees())) >= 10


def test_imports_are_stdlib_or_own():
    bad = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            bad += [(name, node.lineno, root) for root in roots
                    if root != "bmwgram"
                    and root not in sys.stdlib_module_names]
    assert not bad


def test_no_private_imports_across_modules():
    """No module imports an underscore name from another module of the
    package: what one module keeps private, another reaches only through
    its public functions."""
    found = [(name, node.lineno, alias.name)
             for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or node.module.split(".")[0] == "bmwgram")
             for alias in node.names if alias.name.startswith("_")]
    assert not found


def test_no_assert_statements():
    found = [(name, node.lineno) for name, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def _used_names(tree):
    """Names read, as a Name or an attribute, or imported anywhere in the
    tree, except inside the top-level definition of that same name (a
    recursive call is no use)."""
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                continue
            used.update(name for name in names if name != own)
    return used


def _used_under(dirs):
    used = set()
    for top in dirs:
        for root, _dirs, files in os.walk(os.path.join(REPO_DIR, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name)) as fh:
                        used |= _used_names(ast.parse(fh.read()))
    return used


def _module_level_names(tree):
    """Functions, classes and constants bound at the top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_no_dead_module_level_names():
    used = _used_under(USER_DIRS)
    dead = [(name, node.name) for name, tree in package_trees()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]
    assert not dead


def test_no_test_only_names_in_src():
    """src keeps what the commands and the public API run: a module-level
    name that only the tests use belongs in the tests.  An import in
    bmwgram/__init__ is a use, so exported names stay."""
    used = _used_under(("src", "bench", "tools"))
    test_only = [(name, top) for name, tree in package_trees()
                 for top in _module_level_names(tree) if top not in used]
    assert not test_only

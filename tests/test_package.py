"""Invariants of the package source, checked on its syntax tree: it imports
only the standard library and itself, and it has no ``assert`` statement
(``python -O`` strips those, so no check may rest on one)."""

import ast
import os
import sys

import bmwgram

PACKAGE_DIR = os.path.dirname(os.path.abspath(bmwgram.__file__))


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


def test_no_assert_statements():
    found = [(name, node.lineno) for name, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found

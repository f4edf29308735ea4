"""Every function, class and method of the package is named somewhere."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rg1d"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), str(path))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]
                if alias.asname:
                    yield alias.asname


def test_every_definition_is_named_somewhere():
    package = _trees(PACKAGE)
    used = set()
    for tree in _trees(PACKAGE, ROOT / "tests").values():
        used.update(_used_names(tree))
    unused = sorted("%s:%d %s" % (path.name, node.lineno, node.name)
                    for path, tree in package.items() for node in _definitions(tree)
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used)
    assert not unused, "defined but never named: " + ", ".join(unused)

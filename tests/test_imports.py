"""Every import in the package names the standard library, numpy or
mpmath, so no heavier dependency can load with a run."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rg1d"
ALLOWED = {"numpy", "mpmath"}   # and the package itself, by relative import


def _imported_roots(tree):
    """Top-level name of every absolute import, in functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_name_only_stdlib_numpy_and_mpmath():
    bad = {(path.name, root) for path in sorted(PACKAGE.glob("*.py"))
           for root in _imported_roots(ast.parse(path.read_text(), str(path)))
           if root not in ALLOWED and root not in sys.stdlib_module_names}
    assert bad == set()


def test_a_local_import_is_seen():
    tree = ast.parse("def f():\n    from scipy.special import j1\n    import numpy.linalg\n")
    assert list(_imported_roots(tree)) == ["scipy", "numpy"]

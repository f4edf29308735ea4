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


def _defaulted(fn, is_method):
    """(position, name) of every parameter of fn that has a default; the
    position counts from the first argument a caller passes."""
    args = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method and args and args[0].arg in ("self", "cls") else 0
    first = len(args) - len(fn.args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(args) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}
    for tree in _trees(PACKAGE, ROOT / "tests").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unpassed = []
    for path, tree in _trees(PACKAGE).items():
        methods = {id(item) for node in tree.body if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for fn in _definitions(tree):
            if isinstance(fn, ast.ClassDef):
                continue
            for pos, name in _defaulted(fn, id(fn) in methods):
                if not any(
                        any(kw.arg in (name, None) for kw in call.keywords)
                        or (pos is not None and (
                            len(call.args) > pos
                            or any(isinstance(a, ast.Starred) for a in call.args)))
                        for call in calls.get(fn.name, ())):
                    unpassed.append("%s:%d %s(%s=)" % (path.name, fn.lineno, fn.name, name))
    assert not unpassed, "defaulted but never passed: " + ", ".join(unpassed)


def _is_dataclass(node):
    return any((_callee(d) if isinstance(d, ast.Call) else getattr(d, "id", None))
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read_somewhere():
    # a field is read when its name is loaded as an attribute anywhere in the
    # package, the tests or the benchmark harness
    read = {node.attr for tree in _trees(PACKAGE, ROOT / "tests", ROOT / "benchmarks").values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted("%s:%d %s.%s" % (path.name, item.lineno, node.name, item.target.id)
                    for path, tree in _trees(PACKAGE).items() for node in tree.body
                    if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and item.target.id not in read)
    assert not unread, "dataclass fields never read: " + ", ".join(unread)

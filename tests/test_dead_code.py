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


# Definitions that only tests reach.  A name leaves this set when a run
# reaches it, or when it leaves the package; no name joins it.
TEST_ONLY = {
    "model.fermi_point_admissible",
    "nusolver.ball_check", "nusolver.operator_matrix", "nusolver.operator_norm",
    "oracle._GTable", "oracle._interaction_monomials", "oracle._pair_value",
    "oracle._panel_nodes", "oracle._product_expectation", "oracle._wick",
    "oracle.first_order_slope",
    "propagators.certify_gram_scaling", "propagators.fit_loglog_slope",
    "propagators.gram_certify", "propagators.l1_scaling_report",
    "propagators.single_scale",
    "rgflow.FlowTrajectory.g1_at", "rgflow.LogSumReport", "rgflow.ProbePoint",
    "rgflow._log_model", "rgflow.derived_disk_constant", "rgflow.flow_sector_probe",
    "rgflow.log_sum_increment_constant", "rgflow.log_sum_lemma",
    "rgflow.smallness_chain_ok",
}


def _refs(nodes):
    """Every name and attribute name the nodes mention."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _traced():
    """benchmarks/runner.py's TRACED functions as "module.path" names."""
    for node in ast.parse((ROOT / "benchmarks" / "runner.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return {module + "." + path for module, path in ast.literal_eval(node.value)}
    raise AssertionError("runner.py has no TRACED")


def test_every_definition_is_reached_by_a_run():
    # a name-based call graph: a definition reaches every definition whose
    # name it mentions, and a class its dunder methods; the roots are
    # cli.main, the traced functions and the module-level code of the package
    mentions, dunders, by_name, module_code = {}, {}, {}, []
    for path, tree in _trees(PACKAGE).items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    module_code.append(node)
                continue
            name = path.stem + "." + node.name
            by_name.setdefault(node.name, set()).add(name)
            mentions[name] = set(_refs([node]))
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                mentions[name] = set(_refs(node.bases + node.decorator_list + [
                    item for item in node.body if item not in methods]))
                dunders[name] = set()
                for item in methods:
                    method = name + "." + item.name
                    by_name.setdefault(item.name, set()).add(method)
                    mentions[method] = set(_refs([item]))
                    if item.name.startswith("__"):
                        dunders[name].add(method)
    todo = {"cli.main"} | _traced()
    todo |= {q for n in _refs(module_code) for q in by_name.get(n, ())}
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= dunders.get(name, set())
            todo |= {q for n in mentions.get(name, ()) for q in by_name.get(n, ())}
    unreached = {name for name in mentions if name not in reached
                 and not name.rpartition(".")[2].startswith("__")}
    assert sorted(unreached - TEST_ONLY) == [], "only tests reach these"
    assert sorted(TEST_ONLY - unreached) == [], "reached by a run: take off TEST_ONLY"

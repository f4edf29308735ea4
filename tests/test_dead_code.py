"""Every function, class and method of the package is named somewhere.

The guards resolve names exactly: an attribute of a package module
(correlations.z_tables) names that module's definition, a bare name the
definition its module binds it to (its own or an import from the package),
and any other attribute every method of that name.
"""

import ast
import itertools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rg1d"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), str(path))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _qualified(path, tree):
    """(qualified name, node) of every definition: module.name for a
    module-level one, module.Class.name for a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield path.stem + "." + node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s.%s" % (path.stem, node.name, item.name), item


def _package_imports(node):
    """(local name, module, definition) of each name an import from the
    package binds: a module (definition None) or a module's definition."""
    if not isinstance(node, ast.ImportFrom):
        return
    base = node.module or ""
    if node.level == 0:
        if base.partition(".")[0] != "rg1d":
            return
        base = base.partition(".")[2]
    for alias in node.names:
        local = alias.asname or alias.name
        if not base and alias.name in MODULES:
            yield local, alias.name, None
        elif base in MODULES:
            yield local, base, base + "." + alias.name


class _Scope:
    """How one file's names resolve to qualified package definitions."""

    def __init__(self, path, tree, methods):
        self.methods = methods   # method name -> qualified methods of that name
        self.modules = {}
        self.names = {node.name: path.stem + "." + node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef))}
        for node in ast.walk(tree):
            for local, module, definition in _package_imports(node):
                if definition is None:
                    self.modules[local] = module
                else:
                    self.names[local] = definition

    def resolve(self, node):
        """The qualified definitions a Name or Attribute node names."""
        if isinstance(node, ast.Name):
            return {self.names[node.id]} if node.id in self.names else set()
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in self.modules:
                return {self.modules[value.id] + "." + node.attr}
            return self.methods.get(node.attr, set())
        return set()

    def refs(self, nodes):
        """Every definition the nodes name, imports from the package included."""
        out = set()
        for top in nodes:
            for node in ast.walk(top):
                out |= self.resolve(node)
                out |= {d for _, _, d in _package_imports(node) if d is not None}
        return out


def _scopes(*dirs):
    """(path, tree, scope) of every file in dirs, methods taken from the package."""
    methods = {}
    for path, tree in _trees(PACKAGE).items():
        for name, _ in _qualified(path, tree):
            if name.count(".") == 2:
                methods.setdefault(name.rpartition(".")[2], set()).add(name)
    return [(path, tree, _Scope(path, tree, methods))
            for path, tree in _trees(*dirs).items()]


def test_every_definition_is_named_somewhere():
    named = set()
    for _, tree, scope in _scopes(PACKAGE, ROOT / "tests"):
        named |= scope.refs([tree])
    unused = sorted("%s:%d %s" % (path.name, node.lineno, name)
                    for path, tree in _trees(PACKAGE).items()
                    for name, node in _qualified(path, tree)
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and name not in named)
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
    for _, tree, scope in _scopes(PACKAGE, ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for name in scope.resolve(node.func):
                    calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in _trees(PACKAGE).items():
        for name, fn in _qualified(path, tree):
            if isinstance(fn, ast.ClassDef):
                continue
            for pos, arg in _defaulted(fn, name.count(".") == 2):
                if not any(
                        any(kw.arg in (arg, None) for kw in call.keywords)
                        or (pos is not None and (
                            len(call.args) > pos
                            or any(isinstance(a, ast.Starred) for a in call.args)))
                        for call in calls.get(name, ())):
                    unpassed.append("%s:%d %s(%s=)" % (path.name, fn.lineno, name, arg))
    assert not unpassed, "defaulted but never passed: " + ", ".join(unpassed)


def _is_dataclass(node):
    return any((_callee(d) if isinstance(d, ast.Call) else getattr(d, "id", None))
               == "dataclass" for d in node.decorator_list)


_UNITS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(unit):
    """The nodes of a module's, function's or lambda's own code: a nested
    function or lambda is a unit of its own."""
    todo = [unit.body] if isinstance(unit, ast.Lambda) else list(unit.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _UNITS):
            todo.extend(ast.iter_child_nodes(node))


class _Types:
    """The classes a value may have, where the AST shows some; an empty set
    where it shows none.

    self and cls have their method's class.  A call has the class it
    names, the classes the returns of the function it names have, or, for
    dataclasses.replace, its first argument's; a method call on a value of
    known classes names those classes' methods (with_, fermi), and a field
    read has the class its annotation names.  A name has the classes its
    bindings in its unit show: its assignments and, for a parameter, the
    arguments of the calls that resolve to its function.  Returns and
    parameters are iterated to a fixed point.  So each class a read is
    credited to reaches it through some binding.
    """

    def __init__(self, files):
        self.units = []   # (unit, scope, own nodes)
        self.classes, self.defs, self.owner = {}, {}, {}
        for path, tree, scope in files:
            for unit in [tree] + [n for n in ast.walk(tree) if isinstance(n, _UNITS)]:
                self.units.append((unit, scope, list(_own_nodes(unit))))
            for name, node in _qualified(path, tree):
                if isinstance(node, ast.ClassDef):
                    self.classes[name] = {   # field -> the class its annotation names
                        item.target.id: scope.resolve(item.annotation)
                        for item in node.body if isinstance(item, ast.AnnAssign)}
                else:
                    self.defs[name] = node
                    if name.count(".") == 2:
                        self.owner[node] = {name.rpartition(".")[0]}
        self.name_of = {node: name for name, node in self.defs.items()}
        self.returns, self.params = {}, {}
        for _ in range(10):
            envs = {unit: self._env(unit, scope, nodes) for unit, scope, nodes in self.units}
            state = (self.returns, self.params)
            self.returns, self.params = self._returns(envs), self._params(envs)
            if (self.returns, self.params) == state:
                self.envs = envs
                return
        raise AssertionError("class inference does not settle")

    def of(self, expr, env, scope):
        """The classes expr's value may have."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            return set().union(*(self.classes.get(c, {}).get(expr.attr, ())
                                 for c in self.of(expr.value, env, scope)))
        if not isinstance(expr, ast.Call):
            return set()
        if _callee(expr) == "replace" and expr.args:
            return self.of(expr.args[0], env, scope)
        if isinstance(expr.func, ast.Name) and expr.func.id in env:   # cls(...)
            return env[expr.func.id]
        return set().union(*({t} if t in self.classes else self.returns.get(t, ())
                             for t in self.callees(expr.func, env, scope)))

    def callees(self, func, env, scope):
        """The package or test definitions a call's func may name."""
        if isinstance(func, ast.Attribute):
            bases = (self.of(func.value, env, scope)
                     or scope.resolve(func.value) & self.classes.keys())
            if bases:
                return {base + "." + func.attr for base in bases}
        hits = scope.resolve(func)
        return hits if len(hits) == 1 else set()

    def _env(self, unit, scope, nodes):
        """name -> classes of each of the unit's names that has some."""
        env = {}
        args = [] if isinstance(unit, ast.Module) else unit.args.posonlyargs + unit.args.args
        if unit in self.owner and args:
            env[args[0].arg] = self.owner[unit]
        env.update(self.params.get(self.name_of.get(unit), {}))
        values = {node.targets[0]: node.value for node in nodes
                  if isinstance(node, ast.Assign) and len(node.targets) == 1}
        bindings = {}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bindings.setdefault(node.id, []).append(values.get(node))
        for _ in range(3):   # an assignment may read a name typed before it
            for name, exprs in bindings.items():
                env[name] = env.get(name, set()).union(
                    *(self.of(e, env, scope) for e in exprs if e is not None))
        return {name: kinds for name, kinds in env.items() if kinds}

    def _returns(self, envs):
        out = {}
        for unit, scope, nodes in self.units:
            kinds = set().union(*(self.of(node.value, envs[unit], scope) for node in nodes
                                  if isinstance(node, ast.Return) and node.value is not None))
            if unit in self.name_of and kinds:
                out[self.name_of[unit]] = kinds
        return out

    def _params(self, envs):
        out = {}   # function -> parameter -> classes of its arguments
        for unit, scope, nodes in self.units:
            for call in (node for node in nodes if isinstance(node, ast.Call)):
                for target in self.callees(call.func, envs[unit], scope):
                    fn = self.defs.get(target)
                    if fn is None:
                        continue
                    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
                    positional = itertools.takewhile(
                        lambda a: not isinstance(a, ast.Starred), call.args)
                    for arg, value in [*zip(names[1:] if fn in self.owner else names, positional),
                                       *((kw.arg, kw.value) for kw in call.keywords)]:
                        kinds = self.of(value, envs[unit], scope)
                        if kinds:
                            out.setdefault(target, {}).setdefault(arg, set()).update(kinds)
        return out

    def field_reads(self):
        """({class.field loaded from a value of known classes}, {names
        loaded from a value of unknown class})."""
        typed, untyped = set(), set()
        for unit, scope, nodes in self.units:
            for node in nodes:
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    owners = self.of(node.value, self.envs[unit], scope)
                    typed |= {owner + "." + node.attr for owner in owners}
                    if not owners:
                        untyped.add(node.attr)
        return typed, untyped


# Dataclass fields whose every read loads from a value that _Types cannot
# class: an element of a list, a dict or a returned tuple, or the argument
# of a benchmark hook.  A read of such a field's name from a value of no
# known class counts for the fields listed here and for no other.
UNTYPED_READS = {
    "correlations.Response": "closed_form non_oscillating rel_error scale_sum zeta",
    "g1map.SweepLaneReport": "close contained first_violation g0 max_ratio model",
    "g1map.SweepReport": "n_steps",
    "renorm.ExponentSet": "c_coefficient",
    "rgflow.CheckResult": "measured_constant ok worst_margin worst_scale",
    "rgflow.ProbePoint": "bounded chain_ok lam",
}


def test_every_dataclass_field_is_read_somewhere():
    # a field is read when its name is loaded, in the package, the tests or
    # the benchmark harness, from a value of its class, or, for a field
    # UNTYPED_READS lists, from a value of no known class; a field of the
    # same name in another class does not count
    fields = {"%s.%s.%s" % (path.stem, node.name, item.target.id): "%s:%d" % (path.name, item.lineno)
              for path, tree in _trees(PACKAGE).items() for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    typed, untyped = _Types(_scopes(PACKAGE, ROOT / "tests", ROOT / "benchmarks")).field_reads()
    listed = {cls + "." + name for cls, names in UNTYPED_READS.items() for name in names.split()}
    unread = sorted("%s %s" % (where, field) for field, where in fields.items()
                    if field not in typed
                    and not (field in listed and field.rpartition(".")[2] in untyped))
    assert not unread, "dataclass fields never read: " + ", ".join(unread)
    stale = sorted(field for field in listed if field not in fields or field in typed)
    assert not stale, "read from a value of known class: take off UNTYPED_READS: " + ", ".join(stale)


# Definitions that only tests reach, each with the open ROADMAP item that
# will give it a run caller.  A name leaves this table when a run reaches
# it, or when it leaves the package; no name joins it.
TEST_ONLY = {
    "model.fermi_point_admissible": 6,
    "nusolver.ball_check": 2,
    "propagators.single_scale": 2,
    **dict.fromkeys(["rgflow.LogSumReport", "rgflow._log_model",
                     "rgflow.log_sum_increment_constant", "rgflow.log_sum_lemma"], 2),
    **dict.fromkeys(["rgflow.ProbePoint", "rgflow.derived_disk_constant",
                     "rgflow.flow_sector_probe", "rgflow.smallness_chain_ok"], 3),
    **dict.fromkeys(["oracle._GTable", "oracle._interaction_monomials", "oracle._pair_value",
                     "oracle._panel_nodes", "oracle._product_expectation", "oracle._wick",
                     "oracle.first_order_slope"], 4),
}


def _traced():
    """benchmarks/runner.py's TRACED functions as "module.path" names."""
    for node in ast.parse((ROOT / "benchmarks" / "runner.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return {module + "." + path for module, path in ast.literal_eval(node.value)}
    raise AssertionError("runner.py has no TRACED")


def test_every_definition_is_reached_by_a_run():
    # a call graph: a definition reaches every definition it names, and a
    # class its dunder methods; the roots are cli.main, the traced functions
    # and the module-level code of the package
    mentions, dunders, module_code = {}, {}, []
    for path, tree, scope in _scopes(PACKAGE):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    module_code.append((scope, node))
                continue
            name = path.stem + "." + node.name
            mentions[name] = scope.refs([node])
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                mentions[name] = scope.refs(node.bases + node.decorator_list + [
                    item for item in node.body if item not in methods])
                dunders[name] = set()
                for item in methods:
                    method = name + "." + item.name
                    mentions[method] = scope.refs([item])
                    if item.name.startswith("__"):
                        dunders[name].add(method)
    todo = {"cli.main"} | _traced()
    for scope, node in module_code:
        todo |= scope.refs([node])
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= dunders.get(name, set())
            todo |= mentions.get(name, set())
    unreached = {name for name in mentions if name not in reached
                 and not name.rpartition(".")[2].startswith("__")}
    assert sorted(unreached - TEST_ONLY.keys()) == [], "only tests reach these"
    assert sorted(TEST_ONLY.keys() - unreached) == [], "reached by a run: take off TEST_ONLY"

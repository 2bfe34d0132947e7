import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hermeq")


def _trees(directory):
    # (file name, syntax tree) of each module in directory
    for fn in sorted(os.listdir(directory)):
        if fn.endswith(".py"):
            with open(os.path.join(directory, fn), encoding="utf-8") as fh:
                yield fn, ast.parse(fh.read())


def _modules():
    # {module: (top-level definitions by name, imported names)}, "" for the
    # package itself; an imported name maps to (module, name) for the
    # relative imports anywhere in the module, nested ones included
    out = {}
    for fn, tree in _trees(SRC):
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[name.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        node.module or "", alias.name)
        out["" if fn == "__init__.py" else fn[:-3]] = (defs, imports)
    return out


def _traced():
    # perfbench/tracing.py's TRACED list, read without running the module
    with open(os.path.join(ROOT, "perfbench", "tracing.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no TRACED list")


def test_every_top_level_definition_is_reachable():
    # Walk names from the command line, the battery, the public API and
    # the functions perfbench traces; a top-level definition in src/hermeq
    # none of them reaches is dead code (a test oracle belongs in
    # tests/oracles.py)
    mods = _modules()

    def resolve(module, name):
        defs, imports = mods[module]
        if name in defs:
            return module, name
        if name in imports:
            return resolve(*imports[name])
        return None  # a builtin, a local or a standard-library name

    roots = [("cli", "main"), ("reproduce", "CHECKS"),
             ("reproduce", "reproduce_all"), ("", "__all__")]
    roots += [("", name.value) for name in mods[""][0]["__all__"].value.elts]
    roots += [tuple(name.split(".")) for name in _traced()]
    stack = []
    for root in roots:
        target = resolve(*root)
        assert target is not None, root
        stack.append(target)
    seen = set()
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        for node in ast.walk(mods[module][0][name]):
            if isinstance(node, ast.Name):
                target = resolve(module, node.id)
                if target is not None and target not in seen:
                    stack.append(target)
    dead = sorted("%s.%s" % (module or "hermeq", name)
                  for module, (defs, _) in mods.items() for name in defs
                  if (module, name) not in seen)
    assert not dead, dead


def test_every_class_member_is_read():
    # a method or property of a src/hermeq class, dunders aside, whose name
    # is never read as an attribute in src/hermeq or perfbench is dead code
    # (a test reference belongs in tests/oracles.py)
    members, read = [], set()
    for directory in (SRC, os.path.join(ROOT, "perfbench")):
        for fn, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.ClassDef) and directory == SRC:
                    members += ["%s.%s.%s" % (fn[:-3], node.name, item.name)
                                for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not (item.name.startswith("__")
                                         and item.name.endswith("__"))]
    dead = [m for m in members if m.rsplit(".", 1)[1] not in read]
    assert not dead, dead


def _unused_imports(directory):
    # "file:line name" for each name an import binds in a module of
    # directory, at top level or inside a function, that the module never
    # reads; the names a module lists in __all__ count as read
    unused = []
    for fn, tree in _trees(directory):
        bound, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (fn, line, name)
                   for name, line in sorted(bound.items())
                   if name not in read]
    return unused


def test_no_module_has_an_unused_import():
    # every name an import binds in src/hermeq must be read in its module;
    # the package's own imports are its public API, read through __all__
    unused = _unused_imports(SRC)
    assert not unused, unused


def test_no_test_module_has_an_unused_import():
    unused = _unused_imports(os.path.dirname(os.path.abspath(__file__)))
    assert not unused, unused


def test_only_the_battery_draws_at_random():
    # no command but reproduce-all makes a random draw, so a run manifest
    # records seeds for the battery alone
    importers = []
    for fn, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                importers.append(fn)
    assert importers == ["reproduce.py"], importers

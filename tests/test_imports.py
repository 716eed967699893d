"""Every name a package or test module imports is used in that module,
and every top-level definition and class member of a package module is used
somewhere, by the package itself or the benchmark and not only by the tests.

Stdlib stand-ins for a linter's unused-import and dead-code rules, over
every module of src/hypergroups except the package __init__, whose imports
are its exports, and, for imports, every module of tests/.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "hypergroups"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [*MODULES, *TEST_MODULES], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def _mentions(tree, strings=True) -> Counter:
    """Identifiers a tree names: variables, attributes, imported names and,
    unless strings is false, strings that are identifiers (as in getattr or
    monkeypatch.setattr)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            out[node.value] += 1
    return out


def test_every_definition_is_used():
    # Uses outside the package module: other modules, tests, the benchmark
    # scripts and the console entry point in pyproject.toml. The __init__
    # re-exports are not uses.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]}
    mentions = {path: _mentions(tree) for path, tree in trees.items()}
    pyproject = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    dead = []
    for path in MODULES:
        elsewhere = set(pyproject)
        for other, counts in mentions.items():
            if other != path:
                elsewhere.update(counts)
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = mentions[path] - _mentions(node)
            if node.name not in elsewhere and not own[node.name]:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"definitions used nowhere: {', '.join(dead)}"


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    # The library is what the pipeline reads. The roots are what bench/,
    # the console entry point, fixtures.py (the inputs of the benchmark and
    # the examples) and each module's top-level statements name; a
    # definition is read when a root or a read definition names it. Uses in
    # tests do not count, and the definitions of fixtures.py are exempt.
    # A string names a function in bench/, whose worker wraps functions by
    # name; in the package a string is data, such as a JSON key.
    named = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in ROOT.glob("bench/*.py"):
        named |= set(_mentions(ast.parse(path.read_text(encoding="utf-8"))))
    named |= set(_mentions(ast.parse((PACKAGE / "fixtures.py").read_text(
        encoding="utf-8")), strings=False))
    definitions = []
    for path in MODULES:
        if path.name == "fixtures.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node.name, node))
            elif isinstance(node, ast.Assign):
                definitions += [(path.name, target.id, node)
                                for target in node.targets
                                if isinstance(target, ast.Name)]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                named |= set(_mentions(node, strings=False))
    unread = list(definitions)
    grew = True
    while grew:
        grew = False
        for entry in list(unread):
            if entry[1] in named:
                unread.remove(entry)
                named |= set(_mentions(entry[2], strings=False))
                grew = True
    dead = [f"{module}:{node.lineno} {name}" for module, name, node in unread]
    assert not dead, f"definitions only tests read: {', '.join(dead)}"


def _defaulted(fn, method):
    """(name, position) of each parameter of fn that has a default; the
    position counts the arguments a caller writes, None for keyword-only."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - method) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _passes(call, name, position):
    """A call passes the parameter by keyword, by position, or through a
    starred argument that may hold it."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def test_every_default_is_overridden_somewhere():
    # A defaulted parameter that no call in the package or the benchmark
    # passes is a branch the pipeline never takes. A call is matched by
    # the callee's name (x.f(...) calls every f), and a constructor by its
    # class name.
    calls = {}
    for path in [*MODULES, PACKAGE / "__init__.py", *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owners.get(id(fn))
            method = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for name, position in _defaulted(fn, method):
                if not any(_passes(c, name, position) for c in calls.get(callee, ())):
                    unpassed.append(f"{path.name}:{fn.lineno} {fn.name}({name}=)")
    assert not unpassed, f"defaults no call overrides: {', '.join(unpassed)}"


def test_only_core_names_the_store():
    # Every derived fact of a hypergroup is kept through core.cached, the
    # one function that reads and writes the instance's store.
    named = [path.name for path in MODULES if path.name != "core.py"
             and _mentions(ast.parse(path.read_text(encoding="utf-8")))["_cache"]]
    assert not named, f"modules other than core.py name _cache: {', '.join(named)}"


def _functools_caches(tree):
    """Every node of tree that names functools.cache or functools.lru_cache,
    however functools or the decorator was imported."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names
                      if a.name in ("cache", "lru_cache")}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
            and isinstance(node.value, ast.Name) and node.value.id in modules]


def test_no_process_wide_caches():
    # A fact of a hypergroup lives in the instance's store, through
    # core.cached, not in a process-wide functools cache. The one exception
    # is cli._parser, the process's one argument parser; fixtures.py, the
    # inputs of the tests and the benchmark, is exempt.
    found = []
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        if path.name == "fixtures.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(d.func if isinstance(d, ast.Call) else d)
                   for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("cli.py", "_parser")
                   for d in fn.decorator_list}
        found += [f"{path.name}:{node.lineno}" for node in _functools_caches(tree)
                  if id(node) not in allowed]
    assert not found, f"process-wide caches: {', '.join(found)}"


def test_only_formats_dispatches_on_format():
    # Every document is read through formats.load_any or load_as: no other
    # module parses a native document or picks a reader itself.
    names = ("parse_document", "detect_format")
    named = []
    for path in MODULES:
        if path.name != "formats.py":
            mentions = _mentions(ast.parse(path.read_text(encoding="utf-8")))
            named += [f"{path.name} names {name}" for name in names if mentions[name]]
    assert not named, "; ".join(named)


def test_only_valency_refuses_undefined_valency():
    # Input that is not residually thin is refused in one place, valency(H),
    # with one message; every other module reaches that refusal.
    def constructs(tree):
        return any(isinstance(node, ast.Call)
                   and _mentions(node.func)["ValencyUndefinedError"]
                   for node in ast.walk(tree))

    sites = [path.name for path in MODULES
             if constructs(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == ["valency.py"]


def test_every_member_is_read():
    # Every method, property and annotated field of a package class is read
    # as an attribute (x.name) somewhere in the package or the benchmark;
    # reads in tests do not count. A keyword in a constructor call writes a
    # field; it does not read it.
    reads = set()
    for path in [*PACKAGE.glob("*.py"), *ROOT.glob("bench/*.py")]:
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in reads:
                    unread.append(f"{path.name}:{node.lineno} {cls.name}.{name}")
    assert not unread, f"members only tests read: {', '.join(unread)}"

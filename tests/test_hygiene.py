"""Source hygiene of the package: no unused imports, standard library only,
no dead module-level names or private methods, no module-level state,
count and size checks only in values.py, syntax of the oldest supported
Python, and a lean import."""

import ast
import pathlib
import re
import subprocess
import sys
import typing

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "echcap"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(bound name, line, top-level module or None for relative) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield alias.asname or top, node.lineno, top
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno, top


def used_names(tree):
    """Names read (loaded) anywhere, inside quoted annotations, or listed in
    __all__."""
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            quoted += [a.annotation for a in (*args.posonlyargs, *args.args,
                                              *args.kwonlyargs, args.vararg,
                                              args.kwarg) if a is not None]
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            quoted += node.value.elts
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in quoted:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line, _ in imported_names(tree) if name not in used]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [f"{path.name}:{line} {top}"
               for _, line, top in imported_names(tree)
               if top is not None and top != "echcap"
               and top not in sys.stdlib_module_names]
    assert not foreign


def module_level_names(tree):
    """(name, line) per function, class or variable bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in MODULES}


def package_reads(trees):
    """Names read anywhere in the package: loaded names, quoted annotations,
    __all__ entries, attributes read and names imported."""
    read = set()
    for tree in trees.values():
        read |= used_names(tree)
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        read |= {alias.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) for alias in n.names}
    return read


def test_no_dead_module_level_names():
    """Every module-level name is read somewhere in the package (as a name,
    an attribute, an import or a quoted annotation) or listed in __all__."""
    trees = package_trees()
    read = package_reads(trees)
    dead = [f"{module}:{line} {name}"
            for module, tree in trees.items()
            for name, line in module_level_names(tree)
            if name not in read and not name.startswith("__")]
    assert not dead


def private_methods(tree):
    """(class, method, line) per single-underscore method of a class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name.startswith("_") \
                        and not node.name.startswith("__"):
                    yield cls.name, node.name, node.lineno


def test_no_dead_private_methods():
    """A single-underscore method is package-internal, so the package itself
    must read it; one kept only for tests is dead code."""
    trees = package_trees()
    read = package_reads(trees)
    dead = [f"{module}:{line} {cls}.{name}"
            for module, tree in trees.items()
            for cls, name, line in private_methods(tree)
            if name not in read]
    assert not dead


def self_attribute_stores(cls):
    """(attribute, line) per attribute a method of the class assigns on
    self, by self.x = ... (also inside a tuple target),
    self.__dict__["x"] = ... or object.__setattr__(self, "x", ...)."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr, node.lineno
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                and ast.unparse(node.value) == "self.__dict__" \
                and isinstance(node.slice, ast.Constant):
            yield node.slice.value, node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "__setattr__" and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "self" \
                and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value, node.lineno


def named(tree):
    """Identifiers a module names: loaded or stored names, attributes and
    imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_no_write_only_self_attributes():
    """Every attribute a class assigns on self is read, as an attribute
    load, in the class's own module or in a module or test that names the
    class; a read of the same name on an unrelated object does not count.
    A field the class annotates counts as read: a record's repr, == and
    hash read its fields."""
    trees = package_trees()
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(__file__).resolve().parent.glob("*.py")]
    files = [(tree, named(tree), {n.attr for n in ast.walk(tree)
                                  if isinstance(n, ast.Attribute)
                                  and isinstance(n.ctx, ast.Load)})
             for tree in [*trees.values(), *tests]]
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            read = set().union(*(loads for other, names, loads in files
                                 if other is tree or cls.name in names))
            read |= {node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
            unread += [f"{module}:{line} {cls.name}.{name}"
                       for name, line in self_attribute_stores(cls)
                       if name not in read]
    assert not unread


def frozen_records(trees):
    """Names of values.Record, the package's frozen record base, and of the
    package's classes derived from it through any chain of its classes
    (Euclidean -> Norm -> Record)."""
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    frozen, grown = set(), {"Record"}
    while grown:
        frozen |= grown
        grown = {name for name, names in bases.items() if names & frozen} - frozen
    return frozen


def immutable(value, frozen):
    """A constant, a tuple of immutable values, a typing alias such as
    Tuple[int, int], or an instance of a frozen record class of the package
    built from immutable values."""
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.Tuple):
        return all(immutable(e, frozen) for e in value.elts)
    if isinstance(value, ast.Subscript):
        return isinstance(value.value, ast.Name) and value.value.id in typing.__all__
    if isinstance(value, ast.Call):
        return isinstance(value.func, ast.Name) and value.func.id in frozen and all(
            immutable(a, frozen) for a in (*value.args, *(k.value for k in value.keywords)))
    return False


def is_main_guard(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def decorator_name(node):
    """functools.lru_cache(maxsize=8) -> 'lru_cache'; cache -> 'cache'."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_module_level_mutable_state():
    """State lives in the objects a call makes, so one call cannot change
    the next: a module binds only constants, typing aliases, __all__ and
    frozen instances such as EUCLIDEAN (no dict, list, set or
    comprehension), runs no other statement, assigns no global, and
    memoizes across calls only the argparse tree of cli._build_parser."""
    trees = package_trees()
    frozen = frozen_records(trees)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(t, "id", None) for t in targets]
                if names != ["__all__"] and not immutable(node.value, frozen):
                    found.append(f"{module}:{node.lineno} {ast.unparse(node)[:60]}")
            elif not (isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                        ast.AsyncFunctionDef, ast.ClassDef))
                      or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                      or is_main_guard(node)):
                found.append(f"{module}:{node.lineno} {type(node).__name__}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{module}:{node.lineno} global {', '.join(node.names)}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{module}:{node.lineno} @{decorator_name(d)} {node.name}"
                          for d in node.decorator_list
                          if decorator_name(d) in ("cache", "lru_cache")
                          and (module, node.name) != ("cli.py", "_build_parser")]
    assert not found


def literal_texts(tree):
    """(line, text) per string literal: each plain string and each f-string
    part, and each f-string whole with its fields read as 'x'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value
        elif isinstance(node, ast.JoinedStr):
            yield node.lineno, "".join(
                part.value if isinstance(part, ast.Constant) else "x"
                for part in node.values)


def python_floor():
    """(major, minor) of requires-python = ">=major.minor" in pyproject.toml."""
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sources_parse_at_the_python_floor(path):
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml admits, so no newer syntax slips in unnoticed."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())


def test_count_and_size_checks_live_in_values():
    """values._count and values._positive raise every "<name> must be >=
    <least>" and "<what> must be positive": no other module spells one."""
    copied = [f"{module}:{line} {text!r}"
              for module, tree in package_trees().items() if module != "values.py"
              for line, text in literal_texts(tree)
              if re.fullmatch(r"\w+ must be >= \d+", text)
              or text.endswith("must be positive")]
    assert not copied


def test_import_generates_no_code_and_loads_no_datetime():
    """Every echcap command is a fresh process that pays for importing
    echcap.cli, so the import loads none of dataclasses (which compiles each
    class's methods with exec), inspect (which dataclasses pulls in) or
    datetime (only --meta needs it, and imports it itself), nor what only
    some commands run: the toric search, asymptotics, obstructions and json.
    A closed-form capacity still leaves the toric search unloaded.  The
    package calls neither exec nor eval."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import echcap.cli; print(*sorted(set(sys.modules) - before)); "
            "echcap.cli.main(['capacities', 'ball(1)', '--kmax', '3']); "
            "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    imported, printed, ran = run.stdout.splitlines()
    added = set(imported.split())
    assert "echcap.cli" in added and printed == "0,1,1,2"
    assert not added & {"dataclasses", "inspect", "datetime", "echcap.toric",
                        "echcap.asymptotics", "echcap.obstructions", "json"}
    assert "echcap.toric" not in set(ran.split())
    calls = [f"{module}:{node.lineno} {node.func.id}"
             for module, tree in package_trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval")]
    assert not calls

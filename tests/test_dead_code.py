"""Dead-code checks over the package source, read from the AST (no linter is
needed): every import of a module in src/sqrtpi is used in that module,
every function, method and class defined there is referenced somewhere in
src/, tests/ or demos/, or is a console-script entry point of pyproject.toml,
every parameter of such a function is read in its body, and every parameter
with a default is passed by some call in src/, tests/ or demos/.

A reference is a name or an attribute with the definition's name, so a
method counts as used when any object's attribute of that name is read.
Dunder methods are called by Python itself and are not checked.  The
package's __init__.py re-exports the public API, so its imports are not
checked either.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqrtpi"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _source_trees():
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            yield _tree(path)


def _referenced_names() -> set[str]:
    names = set()
    for tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def test_every_definition_is_referenced():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entry_points = set(re.findall(r'^\w+\s*=\s*"sqrtpi\.[\w.]+:(\w+)"', pyproject, re.M))
    referenced = _referenced_names() | entry_points
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not re.fullmatch(r"__\w+__", name) and name not in referenced:
                    unreferenced.append(f"{path.name}:{node.lineno}: {name}")
    assert unreferenced == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is an option that does
    # nothing; dunder methods keep the signature Python calls them with, and
    # each argparse handler _cmd_*(args) takes the namespace whether it reads
    # it or not
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if re.fullmatch(r"__\w+__|_cmd_\w+", node.name):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(p for p in (a.vararg, a.kwarg) if p is not None)]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}: {node.name}({p.arg})"
                       for p in params if p.arg not in read]
    assert unread == []


def _defaulted_params(fn: ast.FunctionDef, method: bool):
    """(positional index or None for keyword-only, name) of each parameter
    of fn that has a default; a method's index leaves out self or cls."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args][1 if method else 0:]
    for i, p in enumerate(positional[len(positional) - len(a.defaults):]):
        yield len(positional) - len(a.defaults) + i, p.arg
    for p, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, p.arg


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether call passes the parameter by keyword, by position or through
    a ``*``/``**`` splat."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args))


def test_every_default_is_passed():
    # a default that no call overrides is an option with one value in use;
    # calls are matched by name only, so a call of any function or method
    # of the same name counts, and __init__/__new__ are called by class name
    calls: dict[str, list[ast.Call]] = {}
    for tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(fn)
            name = fn.name
            if cls is not None and name in ("__init__", "__new__"):
                name = cls.name
            elif re.fullmatch(r"__\w+__", name):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            for index, param in _defaulted_params(fn, cls is not None and not static):
                if not any(_passes(c, index, param) for c in calls.get(name, ())):
                    never.append(f"{path.name}:{fn.lineno}: {fn.name}({param})")
    assert never == []

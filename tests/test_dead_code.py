"""Dead-code checks over the package source, read from the AST (no linter is
needed): every import of a module in src/sqrtpi is used in that module,
every function, method and class defined there is referenced somewhere in
src/, tests/ or demos/, or is a console-script entry point of pyproject.toml,
and every parameter of such a function is read in its body.

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


def _referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_tree(path)):
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

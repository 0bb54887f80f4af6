"""Source checks on the package itself, read with the standard library's ast."""

import ast
from pathlib import Path

import defeq

SOURCES = sorted(Path(defeq.__file__).parent.glob("*.py"))


def module_level_private_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_module_level_private_name_is_read():
    # a private name is for the package alone, so one that the package
    # never reads is dead code
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        defined.update(dict.fromkeys(module_level_private_names(tree), path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{defined[n]}: {n}" for n in set(defined) - read) == []

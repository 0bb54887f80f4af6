"""Source checks on the package itself, read with the standard library's ast."""

import ast
import subprocess
import sys
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


# Modules that cost a command more to import than its own work takes at
# small sizes; nothing on a command's path needs them.
HEAVY = ("dataclasses", "inspect", "importlib.resources", "typing", "pathlib", "random")


def test_the_command_line_imports_no_heavy_module():
    # a fresh interpreter without site, so nothing but defeq loads modules;
    # the search command runs the enumerator, the help only the parser
    src = str(Path(defeq.__file__).parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r})\n"
              "from defeq.cli import dispatch\n"
              "help_code, _ = dispatch(['--help'])\n"
              "code, out = dispatch(['models', '--theory', 'ex1_t1.thy', '--size', '2',\n"
              "                      '--count-only'])\n"
              f"print(help_code, code, out.strip(), sorted(set({HEAVY!r}) & set(sys.modules)))\n")
    run = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 0 31 []"


def test_only_the_process_entry_skips_teardown():
    # os._exit ends the process without teardown, so only cli.run may call
    # it, and only the __main__ guard calls run: tests and the benchmark
    # call main() and dispatch() in process
    def calls(tree: ast.Module, test) -> list[str]:
        return [ast.unparse(top).splitlines()[0] for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Call) and test(node.func)]

    exits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        exits += [f"{path.name}: {line}" for line in calls(
            tree, lambda f: isinstance(f, ast.Attribute) and f.attr == "_exit")]
    assert exits == ["cli.py: def run():"]
    cli = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    assert calls(cli, lambda f: isinstance(f, ast.Name) and f.id == "run") == \
        ["if __name__ == '__main__':"]

"""Source checks on the package itself, read with the standard library's ast."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import defeq
from test_cli import FULL_HELP, USAGE

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


def class_level_private_names(tree: ast.Module) -> set[str]:
    """Methods and __slots__ entries of the module's classes that start
    with one underscore."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                names.update(c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_module_level_private_name_is_read():
    # a private name is for the package alone, so one that the package
    # never reads is dead code: at module level, or a method or a slot of
    # a class, which must be read as an attribute, not only assigned
    defined: dict[str, str] = {}
    members: dict[str, str] = {}
    read: set[str] = set()
    loaded: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        defined.update(dict.fromkeys(module_level_private_names(tree), path.name))
        members.update(dict.fromkeys(class_level_private_names(tree), path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    assert sorted(f"{defined[n]}: {n}" for n in set(defined) - read) == []
    assert sorted(f"{members[n]}: {n}" for n in set(members) - loaded) == []


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


# argparse and what it imports: only help and the command lines argparse
# must diagnose need them
PARSER = ("argparse", "gettext", "locale")


def fresh_dispatch(cwd, *argvs) -> tuple[str, str, list[int], list[str]]:
    """(stdout, stderr, exit codes, PARSER's modules loaded) of a fresh
    interpreter without site that dispatches argvs in order."""
    src = str(Path(defeq.__file__).parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r})\n"
              "from defeq.cli import dispatch\n"
              f"codes = [dispatch(argv)[0] for argv in {list(argvs)!r}]\n"
              f"print(repr((codes, sorted(set({PARSER!r}) & set(sys.modules)))))\n")
    run = subprocess.run([sys.executable, "-S", "-c", script], cwd=cwd,
                         env={**os.environ, "COLUMNS": "80"},
                         capture_output=True, text=True, check=True)
    *out, last = run.stdout.splitlines(keepends=True)
    return ("".join(out), run.stderr, *ast.literal_eval(last))


def test_plain_command_lines_never_load_argparse(tmp_path):
    # one command line of each kind the benchmark runs, each read off the
    # command table
    (tmp_path / "m.mod").write_text("size 2\nrel E { (0,1) (1,0) }\n")
    (tmp_path / "n.mod").write_text("size 3\nrel E { (0,1) }\n")
    (tmp_path / "mutual.thy").write_text(
        "rel G 2\nrel R 1\naxiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))\n")
    assert fresh_dispatch(
        tmp_path,
        ["models", "--theory", "ex1_t1.thy", "--size", "2", "--count-only"],
        ["spec", "--theory", "ex1_t1.thy", "--size", "2"],
        ["build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "2", "--verify"],
        ["aut", "--model", "m.mod"],
        ["ultra", "--models", "m.mod,n.mod", "--principal", "1", "--los-depth", "2"],
        ["beth", "--theory", "mutual.thy", "--target", "R", "--size", "2", "--bound", "7"]) \
        == ("", "", [0] * 6, [])


def test_help_and_a_bad_flag_still_load_argparse(tmp_path):
    # argparse's text is pinned for CPython 3.11, as in test_cli
    pinned = sys.version_info[:2] == (3, 11)
    out, err, codes, loaded = fresh_dispatch(tmp_path, ["--help"])
    assert (err, codes, "argparse" in loaded) == ("", [0], True)
    assert out == FULL_HELP if pinned else out.startswith(USAGE)
    out, err, codes, loaded = fresh_dispatch(
        tmp_path, ["models", "--theory", "ex1_t1.thy", "--size", "2", "--bogus"])
    assert (out, codes, "argparse" in loaded) == ("", [2], True)
    assert err == f"{USAGE}defeq: error: unrecognized arguments: --bogus\n" if pinned else \
        err.startswith(USAGE)


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

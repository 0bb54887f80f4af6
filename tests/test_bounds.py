"""Resource bounds of the commands: one row per command check.

The workbench decides its claims by exhaustive search below a stated
bound, so a command's peak memory and CPU time are part of what it
promises.  Each row runs its command in a fresh interpreter that imports
only resource, sys and defeq.cli before dispatch, the way a user's process
would, and reads the peak resident set and the CPU time (user plus system)
of that whole process with getrusage.  The streamed rows run the console
entry instead, python -m defeq.cli with stdout to a file, and read the
same figures off the child's rusage.  A row states the files it writes,
what its output must show, its bounds and why they hold.

The bounds were measured on Linux CPython 3.11, and another interpreter
or allocator reaches other peaks, so the rows run there only.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import defeq

pytestmark = pytest.mark.skipif(
    not (sys.platform == "linux" and sys.implementation.name == "cpython"
         and sys.version_info[:2] == (3, 11)),
    reason="the bounds were measured on Linux CPython 3.11")

SRC = str(Path(defeq.__file__).resolve().parent.parent)

# the child's first line is "code peak_mb cpu_s", then the command's stdout
DISPATCH = """\
import resource, sys
from defeq.cli import dispatch
code, out = dispatch(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_SELF)
print(code, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)
sys.stdout.write(out)
"""

# the console entry, cli.run, with its stdout to a file; the figures are
# those of that child process
STREAM = """\
import resource, subprocess, sys
with open("listing.txt", "w") as f:
    done = subprocess.run([sys.executable, "-m", "defeq.cli", *sys.argv[1:]], stdout=f)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(done.returncode, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)
with open("listing.txt") as f:
    sys.stdout.write(f.read())
"""

# model_to_text of a seeded size-24 model with one 4-ary relation (331,776
# argument tuples) against parse_model_text of its text, timed in one
# process; the first line adds the ratio, and stdout says whether the
# parsed text is the model again
RENDER = """\
import itertools, random, resource, sys, time
from defeq.cli import model_to_text, parse_model_text
from defeq.folang import Signature
from defeq.models import FiniteModel
rng = random.Random(24)
sig = Signature({"R": 4})
held = [t for t in itertools.product(range(24), repeat=4) if rng.random() < 0.5]
m = FiniteModel(sig, 24, {"R": held})
start = time.process_time()
text = model_to_text(m)
rendered = time.process_time()
back = parse_model_text(text, sig)
parsed = time.process_time()
usage = resource.getrusage(resource.RUSAGE_SELF)
print(0, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
      (rendered - start) / (parsed - rendered))
print(back == m)
"""

MUTUAL = ("rel G 2\nrel R 1\n"
          "axiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))\n")
RENAMED = ("rel Q 2\nrel S 2\naxiom (A x. A y. !Q(x,y)) | (A x. A y. !S(x,y))\n"
           "axiom A x. A y. (S(x,y) -> !S(y,x))\n")
THREE = ("rel P 1\naxiom A x. P(x)\n"
         "axiom E x. E y. E z. (!(x=y) & !(x=z) & !(y=z) & (A w. (w=x | w=y | w=z)))\n")
BETH = "!(A v0. G(x1,v0) -> G(v0,x1) -> x1=v0)\n"


@functools.cache
def wide_factor(seed: int) -> str:
    """A size-16 model text with one 4-ary relation, each of its 65,536
    argument tuples held with probability 1/2."""
    rng = random.Random(seed)
    held = [t for t in itertools.product(range(16), repeat=4) if rng.random() < 0.5]
    return "size 16 rel R { " + "".join("(%s) " % ",".join(map(str, t)) for t in held) + "}"


def counted(out: str) -> int:
    """The sum of the counts that end the lines of a listing."""
    return sum(int(line.rsplit("=", 1)[-1]) for line in out.splitlines())


def listing(out: str) -> tuple[int, int]:
    lines = out.splitlines()
    return len(lines), sum(line.startswith("size 4 ") for line in lines)


def verdict(out: str) -> tuple[int, str]:
    lines = out.splitlines()
    return len(lines), lines[-1]


def last_line(out: str) -> str:
    return out.splitlines()[-1]


def passed(checked: int) -> str:
    return f"verdict universes=PASS isomorphisms=PASS ultraproducts=PASS checked_tuples={checked}"


class Row(NamedTuple):
    id: str
    argv: tuple[str, ...]
    files: dict[str, str | Callable[[], str]]
    shown: Callable[[str], object]  # what of stdout the row checks
    want: object
    why: str
    peak_mb: float | None = None
    cpu_s: float | None = None
    ratio: float | None = None  # the first line's ratio, at most
    code: int = 0
    err: str = ""
    script: str = DISPATCH


ROWS = [
    Row("ex1_t1-count", ("models", "--theory", "ex1_t1.thy", "--size", "4", "--count-only"),
        {}, counted, 131071,
        "counting builds no model (building them took 52 MB)", peak_mb=30),
    Row("ex1_t2-spec", ("spec", "--theory", "ex1_t2.thy", "--size", "4"),
        {}, counted, 66264, "the size-4 census of two binary relations", peak_mb=100),
    Row("glymour_chain-count",
        ("models", "--theory", "glymour_chain.thy", "--size", "4", "--count-only"),
        {}, counted, 65536, "R is computed from le, and no model is built", peak_mb=30),
    Row("mutual-count", ("models", "--theory", "mutual.thy", "--size", "4", "--count-only"),
        {"mutual.thy": MUTUAL}, str, "65536\n",
        "R is computed from each G table, not sieved once per table (1.3 s)", cpu_s=0.2),
    Row("build-iso-4", ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                        "--max-size", "4"),
        {}, listing, (66822, 66264),
        "no model per pair; dispatch's joined listing sets this peak", peak_mb=70),
    Row("verify-4", ("build-iso", "--t1", "ex1_t2.thy", "--t2", "renamed.thy",
                     "--max-size", "4", "--verify"),
        {"renamed.thy": RENAMED}, verdict, (66823, passed(6000)),
        "the verifier checks encodings and builds no model and no product (106 MB)",
        peak_mb=85),
    Row("verify-ultrafilters", ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                                "--max-size", "1", "--verify", "--index-bound", "16",
                                "--sample-budget", "1", "--max-nodes", "1000"),
        {}, last_line, passed(136),
        "no ultrafilter lists its 2^(k-1) member sets", peak_mb=50),
    Row("verify-3", ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                     "--max-size", "3", "--verify"),
        {}, last_line, passed(4558),
        "one size's models, sweeps and column at a time, and no product", peak_mb=30),
    Row("verify-index-bound", ("build-iso", "--t1", "three.thy", "--t2", "three.thy",
                               "--max-size", "3", "--verify", "--sample-budget", "1",
                               "--index-bound", "11"),
        {"three.thy": THREE}, last_line, passed(66),
        "no choice function is classified (4.4 s while each shape's 3^k were)", cpu_s=1.5),
    Row("ultra-wide", ("ultra", "--models", "a.mod,b.mod", "--principal", "1"),
        {"a.mod": functools.partial(wide_factor, 1), "b.mod": functools.partial(wide_factor, 2)},
        lambda out: out == wide_factor(2) + "\n", True,
        "a relation is read off its bitmap in memory linear in its width (351 MB)",
        peak_mb=60),
    Row("render-vs-parse", (), {}, str.strip, "True",
        "each model's byte texts are joined once (3.9-4.8 s, over 2x the parse)",
        ratio=2, script=RENDER),
    Row("beth-3", ("beth", "--theory", "mutual.thy", "--target", "R", "--size", "3",
                   "--bound", "7"),
        {"mutual.thy": MUTUAL}, str, BETH,
        "337,252 candidates scanned, and no level of formulas kept", peak_mb=25),
    Row("beth-4", ("beth", "--theory", "mutual.thy", "--target", "R", "--size", "4",
                   "--bound", "7"),
        {"mutual.thy": MUTUAL}, str, BETH,
        "262,144 points in one batch of model lanes, and no list of points", peak_mb=45),
    Row("idc-4", ("idc", "--theory", "mutual.thy", "--hidden", "R", "--size", "4"),
        {"mutual.thy": MUTUAL}, str, "OK\n",
        "65,536 models compared by encodings, with no reduct kept per model", peak_mb=60),
    Row("subclosure-4", ("subclosure", "--theory", "ex1_t2.thy", "--size", "4"),
        {}, str, "OK\n",
        "15 subsets of 66,264 models in model lanes (a minute while each was built)",
        peak_mb=43, cpu_s=10),
    Row("streamed-listing", ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                             "--max-size", "4"),
        {}, lambda out: len(out.splitlines()), 66822,
        "the console entry writes the listing as it is made (56.8 MB joined)",
        peak_mb=52, script=STREAM),
    Row("ex1_t1-list", ("models", "--theory", "ex1_t1.thy", "--size", "4"),
        {}, lambda out: len(out.splitlines()), 131071,
        "the listing renders the encodings it enumerates, no model each (50.2 MB)",
        peak_mb=45, script=STREAM),
    Row("aut-huge-empty", ("aut", "--model", "big.mod", "--max-nodes", "20000"),
        {"big.mod": "size 1048576 rel P { }"}, str, "",
        "a universe above the budget is refused before its elements are labelled (6.5 s)",
        peak_mb=50, cpu_s=0.5, code=2,
        err="defeq: work budget exceeded while searching for isomorphisms at size 1048576 "
            "(limit 20000)\n"),
]


def measure(row: Row, where: Path) -> tuple[int, float, float, list[float], str, str]:
    """(exit code, peak MB, CPU s, further figures, stdout, stderr) of one row.

    The row's script runs under sh, as a shell would start it: on Linux a
    process keeps the peak RSS of the process it was forked from across
    exec, so a child of this test process would report at least this
    process's peak.
    """
    for name, text in row.files.items():
        (where / name).write_text(text if isinstance(text, str) else text())
    done = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", row.script,
                           *row.argv], cwd=where, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    head, _, out = done.stdout.partition("\n")
    code, peak, cpu, *extra = head.split()
    return int(code), float(peak), float(cpu), list(map(float, extra)), out, done.stderr


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_command_stays_within_its_bounds(row, tmp_path):
    code, peak, cpu, extra, out, err = measure(row, tmp_path)
    assert (code, err, row.shown(out)) == (row.code, row.err, row.want)
    peak_mb, cpu_s, ratio = row.peak_mb, row.cpu_s, row.ratio
    figures = f"peak {peak:.1f} MB, {cpu:.2f} s of CPU {extra}: {row.why}"
    if peak_mb is not None:
        assert peak < peak_mb, figures
    if cpu_s is not None:
        assert cpu < cpu_s, figures
    if ratio is not None:
        assert extra[0] <= ratio, figures

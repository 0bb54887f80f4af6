"""Workload inputs and commands, generated from a seed.

Each workload is a fixed list of defeq commands (one round).  The seed
chooses symbol names, variable names, relation tables and the labelling of
model files; it does not change how much work a command does, so runs with
different seeds measure the same work.  defeq sees only the files written
here and its four bundled fixtures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import Model

WORKLOADS = ("enumerate", "census", "formulas")

# Sizes of a full run; the tests pass smaller ones.
FULL = {"enum_n": 3, "fun_n": 4, "census_n": 4, "verify_n": 3, "aut_n": (7, 8),
        "los_depth": 3, "beth_n": 3, "beth_bound": 7}
SMALL = {"enum_n": 2, "fun_n": 3, "census_n": 3, "verify_n": 2, "aut_n": (4, 5),
         "los_depth": 2, "beth_n": 2, "beth_bound": 7}

# Parentheses around the axiom of the nested-input command.  Fixed, not seeded:
# the command is expected to fail the same way on every run until the parser
# handles deep nesting.
NESTING = 2000


@dataclass(frozen=True)
class Command:
    """One defeq invocation and the check its result must pass."""

    argv: tuple[str, ...]
    check: checks.Check
    codes: frozenset[int] = frozenset({0})  # documented exit codes for this input


class _Names:
    """Distinct seeded symbol names that cannot be read as quantifiers or variables."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, letters: str) -> str:
        while True:
            name = self.rng.choice(letters) + str(self.rng.randrange(10, 100))
            if name not in self.used:
                self.used.add(name)
                return name

    def relation(self) -> str:
        return self._fresh("BCDFGHKLMNPQSTUW")

    def function(self) -> str:
        return self._fresh("fgh")

    def variable(self) -> str:
        return self._fresh("uvwxyz")


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _model_text(n: int, rel: str, table) -> str:
    tuples = " ".join(f"({a},{b})" for a, b in sorted(table))
    return f"size {n} rel {rel} {{ {tuples} }}".replace("{  }", "{ }")


def _relabelled(n: int, rel: str, edges, rng: random.Random) -> str:
    perm = list(range(n))
    rng.shuffle(perm)
    return _model_text(n, rel, {(perm[a], perm[b]) for a, b in edges})


def _only(m: Model, rels: tuple[str, ...]) -> bool:
    return tuple(sorted(m.rels)) == tuple(sorted(rels)) and not m.funs


def _irreflexive(rel: str):
    return lambda m: _only(m, (rel,)) and all(a != b for a, b in m.rels[rel])


def _at_most_one_loop(rel: str):
    return lambda m: _only(m, (rel,)) and sum(a == b for a, b in m.rels[rel]) <= 1


# ============================================================
# enumerate
# ============================================================

def _ex1_t2_model(m: Model) -> bool:
    e, r = m.rels.get("E"), m.rels.get("R")
    return (_only(m, ("E", "R")) and (not e or not r)
            and all((b, a) not in r for a, b in r))


def _glymour_chain_model(m: Model) -> bool:
    if not _only(m, ("R", "le")):
        return False
    le, n = m.rels["le"], m.size
    top = any(all((z, y) in le for z in range(n)) for y in range(n))
    want = {(x,) for x in range(n) if top and all((z, x) in le for z in range(n))}
    return m.rels["R"] == want


def _involution_model(rel: str, fun: str):
    def valid(m: Model) -> bool:
        f = m.funs.get(fun)
        if f is None or set(m.rels) != {rel} or set(m.funs) != {fun}:
            return False
        return (all(f[f[x]] == x for x in range(m.size))
                and all((f[x],) in m.rels[rel] for (x,) in m.rels[rel]))
    return valid


def _involution_count(n: int) -> int:
    """Models of the involution theory by brute force over every table."""
    total = 0
    for f in itertools.product(range(n), repeat=n):
        if all(f[f[x]] == x for x in range(n)):
            orbits = len({frozenset((x, f[x])) for x in range(n)})
            total += 2 ** orbits
    return total


def _enumerate(rng: random.Random, work: Path, sizes: dict) -> list[Command]:
    n, fn = sizes["enum_n"], sizes["fun_n"]
    names = _Names(rng)
    p, f, x = names.relation(), names.function(), names.variable()
    fun_thy = _write(work / "involution.thy",
                     f"rel {p} 1\nfun {f} 1\n"
                     f"axiom A {x}. {f}({f}({x})) = {x}\n"
                     f"axiom A {x}. ({p}({x}) -> {p}({f}({x})))\n")
    nested_thy = _write(work / "nested.thy",
                        "rel P 1\naxiom " + "(" * NESTING + "A x. P(x)" + ")" * NESTING + "\n")
    t1_at_1, t2_at_1 = checks.ex1_t1_count(1), checks.ex1_t2_count(1)
    return [
        Command(("models", "--theory", "ex1_t1.thy", "--size", str(n), "--count-only"),
                checks.count_is(checks.ex1_t1_count(n))),
        Command(("models", "--theory", "ex1_t2.thy", "--size", str(n), "--count-only"),
                checks.count_is(checks.ex1_t2_count(n))),
        Command(("models", "--theory", "ex1_t2.thy", "--size", str(n)),
                checks.listing_is(checks.ex1_t2_count(n), _ex1_t2_model)),
        # Size 1 has only the trivial group, so classes equal models there.
        Command(("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy",
                 "--max-size", str(n)),
                checks.witness_is(1, (t1_at_1, t1_at_1), (t2_at_1, t2_at_1)),
                frozenset({1})),
        Command(("models", "--theory", "glymour_chain.thy", "--size", str(n)),
                checks.listing_is(2 ** (n * n), _glymour_chain_model)),
        Command(("models", "--theory", fun_thy, "--size", str(fn)),
                checks.listing_is(_involution_count(fn), _involution_model(p, f))),
        # The README documents exit 2 and a one-line diagnostic for input the
        # parser rejects; a parser that accepts the depth must print the count.
        Command(("models", "--theory", nested_thy, "--size", "1", "--count-only"),
                checks.nested_parse, frozenset({0, 2})),
    ]


# ============================================================
# census
# ============================================================

def _census(rng: random.Random, work: Path, sizes: dict) -> list[Command]:
    n, vn = sizes["census_n"], sizes["verify_n"]
    names = _Names(rng)
    e1, e2, l1, l2 = (names.relation() for _ in range(4))
    x, y = names.variable(), names.variable()
    irr1 = _write(work / "irreflexive.thy", f"rel {e1} 2\naxiom A {x}. !{e1}({x},{x})\n")
    irr2 = _write(work / "irreflexive_copy.thy", f"rel {e2} 2\naxiom A {y}. !{e2}({y},{y})\n")
    loops = f"A {x}. A {y}. (({{r}}({x},{x}) & {{r}}({y},{y})) -> {x}={y})"
    loop1 = _write(work / "one_loop.thy", f"rel {l1} 2\naxiom {loops.format(r=l1)}\n")
    loop2 = _write(work / "one_loop_copy.thy", f"rel {l2} 2\naxiom {loops.format(r=l2)}\n")
    commands = [
        Command(("spec", "--theory", irr1, "--size", str(n)),
                checks.spectrum_is(n, 2 ** (n * (n - 1)),
                                   checks.LOOPLESS_DIGRAPH_CLASSES[n])),
        Command(("build-iso", "--t1", irr1, "--t2", irr2, "--max-size", str(n)),
                checks.bijection_is({k: 2 ** (k * (k - 1)) for k in range(1, n + 1)},
                                    _irreflexive(e1), _irreflexive(e2), verify=False)),
        Command(("build-iso", "--t1", loop1, "--t2", loop2, "--max-size", str(vn), "--verify"),
                checks.bijection_is({k: (k + 1) * 2 ** (k * (k - 1)) for k in range(1, vn + 1)},
                                    _at_most_one_loop(l1), _at_most_one_loop(l2), verify=True)),
    ]
    # Model files with fixed shapes and a seeded labelling, so the group
    # order, and with it the cost of the search, is the same for every seed.
    small, large = sizes["aut_n"]
    rel = names.relation()
    shapes = {
        "cycle": (small, {(i, (i + 1) % small) for i in range(small)}
                  | {((i + 1) % small, i) for i in range(small)}),
        "two_cycles": (large, {(i, (i + 1) % (large // 2)) for i in range(large // 2)}
                       | {(large // 2 + i, large // 2 + (i + 1) % (large // 2))
                          for i in range(large // 2)}),
    }
    for label, (size, edges) in shapes.items():
        text = _relabelled(size, rel, edges, rng)
        path = _write(work / f"{label}.mod", text + "\n")
        commands.append(Command(("aut", "--model", path), checks.group_is(text)))
    return commands


# ============================================================
# formulas
# ============================================================

def _random_table(n: int, rng: random.Random) -> set[tuple[int, int]]:
    pairs = list(itertools.product(range(n), repeat=2))
    table = {pq for pq in pairs if rng.random() < 0.5}
    return table or {rng.choice(pairs)}


def _formulas(rng: random.Random, work: Path, sizes: dict) -> list[Command]:
    depth, bn, bound = sizes["los_depth"], sizes["beth_n"], sizes["beth_bound"]
    names = _Names(rng)
    rel = names.relation()
    commands = []
    for k, factor_sizes in enumerate(((2, 3), (3, 2, 3))):
        texts = [_model_text(s, rel, _random_table(s, rng)) for s in factor_sizes]
        paths = [_write(work / f"ultra{k}_{i}.mod", t + "\n") for i, t in enumerate(texts)]
        point = rng.randrange(len(texts))
        commands.append(Command(
            ("ultra", "--models", ",".join(paths), "--principal", str(point),
             "--los-depth", str(depth)),
            checks.ultra_is(texts[point], depth, checks.los_formula_count(depth, [2]))))
    # defeq orders relations by name, and beth meets the models, and so its
    # first counterexample to each candidate, in that order.  Keep the name of
    # G before that of R, as with the letters themselves, so the seed does not
    # change the search (the other order costs about 20 % more).
    g, r = sorted((names.relation(), names.relation()))
    beth = _write(work / "mutual_pair.thy",
                  f"rel {g} 2\nrel {r} 1\n"
                  f"axiom A x. ({r}(x) <-> (E y. ({g}(x,y) & {g}(y,x) & !(x=y))))\n")

    def mutual(m: Model, x: int) -> bool:
        return any((x, y) in m.rels[g] and (y, x) in m.rels[g] and x != y
                   for y in range(m.size))

    commands.append(Command(
        ("beth", "--theory", beth, "--target", r, "--size", str(bn), "--bound", str(bound)),
        checks.definition_is(bound, bn, g, "x1", mutual)))
    return commands


_ROUNDS = {"enumerate": _enumerate, "census": _census, "formulas": _formulas}


def build(workload: str, seed: int, work: Path, sizes: dict = FULL) -> list[Command]:
    """Write the workload's inputs under work and return one round of commands."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"), work, sizes)


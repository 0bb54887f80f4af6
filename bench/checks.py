"""Output checks for the benchmark, computed without defeq.

Every expected value here comes from a closed form, a recurrence or a brute
force over tables, never from a stored copy of defeq's output.  Each check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Callable, Iterable

# Unlabeled loopless digraphs on n nodes (OEIS A000273), n = 0..5.
LOOPLESS_DIGRAPH_CLASSES = (1, 1, 3, 16, 218, 9608)


# ============================================================
# model lines
# ============================================================

_MODEL = re.compile(r"size (\d+)((?: rel \w+ \{[^}]*\})*)((?: fun \w+ \[[^\]]*\])*)$")
_REL = re.compile(r" rel (\w+) \{([^}]*)\}")
_FUN = re.compile(r" fun (\w+) \[([^\]]*)\]")
_TUPLE = re.compile(r"\(([\d,]+)\)")


class Model:
    """A parsed model line: size, relation tables and function tables."""

    __slots__ = ("size", "rels", "funs")

    def __init__(self, size: int, rels: dict[str, frozenset[tuple[int, ...]]],
                 funs: dict[str, tuple[int, ...]]):
        self.size = size
        self.rels = rels
        self.funs = funs

    def key(self) -> tuple:
        return (self.size, tuple(sorted((n, tuple(sorted(t))) for n, t in self.rels.items())),
                tuple(sorted(self.funs.items())))


def parse_model(line: str) -> Model:
    """Parse one model line in defeq's .mod syntax; ValueError when malformed."""
    m = _MODEL.match(line.strip())
    if m is None:
        raise ValueError(f"not a model line: {line[:80]!r}")
    size = int(m.group(1))
    rels = {}
    for name, body in _REL.findall(m.group(2)):
        table = frozenset(tuple(map(int, t.split(","))) for t in _TUPLE.findall(body))
        if any(not 0 <= e < size for t in table for e in t):
            raise ValueError(f"tuple outside the universe in {line[:80]!r}")
        rels[name] = table
    funs = {name: tuple(map(int, body.split())) for name, body in _FUN.findall(m.group(3))}
    return Model(size, rels, funs)


def automorphisms(m: Model) -> set[tuple[int, ...]]:
    """Every permutation of the universe that preserves each relation table."""
    out = set()
    for p in itertools.permutations(range(m.size)):
        if all(frozenset(tuple(p[e] for e in t) for t in table) == table
               for table in m.rels.values()):
            out.add(p)
    return out


# ============================================================
# closed forms and recurrences
# ============================================================

def ex1_t1_count(n: int) -> int:
    """Two binary relations, at most one of them nonempty."""
    return 2 * 2 ** (n * n) - 1


def ex1_t2_count(n: int) -> int:
    """As ex1_t1, and R asymmetric: 2^(n^2) with R empty plus 3^C(n,2) with E empty."""
    return 2 ** (n * n) + 3 ** (n * (n - 1) // 2) - 1


def los_formula_count(depth: int, rel_arities: Iterable[int]) -> int:
    """Closed formulas of depth <= depth over relations without constants.

    D(1,q) = atoms(q); D(d,q) = atoms(q) + D(d-1,q) + 4 D(d-1,q)^2 + 2 D(d-1,q+1),
    where q counts the bound variables in scope and atoms(q) is one relation
    atom per argument tuple plus q^2 equalities.
    """
    arities = list(rel_arities)

    def atoms(q: int) -> int:
        return sum(q ** a for a in arities) + q * q

    def count(d: int, q: int) -> int:
        if d == 1:
            return atoms(q)
        below = count(d - 1, q)
        return atoms(q) + below + 4 * below * below + 2 * count(d - 1, q + 1)

    return count(depth, 0)


# ============================================================
# a small first-order parser and evaluator
# ============================================================

_FO_TOKEN = re.compile(r"\s*(<->|->|!=|[()=.,!&|]|[A-Za-z_][A-Za-z0-9_]*)")


def parse_fo(text: str) -> tuple:
    """Parse defeq's printed formula syntax into nested tuples.

    Nodes: ("rel", name, args), ("eq", a, b), ("not", f), ("and"|"or"|"imp"|"iff",
    f, g), ("all"|"ex", var, f).  Terms are variable names.
    """
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _FO_TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        toks.append(m.group(1))
        pos = m.end()
    toks.append("")
    i = 0

    def peek(k: int = 0) -> str:
        return toks[min(i + k, len(toks) - 1)]

    def take(expected: str | None = None) -> str:
        nonlocal i
        tok = toks[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        i += 1
        return tok

    def formula() -> tuple:
        if peek() in ("A", "E") and peek(2) == ".":
            quant, var = take(), take()
            take(".")
            return ("all" if quant == "A" else "ex", var, formula())
        return binary_right("<->", "iff", lambda: binary_right("->", "imp", disj))

    def binary_right(op: str, tag: str, below: Callable[[], tuple]) -> tuple:
        left = below()
        if peek() == op:
            take()
            return (tag, left, binary_right(op, tag, below))
        return left

    def disj() -> tuple:
        out = conj()
        while peek() == "|":
            take()
            out = ("or", out, conj())
        return out

    def conj() -> tuple:
        out = unary()
        while peek() == "&":
            take()
            out = ("and", out, unary())
        return out

    def unary() -> tuple:
        if peek() == "!":
            take()
            return ("not", unary())
        if peek() == "(":
            take()
            out = formula()
            take(")")
            return out
        if peek() in ("A", "E") and peek(2) == ".":
            return formula()
        name = take()
        if peek() == "(":
            take()
            args = [take()]
            while peek() == ",":
                take()
                args.append(take())
            take(")")
            return ("rel", name, tuple(args))
        op = take()
        if op not in ("=", "!="):
            raise ValueError(f"expected an atom in {text!r}")
        eq = ("eq", name, take())
        return ("not", eq) if op == "!=" else eq

    out = formula()
    if peek() != "":
        raise ValueError(f"trailing input {peek()!r} in {text!r}")
    return out


def fo_size(f: tuple) -> int:
    """Connectives, quantifiers and atoms, each counted once."""
    tag = f[0]
    if tag in ("rel", "eq"):
        return 1
    if tag == "not":
        return 1 + fo_size(f[1])
    if tag in ("all", "ex"):
        return 1 + fo_size(f[2])
    return 1 + fo_size(f[1]) + fo_size(f[2])


def fo_free(f: tuple) -> set[str]:
    tag = f[0]
    if tag == "rel":
        return set(f[2])
    if tag == "eq":
        return {f[1], f[2]}
    if tag == "not":
        return fo_free(f[1])
    if tag in ("all", "ex"):
        return fo_free(f[2]) - {f[1]}
    return fo_free(f[1]) | fo_free(f[2])


def fo_eval(f: tuple, m: Model, env: dict[str, int]) -> bool:
    tag = f[0]
    if tag == "rel":
        return tuple(env[v] for v in f[2]) in m.rels[f[1]]
    if tag == "eq":
        return env[f[1]] == env[f[2]]
    if tag == "not":
        return not fo_eval(f[1], m, env)
    if tag == "and":
        return fo_eval(f[1], m, env) and fo_eval(f[2], m, env)
    if tag == "or":
        return fo_eval(f[1], m, env) or fo_eval(f[2], m, env)
    if tag == "imp":
        return not fo_eval(f[1], m, env) or fo_eval(f[2], m, env)
    if tag == "iff":
        return fo_eval(f[1], m, env) == fo_eval(f[2], m, env)
    var, body = f[1], f[2]
    values = (fo_eval(body, m, {**env, var: a}) for a in range(m.size))
    return all(values) if tag == "all" else any(values)


# ============================================================
# output checks: (exit code, stdout, stderr) -> None or a reason
#
# The runner has already matched the exit code against the command's
# documented codes; these look at what the command printed.
# ============================================================

Check = Callable[[int, str, str], "str | None"]


def count_is(want: int) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if out != f"{want}\n":
            return f"count {out.strip()[:40]!r}, expected {want}"
        return None
    return check


def listing_is(count: int, valid: Callable[[Model], bool]) -> Check:
    """Every line parses, lines are distinct, each satisfies valid, and there are count."""
    def check(code: int, out: str, err: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} models listed, expected {count}"
        seen = set()
        for line in lines:
            m = parse_model(line)
            if not valid(m):
                return f"listed line is not a model: {line[:80]}"
            if m.key() in seen:
                return f"model listed twice: {line[:80]}"
            seen.add(m.key())
        return None
    return check


def witness_is(size: int, left: tuple[int, int], right: tuple[int, int]) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        m = re.fullmatch(r"WITNESS size=(\d+) group=\S+ order=\d+ left_classes=(\d+) "
                         r"left_models=(\d+) right_classes=(\d+) right_models=(\d+)\n", out)
        if m is None:
            return f"not a witness line: {out[:80]!r}"
        got = tuple(map(int, m.groups()))
        if got != (size, *left, *right):
            return f"witness {got}, expected {(size, *left, *right)}"
        return None
    return check


def nested_parse(code: int, out: str, err: str) -> str | None:
    """A deeply nested axiom: exit 2 with a one-line diagnostic, or the right count.

    The axiom is the valid formula A x. P(x) inside many parentheses, so a
    parser that handles the depth must count exactly one model at size 1.
    """
    if code == 0:
        return None if out == "1\n" else f"count {out.strip()[:40]!r}, expected 1"
    lines = err.strip().splitlines()
    if out == "" and len(lines) == 1 and lines[0].startswith("defeq:"):
        return None
    return f"diagnostic of {len(lines)} lines, expected one 'defeq:' line"


def spectrum_is(n: int, models: int, classes: int) -> Check:
    """Cells at one size: sums, and models = classes * n!/order in every cell."""
    line_re = re.compile(rf"size={n} group=(\S+) order=(\d+) classes=(\d+) models=(\d+)")

    def check(code: int, out: str, err: str) -> str | None:
        total_models = total_classes = 0
        for line in out.splitlines():
            m = line_re.fullmatch(line)
            if m is None:
                return f"not a spectrum line: {line[:80]}"
            group = json.loads(m.group(1))
            order, c, k = int(m.group(2)), int(m.group(3)), int(m.group(4))
            if len(group) != order or len({tuple(p) for p in group}) != order:
                return f"group listing does not have order {order}"
            if k != c * math.factorial(n) // order or math.factorial(n) % order:
                return f"orbit-stabilizer fails: models={k} classes={c} order={order}"
            total_models += k
            total_classes += c
        if (total_models, total_classes) != (models, classes):
            return (f"totals models={total_models} classes={total_classes}, "
                    f"expected {models} and {classes}")
        return None
    return check


def bijection_is(counts: dict[int, int], source: Callable[[Model], bool],
                 target: Callable[[Model], bool], verify: bool) -> Check:
    """Pair lines M => b(M): a size-preserving bijection Mod(t1) -> Mod(t2)
    with Aut(M) = Aut(b(M)) by brute force, and three PASS verdicts when
    verify is set.
    """
    def check(code: int, out: str, err: str) -> str | None:
        lines = out.splitlines()
        if verify:
            if not lines or not re.fullmatch(
                    r"verdict universes=PASS isomorphisms=PASS ultraproducts=PASS "
                    r"checked_tuples=\d+", lines[-1]):
                return f"verdict line {lines[-1:]!r} does not pass"
            lines = lines[:-1]
        seen_left, seen_right = set(), set()
        per_size: dict[int, int] = {}
        for line in lines:
            left_text, sep, right_text = line.partition(" => ")
            if not sep:
                return f"not a pair line: {line[:80]}"
            left, right = parse_model(left_text), parse_model(right_text)
            if left.size != right.size:
                return f"pair changes the universe: {line[:80]}"
            if not source(left) or not target(right):
                return f"pair leaves the model classes: {line[:80]}"
            if left.key() in seen_left:
                return f"model mapped twice: {left_text[:80]}"
            if right.key() in seen_right:
                return f"image repeated: {right_text[:80]}"
            seen_left.add(left.key())
            seen_right.add(right.key())
            per_size[left.size] = per_size.get(left.size, 0) + 1
            if automorphisms(left) != automorphisms(right):
                return f"Aut(M) != Aut(b(M)) for {line[:80]}"
        if per_size != counts:
            return f"pairs per size {per_size}, expected {counts}"
        return None
    return check


def group_is(model_text: str) -> Check:
    """The printed group is exactly the brute-force automorphism set."""
    want = automorphisms(parse_model(model_text))

    def check(code: int, out: str, err: str) -> str | None:
        try:
            got = [tuple(p) for p in json.loads(out)]
        except ValueError:
            return f"not a group listing: {out[:80]!r}"
        if len(got) != len(set(got)) or set(got) != want:
            return f"group of order {len(got)}, brute force gives {len(want)}"
        return None
    return check


def ultra_is(factor_text: str, depth: int, formulas: int) -> Check:
    """Quotient equals the principal factor, and the Los line has no failures."""
    factor = parse_model(factor_text)

    def check(code: int, out: str, err: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2:
            return f"{len(lines)} output lines, expected 2"
        if parse_model(lines[0]).key() != factor.key():
            return f"quotient {lines[0][:80]} is not the principal factor"
        want = f"los depth={depth} formulas={formulas} failures=0"
        if lines[1] != want:
            return f"{lines[1][:80]!r}, expected {want!r}"
        return None
    return check


def definition_is(bound: int, max_size: int, rel: str, var: str,
                  defines: Callable[[Model, int], bool]) -> Check:
    """The printed formula has size <= bound and free variables among {var},
    and for every table of rel on sizes 1..max_size it holds of exactly the
    elements that defines() picks out.
    """
    def check(code: int, out: str, err: str) -> str | None:
        try:
            phi = parse_fo(out)
        except ValueError as e:
            return str(e)
        if fo_size(phi) > bound:
            return f"definition of size {fo_size(phi)} exceeds the bound {bound}"
        if not fo_free(phi) <= {var}:
            return f"definition has free variables {sorted(fo_free(phi))}"
        for n in range(1, max_size + 1):
            pairs = list(itertools.product(range(n), repeat=2))
            for bits in range(1 << len(pairs)):
                m = Model(n, {rel: frozenset(p for j, p in enumerate(pairs) if bits >> j & 1)}, {})
                for x in range(n):
                    if fo_eval(phi, m, {var: x}) != defines(m, x):
                        return f"definition fails at size {n} on {sorted(m.rels[rel])}, x={x}"
        return None
    return check

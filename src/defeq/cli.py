"""Command line front end.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails (a witness goes to stdout), 2 on usage,
parse, file, or budget errors (one-line diagnostic on stderr), 3 when an
invariant that defeq checks on its own results fails (a bug; one
"defeq: internal error:" line on stderr).  All output is deterministic
byte for byte.

Theory files (.thy)::

    # comment
    rel NAME ARITY
    fun NAME ARITY
    const NAME
    axiom FORMULA

Model files (.mod) are token based, so one line or many::

    size N
    rel NAME { (a,b) (c,d) }
    fun NAME [ v0 v1 ... ]
    const NAME v

Relation arity is inferred from the first tuple (an empty table defaults
to arity 1), function arity from the table length.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from types import SimpleNamespace

from . import definability, folang, groups, irregular, spectra, ultra
from .budget import DEFAULT_MAX_NODES, BudgetExceededError, NodeCounter, WorkBudget
from .folang import FormulaSyntaxError, Signature, SignatureError
from .models import FiniteModel, InternalError, Theory, count_models, enumerate_models

__all__ = [
    "CliError", "parse_theory_text", "load_theory", "theory_to_text",
    "parse_model_text", "load_model", "load_models", "model_to_text",
    "fixture_path", "dispatch", "main", "run",
]


class CliError(Exception):
    """Bad command input; reported on stderr with exit code 2."""


# ============================================================
# theory files
# ============================================================

def parse_theory_text(text: str, name: str = "") -> Theory:
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    constants: list[str] = []
    axiom_sources: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if kind in ("rel", "fun"):
                name_part, arity_part = rest.rsplit(" ", 1)
                target = relations if kind == "rel" else functions
                symbol = name_part.strip()
                if symbol in relations or symbol in functions:
                    raise CliError(f"line {lineno}: {symbol!r} declared twice")
                target[symbol] = int(arity_part)
            elif kind == "const":
                constants.append(rest)
            elif kind == "axiom":
                axiom_sources.append((rest, lineno))
            else:
                raise CliError(f"line {lineno}: unknown directive {kind!r}")
        except ValueError as e:
            raise CliError(f"line {lineno}: {e}") from None
    # axioms are parsed against the whole signature, so they may mention
    # symbols declared below them
    try:
        sig = Signature(relations, functions, constants)
    except SignatureError as e:
        raise CliError(str(e)) from None
    axioms = []
    for source, lineno in axiom_sources:
        try:
            axioms.append(folang.parse_formula(sig, source))
        except FormulaSyntaxError as e:
            raise CliError(f"line {lineno}: {e}") from None
    return Theory(sig, axioms, name=name)


def theory_to_text(t: Theory) -> str:
    lines = [f"# {line}" for line in t.note.splitlines()]
    lines.extend(f"rel {name} {arity}" for name, arity in t.sig.relations.items())
    lines.extend(f"fun {name} {arity}" for name, arity in t.sig.functions.items())
    lines.extend(f"const {name}" for name in t.sig.constants)
    lines.extend(f"axiom {folang.formula_to_text(ax)}" for ax in t.axioms)
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    if path and "/" not in path:
        packaged = fixture_path(path)
        if os.path.exists(packaged):
            return packaged
    raise CliError(f"no such file: {path}")


def _read(path: str) -> str:
    with open(_resolve(path)) as f:
        return f.read()


def load_theory(path: str) -> Theory:
    text = _read(path)
    # the file name without its last suffix, as pathlib's stem gives it
    name = os.path.basename(path)
    dot = name.rfind(".")
    return parse_theory_text(text, name=name[:dot] if 0 < dot < len(name) - 1 else name)


# ============================================================
# model files
# ============================================================

_MOD_TOKEN = re.compile(r"[(){}\[\],]|[^\s(){}\[\],#]+|#[^\n]*")


class _RawModel:
    __slots__ = ("size", "relations", "functions", "constants")

    def __init__(self):
        self.size = None
        self.relations: dict[str, list[tuple[int, ...]]] = {}
        self.functions: dict[str, tuple[int, ...]] = {}
        self.constants: dict[str, int] = {}


def _parse_model_raw(text: str) -> _RawModel:
    tokens = [t for t in _MOD_TOKEN.findall(text) if not t.startswith("#")]
    raw = _RawModel()
    i = 0

    def take() -> str:
        nonlocal i
        if i >= len(tokens):
            raise CliError("unexpected end of model file")
        i += 1
        return tokens[i - 1]

    def take_int() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise CliError(f"expected an integer, found {tok!r}") from None

    def expect(tok: str) -> None:
        found = take()
        if found != tok:
            raise CliError(f"expected {tok!r}, found {found!r}")

    while i < len(tokens):
        kind = take()
        if kind == "size":
            size = take_int()
            if raw.size is not None:
                raise CliError("duplicate size")
            raw.size = size
        elif kind == "rel":
            name = take()
            expect("{")
            table = []
            while tokens[i:i + 1] != ["}"]:
                expect("(")
                entry = [take_int()]
                while tokens[i:i + 1] == [","]:
                    take()
                    entry.append(take_int())
                expect(")")
                table.append(tuple(entry))
            expect("}")
            if name in raw.relations:
                raise CliError(f"duplicate relation {name!r}")
            raw.relations[name] = table
        elif kind == "fun":
            name = take()
            expect("[")
            values = []
            while tokens[i:i + 1] != ["]"]:
                values.append(take_int())
            expect("]")
            if name in raw.functions:
                raise CliError(f"duplicate function {name!r}")
            raw.functions[name] = tuple(values)
        elif kind == "const":
            name = take()
            value = take_int()
            if name in raw.constants:
                raise CliError(f"duplicate constant {name!r}")
            raw.constants[name] = value
        else:
            raise CliError(f"unknown model directive {kind!r}")
    if raw.size is None:
        raise CliError("model file needs a size directive")
    return raw


def _fun_arity(name: str, table_len: int, size: int) -> int:
    if size < 2:  # no arity is read off the powers of 1, and below 1 the model is refused
        if size == 1 and table_len != 1:
            raise CliError(f"function {name!r}: table length {table_len} on a 1-element universe")
        return 1
    arity, space = 1, size
    while space < table_len:
        arity, space = arity + 1, space * size
    if space != table_len:
        raise CliError(f"function {name!r}: table length {table_len} is not a power of {size}")
    return arity


def _infer_signature(raws: Sequence[_RawModel]) -> Signature:
    rel_arities: dict[str, set[int]] = {}
    fun_arities: dict[str, set[int]] = {}
    consts: set[str] = set()
    for raw in raws:
        for name, table in raw.relations.items():
            rel_arities.setdefault(name, set()).update(len(t) for t in table)
        for name, table in raw.functions.items():
            fun_arities.setdefault(name, set()).add(_fun_arity(name, len(table), raw.size))
        consts.update(raw.constants)
    relations = {}
    for name, arities in rel_arities.items():
        if len(arities) > 1:
            raise CliError(f"relation {name!r} has tuples of mixed arity {sorted(arities)}")
        relations[name] = next(iter(arities)) if arities else 1
    functions = {}
    for name, arities in fun_arities.items():
        if len(arities) != 1:
            raise CliError(f"function {name!r} has inconsistent arity across files")
        functions[name] = next(iter(arities))
    try:
        return Signature(relations, functions, sorted(consts))
    except SignatureError as e:
        raise CliError(str(e)) from None


def _build_model(raw: _RawModel, sig: Signature) -> FiniteModel:
    try:
        return FiniteModel(sig, raw.size,
                           {n: raw.relations.get(n, []) for n in sig.relations},
                           raw.functions, raw.constants)
    except ValueError as e:
        raise CliError(str(e)) from None


def parse_model_text(text: str, sig: Signature | None = None) -> FiniteModel:
    raw = _parse_model_raw(text)
    return _build_model(raw, sig if sig is not None else _infer_signature([raw]))


def load_model(path: str, sig: Signature | None = None) -> FiniteModel:
    return parse_model_text(_read(path), sig)


def load_models(paths: Sequence[str]) -> list[FiniteModel]:
    """Load several model files against their common inferred signature."""
    raws = [_parse_model_raw(_read(p)) for p in paths]
    sig = _infer_signature(raws)
    return [_build_model(raw, sig) for raw in raws]


class _ByteTable(dict):
    """Per byte of a relation bitmap, the texts of the argument tuples set in it.

    The key of byte value v at byte position p is p << 8 | v, and its value
    is the join of part(j) for each bit j set in v, counted from bit 8p.  An
    entry is made on first use, so a wide bitmap costs only the entries its
    bytes reach.  _Renderer keeps one per relation of a signature and size.
    """

    __slots__ = ("part", "_offsets")

    def __init__(self, width: int, part) -> None:
        super().__init__()
        # the keys of byte value 0, one per byte of a bitmap of width bits
        self._offsets = range(0, (width + 7) >> 3 << 8, 256)
        self.part = part

    def __missing__(self, key: int) -> str:
        first = key >> 8 << 3
        value = self[key] = "".join([self.part(first + b) for b in range(8) if key >> b & 1])
        return value

    def texts(self, column: Sequence[int]) -> Iterator[str]:
        """For each bits of column, the texts of its bytes, lowest byte
        first, joined once.  The column's bytes are laid out model after
        model, 256 models at a time, and read one byte position at a time."""
        nbytes = len(self._offsets)
        to_bytes = operator.methodcaller("to_bytes", nbytes, "little")
        data = b"".join([b"".join(map(to_bytes, column[i:i + 256]))
                         for i in range(0, len(column), 256)])
        return map("".join, zip(*[map(self.__getitem__, map(operator.or_, data[p::nbytes],
                                                            itertools.repeat(offset)))
                                  for p, offset in enumerate(self._offsets)]))


class _Renderer:
    """Model texts, in the model file syntax on one line, for the models of
    one signature and size; _renderer keeps one per (signature, size).

    A model's text is made a column at a time: column() renders a whole
    list of models one symbol after another, and model_to_text is its
    one-model case.  A relation's text is read off a byte table
    (_ByteTable) whose entries are the texts of the tuples a bitmap byte
    holds, each followed by a space, "(a,b) (c,d) ", and a model's text
    is its byte texts joined once (_ByteTable.texts).
    """

    __slots__ = ("size", "head", "rels", "funs", "consts", "values")

    def __init__(self, sig: Signature, size: int) -> None:
        self.size = size
        self.head = f"size {size}"
        self.values = [str(v) for v in range(size)]
        self.rels = [(f"rel {name} {{ ",
                      _ByteTable(size ** arity, self._tuple_text(arity)))
                     for name, arity in sig.relations.items()]
        self.funs = [f"fun {name} [ " for name in sig.functions]
        self.consts = [f"const {name} " for name in sig.constants]

    def _tuple_text(self, arity: int):
        values, size = self.values, self.size

        def text(rank: int) -> str:
            digits = []
            for _ in range(arity):
                rank, d = divmod(rank, size)
                digits.append(values[d])
            return f"({','.join(reversed(digits))}) "
        return lru_cache(maxsize=None)(text)  # a tuple is in half the entries of its byte

    def column(self, encs: Sequence[tuple]) -> Iterator[str]:
        """The text of the model with each encoding of encs, in order; made
        as it is read."""
        parts = []
        for i, (head, table) in enumerate(self.rels):
            parts.append(map("{}{}}}".format, itertools.repeat(head),
                             table.texts([enc[1][i] for enc in encs])))
        values = self.values.__getitem__
        for i, head in enumerate(self.funs):
            tables = [enc[2][i] for enc in encs]
            parts.append(map("{}{} ]".format, itertools.repeat(head),
                             map(" ".join, map(map, itertools.repeat(values), tables))))
        for i, head in enumerate(self.consts):
            parts.append(map(operator.add, itertools.repeat(head),
                             map(values, [enc[3][i] for enc in encs])))
        return map(" ".join, zip(itertools.repeat(self.head, len(encs)), *parts))


_renderer = lru_cache(maxsize=64)(_Renderer)


def model_to_text(m: FiniteModel) -> str:
    """Single-line rendering in the model file syntax."""
    return next(_renderer(m.sig, m.size).column([m.encode()]))


# ============================================================
# subcommands
# ============================================================

def _at_least(args, dest: str, least: int, noun: str) -> None:
    value = getattr(args, dest, None)
    if value is not None and value < least:
        flag = "--" + dest.replace("_", "-")
        raise CliError(f"{flag} takes {noun} of {least} or more, got {value}")


# Flags with one range on every command that takes them, checked before any
# command runs so that the diagnostic names the flag; below it a search
# would check nothing.  --bound is checked by each command, since its range
# differs between them.
_RANGES = (
    ("size", 1, "a size"), ("max_size", 1, "a size"),
    ("max_nodes", 1, "a limit"),
    ("index_bound", 1, "an index size"), ("sample_budget", 1, "a budget"),
    ("los_depth", 0, "a depth"), ("max_n", 1, "a length"), ("depth", 1, "a depth"),
)


def _comma_list(value: str, flag: str, noun: str) -> list[str]:
    entries = value.split(",")
    if not all(e.strip() for e in entries):
        raise CliError(f"{flag} takes comma-separated {noun}, got an empty entry in {value!r}")
    return entries


def _in_index_set(args) -> None:
    # ultra's index set has one point per model file
    point = getattr(args, "principal", None)
    if point is not None:
        count = len(_comma_list(args.models, "--models", "model files"))
        if not 0 <= point < count:
            raise CliError(f"--principal takes a point of the index set 0..{count - 1}, "
                           f"got {point}")


def _budget(args) -> WorkBudget:
    return WorkBudget(args.max_nodes)


def _spec_sizes(args) -> Sequence[int]:
    if args.size is not None:
        return [args.size]
    return range(1, args.max_size + 1)


def cmd_parse(args):
    t = load_theory(args.theory)
    f = folang.parse_formula(t.sig, args.formula)
    return 0, [folang.formula_to_text(f)]


def cmd_models(args):
    t = load_theory(args.theory)
    if args.count_only:
        return 0, [str(count_models(t, args.size, _budget(args)))]
    return 0, _renderer(t.sig, args.size).column(enumerate_models(t, args.size, _budget(args)))


def cmd_aut(args):
    m = load_model(args.model)
    return 0, [groups.group_to_text(groups.automorphism_group(m, _budget(args)))]


def cmd_spec(args):
    t = load_theory(args.theory)
    s = spectra.aut_spec(t, _spec_sizes(args), _budget(args))
    return 0, s.report_lines()


def cmd_spec_compare(args):
    t1, t2 = load_theory(args.t1), load_theory(args.t2)
    try:
        for _ in spectra.spectra(t1, t2, _spec_sizes(args), _budget(args)):
            pass
    except spectra.SpectraMismatchError as e:
        return 1, [f"WITNESS {e.witness.describe()}"]
    return 0, ["EQUAL"]


def cmd_build_iso(args):
    # the verifier's limits that were given; the others keep its defaults
    limits = {dest: getattr(args, dest) for dest in ("index_bound", "sample_budget")
              if getattr(args, dest) is not None}
    if limits and not args.verify:
        flag = "--" + next(iter(limits)).replace("_", "-")
        raise CliError(f"{flag} takes effect only with --verify")
    t1, t2 = load_theory(args.t1), load_theory(args.t2)
    budget = _budget(args)
    try:
        b = spectra.build_concrete_iso(t1, t2, args.max_size, budget)
    except spectra.SpectraMismatchError as e:
        return 1, [f"WITNESS {e.witness.describe()}"]
    # the pairs a column at a time, in the order of b's columns
    source, target = b.sigs
    listing = itertools.chain.from_iterable(
        map(" => ".join, zip(_renderer(source, n).column(b.columns[n][0]),
                             _renderer(target, n).column(b.columns[n][1])))
        for n in b.sizes)
    if not args.verify:
        return 0, listing
    report = spectra.verify_concrete_iso(b, t1, t2, args.max_size, budget=budget, **limits)
    flag = {True: "PASS", False: "FAIL"}
    lines = [f"verdict universes={flag[report.universes_ok]} "
             f"isomorphisms={flag[report.iso_ok]} "
             f"ultraproducts={flag[report.ultra_ok]} "
             f"checked_tuples={report.checked_tuples}"]
    if report.universe_witness is not None:
        lines.append(f"universe witness: {model_to_text(report.universe_witness)}")
    if report.iso_witness is not None:
        m, other, h = report.iso_witness
        lines.append(f"iso witness: h={','.join(map(str, h))} "
                     f"m: {model_to_text(m)} n: {model_to_text(other)}")
    return (0 if report.ok else 1), itertools.chain(listing, lines)


def cmd_ultra(args):
    ms = load_models(_comma_list(args.models, "--models", "model files"))
    budget = _budget(args)
    result = ultra.ultraproduct(ms, ultra.Ultrafilter.principal(args.principal, len(ms)), budget)
    lines = [model_to_text(result.quotient)]
    if args.los_depth is not None:
        depth = args.los_depth
        # the closed formulas of depth <= depth, in enumerate_formulas order
        levels = folang.FormulaLevels(ms[0].sig, (), (1 << depth) - 1, depth)
        verdicts = ultra.LosLevels(result, levels)
        nodes = NodeCounter(budget, "enumerating closed formulas")
        failures, witness = 0, None
        for size in range(1, levels.size_bound + 1):
            key = levels.top(size)
            nodes.tick(levels.count(key))
            failed = verdicts.failures(key)
            failures += bin(failed).count("1")
            if failed and witness is None:
                witness = levels.unrank(key, (failed & -failed).bit_length() - 1)
        lines.append(f"los depth={depth} formulas={nodes.count} failures={failures}")
        if witness is not None:
            lines.append(f"los witness: {folang.formula_to_text(witness)}")
            return 1, lines
    return 0, lines


def cmd_beth(args):
    _at_least(args, "bound", 0, "a bound")
    t = load_theory(args.theory)
    phi = definability.beth_search(t, args.target, args.size, args.bound, _budget(args))
    if phi is None:
        return 1, [f"NOTFOUND target={args.target} size<={args.size} bound<={args.bound}"]
    return 0, [folang.formula_to_text(phi)]


def cmd_idc(args):
    t = load_theory(args.theory)
    hidden = _comma_list(args.hidden, "--hidden", "relation names")
    witness = definability.unique_expansion_check(t, hidden, args.size, _budget(args))
    if witness is None:
        return 0, ["OK"]
    m1, m2 = witness
    return 1, ["WITNESS", model_to_text(m1), model_to_text(m2)]


def cmd_subclosure(args):
    t = load_theory(args.theory)
    witness = definability.substructure_closure_check(t, args.size, _budget(args))
    if witness is None:
        return 0, ["OK"]
    m, subset = witness
    return 1, ["WITNESS",
               f"model: {model_to_text(m)}",
               f"subset: {','.join(map(str, subset))}"]


_RANGE = re.compile(r"(\d+)\.\.(\d+)$")


def cmd_seq(args):
    m = _RANGE.match(args.range)
    if m is None:
        raise CliError(f"bad range {args.range!r}, expected START..STOP")
    start, stop = int(m.group(1)), int(m.group(2))
    return 0, [" ".join(irregular.symbols(args.variant, start, stop))]


def cmd_pattern(args):
    _at_least(args, "bound", 0, "a bound")
    p = irregular.parse_pattern(args.pattern)
    pos = irregular.find_pattern(args.variant, p, args.bound)
    if pos is None:
        return 1, ["NOTFOUND"]
    return 0, [str(pos)]


def cmd_irregular_report(args):
    _at_least(args, "bound", 1, "a bound")
    report = irregular.irregularity_report(args.variant, args.max_n, args.bound)
    lines = [f"pattern={e.pattern.to_text()} "
             f"first={'-' if e.first is None else e.first} count={e.count}"
             for e in report.entries]
    tag = f"IRREGULAR-UP-TO n={report.max_n} bound={report.bound}"
    if report.ok:
        return 0, lines + [f"{tag}: PASS"]
    missing = report.missing[0].to_text()
    return 1, lines + [f"{tag}: FAIL missing={missing}"]


def cmd_ts_axioms(args):
    t = irregular.emit_ts_axioms(args.variant, args.depth)
    return 0, theory_to_text(t).rstrip("\n").splitlines()


# ============================================================
# parser and dispatch
# ============================================================

# A flag is (name, add_argument keywords); a tuple of flags is a required
# choice of one of them.
_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}
_BUDGET = ("--max-nodes", {"type": int, "default": DEFAULT_MAX_NODES,
                           "help": "cap on search nodes visited (default %(default)s)"})
_SIZE_CHOICE = (("--size", {"type": int, "help": "universe size (this size only)"}),
                ("--max-size", {"type": int, "help": "all universe sizes 1..N"}))

# name: (handler, help, flags), in the order of the help listing
_COMMANDS = {
    "parse": (cmd_parse, "parse a formula against a theory's signature",
              [("--theory", _REQUIRED), ("--formula", _REQUIRED)]),
    "models": (cmd_models, "enumerate the models of a theory at one size",
               [("--theory", _REQUIRED), ("--size", _INT), ("--count-only", _SWITCH), _BUDGET]),
    "aut": (cmd_aut, "automorphism group of a model", [("--model", _REQUIRED), _BUDGET]),
    "spec": (cmd_spec, "automorphism spectrum of a theory",
             [("--theory", _REQUIRED), _SIZE_CHOICE, _BUDGET]),
    "spec-compare": (cmd_spec_compare, "compare two spectra",
                     [("--t1", _REQUIRED), ("--t2", _REQUIRED), _SIZE_CHOICE, _BUDGET]),
    "build-iso": (cmd_build_iso, "build (and optionally verify) the spectrum-driven bijection",
                  [("--t1", _REQUIRED), ("--t2", _REQUIRED), ("--max-size", _INT),
                   ("--verify", _SWITCH),
                   ("--index-bound", {"type": int, "help": "largest ultrafilter index set "
                                                           "for --verify (default 2)"}),
                   ("--sample-budget", {"type": int, "help": "model tuples --verify samples "
                                                             "per (index size, point) "
                                                             "(default 2000)"}),
                   _BUDGET]),
    "ultra": (cmd_ultra, "ultraproduct of model files",
              [("--models", {"required": True,
                             "help": "comma-separated model files, one per index"}),
               ("--principal", {**_INT, "help": "principal point of the ultrafilter"}),
               ("--los-depth", {"type": int, "help": "also check the Los equivalence for all "
                                                     "closed formulas up to this depth"}),
               _BUDGET]),
    "beth": (cmd_beth, "search for an explicit definition of a relation",
             [("--theory", _REQUIRED), ("--target", _REQUIRED), ("--size", _INT),
              ("--bound", {**_INT, "help": "formula size bound for the search"}), _BUDGET]),
    "idc": (cmd_idc, "implicit definability (unique expansion) check",
            [("--theory", _REQUIRED),
             ("--hidden", {"required": True, "help": "comma-separated relation names to hide"}),
             ("--size", _INT), _BUDGET]),
    "subclosure": (cmd_subclosure, "substructure closure check",
                   [("--theory", _REQUIRED), ("--size", _INT), _BUDGET]),
    "seq": (cmd_seq, "print a stretch of a sequence variant",
            [("--variant", _REQUIRED), ("--range", {"required": True,
                                                    "help": "half-open START..STOP"})]),
    "pattern": (cmd_pattern, "first occurrence of a membership pattern",
                [("--variant", _REQUIRED),
                 ("--pattern", {"required": True, "help": "'m1,m2,...:n' (':n' for empty)"}),
                 ("--bound", _INT)]),
    "irregular-report": (cmd_irregular_report,
                         "occurrence report for all patterns up to a length",
                         [("--variant", _REQUIRED), ("--max-n", _INT), ("--bound", _INT)]),
    "ts-axioms": (cmd_ts_axioms, "emit the finite prefix theory of a variant",
                  [("--variant", _REQUIRED), ("--depth", _INT)]),
}


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for argv, read straight off _COMMANDS
    when argv is a plain command line; None for any other.

    A plain line names a command first, then gives exact flags of that
    command, each at most once, every value a word of its own that does not
    start with "-"; its required flags and its one size choice are there.
    Any other line, help and every line argparse must diagnose among them,
    goes to _build_parser, which alone imports argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[0]]
    options, choice = {}, ()
    for flag in flags:
        if isinstance(flag[0], str):
            options[flag[0]] = flag[1]
        else:
            choice = [name for name, _ in flag]
            options.update(flag)
    given = {}
    words = iter(argv[1:])
    for word in words:
        kind = options.get(word)
        if kind is None or word in given:
            return None
        if kind.get("action") == "store_true":
            given[word] = True
            continue
        value = next(words, "-")  # a missing value fails as a flag would
        if value.startswith("-"):
            return None
        if kind.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        given[word] = value
    if any(kind.get("required") and name not in given for name, kind in options.items()):
        return None
    if choice and sum(name in given for name in choice) != 1:
        return None
    args = SimpleNamespace(command=argv[0], handler=handler)
    for name, kind in options.items():
        default = False if kind.get("action") == "store_true" else kind.get("default")
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return args


def _build_parser(argv: Sequence[str]):
    """The parser for argv: only its command's subparser when argv[0] names
    one, since argparse then hands every later argument to that subparser;
    every command's otherwise, for the listing and argparse's own errors."""
    import argparse  # help and diagnostics only; plain lines never load it
    parser = argparse.ArgumentParser(
        prog="defeq",
        description="Finite-model workbench: automorphism spectra, concrete "
                    "model-class bijections, ultraproducts, definability "
                    "checks, and irregular 0/1 sequences.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        handler, help_text, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in flags:
            if isinstance(flag[0], str):
                p.add_argument(flag[0], **flag[1])
            else:
                group = p.add_mutually_exclusive_group(required=True)
                for choice, options in flag:
                    group.add_argument(choice, **options)
    return parser


def _run(argv: Sequence[str]) -> tuple[int, Iterable[str]]:
    """(exit code, stdout lines) of one command line, less one leading "--".
    Diagnostics go straight to stderr.  A handler does all that can fail
    before it returns, so its lines are only rendered."""
    argv = list(argv)
    if argv[:1] == ["--"]:
        del argv[0]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as e:
            return (e.code if isinstance(e.code, int) else 2), ()
    try:
        for dest, least, noun in _RANGES:
            _at_least(args, dest, least, noun)
        _in_index_set(args)
        return args.handler(args)
    except (CliError, BudgetExceededError, ValueError, OSError) as e:
        _diagnose(f"defeq: {e}")
        return 2, ()
    except InternalError as e:
        _diagnose(f"defeq: internal error: {e}")
        return 3, ()


def dispatch(argv: Sequence[str]) -> tuple[int, str]:
    """Run one command line; returns (exit code, stdout text)."""
    code, lines = _run(argv)
    return code, "".join(line + "\n" for line in lines)


def _diagnose(line: str) -> None:
    """One diagnostic line on stderr; with stderr closed, none anywhere
    (print would fall back to stdout)."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; its lines go to stdout as rendered, 256 a write."""
    code, lines = _run(sys.argv[1:] if argv is None else argv)
    lines = iter(lines)
    while chunk := "".join(line + "\n" for line in itertools.islice(lines, 256)):
        sys.stdout.write(chunk)
    return code


def run():
    """The process entry: main(), then the output flushed, then os._exit.

    Tearing the interpreter down, which frees every object one by one, took
    longer than most commands' own work, and nothing is left to do once the
    output is out; so atexit hooks do not run in this process.  Output that
    cannot be written, a closed pipe or a closed descriptor 1 say, exits 2
    with one line on stderr, if stderr is open.
    """
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = main()
        sys.stdout.flush()
    except OSError as e:
        code = 2
        try:
            _diagnose(f"defeq: cannot write the output: {e}")
        except OSError:
            pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()

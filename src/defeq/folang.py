"""First-order syntax and semantics over finite universes.

Terms and formulas are immutable trees.  The concrete syntax is the one
accepted by parse_formula and produced by formula_to_text; printing and
reparsing any tree yields an equal tree.

Concrete syntax, loosest to tightest binding:

    formula := quant | iff
    quant   := ('A' | 'E') ident '.' formula
    iff     := imp ('<->' imp)*          right associative
    imp     := or ('->' or)*             right associative
    or      := and ('|' and)*            left associative
    and     := unary ('&' unary)*        left associative
    unary   := '!' unary | atom
    atom    := '(' formula ')' | ident '(' term {',' term} ')'
             | term '=' term | term '!=' term
    term    := ident | ident '(' term {',' term} ')'

Identifiers resolve against the signature; an unresolved bare name is a
variable.  't1 != t2' is sugar for '!(t1 = t2)'.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .record import Record, _set

__all__ = [
    "Signature", "Var", "Const", "App", "Term",
    "Rel", "Eq", "Not", "And", "Or", "Implies", "Iff", "Forall", "Exists",
    "Formula", "FormulaSyntaxError", "SignatureError", "UnboundVariableError",
    "MAX_SYNTAX_DEPTH", "MAX_PAREN_DEPTH", "parse_formula", "formula_to_text",
    "free_vars", "formula_size", "formula_depth", "used_symbols",
    "validate_formula", "eval_term", "eval_formula", "compile_lanes",
    "FormulaLevels", "enumerate_formulas",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Most parentheses, grouping or argument lists, open at once in text that
# parse_formula accepts: about what the command line reached when Python's
# recursion limit was the only bound.  The parser recurses only into
# parentheses, at most three frames a level, so this bounds its stack use.
MAX_PAREN_DEPTH = 140

# Most formula and term nodes on one root-to-leaf path that parse_formula
# accepts.  formula_to_text opens at most one parenthesis per node on a path
# and none at the leaf, so every accepted tree prints within MAX_PAREN_DEPTH.
# The walkers that recurse once per node stay far below Python's default
# recursion limit.
MAX_SYNTAX_DEPTH = MAX_PAREN_DEPTH + 1


class FormulaSyntaxError(ValueError):
    """Formula text failed to parse or resolve against the signature."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SignatureError(ValueError):
    """Name clash, bad arity, or use of a symbol not in the signature."""


class UnboundVariableError(ValueError):
    """Evaluation met a free variable missing from the assignment."""


# ============================================================
# signatures
# ============================================================

class Signature:
    """Relation and function arities plus constant names.

    Treated as immutable; symbol names are pairwise distinct identifiers
    and arities are positive.
    """

    __slots__ = ("relations", "functions", "constants", "_key", "_rel_at")

    def __init__(self,
                 relations: Mapping[str, int] | None = None,
                 functions: Mapping[str, int] | None = None,
                 constants: Iterable[str] = ()):
        rels = dict(sorted((relations or {}).items()))
        funs = dict(sorted((functions or {}).items()))
        consts = tuple(sorted(constants))
        names = list(rels) + list(funs) + list(consts)
        if len(set(names)) != len(names):
            raise SignatureError("symbol names must be pairwise distinct")
        for name in names:
            if not _IDENT.fullmatch(name):
                raise SignatureError(f"bad symbol name {name!r}")
        for name, arity in itertools.chain(rels.items(), funs.items()):
            if not isinstance(arity, int) or arity < 1:
                raise SignatureError(f"arity of {name!r} must be a positive integer")
        self.relations = rels
        self.functions = funs
        self.constants = consts
        self._key = (tuple(rels.items()), tuple(funs.items()), consts)
        # each relation's position among the relations, with its arity
        self._rel_at = {name: (i, arity) for i, (name, arity) in enumerate(rels.items())}

    def has_symbol(self, name: str) -> bool:
        return name in self.relations or name in self.functions or name in self.constants

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Signature({self.relations!r}, {self.functions!r}, {self.constants!r})"


# ============================================================
# terms and formulas
# ============================================================

# Each node kind has its own __init__, one of the five below by the shape of
# its fields: the formula stream builds hundreds of thousands of nodes, and
# Record's generic __init__ takes about twice as long.

def _init_name(self, name: str) -> None:
    _set(self, "name", name)


def _init_name_args(self, name: str, args: "tuple[Term, ...]") -> None:
    _set(self, "name", name)
    _set(self, "args", args)


def _init_body(self, body: "Formula") -> None:
    _set(self, "body", body)


def _init_left_right(self, left, right) -> None:
    _set(self, "left", left)
    _set(self, "right", right)


def _init_var_body(self, var: str, body: "Formula") -> None:
    _set(self, "var", var)
    _set(self, "body", body)


class Var(Record):
    __slots__ = ("name",)
    __init__ = _init_name


class Const(Record):
    __slots__ = ("name",)
    __init__ = _init_name


class App(Record):
    __slots__ = ("name", "args")
    __init__ = _init_name_args


Term = Var | Const | App


class Rel(Record):
    __slots__ = ("name", "args")
    __init__ = _init_name_args


class Eq(Record):
    __slots__ = ("left", "right")
    __init__ = _init_left_right


class Not(Record):
    __slots__ = ("body",)
    __init__ = _init_body


class And(Record):
    __slots__ = ("left", "right")
    __init__ = _init_left_right


class Or(Record):
    __slots__ = ("left", "right")
    __init__ = _init_left_right


class Implies(Record):
    __slots__ = ("left", "right")
    __init__ = _init_left_right


class Iff(Record):
    __slots__ = ("left", "right")
    __init__ = _init_left_right


class Forall(Record):
    __slots__ = ("var", "body")
    __init__ = _init_var_body


class Exists(Record):
    __slots__ = ("var", "body")
    __init__ = _init_var_body


Formula = Rel | Eq | Not | And | Or | Implies | Iff | Forall | Exists

_QUANT = {Forall: "A", Exists: "E"}


# The child formula and term nodes of each node kind, left to right: the one
# place that knows the shape of the tree.
_CHILDREN: dict[type, Callable[..., tuple]] = {
    **dict.fromkeys((Var, Const), lambda n: ()),
    **dict.fromkeys((App, Rel), lambda n: n.args),
    **dict.fromkeys((Not, Forall, Exists), lambda n: (n.body,)),
    **dict.fromkeys((Eq, And, Or, Implies, Iff), lambda n: (n.left, n.right)),
}


def _children(node: Formula | Term) -> tuple:
    """Child formula and term nodes of node, left to right."""
    try:
        children = _CHILDREN[type(node)]
    except KeyError:
        raise TypeError(f"not a formula or term: {node!r}") from None
    return children(node)


def _walk(f: Formula) -> Iterator[tuple[Formula | Term, int]]:
    """(node, depth) for every formula and term node of f, the root at depth 1.

    Left-to-right preorder, with an explicit stack, so any depth is fine.
    """
    stack = [(f, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend([(c, depth + 1) for c in reversed(_children(node))])


def free_vars(f: Formula) -> frozenset[str]:
    """Free variable names of f."""
    out: set[str] = set()

    def go(node, bound: frozenset[str]) -> None:
        if isinstance(node, Var):
            if node.name not in bound:
                out.add(node.name)
            return
        if isinstance(node, (Forall, Exists)):
            bound = bound | {node.var}
        for child in _children(node):
            go(child, bound)

    go(f, frozenset())
    return frozenset(out)


def formula_size(f: Formula) -> int:
    """Size used by the enumerator: formula nodes plus function applications.

    Atoms cost 1 plus one per function symbol occurrence in their terms;
    variables and constants are free.  Every connective and quantifier
    costs 1.
    """
    own = 0 if isinstance(f, (Var, Const)) else 1
    return own + sum(map(formula_size, _children(f)))


def formula_depth(f: Formula) -> int:
    """Nesting depth of f; atoms have depth 1."""
    if isinstance(f, (Rel, Eq)):
        return 1
    return 1 + max(map(formula_depth, _children(f)))


def used_symbols(f: Formula) -> dict[str, set[str]]:
    """Signature symbols occurring in f, keyed 'relations'/'functions'/'constants'."""
    out = {"relations": set(), "functions": set(), "constants": set()}
    kinds = {Rel: "relations", App: "functions", Const: "constants"}
    for node, _ in _walk(f):
        kind = kinds.get(type(node))
        if kind is not None:
            out[kind].add(node.name)
    return out


def validate_formula(sig: Signature, f: Formula) -> None:
    """Check that every symbol in f is declared with the right arity.

    Also rejects variables whose names shadow declared symbols, which the
    parser can never produce and evaluation would misread.
    """
    for node, _ in _walk(f):
        if isinstance(node, (Rel, App)):
            kind, arities = (("relation", sig.relations) if isinstance(node, Rel)
                             else ("function", sig.functions))
            arity = arities.get(node.name)
            if arity is None:
                raise SignatureError(f"unknown {kind} {node.name!r}")
            if arity != len(node.args):
                raise SignatureError(f"{kind} {node.name!r} expects {arity} arguments")
        elif isinstance(node, Const):
            if node.name not in sig.constants:
                raise SignatureError(f"unknown constant {node.name!r}")
        elif isinstance(node, Var):
            if sig.has_symbol(node.name):
                raise SignatureError(f"variable {node.name!r} shadows a declared symbol")
        elif isinstance(node, (Forall, Exists)) and sig.has_symbol(node.var):
            raise SignatureError(f"bound variable {node.var!r} shadows a declared symbol")


# ============================================================
# parsing
# ============================================================

# A token, or the first character that starts none: the error.
_TOKEN = re.compile(r"\s*(?:(<->|->|!=|[()=.,!&|]|[A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 2:
            raise FormulaSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append(("", len(text)))
    return tokens


# Binary connectives, loosest first: token, constructor, right associative.
_OPERATORS = {"<->": (Iff, True), "->": (Implies, True), "|": (Or, False), "&": (And, False)}
_LOOSEST_FIRST = tuple(_OPERATORS)


def _combine(operands: list[Formula], ops: list[str], level: int) -> Formula:
    """Tree of operands[0] ops[0] operands[1] ... with the grammar's precedence.

    Splits at the level's connective and combines the parts by its
    associativity; recursion goes only through the four levels.
    """
    if not ops:
        return operands[0]
    tok = _LOOSEST_FIRST[level]
    cuts = [i for i, op in enumerate(ops) if op == tok]
    if not cuts:
        return _combine(operands, ops, level + 1)
    parts = []
    start = 0
    for cut in cuts + [len(ops)]:
        parts.append(_combine(operands[start:cut + 1], ops[start:cut], level + 1))
        start = cut + 1
    ctor, right_assoc = _OPERATORS[tok]
    if right_assoc:
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = ctor(part, out)
    else:
        out = parts[0]
        for part in parts[1:]:
            out = ctor(out, part)
    return out


class _Parser:
    def __init__(self, sig: Signature, text: str):
        self.sig = sig
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self, ahead: int = 0) -> str:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            found = self.peek() or "end of input"
            raise FormulaSyntaxError(f"expected {tok!r}, found {found!r}", self.pos())
        self.i += 1

    def fail(self, message: str) -> "FormulaSyntaxError":
        return FormulaSyntaxError(message, self.pos())

    def open_paren(self) -> None:
        if self.depth == MAX_PAREN_DEPTH:
            raise self.fail(f"formula nested in more than {MAX_PAREN_DEPTH} parentheses")
        self.expect("(")
        self.depth += 1

    def close_paren(self) -> None:
        self.expect(")")
        self.depth -= 1

    # ---- formula levels ----

    def formula(self) -> Formula:
        quants = []
        while self.peek() in ("A", "E") and _IDENT.fullmatch(self.peek(1) or "") \
                and self.peek(2) == ".":
            quant = self.take()
            var = self.take()
            if self.sig.has_symbol(var):
                raise self.fail(f"quantified variable {var!r} clashes with a declared symbol")
            self.expect(".")
            quants.append((quant, var))
        operands = [self.unary()]
        ops = []
        while self.peek() in _OPERATORS:
            ops.append(self.take())
            operands.append(self.unary())
        out = _combine(operands, ops, 0)
        for quant, var in reversed(quants):
            out = Forall(var, out) if quant == "A" else Exists(var, out)
        return out

    def unary(self) -> Formula:
        nots = 0
        while self.peek() == "!":
            self.take()
            nots += 1
        out = self.atom()
        for _ in range(nots):
            out = Not(out)
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.open_paren()
            out = self.formula()
            self.close_paren()
            return out
        if tok in self.sig.relations and self.peek(1) == "(":
            name = self.take()
            args = self.arg_list()
            arity = self.sig.relations[name]
            if len(args) != arity:
                raise self.fail(f"relation {name!r} expects {arity} arguments, got {len(args)}")
            return Rel(name, args)
        left = self.term()
        op = self.peek()
        if op not in ("=", "!="):
            found = op or "end of input"
            raise self.fail(f"expected '=' or '!=' after term, found {found!r}")
        self.take()
        right = self.term()
        eq = Eq(left, right)
        return Not(eq) if op == "!=" else eq

    def arg_list(self) -> tuple[Term, ...]:
        self.open_paren()
        args = [self.term()]
        while self.peek() == ",":
            self.take()
            args.append(self.term())
        self.close_paren()
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if not _IDENT.fullmatch(tok or ""):
            found = tok or "end of input"
            raise self.fail(f"expected a term, found {found!r}")
        name = self.take()
        if self.peek() == "(":
            if name in self.sig.functions:
                args = self.arg_list()
                arity = self.sig.functions[name]
                if len(args) != arity:
                    raise self.fail(f"function {name!r} expects {arity} arguments, got {len(args)}")
                return App(name, args)
            if name in self.sig.relations:
                raise self.fail(f"relation {name!r} used inside a term")
            raise self.fail(f"unknown symbol {name!r} used with arguments")
        if name in self.sig.constants:
            return Const(name)
        if name in self.sig.relations or name in self.sig.functions:
            raise self.fail(f"symbol {name!r} used without arguments")
        return Var(name)


def parse_formula(sig: Signature, text: str) -> Formula:
    """Parse text against sig; raises FormulaSyntaxError on any problem.

    That includes more than MAX_PAREN_DEPTH open parentheses, reported at
    the first parenthesis past the limit, and trees deeper than
    MAX_SYNTAX_DEPTH, which the other walkers could not take.
    """
    p = _Parser(sig, text)
    out = p.formula()
    if p.peek() != "":
        raise FormulaSyntaxError(f"trailing input {p.peek()!r}", p.pos())
    if any(depth > MAX_SYNTAX_DEPTH for _, depth in _walk(out)):
        raise FormulaSyntaxError(
            f"formula nested deeper than {MAX_SYNTAX_DEPTH} levels", 0)
    return out


# ============================================================
# printing
# ============================================================

# precedence levels: 0 formula (quantifiers), then the binary connectives
# from 1 in the parser's loosest-first order, then 5 unary and 6 atoms
_CONNECTIVES = {ctor: (tok, level, right_assoc) for level, (tok, (ctor, right_assoc))
                in enumerate(_OPERATORS.items(), start=1)}


def _term_text(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.name}({','.join(_term_text(a) for a in t.args)})"


def _print(f: Formula, need: int) -> str:
    if isinstance(f, (Forall, Exists)):
        text = f"{_QUANT[type(f)]} {f.var}. {_print(f.body, 0)}"
        own = 0
    elif type(f) in _CONNECTIVES:
        tok, own, right_assoc = _CONNECTIVES[type(f)]
        # the operand on the associative side may share the level
        left, right = (own + 1, own) if right_assoc else (own, own + 1)
        text = f"{_print(f.left, left)} {tok} {_print(f.right, right)}"
    elif isinstance(f, Not):
        if isinstance(f.body, Eq):
            text = f"!({_print(f.body, 0)})"
        else:
            text = f"!{_print(f.body, 5)}"
        own = 5
    elif isinstance(f, Rel):
        text = f"{f.name}({','.join(_term_text(a) for a in f.args)})"
        own = 6
    elif isinstance(f, Eq):
        text = f"{_term_text(f.left)}={_term_text(f.right)}"
        own = 6
    else:
        raise TypeError(f"not a formula: {f!r}")
    if own < need:
        return f"({text})"
    return text


def formula_to_text(f: Formula) -> str:
    """Concrete syntax for f.  parse_formula(sig, formula_to_text(f)) == f."""
    return _print(f, 0)


# ============================================================
# evaluation
# ============================================================

def eval_term(m, t: Term, assignment: Mapping[str, int]) -> int:
    """Value of t in model m under the assignment."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnboundVariableError(f"no value for variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return m.consts[t.name]
        except KeyError:
            raise SignatureError(f"model has no constant {t.name!r}") from None
    if isinstance(t, App):
        try:
            table = m.funs[t.name]
        except KeyError:
            raise SignatureError(f"model has no function {t.name!r}") from None
        idx = 0
        for a in t.args:
            idx = idx * m.size + eval_term(m, a, assignment)
        return table[idx]
    raise TypeError(f"not a term: {t!r}")


def eval_formula(m, f: Formula, assignment: Mapping[str, int] | None = None) -> bool:
    """Tarskian truth of f in m under the assignment."""
    env = dict(assignment) if assignment else {}

    def go(f: Formula) -> bool:
        if isinstance(f, Rel):
            if f.name not in m.sig.relations:
                raise SignatureError(f"model has no relation {f.name!r}")
            return m.holds(f.name, [eval_term(m, a, env) for a in f.args])
        if isinstance(f, Eq):
            return eval_term(m, f.left, env) == eval_term(m, f.right, env)
        if isinstance(f, Not):
            return not go(f.body)
        if isinstance(f, And):
            return go(f.left) and go(f.right)
        if isinstance(f, Or):
            return go(f.left) or go(f.right)
        if isinstance(f, Implies):
            return (not go(f.left)) or go(f.right)
        if isinstance(f, Iff):
            return go(f.left) == go(f.right)
        if isinstance(f, (Forall, Exists)):
            var, saved = f.var, env.get(f.var)
            hit = False
            want = isinstance(f, Exists)
            for value in range(m.size):
                env[var] = value
                if go(f.body) == want:
                    hit = True
                    break
            if saved is None:
                env.pop(var, None)
            else:
                env[var] = saved
            return hit if want else not hit
        raise TypeError(f"not a formula: {f!r}")

    return go(f)


def compile_lanes(sig: Signature, f: Formula, size: int, full: int,
                  lanes: Collection[str] = (), free: Sequence[str] = (),
                  domain: Sequence[int] | None = None) -> Callable:
    """f, for models of sig on {0..size-1}, on many models at once.

    The result takes one sequence: relation bitmaps, function tables and
    constant values, each group in signature order (the flattened
    FiniteModel.encode layout, where bit j of a bitmap is the j-th argument
    tuple in lexicographic order).  The slot of each relation named in
    lanes holds instead one int per argument-tuple rank j whose bit b is
    set when the b-th model under evaluation, its lane, holds the j-th
    tuple; full has one bit per lane.  Bit b of the result is the truth of
    f in the b-th model, so every other relation, every function table and
    every constant is shared by the lanes: a relation reads full or 0 off
    its bitmap, connectives are int operations, and a quantifier ANDs or
    ORs its body over the domain, stopping once no lane can change.  With
    full = 1 and no lane relation the result is f's truth value, 1 or 0.

    The free variables of f must be among free, whose values the result
    takes as a second argument, a sequence in the order of free; with no
    free it takes the one sequence only.  Every variable is resolved at
    compile time to a slot, the free ones first, then one per binder; the
    slots live in one list shared by the closures, so a compiled formula
    must not be evaluated by two threads at once.  eval_formula is the
    reference.

    Quantifiers range over domain, range(size) by default; over a subset
    closed under the functions and holding the constants, that is the
    truth of f in the substructures on it (relativisation).
    """
    fun_at = {name: len(sig.relations) + i for i, name in enumerate(sig.functions)}
    const_at = {name: len(sig.relations) + len(fun_at) + i for i, name in enumerate(sig.constants)}
    if isinstance(lanes, str):
        raise TypeError("lanes takes a collection of relation names, not one name")
    lanes = frozenset(lanes)
    slots = [0] * len(free)
    domain = range(size) if domain is None else domain

    def term(t: Term, scope: Mapping[str, int]) -> Callable[[Sequence], int]:
        if isinstance(t, Var):
            if t.name not in scope:
                raise UnboundVariableError(f"no value for variable {t.name!r}")
            k = scope[t.name]
            return lambda d: slots[k]
        if isinstance(t, Const):
            if t.name not in const_at:
                raise SignatureError(f"unknown constant {t.name!r}")
            c = const_at[t.name]
            return lambda d: d[c]
        if isinstance(t, App):
            if t.name not in fun_at:
                raise SignatureError(f"unknown function {t.name!r}")
            g, rank = fun_at[t.name], index(t.args, scope)
            return lambda d: d[g][rank(d)]
        raise TypeError(f"not a term: {t!r}")

    def index(args: Sequence[Term], scope: Mapping[str, int]) -> Callable[[Sequence], int]:
        # mixed-radix rank of the argument tuple, the bit or entry it selects
        if all(isinstance(a, Var) and a.name in scope for a in args) and len(args) <= 2:
            if len(args) == 1:
                i = scope[args[0].name]
                return lambda d: slots[i]
            i, j = scope[args[0].name], scope[args[1].name]
            return lambda d: slots[i] * size + slots[j]
        parts = [term(a, scope) for a in args]

        def rank(d: Sequence) -> int:
            out = 0
            for part in parts:
                out = out * size + part(d)
            return out
        return rank

    def go(f: Formula, scope: Mapping[str, int]) -> Callable[[Sequence], int]:
        if isinstance(f, Rel):
            if f.name not in sig.relations:
                raise SignatureError(f"unknown relation {f.name!r}")
            r, rank = sig._rel_at[f.name][0], index(f.args, scope)
            if f.name in lanes:
                return lambda d: d[r][rank(d)]
            return lambda d: full if d[r] >> rank(d) & 1 else 0
        if isinstance(f, Eq):
            left, right = term(f.left, scope), term(f.right, scope)
            return lambda d: full if left(d) == right(d) else 0
        if isinstance(f, Not):
            body = go(f.body, scope)
            return lambda d: full ^ body(d)
        if isinstance(f, (And, Or, Implies, Iff)):
            left, right = go(f.left, scope), go(f.right, scope)
            if isinstance(f, And):
                return lambda d: (a := left(d)) and a & right(d)
            if isinstance(f, Or):
                return lambda d: full if (a := left(d)) == full else a | right(d)
            if isinstance(f, Implies):
                return lambda d: full ^ a | right(d) if (a := left(d)) else full
            return lambda d: full ^ left(d) ^ right(d)
        if isinstance(f, (Forall, Exists)):
            k = len(slots)
            slots.append(0)
            body = go(f.body, {**scope, f.var: k})
            if isinstance(f, Forall):
                def forall(d: Sequence) -> int:
                    out = full
                    for value in domain:
                        slots[k] = value
                        out &= body(d)
                        if not out:
                            break
                    return out
                return forall

            def exists(d: Sequence) -> int:
                out = 0
                for value in domain:
                    slots[k] = value
                    out |= body(d)
                    if out == full:
                        break
                return out
            return exists
        raise TypeError(f"not a formula: {f!r}")

    top = go(f, {v: k for k, v in enumerate(free)})
    if not free:
        return top

    nfree = len(free)

    def preset(d: Sequence, values: Sequence[int]) -> int:
        slots[:nfree] = values
        return top(d)
    return preset


# ============================================================
# enumeration
# ============================================================

def _fresh_names(sig: Signature, taken: Iterable[str]) -> Iterator[str]:
    taken = set(taken)
    for i in itertools.count():
        name = f"v{i}"
        if name not in taken and not sig.has_symbol(name):
            yield name


class FormulaLevels:
    """The levels of the formula stream, and the one description of its order.

    A level is a key (size, binders, depth): the formulas of that
    formula_size and of formula_depth <= depth whose free variables are
    among `free` and the first `binders` names of bound_names, which avoid
    the symbols of the signature, `free` and `taken`.  A level is
    a list of sections, in stream order:

        ("atoms", atoms)               relation atoms, relations by name, then equations
        ("not", sub)                   Not(f) for f in level sub
        ("binary", ctor, left, right)  ctor(f, g) for f in left, then g in right
        ("quant", ctor, var, body)     ctor(var, f) for f in body

    with a binary section per connective (And, Or, Implies, Iff, in that
    order) and split of the size, and the quantifiers binding the next
    bound name.  The object stream (formulas, stream), unrank and the truth
    vectors of truth.LevelTruth all read these sections, so the order is written
    down here only.  Nothing is built before it is asked for, so a level
    far beyond what is read costs nothing.
    """

    __slots__ = ("free", "bound_names", "size_bound", "depth", "_rels", "_funs",
                 "_consts", "_terms", "_sections", "_counts", "_lists")

    def __init__(self, sig: Signature, free: Sequence[str], size_bound: int,
                 depth_bound: int | None = None, *, taken: Iterable[str] = ()):
        free = tuple(free)
        if len(set(free)) != len(free):
            raise ValueError("free variable names must be distinct")
        for v in free:
            if sig.has_symbol(v):
                raise SignatureError(f"free variable {v!r} shadows a declared symbol")
        self.free = free
        self.size_bound = size_bound
        self.depth = size_bound if depth_bound is None else depth_bound
        # a quantifier with b names in scope needs size and depth above b
        self.bound_names = tuple(itertools.islice(
            _fresh_names(sig, (*free, *taken)), max(min(size_bound, self.depth), 0)))
        self._rels = sorted(sig.relations.items())
        self._funs = sorted(sig.functions.items())
        self._consts = tuple(Const(c) for c in sig.constants)
        self._terms: dict[tuple[int, int], list[Term]] = {}
        self._sections: dict[tuple[int, int, int], list[tuple]] = {}
        self._counts: dict[tuple[int, int, int], int] = {}
        self._lists: dict[tuple[int, int, int], list[Formula]] = {}

    def top(self, size: int) -> tuple[int, int, int]:
        """The key of the stream's formulas of one size."""
        return self.key(size, 0, self.depth)

    @staticmethod
    def key(size: int, binders: int, depth: int) -> tuple[int, int, int]:
        # a formula's depth never exceeds its size, so depth >= size is no bound
        return size, binders, min(depth, size)

    def _term_list(self, k: int, binders: int) -> list[Term]:
        # terms containing exactly k function applications
        got = self._terms.get((k, binders))
        if got is None:
            if k == 0:
                got = [Var(v) for v in self.free + self.bound_names[:binders]]
                got.extend(self._consts)
            else:
                got = [App(fname, args) for fname, arity in self._funs
                       for args in self._arg_tuples(k - 1, arity, binders)]
            self._terms[(k, binders)] = got
        return got

    def _arg_tuples(self, k: int, arity: int, binders: int) -> Iterator[tuple[Term, ...]]:
        # argument tuples whose function applications total exactly k
        if arity == 1:
            for t in self._term_list(k, binders):
                yield (t,)
            return
        for first in range(k + 1):
            for head in self._term_list(first, binders):
                for rest in self._arg_tuples(k - first, arity - 1, binders):
                    yield (head,) + rest

    def sections(self, key: tuple[int, int, int]) -> list[tuple]:
        """The sections of a level, in stream order."""
        got = self._sections.get(key)
        if got is not None:
            return got
        s, binders, depth = key
        got = []
        if depth >= 1:
            atoms: list[Formula] = [Rel(rname, args) for rname, arity in self._rels
                                    for args in self._arg_tuples(s - 1, arity, binders)]
            atoms.extend(Eq(left, right) for j in range(s)
                         for left in self._term_list(j, binders)
                         for right in self._term_list(s - 1 - j, binders))
            got.append(("atoms", atoms))
        if depth >= 2:
            got.append(("not", self.key(s - 1, binders, depth - 1)))
            got.extend(("binary", ctor, self.key(i, binders, depth - 1),
                        self.key(s - 1 - i, binders, depth - 1))
                       for ctor in (And, Or, Implies, Iff) for i in range(1, s - 1))
            var = self.bound_names[binders]
            got.extend(("quant", ctor, var, self.key(s - 1, binders + 1, depth - 1))
                       for ctor in (Forall, Exists))
        self._sections[key] = got
        return got

    def section_count(self, section: tuple) -> int:
        """The number of formulas in a section."""
        kind = section[0]
        if kind == "atoms":
            return len(section[1])
        if kind == "binary":
            return self.count(section[2]) * self.count(section[3])
        return self.count(section[-1])

    def count(self, key: tuple[int, int, int]) -> int:
        """The number of formulas in a level."""
        got = self._counts.get(key)
        if got is None:
            got = self._counts[key] = sum(map(self.section_count, self.sections(key)))
        return got

    def stream(self, key: tuple[int, int, int]) -> Iterator[Formula]:
        """The formulas of a level in order, built as they are read; the
        sub-levels they are made of are kept."""
        formulas = self.formulas
        for section in self.sections(key):
            kind = section[0]
            if kind == "atoms":
                yield from section[1]
            elif kind == "not":
                for sub in formulas(section[1]):
                    yield Not(sub)
            elif kind == "binary":
                _, ctor, left, right = section
                rights = formulas(right)
                for f in formulas(left):
                    for g in rights:
                        yield ctor(f, g)
            else:
                _, ctor, var, body = section
                for f in formulas(body):
                    yield ctor(var, f)

    def formulas(self, key: tuple[int, int, int]) -> list[Formula]:
        """The formulas of a level in order, built once and kept."""
        got = self._lists.get(key)
        if got is None:
            got = self._lists[key] = list(self.stream(key))
        return got

    def unrank(self, key: tuple[int, int, int], i: int) -> Formula:
        """The i-th formula of a level, built alone."""
        for section in self.sections(key):
            width = self.section_count(section)
            if i >= width:
                i -= width
                continue
            kind = section[0]
            if kind == "atoms":
                return section[1][i]
            if kind == "not":
                return Not(self.unrank(section[1], i))
            if kind == "binary":
                _, ctor, left, right = section
                j, k = divmod(i, self.count(right))
                return ctor(self.unrank(left, j), self.unrank(right, k))
            _, ctor, var, body = section
            return ctor(var, self.unrank(body, i))
        raise IndexError("formula index out of range")


def enumerate_formulas(sig: Signature, free: Sequence[str], size_bound: int,
                       depth_bound: int | None = None) -> Iterator[Formula]:
    """All formulas over sig with free variables among `free`, by size.

    Emitted in increasing size (formula_size), with a fixed constructor
    order inside each size (FormulaLevels), so the stream is a prefix of
    the stream for any larger bound and no formula appears twice.  Bound
    variables are drawn from a canonical fresh-name sequence (one name per
    quantifier depth), so each alpha-equivalence class shows up exactly
    once.

    With depth_bound, only formulas of formula_depth <= depth_bound are
    built, in the order the unbounded stream has them.  Each level (size,
    bound names in scope, depth left) is built once from smaller levels and
    kept; the largest size is streamed and never stored.
    """
    levels = FormulaLevels(sig, free, size_bound, depth_bound)
    for s in range(1, size_bound):
        yield from levels.formulas(levels.top(s))
    if size_bound >= 1:
        yield from levels.stream(levels.top(size_bound))

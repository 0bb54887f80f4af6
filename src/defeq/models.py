"""Finite models over {0..n-1}, theories, enumeration, isomorphism search.

Universe elements are always 0..size-1.  A model is stored as its
encoding, the tuple (size, relation bitmaps, function tables, constant
values) with symbols in sorted name order; enumeration, canonical keys and
every deterministic tiebreak in the package order models by that encoding.
Bit j of a relation bitmap, and entry j of a function table, belong to the
j-th argument tuple in lexicographic order: its mixed-radix rank.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from math import prod
from types import MappingProxyType

from . import folang
from .budget import DEFAULT_BUDGET, BudgetExceededError, NodeCounter, WorkBudget
from .folang import And, Forall, Formula, Iff, Or, Rel, Signature, SignatureError, Var

__all__ = [
    "FiniteModel", "Theory", "is_model", "enumerate_models", "enumerate_encodings",
    "count_models",
    "find_isomorphisms", "is_isomorphism", "canonical_key",
    "apply_permutation", "InternalError",
]


class InternalError(RuntimeError):
    """An invariant the package checks on its own results failed: a bug, not bad input."""


@lru_cache(maxsize=None)
def _tuples(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """The argument tuples over {0..size-1} in rank order."""
    return tuple(itertools.product(range(size), repeat=arity))


def _rank(args: Iterable[int], size: int) -> int:
    out = 0
    for a in args:
        out = out * size + a
    return out


def _ranks(size: int, arity: int, perm: Sequence[int]) -> list[int]:
    """Per tuple rank j, the rank of the j-th tuple's image under perm."""
    out = [0]
    for _ in range(arity):
        out = [r * size + perm[e] for r in out for e in range(size)]
    return out


_BIT = bytes.maketrans(b"01", b"\0\1")


def _ones(bits: int, start: int = 0) -> list[int]:
    """start plus the position of each set bit of bits, in increasing order."""
    # bin() lists the bits from the top; reversed and mapped to bytes 0/1 it
    # selects the positions in C, without a Python-level step per bit
    return list(itertools.compress(itertools.count(start),
                                   bin(bits)[:1:-1].encode().translate(_BIT)))


# The most elements, and argument tuples of one relation, that a model
# built from its tables may have: a wider bitmap is refused before it is
# made (an int of 2**20 bits is 128 KB).
_MAX_TABLE = 1 << 20


class FiniteModel:
    """A finite structure: tables for every symbol of its signature.

    The model is stored as its encoding (see encode).  rels, funs and consts
    are read-only views of it, built on first use: rels maps relation name
    to a frozenset of argument tuples, funs maps function name to a flat
    value table indexed by argument rank, consts maps constant name to an
    element.  Built from tables, its universe and each relation's argument
    tuples may number _MAX_TABLE at most.
    """

    __slots__ = ("sig", "size", "_enc", "_rels", "_funs", "_consts")

    def __init__(self, sig: Signature, size: int,
                 rels: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
                 funs: Mapping[str, Sequence[int]] | None = None,
                 consts: Mapping[str, int] | None = None):
        if size < 1:
            raise ValueError("universe must be nonempty")
        if size > _MAX_TABLE:
            raise ValueError(f"universe of {size} elements, more than a model may have "
                             f"({_MAX_TABLE})")
        for name, arity in sig.relations.items():
            # size**arity is made only once the arity alone cannot rule it out
            if size > 1 and (arity * (size.bit_length() - 1) > _MAX_TABLE.bit_length()
                             or size ** arity > _MAX_TABLE):
                raise ValueError(f"relation {name!r} has {size}**{arity} argument tuples, "
                                 f"more than a model may have ({_MAX_TABLE})")
        rels = dict(rels or {})
        funs = dict(funs or {})
        consts = dict(consts or {})
        for name, kind in itertools.chain(
                ((n, sig.relations) for n in rels),
                ((n, sig.functions) for n in funs),
                ((n, sig.constants) for n in consts)):
            if name not in kind:
                raise SignatureError(f"table for undeclared symbol {name!r}")
        rel_part = []
        for name, arity in sig.relations.items():
            bits = 0
            for t in rels.get(name, ()):
                t = tuple(t)
                if len(t) != arity or not all(0 <= e < size for e in t):
                    raise ValueError(f"bad tuple {t!r} for relation {name!r}")
                bits |= 1 << _rank(t, size)
            rel_part.append(bits)
        fun_part = []
        for name, arity in sig.functions.items():
            if name not in funs:
                raise ValueError(f"missing table for function {name!r}")
            table = tuple(funs[name])
            if len(table) != size ** arity or not all(0 <= v < size for v in table):
                raise ValueError(f"bad table for function {name!r}")
            fun_part.append(table)
        const_part = []
        for name in sig.constants:
            if name not in consts:
                raise ValueError(f"missing value for constant {name!r}")
            value = consts[name]
            if not 0 <= value < size:
                raise ValueError(f"constant {name!r} out of range")
            const_part.append(value)
        self._set(sig, (size, tuple(rel_part), tuple(fun_part), tuple(const_part)))

    def _set(self, sig: Signature, enc: tuple) -> None:
        self.sig = sig
        self.size = enc[0]
        self._enc = enc
        self._rels = self._funs = self._consts = None

    @classmethod
    def _from_encoding(cls, sig: Signature, enc: tuple) -> "FiniteModel":
        """The model whose encode() is enc; trusted, enc is not checked."""
        m = object.__new__(cls)
        m._set(sig, enc)
        return m

    # ---- views and lookups ----

    @property
    def rels(self) -> Mapping[str, frozenset[tuple[int, ...]]]:
        if self._rels is None:
            self._rels = MappingProxyType(
                {name: frozenset(self.tuples(name)) for name in self.sig.relations})
        return self._rels

    @property
    def funs(self) -> Mapping[str, tuple[int, ...]]:
        if self._funs is None:
            self._funs = MappingProxyType(dict(zip(self.sig.functions, self._enc[2])))
        return self._funs

    @property
    def consts(self) -> Mapping[str, int]:
        if self._consts is None:
            self._consts = MappingProxyType(dict(zip(self.sig.constants, self._enc[3])))
        return self._consts

    def tuples(self, name: str) -> list[tuple[int, ...]]:
        """The argument tuples of relation name in lexicographic order, off its bitmap."""
        i, arity = self.sig._rel_at[name]
        return list(map(_tuples(self.size, arity).__getitem__, _ones(self._enc[1][i])))

    def holds(self, name: str, args: Sequence[int]) -> bool:
        """Is args in relation name?  Read off its bitmap; False for a tuple
        of the wrong arity or with an element outside the universe."""
        i, arity = self.sig._rel_at[name]
        if len(args) != arity:
            return False
        size, rank = self.size, 0
        for a in args:
            if not 0 <= a < size:
                return False
            rank = rank * size + a
        return self._enc[1][i] >> rank & 1 == 1

    # ---- encoding and ordering ----

    def encode(self) -> tuple:
        """Order-defining encoding: (size, relation bitmaps, function tables, constants).

        Bit j of a relation bitmap is membership of the j-th argument tuple
        in lexicographic order, so counting the bitmap upward walks tables
        in the documented enumeration order.
        """
        return self._enc

    def encode_bytes(self) -> bytes:
        size, rel_part, fun_part, const_part = self._enc
        out = [size.to_bytes(2, "big")]
        for bits, arity in zip(rel_part, self.sig.relations.values()):
            width = (size ** arity + 7) // 8
            out.append(bits.to_bytes(width, "big"))
        for table in fun_part:
            out.append(bytes(table))
        out.append(bytes(const_part))
        return b"".join(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteModel) and self.sig == other.sig
                and self._enc == other._enc)

    def __hash__(self) -> int:
        return hash((self.sig, self._enc))

    def __repr__(self) -> str:
        parts = [f"size={self.size}"]
        parts.extend(f"{name}={self.tuples(name)}" for name in self.sig.relations)
        parts.extend(f"{name}={list(self.funs[name])}" for name in self.sig.functions)
        parts.extend(f"{name}={self.consts[name]}" for name in self.sig.constants)
        return f"FiniteModel({', '.join(parts)})"


def apply_permutation(m: FiniteModel, perm: Sequence[int]) -> FiniteModel:
    """The image of m under a permutation of its universe."""
    if sorted(perm) != list(range(m.size)):
        raise ValueError("not a permutation of the universe")
    size, bitmaps, tables, consts = m.encode()
    rel_part = []
    for bits, arity in zip(bitmaps, m.sig.relations.values()):
        dst = _ranks(size, arity, perm)
        rel_part.append(sum(1 << dst[j] for j in _ones(bits)))
    fun_part = []
    for table, arity in zip(tables, m.sig.functions.values()):
        new = [0] * len(table)
        for j, d in enumerate(_ranks(size, arity, perm)):
            new[d] = perm[table[j]]
        fun_part.append(tuple(new))
    return FiniteModel._from_encoding(
        m.sig, (size, tuple(rel_part), tuple(fun_part), tuple(perm[c] for c in consts)))


class Theory:
    """A signature plus a finite tuple of closed axioms."""

    __slots__ = ("sig", "axioms", "name", "note")

    def __init__(self, sig: Signature, axioms: Iterable[Formula] = (),
                 name: str = "", note: str = ""):
        axioms = tuple(axioms)
        for ax in axioms:
            folang.validate_formula(sig, ax)
            fv = folang.free_vars(ax)
            if fv:
                raise ValueError(f"axiom has free variables {sorted(fv)}")
        self.sig = sig
        self.axioms = axioms
        self.name = name
        self.note = note

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Theory) and self.sig == other.sig
                and self.axioms == other.axioms)

    def __hash__(self) -> int:
        return hash((self.sig, self.axioms))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Theory{label}: {len(self.axioms)} axioms over {self.sig!r}>"


def is_model(m: FiniteModel, t: Theory) -> bool:
    """True when m satisfies every axiom of t."""
    if m.sig != t.sig:
        raise SignatureError("model and theory signatures differ")
    return all(folang.eval_formula(m, ax) for ax in t.axioms)


def _split(f: Formula, ctor: type) -> list[Formula]:
    """The top-level ctor-operands of f, left to right; iterative, for long chains."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, ctor):
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


# Tuple bits that vary within one block of lanes: a block evaluates 2**16
# tables of a relation at once, in ints of 8 KB.
_LANE_BITS = 16


@lru_cache(maxsize=None)
def _lanes(width: int) -> tuple[list[int], int]:
    """(patterns, full) for the tables of a relation with width tuple bits.

    A block holds 2**k tables, k = min(width, _LANE_BITS), one per bit
    lane: lane b is the table whose low k bits are b.  patterns[j] has bit b
    set when bit j of b is, so it is the lane mask of the j-th tuple, and
    full has every lane set.
    """
    k = min(width, _LANE_BITS)
    lanes = 1 << k
    patterns = []
    for j in range(k):
        # a run of 2**j clear then 2**j set lanes, doubled across the block
        run = 1 << j
        p, span = (1 << run) - 1 << run, 2 * run
        while span < lanes:
            p |= p << span
            span *= 2
        patterns.append(p)
    return patterns, (1 << lanes) - 1


def _blocks(width: int) -> Iterator[tuple[int, list[int]]]:
    """(first table, lane mask per tuple rank) for each block of tables, in order."""
    patterns, full = _lanes(width)
    k = len(patterns)
    for high in range(1 << (width - k)):
        yield high << k, patterns + [full if high >> j & 1 else 0 for j in range(width - k)]


def _transpose(columns: Sequence[int], width: int) -> list[int]:
    """The rows of a bit matrix given by columns: bit i of row j is bit j
    of columns[i], for j < width; the columns must be below 2**width.

    The columns are read _TRANSPOSE_CHUNK at a time, so a long list of
    them, such as all the models of one size, costs little memory."""
    rows = [0] * width
    digits = f"0{width}b"
    for start in range(0, len(columns), _TRANSPOSE_CHUNK):
        chunk = [format(c, digits) for c in columns[start:start + _TRANSPOSE_CHUNK]]
        # zip reads one bit position of every column, printed from its top bit
        for j, bits in enumerate(zip(*chunk)):
            rows[width - 1 - j] |= int("".join(bits)[::-1], 2) << start
    return rows


# Columns that _transpose prints at once.
_TRANSPOSE_CHUNK = 4096


def _definer(sig: Signature, variables: Sequence[str], phi: Formula, size: int,
             full: int = 1, lanes: Collection[str] = ()) -> Callable[[Sequence], list[int]]:
    """The relation that A x1..xk. (R(x1,..,xk) <-> phi) defines, in lanes:
    data (the slots of folang.compile_lanes) to one lane mask per argument
    tuple, in rank order, phi evaluated with variables preset to the tuple.
    With full = 1, _transpose(rows, 1)[0] is R's bitmap."""
    run = folang.compile_lanes(sig, phi, size, full, lanes, variables)
    k = len(variables)
    return lambda data: [run(data, a) for a in _tuples(size, k)]


def _definition(f: Formula, taken: Collection[str]
                ) -> tuple[str, tuple[str, ...], Formula] | None:
    """(R, argument variables, phi) when the closed formula f is
    A x1..xk. (R(x1,..,xk) <-> phi), either side first, with the xi
    distinct, k R's arity and R neither in phi nor in taken; else None."""
    xs = []
    while isinstance(f, Forall):
        xs.append(f.var)
        f = f.body
    if not isinstance(f, Iff) or len(set(xs)) != len(xs):
        return None
    for atom, phi in ((f.left, f.right), (f.right, f.left)):
        if (isinstance(atom, Rel) and atom.name not in taken
                and all(isinstance(a, Var) for a in atom.args)
                and sorted(a.name for a in atom.args) == sorted(xs)
                and atom.name not in folang.used_symbols(phi)["relations"]):
            return atom.name, tuple(a.name for a in atom.args), phi
    return None


class _Plan:
    """Which relations the walk searches and which it computes.

    A top-level conjunct A x1..xk. (R(x1,..,xk) <-> phi) (_definition), the
    first one of R, defines R, unless R is on a cycle of definitions; those
    R are searched, and their conjuncts stay constraints.  The walk assigns
    the other relations, walked, in signature order: walked[i] at level i.
    A defined relation is computed at the level of the last relation its
    definition reads, a defined one through its own level, or at level -1,
    once per function/constant choice, when it reads none.  computed[i] lists
    (position, definer, moves, cost) per relation computed at level i, in
    dependency order: its _definer on the level's lanes, whether it reads a
    relation of an earlier level >= 0, directly or through one that moves,
    and so depends on the walk's prefix, and its cost in nodes per
    evaluation.  constraints are the other conjuncts.
    """

    __slots__ = ("walked", "level", "lanes", "full", "computed", "moving", "constraints")

    def __init__(self, sig: Signature, conjuncts: list[Formula], size: int,
                 widths: list[int], limit: int):
        defs: dict[str, tuple] = {}  # name: (variables, phi, relations read, conjunct)
        for c in conjuncts:
            d = _definition(c, defs)
            if d is not None:
                defs[d[0]] = (d[1], d[2], folang.used_symbols(d[2])["relations"], c)

        def on_cycle(name: str) -> bool:
            seen, stack = set(), [name]
            while stack:
                for r in defs[stack.pop()][2] & defs.keys() - seen:
                    if r == name:
                        return True
                    seen.add(r)
                    stack.append(r)
            return False
        for name in [n for n in defs if on_cycle(n)]:
            del defs[name]
        self.constraints = [c for c in conjuncts if all(c is not d[3] for d in defs.values())]
        self.walked = [i for i, name in enumerate(sig.relations) if name not in defs]
        names = list(sig.relations)
        level = self.level = {names[j]: i for i, j in enumerate(self.walked)}
        self.moving: set[str] = set()
        order: list[str] = []

        def place(name: str) -> None:
            # name's level, after its defined inputs'
            reads = defs[name][2]
            for r in sorted(reads & defs.keys() - level.keys(), key=sig._rel_at.__getitem__):
                place(r)
            at = level[name] = max(map(level.__getitem__, reads), default=-1)
            if any(0 <= level[r] < at or r in self.moving for r in reads):
                self.moving.add(name)
            order.append(name)
        for name in sorted(defs, key=sig._rel_at.__getitem__):
            if name not in level:
                place(name)
        self.lanes = [(names[j], *(n for n in order if level[n] == i))
                      for i, j in enumerate(self.walked)]
        self.full = [_lanes(widths[j])[1] for j in self.walked]
        self.computed: dict[int, list] = {}
        for name in order:
            i = level[name]
            variables, phi = defs[name][:2]
            run = (_definer(sig, variables, phi, size, self.full[i], self.lanes[i]) if i >= 0
                   else _definer(sig, variables, phi, size))
            r, arity = sig._rel_at[name]
            # one node per argument tuple phi is evaluated at; 2**limit of
            # them outnumber max_nodes
            cost = size ** arity if size == 1 or arity < limit else 1 << limit
            self.computed.setdefault(i, []).append((r, run, name in self.moving, cost))


class _Conjunct:
    """One top-level conjunct of an axiom, its disjuncts compiled and grouped.

    free is the check (folang.compile_lanes with full = 1) of the
    disjunction of the disjuncts that read no relation of a level >= 0
    (_Plan), or None.  Every other disjunct goes to the group of the last
    level it reads: at maps that level i to the lane check of the group's
    disjunction, with the level's lanes (_Plan.lanes), and spans holds the
    i whose group also reads an earlier level >= 0 or a relation that
    moves.  last is the last level any disjunct reads, -1 if none.
    """

    __slots__ = ("free", "at", "spans", "last")

    def __init__(self, sig: Signature, f: Formula, size: int, plan: _Plan):
        free: list[Formula] = []
        groups: dict[int, list[Formula]] = {}
        self.spans = set()
        for d in _split(f, Or):
            used = folang.used_symbols(d)["relations"]
            i = max(map(plan.level.__getitem__, used), default=-1)
            if i < 0:
                free.append(d)
                continue
            groups.setdefault(i, []).append(d)
            if any(0 <= plan.level[r] < i or r in plan.moving for r in used):
                self.spans.add(i)
        self.free = folang.compile_lanes(sig, reduce(Or, free), size, 1) if free else None
        self.at = {i: folang.compile_lanes(sig, reduce(Or, ds), size, plan.full[i], plan.lanes[i])
                   for i, ds in groups.items()}
        self.last = max(self.at, default=-1)


def enumerate_models(t: Theory, size: int,
                     budget: WorkBudget | None = None) -> list[FiniteModel]:
    """All models of t on the universe {0..size-1}, in encoding order.

    A relation with an explicit definition, a top-level conjunct
    A x1..xk. (R(x1,..,xk) <-> phi) with phi free of R, is computed, never
    searched (_Plan): once the relations its definition reads are
    assigned, phi is evaluated at each argument tuple, on all the tables
    of the last of them at once, in lanes, which gives R's bitmap in each
    lane.  Definitions on a cycle stay constraints.  The walk searches the
    other relations.  Each other axiom conjunct is split into top-level
    disjuncts, grouped by the last level they read (a computed relation
    belongs to the level it is computed at) and compiled once per group.
    For every choice of function tables and constants the relations
    computed from none are computed, and the disjuncts that read no other
    relation decided.  A conjunct left with one group that reads its own
    level only filters that level's tables, once; a conjunct left with
    several keeps, per level whose group reads that level only, the
    sub-list of filtered tables on which the group holds.  The filter
    evaluates a level's relations on 2**16 tables at a time, one per bit
    lane of an int (_blocks), with the relations computed there that read
    no earlier level.  The searched relations are then assigned in
    signature order.  When the walk reaches level i, a group that also
    reads earlier levels is evaluated on all of i's filtered tables at
    once, in lanes, giving its sub-list for this prefix, with the
    relations computed at i that read earlier levels.  A conjunct is
    satisfied once a table assigned is on the sub-list of one of its
    groups; at its last level, that level runs over the conjunct's
    sub-list only.  So every full candidate reached is a model, and at the
    last level every choice left completes one: the walk hands those
    choices over at once (_leaves), one comprehension builds their
    encodings, and count_models only counts them.

    The budget counts candidates actually visited: each function/constant
    choice probed, each table evaluated in lanes, while filtering or at a
    prefix (ticked a block at a time, before the block is evaluated), and
    each table the walk assigns (those of the last level ticked at once),
    so every model reached and every partial candidate on the way to it.
    A computed relation adds one node per argument tuple its definition is
    evaluated at: per block of its level, ticked with the block, or per
    function/constant choice, ticked with the choice, at level -1.
    A function/constant factor larger than the budget is refused before
    the search starts.
    """
    sig = t.sig
    return [FiniteModel._from_encoding(sig, enc) for enc in enumerate_encodings(t, size, budget)]


def enumerate_encodings(t: Theory, size: int,
                        budget: WorkBudget | None = None) -> list[tuple]:
    """The sorted encodings of enumerate_models(t, size, budget), by its
    search, building no model."""
    out: list[tuple] = []
    for _, rel_parts, fun_part, const_part in _leaves(t, size, budget):
        out += [(size, rels, fun_part, const_part) for rels in rel_parts]
    out.sort()
    return out


def count_models(t: Theory, size: int, budget: WorkBudget | None = None) -> int:
    """len(enumerate_models(t, size, budget)) by the same search, with the
    same node count and budget exits, building no model."""
    return sum(leaf[0] for leaf in _leaves(t, size, budget))


def _bitmaps(blocks: Sequence[dict], at: int, k: int, tables: Iterable[int]) -> Iterator[int]:
    """Relation at's bitmap with each of tables, read off the lane masks
    of its block in blocks: table b is lane b & (2**k - 1) of block b >> k."""
    current, columns, mask = -1, [], (1 << k) - 1
    for b in tables:
        if b >> k != current:
            current = b >> k
            columns = _transpose(blocks[current][at], 1 << k)
        yield columns[b & mask]


def _leaves(t: Theory, size: int, budget: WorkBudget | None
            ) -> Iterator[tuple[int, Iterable[tuple[int, ...]], tuple, tuple]]:
    """The search of enumerate_models, one item per leaf: (count, relation
    parts, function tables, constants), the relation parts being the
    tuples of relation bitmaps of the leaf's count models, in signature
    order.  A leaf is a prefix of every searched relation but the last,
    with the last one's choices left, or a function/constant choice when
    no relation is searched."""
    if size < 1:
        raise ValueError("universe must be nonempty")
    budget = budget or DEFAULT_BUDGET
    sig = t.sig
    # 2**limit tables outnumber max_nodes, so the search never visits them
    # all: a function of limit entries is refused before its table count is
    # made, a wider relation is cut to limit tuple bits and refused once
    # filtered, sieved or counted whole (over_budget), and size ** arity is
    # not made when the arity alone rules it out.  The walk ticks a cut
    # relation's first tables, left as they are, until the budget runs out.
    limit = budget.max_nodes.bit_length()
    wide = size > 1 and any(a >= limit or size ** a >= limit for a in sig.functions.values())
    fun_space = 0 if wide else prod(size ** (size ** a) for a in sig.functions.values()) \
        * size ** len(sig.constants)
    if wide or fun_space > budget.max_nodes:
        raise BudgetExceededError(f"enumerating {fun_space or 'too many'} function/constant "
                                  f"tables at size {size}", budget.max_nodes)
    nodes = NodeCounter(budget, f"enumerating models at size {size}")
    nrels = len(sig.relations)
    widths = [min(size ** arity, limit) if size == 1 or arity < limit else limit
              for arity in sig.relations.values()]
    plan = _Plan(sig, [c for ax in t.axioms for c in _split(ax, And)], size, widths, limit)
    conjuncts = [_Conjunct(sig, c, size, plan) for c in plan.constraints]
    walked = plan.walked
    last = len(walked) - 1
    computed = [plan.computed.get(i, ()) for i in range(len(walked))]
    moving = [[(r, run, cost) for r, run, moves, cost in here if moves] for here in computed]
    moving_levels = {i for i, m in enumerate(moving) if m}
    lane_bits = [len(_lanes(widths[j])[0]) for j in walked]
    # the last relation is the last searched one, with nothing computed at
    # its level: each leaf's models differ in that relation only
    plain = walked[-1:] == [nrels - 1] and not computed[-1]
    # what the compiled groups and definitions read: relation bitmaps,
    # function tables, constants; while level i is evaluated in lanes, the
    # slots of its relations hold a block's lanes
    data: list = [0] * nrels
    # per level and block: the lane masks (_definer) of the relations
    # computed there, by position
    rows: list[Sequence[dict]] = [()] * len(walked)

    def over_budget(i: int) -> None:
        # every table of level i is about to be evaluated: when there are
        # more than max_nodes, the one tick for them all raises
        if widths[walked[i]] == limit:
            nodes.tick(1 << limit)

    def filter_tables(i: int, checks: list, spanning: list[_Conjunct]) -> Sequence[int]:
        # level i's tables on which every check holds; fills subs[c, i],
        # oks[i] with the kept lanes per block, and rows[i] with the
        # relations computed at i that do not move
        j = walked[i]
        mine = [c for c in spanning if i in c.at and i not in c.spans]
        fixed = [(r, run, cost) for r, run, moves, cost in computed[i] if not moves]
        full = plan.full[i]
        if not checks and not mine and not fixed:
            oks[i] = itertools.repeat(full)  # every lane of every block
            rows[i] = itertools.repeat({})
            return range(1 << widths[j])
        over_budget(i)
        kept: list[int] = []
        hits: list[list[int]] = [[] for _ in mine]
        # a list per block only where it is read: oks[i] by sieve, rows[i]
        # by sieve and _bitmaps when a relation is computed here
        blocks = oks[i] = [] if i in sieved else None
        made = rows[i] = [] if fixed else itertools.repeat({})
        for first, lanes in _blocks(widths[j]):
            # one node per table in the block, and per tuple of each relation computed
            nodes.tick(full.bit_length() + sum(cost for _, _, cost in fixed))
            data[j] = lanes
            block = {}
            for r, run, _ in fixed:
                block[r] = data[r] = run(data)
            ok = full
            for check in checks:
                ok &= check(data)
                if not ok:
                    break
            if blocks is not None:
                blocks.append(ok)
            if fixed:
                made.append(block)
            if checks:
                kept += _ones(ok, first)
            for c, hit in zip(mine, hits):
                hit += _ones(ok and ok & c.at[i](data), first)
        for c, hit in zip(mine, hits):
            subs[c, i] = (hit, set(hit))
        return kept if checks else range(1 << widths[j])

    def sieve(i: int, spans: list[_Conjunct], moving: list) -> None:
        # subs[c, i] for the groups at i that read earlier levels, and the
        # relations computed at i that move, on the kept tables of level i,
        # with levels 0..i-1 assigned
        over_budget(i)
        j, full = walked[i], plan.full[i]
        hits: list[list[int]] = [[] for _ in spans]
        made = []
        for (first, lanes), ok, block in zip(_blocks(widths[j]), oks[i], rows[i]):
            block = dict(block)
            made.append(block)
            if not ok:
                continue
            nodes.tick(full.bit_length() + sum(cost for _, _, cost in moving))
            data[j] = lanes
            for r, lane_rows in block.items():
                data[r] = lane_rows
            for r, run, _ in moving:
                block[r] = data[r] = run(data)
            for c, hit in zip(spans, hits):
                hit += _ones(ok & c.at[i](data), first)
        rows[i] = made
        for c, hit in zip(spans, hits):
            subs[c, i] = (hit, set(hit))

    def walk(i: int, pending: list[_Conjunct]):
        here = computed[i]
        if i in sieved:
            spans = [c for c in pending if i in c.spans]
            if spans or moving[i]:
                sieve(i, spans, moving[i])
        forced = [c for c in pending if c.last == i]
        if not forced:
            choices = kept[i]
        elif len(forced) == 1:
            choices = subs[forced[0], i][0]
        else:
            choices = [b for b in subs[forced[0], i][0]
                       if all(b in subs[c, i][1] for c in forced[1:])]
        # the bitmaps of the relations computed at i, with each choice
        columns = [_bitmaps(rows[i], r, lane_bits[i], choices) for r, *_ in here] if here else ()
        if i == last:
            # every pending conjunct is forced here, so each choice is a model
            over_budget(i)
            nodes.tick(len(choices))
            if plain:
                yield len(choices), zip(*map(itertools.repeat, data[:nrels - 1]), choices), \
                    fun_part, const_part
                return
            parts = list(map(itertools.repeat, data[:nrels]))
            parts[walked[i]] = choices
            for (r, *_), column in zip(here, columns):
                parts[r] = column
            yield len(choices), zip(*parts), fun_part, const_part
            return
        if here:
            values = zip(*columns)
        j = walked[i]
        for bits in choices:
            nodes.tick()
            data[j] = bits
            if here:
                for (r, *_), value in zip(here, next(values)):
                    data[r] = value
            yield from walk(i + 1, [c for c in pending
                                    if i not in c.at or bits not in subs[c, i][1]])

    nfuns = len(sig.functions)
    unread = plan.computed.get(-1, ())  # computed once per function/constant choice
    choice_cost = 1 + sum(cost for *_, cost in unread)
    for combo in itertools.product(
            *(itertools.product(range(size), repeat=size ** a) for a in sig.functions.values()),
            *(range(size) for _ in sig.constants)):
        nodes.tick(choice_cost)
        data[nrels:] = combo
        for r, run, *_ in unread:
            data[r] = _transpose(run(data), 1)[0]
        checks: list[list] = [[] for _ in walked]
        spanning: list[_Conjunct] = []
        for c in conjuncts:
            if c.free and c.free(data):
                continue
            if not c.at:
                break
            if not c.spans and len(c.at) == 1:
                [(i, ev)] = c.at.items()
                checks[i].append(ev)
            else:
                spanning.append(c)
        else:
            subs: dict[tuple[_Conjunct, int], tuple[list[int], set[int]]] = {}
            # the levels where the walk sieves: groups spanning to them, or
            # relations computed there that move
            sieved = {i for c in spanning for i in c.spans} | moving_levels
            oks: list = [None] * len(walked)
            kept = [filter_tables(i, checks[i], spanning) for i in range(len(walked))]
            fun_part, const_part = combo[:nfuns], combo[nfuns:]
            if walked:
                yield from walk(0, spanning)
            else:
                yield 1, [tuple(data[:nrels])], fun_part, const_part


# ============================================================
# isomorphism
# ============================================================

def _colors(m: FiniteModel) -> list[tuple]:
    """Cheap permutation-invariant label per element, for search pruning.

    An element's label holds, per relation, how many tuples have it at each
    position; per function, how many entries take it as value; and which
    constants name it.
    """
    size, bitmaps, tables, consts = m.encode()
    labels: list[list] = [[] for _ in range(size)]
    for bits, arity in zip(bitmaps, m.sig.relations.values()):
        counts = [[0] * arity for _ in range(size)]
        for t in map(_tuples(size, arity).__getitem__, _ones(bits)):
            for p, e in enumerate(t):
                counts[e][p] += 1
        for label, c in zip(labels, counts):
            label.append(tuple(c))
    for table in tables:
        for e, label in enumerate(labels):
            label.append(table.count(e))
    for e, label in enumerate(labels):
        label.append(tuple(c == e for c in consts))
    return [tuple(label) for label in labels]


def is_isomorphism(m: FiniteModel, n: FiniteModel, h: Sequence[int]) -> bool:
    """Does the bijection h: universe(m) -> universe(n) carry m onto n?"""
    if m.sig != n.sig:
        raise SignatureError("models have different signatures")
    if m.size != n.size or sorted(h) != list(range(m.size)):
        return False
    return apply_permutation(m, h).encode() == n.encode()


def find_isomorphisms(m: FiniteModel, n: FiniteModel,
                      budget: WorkBudget | None = None) -> list[tuple[int, ...]]:
    """All isomorphisms m -> n as image tuples, in lexicographic order.

    Backtracking over partial maps with color pruning; elements of m are
    assigned in increasing order, candidate images in increasing order, so
    the output order is the lexicographic order on image tuples.  Equal
    sorted colors give equal tuple counts, so a map carrying every tuple of
    m into n's bitmap carries m's tables onto n's.  The budget counts each
    partial map tried.
    """
    if m.sig != n.sig:
        raise SignatureError("models have different signatures")
    if m.size != n.size:
        return []
    size = m.size
    nodes = NodeCounter(budget or DEFAULT_BUDGET, f"searching for isomorphisms at size {size}")
    if n is m:
        # the identity is an automorphism, so the search ticks at least one
        # node per element: refuse a universe above the budget before
        # labelling it
        if size > nodes.limit:
            raise BudgetExceededError(nodes.what, nodes.limit)
        cm = cn = _colors(m)
    else:
        cm, cn = _colors(m), _colors(n)
        if sorted(cm) != sorted(cn):
            return []
    _, m_bitmaps, m_tables, m_consts = m.encode()
    _, n_bitmaps, n_tables, n_consts = n.encode()

    # relation tuples, function entries and constants become checkable once
    # their largest element is assigned (assignment order is 0,1,2,...):
    # (n's bitmap, m's tuple), (n's table, m's arguments, m's value), n's value
    rel_by_max: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(size)]
    for bits, other, arity in zip(m_bitmaps, n_bitmaps, m.sig.relations.values()):
        for t in map(_tuples(size, arity).__getitem__, _ones(bits)):
            rel_by_max[max(t)].append((other, t))
    fun_by_max: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = \
        [[] for _ in range(size)]
    for table, other, arity in zip(m_tables, n_tables, m.sig.functions.values()):
        for args, value in zip(_tuples(size, arity), table):
            fun_by_max[max(*args, value)].append((other, args, value))
    const_at: list[list[int]] = [[] for _ in range(size)]
    for value, other in zip(m_consts, n_consts):
        const_at[value].append(other)

    out: list[tuple[int, ...]] = []
    image = [-1] * size
    used = [False] * size

    def consistent(k: int) -> bool:
        for bits, t in rel_by_max[k]:
            if not bits >> _rank(map(image.__getitem__, t), size) & 1:
                return False
        for table, args, value in fun_by_max[k]:
            if table[_rank(map(image.__getitem__, args), size)] != image[value]:
                return False
        return all(image[k] == other for other in const_at[k])

    def extend(k: int) -> None:
        if k == size:
            out.append(tuple(image))
            return
        cands = [c for c in range(size) if not used[c] and cn[c] == cm[k]]
        nodes.tick(len(cands))
        for cand in cands:
            image[k] = cand
            used[cand] = True
            if consistent(k):
                extend(k + 1)
            used[cand] = False
        image[k] = -1

    extend(0)
    return out


def canonical_key(m: FiniteModel) -> bytes:
    """Minimal byte encoding of m's tables over all universe permutations.

    Two models on the same signature and size are isomorphic exactly when
    their canonical keys agree.
    """
    return min(apply_permutation(m, perm).encode_bytes()
               for perm in itertools.permutations(range(m.size)))

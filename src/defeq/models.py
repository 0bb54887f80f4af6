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
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from math import prod
from types import MappingProxyType

from . import folang
from .budget import DEFAULT_BUDGET, BudgetExceededError, NodeCounter, WorkBudget
from .folang import And, Formula, Or, Signature, SignatureError

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


class _ByteTable(dict):
    """Per byte of a bitmap, a value read off the bit positions set in it.

    The key of byte value v at byte position p is p << 8 | v, and its value
    is join([part(j) for each bit j set in v, counted from bit 8p]).  An
    entry is made on first use, so a wide bitmap costs only the entries its
    bytes reach.
    """

    __slots__ = ("part", "join", "nbytes", "_offsets")

    def __init__(self, width: int, part, join) -> None:
        super().__init__()
        self.nbytes = (width + 7) >> 3  # of a bitmap of width bits
        self._offsets = range(0, self.nbytes << 8, 256)  # the keys of byte value 0
        self.part = part
        self.join = join

    def __missing__(self, key: int):
        first = key >> 8 << 3
        value = self[key] = self.join([self.part(first + b) for b in range(8) if key >> b & 1])
        return value

    def read(self, bits: int) -> Iterator:
        """The values of bits' bytes, lowest byte first; a zero byte's value
        is join([])."""
        return map(self.__getitem__,
                   map(operator.add, bits.to_bytes(self.nbytes, "little"), self._offsets))

    def sums(self, column: Sequence[int]) -> Iterator:
        """sum(self.read(bits)) for each bits of column, read one byte
        position at a time over the whole column."""
        out = None
        for offset in self._offsets:
            low = map(operator.rshift, column, itertools.repeat(offset >> 5)) if offset else column
            keys = map(operator.or_, map(operator.and_, low, itertools.repeat(255)),
                       itertools.repeat(offset))
            values = map(self.__getitem__, keys)
            out = values if out is None else map(operator.add, out, values)
        return out


class FiniteModel:
    """A finite structure: tables for every symbol of its signature.

    The model is stored as its encoding (see encode).  rels, funs and consts
    are read-only views of it, built on first use: rels maps relation name
    to a frozenset of argument tuples, funs maps function name to a flat
    value table indexed by argument rank, consts maps constant name to an
    element.
    """

    __slots__ = ("sig", "size", "_enc", "_rels", "_funs", "_consts")

    def __init__(self, sig: Signature, size: int,
                 rels: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
                 funs: Mapping[str, Sequence[int]] | None = None,
                 consts: Mapping[str, int] | None = None):
        if size < 1:
            raise ValueError("universe must be nonempty")
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

    def fun_value(self, name: str, args: Sequence[int]) -> int:
        return self.funs[name][_rank(args, self.size)]

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


class _Conjunct:
    """One top-level conjunct of an axiom, its disjuncts compiled and grouped.

    free is the check (folang.compile_lanes with full = 1) of the
    disjunction of the relation-free disjuncts, or None.  Every other
    disjunct goes to the group of the last relation it mentions in
    signature order: at maps that relation's index j to the lane check of
    the group's disjunction, with relation j as the lane relation, and
    spans holds the j whose group also reads an earlier relation.  last is
    the last relation any disjunct mentions, -1 if none.
    """

    __slots__ = ("free", "at", "spans", "last")

    def __init__(self, sig: Signature, f: Formula, size: int):
        free: list[Formula] = []
        groups: dict[str, list[Formula]] = {}
        wide: set[str] = set()
        for d in _split(f, Or):
            used = sorted(folang.used_symbols(d)["relations"], key=sig._rel_at.__getitem__)
            if not used:
                free.append(d)
                continue
            groups.setdefault(used[-1], []).append(d)
            if len(used) > 1:
                wide.add(used[-1])
        self.free = folang.compile_lanes(sig, reduce(Or, free), size, 1) if free else None
        self.at = {}
        for name, ds in groups.items():
            j, arity = sig._rel_at[name]
            self.at[j] = folang.compile_lanes(sig, reduce(Or, ds), size,
                                              _lanes(size ** arity)[1], (name,))
        self.spans = {sig._rel_at[name][0] for name in wide}
        self.last = max(self.at, default=-1)


def enumerate_models(t: Theory, size: int,
                     budget: WorkBudget | None = None) -> list[FiniteModel]:
    """All models of t on the universe {0..size-1}, in encoding order.

    Each axiom is split into top-level conjuncts, and each conjunct into
    top-level disjuncts, grouped by the last relation they mention and
    compiled once per group.  For every choice of function tables and
    constants the relation-free disjuncts are decided first.  A conjunct
    left with one group, about one relation only, filters that relation's
    bitmaps, once; a conjunct left with several keeps, per relation whose
    group mentions that relation only, the sub-list of filtered bitmaps on
    which the group holds.  The filter evaluates a relation's groups on
    2**16 bitmaps at a time, one per bit lane of an int (_blocks).
    Relations are then assigned in signature order.  When the walk reaches
    relation i, a group that also reads relations before i is evaluated on
    all of i's filtered bitmaps at once, in lanes, giving its sub-list for
    this prefix.  A conjunct is satisfied once a bitmap assigned is on the
    sub-list of one of its groups; at its last relation, that relation runs
    over the conjunct's sub-list only.  So every full candidate reached is
    a model, and at the last relation every choice left completes one: the
    walk hands those choices over at once (_leaves), one comprehension
    builds their encodings, and count_models only counts them.

    The budget counts candidates actually visited: each function/constant
    choice probed, each relation bitmap evaluated in lanes, while filtering
    or at a prefix (ticked a block at a time, before the block is
    evaluated), and each relation table the walk assigns (those of the
    last relation ticked at once), so every model reached and every
    partial candidate on the way to it.  A function/constant factor larger
    than the budget is refused before the search starts.
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


def _leaves(t: Theory, size: int, budget: WorkBudget | None
            ) -> Iterator[tuple[int, Iterable[tuple[int, ...]], tuple, tuple]]:
    """The search of enumerate_models, one item per leaf: (count, relation
    parts, function tables, constants), the relation parts being the
    tuples of relation bitmaps of the leaf's count models.  A leaf is a
    prefix of every relation but the last, with the last relation's choices
    left, or a function/constant choice when there are no relations."""
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
    conjuncts = [_Conjunct(sig, c, size) for ax in t.axioms for c in _split(ax, And)]

    nrels = len(sig.relations)
    widths = [min(size ** arity, limit) if size == 1 or arity < limit else limit
              for arity in sig.relations.values()]
    # what the compiled groups read: relation bitmaps, function tables,
    # constants; while relation i is evaluated in lanes, its slot holds a
    # block's lanes
    data: list = [0] * nrels
    last = nrels - 1

    def over_budget(i: int) -> None:
        # every table of relation i is about to be evaluated: when there are
        # more than max_nodes, the one tick for them all raises
        if widths[i] == limit:
            nodes.tick(1 << limit)

    def filter_tables(i: int, checks: list, spanning: list[_Conjunct]) -> Sequence[int]:
        # relation i's bitmaps on which every check holds; fills subs[c, i],
        # and oks[i] with the kept lanes per block when a group spans to i
        mine = [c for c in spanning if i in c.at and i not in c.spans]
        full = _lanes(widths[i])[1]
        if not checks and not mine:
            oks[i] = itertools.repeat(full)  # every lane of every block
            return range(1 << widths[i])
        over_budget(i)
        kept: list[int] = []
        hits: list[list[int]] = [[] for _ in mine]
        blocks = oks[i] = []
        for first, lanes in _blocks(widths[i]):
            nodes.tick(full.bit_length())  # one node per table in the block
            data[i] = lanes
            ok = full
            for check in checks:
                ok &= check(data)
                if not ok:
                    break
            if i in spanned:
                blocks.append(ok)
            kept += _ones(ok, first)
            for c, hit in zip(mine, hits):
                hit += _ones(ok and ok & c.at[i](data), first)
        for c, hit in zip(mine, hits):
            subs[c, i] = (hit, set(hit))
        return kept

    def sieve(i: int, spans: list[_Conjunct]) -> None:
        # subs[c, i] for the groups at i that read earlier relations, on
        # the kept bitmaps of i, with relations 0..i-1 assigned
        over_budget(i)
        full = _lanes(widths[i])[1]
        hits: list[list[int]] = [[] for _ in spans]
        for (first, lanes), ok in zip(_blocks(widths[i]), oks[i]):
            if not ok:
                continue
            nodes.tick(full.bit_length())
            data[i] = lanes
            for c, hit in zip(spans, hits):
                hit += _ones(ok & c.at[i](data), first)
        for c, hit in zip(spans, hits):
            subs[c, i] = (hit, set(hit))

    def walk(i: int, pending: list[_Conjunct]):
        if i in spanned:
            spans = [c for c in pending if i in c.spans]
            if spans:
                sieve(i, spans)
        forced = [c for c in pending if c.last == i]
        if not forced:
            choices = kept[i]
        elif len(forced) == 1:
            choices = subs[forced[0], i][0]
        else:
            choices = [b for b in subs[forced[0], i][0]
                       if all(b in subs[c, i][1] for c in forced[1:])]
        if i == last:
            # every pending conjunct is forced here, so each choice is a model
            over_budget(i)
            nodes.tick(len(choices))
            yield len(choices), zip(*map(itertools.repeat, data[:i]), choices), \
                fun_part, const_part
            return
        for bits in choices:
            nodes.tick()
            data[i] = bits
            yield from walk(i + 1, [c for c in pending
                                    if i not in c.at or bits not in subs[c, i][1]])

    nfuns = len(sig.functions)
    for combo in itertools.product(
            *(itertools.product(range(size), repeat=size ** a) for a in sig.functions.values()),
            *(range(size) for _ in sig.constants)):
        nodes.tick()
        data[nrels:] = combo
        checks: list[list] = [[] for _ in range(nrels)]
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
            spanned = {i for c in spanning for i in c.spans}
            oks: list = [None] * nrels
            kept = [filter_tables(i, checks[i], spanning) for i in range(nrels)]
            fun_part, const_part = combo[:nfuns], combo[nfuns:]
            if nrels:
                yield from walk(0, spanning)
            else:
                yield 1, [()], fun_part, const_part


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

    nodes = NodeCounter(budget or DEFAULT_BUDGET, f"searching for isomorphisms at size {size}")
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

"""Finite models over {0..n-1}, theories, enumeration, isomorphism search.

Universe elements are always 0..size-1.  A model's encoding is the tuple
(relation bitmaps, function tables, constant values) with symbols in sorted
name order; enumeration, canonical keys and every deterministic tiebreak in
the package order models by that encoding.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from . import folang
from .budget import BudgetExceededError, NodeCounter, WorkBudget
from .folang import And, Formula, Or, Signature, SignatureError

__all__ = [
    "FiniteModel", "Theory", "is_model", "enumerate_models",
    "find_isomorphisms", "is_isomorphism", "canonical_key",
    "reduct", "substructure", "apply_permutation", "Relabelling", "orbits",
    "InternalError",
]


class InternalError(RuntimeError):
    """An invariant the package checks on its own results failed: a bug, not bad input."""


class FiniteModel:
    """A finite structure: tables for every symbol of its signature.

    rels maps relation name to a frozenset of argument tuples, funs maps
    function name to a flat value table indexed by mixed-radix argument
    rank, consts maps constant name to an element.
    """

    __slots__ = ("sig", "size", "rels", "funs", "consts", "_enc")

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
        norm_rels: dict[str, frozenset[tuple[int, ...]]] = {}
        for name, arity in sig.relations.items():
            table = frozenset(tuple(t) for t in rels.get(name, ()))
            for t in table:
                if len(t) != arity or not all(0 <= e < size for e in t):
                    raise ValueError(f"bad tuple {t!r} for relation {name!r}")
            norm_rels[name] = table
        norm_funs: dict[str, tuple[int, ...]] = {}
        for name, arity in sig.functions.items():
            if name not in funs:
                raise ValueError(f"missing table for function {name!r}")
            table = tuple(funs[name])
            if len(table) != size ** arity or not all(0 <= v < size for v in table):
                raise ValueError(f"bad table for function {name!r}")
            norm_funs[name] = table
        norm_consts: dict[str, int] = {}
        for name in sig.constants:
            if name not in consts:
                raise ValueError(f"missing value for constant {name!r}")
            value = consts[name]
            if not 0 <= value < size:
                raise ValueError(f"constant {name!r} out of range")
            norm_consts[name] = value
        self.sig = sig
        self.size = size
        self.rels = norm_rels
        self.funs = norm_funs
        self.consts = norm_consts
        self._enc = None

    @classmethod
    def _raw(cls, sig: Signature, size: int, rels, funs, consts) -> "FiniteModel":
        # trusted fast path for enumeration loops; inputs already normalized
        m = object.__new__(cls)
        m.sig = sig
        m.size = size
        m.rels = rels
        m.funs = funs
        m.consts = consts
        m._enc = None
        return m

    # ---- lookups ----

    def fun_value(self, name: str, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.funs[name][idx]

    # ---- encoding and ordering ----

    def encode(self) -> tuple:
        """Order-defining encoding: relation bitmaps, function tables, constants.

        Bit j of a relation bitmap is membership of the j-th argument tuple
        in lexicographic order, so counting the bitmap upward walks tables
        in the documented enumeration order.
        """
        if self._enc is None:
            rel_part = []
            for name, arity in self.sig.relations.items():
                bits = 0
                for j, t in enumerate(itertools.product(range(self.size), repeat=arity)):
                    if t in self.rels[name]:
                        bits |= 1 << j
                rel_part.append(bits)
            fun_part = tuple(self.funs[name] for name in self.sig.functions)
            const_part = tuple(self.consts[name] for name in self.sig.constants)
            self._enc = (self.size, tuple(rel_part), fun_part, const_part)
        return self._enc

    def encode_bytes(self) -> bytes:
        size, rel_part, fun_part, const_part = self.encode()
        out = [size.to_bytes(2, "big")]
        for bits, (name, arity) in zip(rel_part, self.sig.relations.items()):
            width = (size ** arity + 7) // 8
            out.append(bits.to_bytes(width, "big"))
        for table in fun_part:
            out.append(bytes(table))
        out.append(bytes(const_part))
        return b"".join(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteModel) and self.sig == other.sig
                and self.size == other.size and self.encode() == other.encode())

    def __hash__(self) -> int:
        return hash((self.sig, self.encode()))

    def __repr__(self) -> str:
        parts = [f"size={self.size}"]
        parts.extend(f"{name}={sorted(self.rels[name])}" for name in self.sig.relations)
        parts.extend(f"{name}={list(self.funs[name])}" for name in self.sig.functions)
        parts.extend(f"{name}={self.consts[name]}" for name in self.sig.constants)
        return f"FiniteModel({', '.join(parts)})"


def apply_permutation(m: FiniteModel, perm: Sequence[int]) -> FiniteModel:
    """The image of m under a permutation of its universe."""
    if sorted(perm) != list(range(m.size)):
        raise ValueError("not a permutation of the universe")
    rels = {name: frozenset(tuple(perm[e] for e in t) for t in table)
            for name, table in m.rels.items()}
    funs = {}
    for name, arity in m.sig.functions.items():
        table = m.funs[name]
        new = [0] * len(table)
        for args in itertools.product(range(m.size), repeat=arity):
            idx = 0
            for a in args:
                idx = idx * m.size + perm[a]
            old = 0
            for a in args:
                old = old * m.size + a
            new[idx] = perm[table[old]]
        funs[name] = tuple(new)
    consts = {name: perm[value] for name, value in m.consts.items()}
    return FiniteModel._raw(m.sig, m.size, rels, funs, consts)


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


def _any(evs: list):
    return evs[0] if len(evs) == 1 else lambda d: any(ev(d) for ev in evs)


def _all(evs: list):
    return evs[0] if len(evs) == 1 else lambda d: all(ev(d) for ev in evs)


class _Conjunct:
    """One top-level conjunct of an axiom, its disjuncts compiled and grouped.

    free holds the relation-free disjuncts, single maps a relation's index
    to one check of the disjuncts that mention only that relation, and
    multi holds the disjuncts over two or more relations.
    """

    __slots__ = ("free", "single", "multi", "last")

    def __init__(self, sig: Signature, f: Formula, size: int):
        rel_at = {name: i for i, name in enumerate(sig.relations)}
        self.free, self.multi = [], []
        single: dict[int, list] = {}
        for d in _split(f, Or):
            used = folang.used_symbols(d)["relations"]
            ev = folang.compile_formula(sig, d, size)
            if not used:
                self.free.append(ev)
            elif len(used) == 1:
                single.setdefault(rel_at[used.pop()], []).append(ev)
            else:
                self.multi.append(ev)
        self.single = {i: _any(evs) for i, evs in single.items()}
        # The last relation the walk assigns is the conjunct's last chance,
        # unless a multi disjunct can still satisfy it on the full candidate.
        self.last = -1 if self.multi or not single else max(single)


def enumerate_models(t: Theory, size: int,
                     budget: WorkBudget | None = None) -> list[FiniteModel]:
    """All models of t on the universe {0..size-1}, in encoding order.

    Each axiom is split into top-level conjuncts, and each conjunct into
    top-level disjuncts, compiled once.  For every choice of function
    tables and constants the relation-free disjuncts are decided first.  A
    conjunct left with disjuncts about one relation only filters that
    relation's bitmaps, once; a conjunct over several relations keeps, per
    relation, the sub-list of filtered bitmaps on which its disjuncts about
    that relation hold.  Relations are then assigned in signature order,
    and once a conjunct has one unassigned relation left and is not yet
    satisfied, that relation runs over the conjunct's sub-list only.
    Disjuncts over two or more relations are checked on full candidates.

    The budget counts candidates actually visited: each function/constant
    choice probed, each relation bitmap evaluated while filtering, and each
    relation table the walk assigns, so every full candidate reached and
    every partial one on the way to it.
    """
    if size < 1:
        raise ValueError("universe must be nonempty")
    budget = budget or WorkBudget()
    sig = t.sig
    fun_space = prod(size ** (size ** a) for a in sig.functions.values()) \
        * size ** len(sig.constants)
    if fun_space > budget.max_functions:
        raise BudgetExceededError(
            f"enumerating {fun_space} function/constant tables at size {size}",
            budget.max_functions)
    nodes = NodeCounter(budget, f"enumerating models at size {size}")
    conjuncts = [_Conjunct(sig, c, size) for ax in t.axioms for c in _split(ax, And)]

    rel_names = list(sig.relations)
    nrels = len(rel_names)
    widths = [1 << size ** arity for arity in sig.relations.values()]
    rel_tuples = [list(itertools.product(range(size), repeat=arity))
                  for arity in sig.relations.values()]
    tables: list[dict[int, frozenset]] = [{} for _ in rel_names]  # per accepted bitmap
    # what the compiled disjuncts read: relation bitmaps, function tables, constants
    data: list = [0] * nrels
    out: list[FiniteModel] = []

    def factor(i: int, checks: list, spanning: list[_Conjunct]) -> Sequence[int]:
        # relation i's bitmaps on which every check holds; fills subs[c, i]
        mine = [c for c in spanning if i in c.single]
        if not checks and not mine:
            return range(widths[i])
        check = _all(checks)
        kept = []
        hits: list[list[int]] = [[] for _ in mine]
        for bits in range(widths[i]):
            nodes.tick()
            data[i] = bits
            if check(data):
                kept.append(bits)
                for c, hit in zip(mine, hits):
                    if c.single[i](data):
                        hit.append(bits)
        for c, hit in zip(mine, hits):
            subs[c, i] = (hit, set(hit))
        return kept

    def walk(i: int, pending: list[_Conjunct]) -> None:
        if i == nrels:
            if all(any(ev(data) for ev in c.multi) for c in pending):
                bitmaps = tuple(data[:nrels])
                rels = {name: _table(tables[j], rel_tuples[j], bits)
                        for j, (name, bits) in enumerate(zip(rel_names, bitmaps))}
                m = FiniteModel._raw(sig, size, rels, funs, consts)
                m._enc = (size, bitmaps, fun_part, const_part)  # what encode() computes
                out.append(m)
            return
        forced = [c for c in pending if c.last == i]
        if not forced:
            choices = kept[i]
        elif len(forced) == 1:
            choices = subs[forced[0], i][0]
        else:
            choices = [b for b in subs[forced[0], i][0]
                       if all(b in subs[c, i][1] for c in forced[1:])]
        for bits in choices:
            nodes.tick()
            data[i] = bits
            walk(i + 1, [c for c in pending
                         if i not in c.single or bits not in subs[c, i][1]])

    nfuns = len(sig.functions)
    for combo in itertools.product(
            *(itertools.product(range(size), repeat=size ** a) for a in sig.functions.values()),
            *(range(size) for _ in sig.constants)):
        nodes.tick()
        data[nrels:] = combo
        checks: list[list] = [[] for _ in rel_names]
        spanning: list[_Conjunct] = []
        for c in conjuncts:
            if any(ev(data) for ev in c.free):
                continue
            if not c.single and not c.multi:
                break
            if not c.multi and len(c.single) == 1:
                [(i, ev)] = c.single.items()
                checks[i].append(ev)
            else:
                spanning.append(c)
        else:
            subs: dict[tuple[_Conjunct, int], tuple[list[int], set[int]]] = {}
            kept = [factor(i, checks[i], spanning) for i in range(nrels)]
            fun_part, const_part = combo[:nfuns], combo[nfuns:]
            funs = dict(zip(sig.functions, fun_part))
            consts = dict(zip(sig.constants, const_part))
            walk(0, spanning)
    out.sort(key=FiniteModel.encode)
    return out


def _table(cache: dict[int, frozenset], tuples: list[tuple[int, ...]],
           bits: int) -> frozenset:
    """The argument tuples of bitmap bits, built once per bitmap."""
    got = cache.get(bits)
    if got is None:
        got = cache[bits] = frozenset(t for j, t in enumerate(tuples) if bits >> j & 1)
    return got


# ============================================================
# isomorphism
# ============================================================

def _colors(m: FiniteModel) -> list[tuple]:
    """Cheap permutation-invariant label per element, for search pruning."""
    out = []
    for e in range(m.size):
        label = []
        for name, arity in m.sig.relations.items():
            table = m.rels[name]
            label.append(tuple(sum(1 for t in table if t[p] == e) for p in range(arity)))
        for name in m.sig.functions:
            table = m.funs[name]
            label.append(sum(1 for v in table if v == e))
        label.append(tuple(m.consts[name] == e for name in m.sig.constants))
        out.append(tuple(label))
    return out


def is_isomorphism(m: FiniteModel, n: FiniteModel, h: Sequence[int]) -> bool:
    """Does the bijection h: universe(m) -> universe(n) carry m onto n?"""
    if m.sig != n.sig:
        raise SignatureError("models have different signatures")
    if m.size != n.size or sorted(h) != list(range(m.size)):
        return False
    for name, table in m.rels.items():
        if {tuple(h[e] for e in t) for t in table} != n.rels[name]:
            return False
    for name, arity in m.sig.functions.items():
        for args in itertools.product(range(m.size), repeat=arity):
            image = tuple(h[a] for a in args)
            if h[m.fun_value(name, args)] != n.fun_value(name, image):
                return False
    for name, value in m.consts.items():
        if h[value] != n.consts[name]:
            return False
    return True


def find_isomorphisms(m: FiniteModel, n: FiniteModel) -> list[tuple[int, ...]]:
    """All isomorphisms m -> n as image tuples, in lexicographic order.

    Backtracking over partial maps with color pruning; elements of m are
    assigned in increasing order, candidate images in increasing order, so
    the output order is the lexicographic order on image tuples.
    """
    if m.sig != n.sig:
        raise SignatureError("models have different signatures")
    if m.size != n.size:
        return []
    size = m.size
    cm, cn = _colors(m), _colors(n)
    if sorted(cm) != sorted(cn):
        return []
    for name in m.sig.relations:
        if len(m.rels[name]) != len(n.rels[name]):
            return []

    # relation tuples and function entries become checkable once their
    # largest element is assigned (assignment order is 0,1,2,...)
    rel_by_max: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(size)]
    for name, table in m.rels.items():
        for t in table:
            rel_by_max[max(t)].append((name, t))
    fun_by_max: list[list[tuple[str, tuple[int, ...], int]]] = [[] for _ in range(size)]
    for name, arity in m.sig.functions.items():
        for args in itertools.product(range(size), repeat=arity):
            value = m.fun_value(name, args)
            fun_by_max[max((*args, value))].append((name, args, value))

    out: list[tuple[int, ...]] = []
    image = [-1] * size
    used = [False] * size

    def consistent(k: int) -> bool:
        for name, t in rel_by_max[k]:
            if tuple(image[e] for e in t) not in n.rels[name]:
                return False
        for name, args, value in fun_by_max[k]:
            if n.fun_value(name, tuple(image[a] for a in args)) != image[value]:
                return False
        for name, value in m.consts.items():
            if value == k and image[k] != n.consts[name]:
                return False
        return True

    def extend(k: int) -> None:
        if k == size:
            out.append(tuple(image))
            return
        for cand in range(size):
            if used[cand] or cn[cand] != cm[k]:
                continue
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


class Relabelling:
    """The n! relabellings of one signature's models on {0..n-1}, as index tables.

    perms lists the permutations in lexicographic order.  For the i-th
    permutation p and each arity k of the signature, the tables hold, per
    k-tuple rank j, the bit (as a power of two) that p moves bit j of a
    relation bitmap to, and, per rank r, the argument rank whose value
    lands at rank r of a relabelled function table.  They are built per
    instance, when a caller asks for one, never at import.
    """

    __slots__ = ("size", "perms", "_moves")

    def __init__(self, sig: Signature, size: int):
        self.size = size
        self.perms = list(itertools.permutations(range(size)))
        self._moves: dict[int, list[tuple[list[int], list[int]]]] = {}
        for arity in {*sig.relations.values(), *sig.functions.values()}:
            tuples = list(itertools.product(range(size), repeat=arity))
            rank = {t: r for r, t in enumerate(tuples)}
            rows = []
            for p in self.perms:
                dst = [rank[tuple(p[e] for e in t)] for t in tuples]
                src = [0] * len(dst)
                for j, d in enumerate(dst):
                    src[d] = j
                rows.append(([1 << d for d in dst], src))
            self._moves[arity] = rows

    def orbit(self, m: FiniteModel, nodes: NodeCounter
              ) -> tuple[dict[tuple, tuple[int, ...]], list[tuple[int, ...]]]:
        """Sweep every relabelling of m once: (images, stabilizer).

        images maps each distinct image's encoding to the first permutation,
        in lexicographic order, that gives it: apply_permutation(m, p) has
        encoding e for p = images[e].  stabilizer lists the permutations
        that fix m, which is Aut(m) in lexicographic order.  nodes counts
        one node per permutation applied.
        """
        if m.size != self.size:
            raise ValueError(f"model of size {m.size}, relabellings of size {self.size}")
        nodes.tick(len(self.perms))
        enc = m.encode()
        size, rel_part, fun_part, consts = enc
        rels = [(self._moves[k], [j for j in range(size ** k) if bits >> j & 1])
                for bits, k in zip(rel_part, m.sig.relations.values())]
        funs = [(self._moves[k], table)
                for table, k in zip(fun_part, m.sig.functions.values())]
        images: dict[tuple, tuple[int, ...]] = {}
        stabilizer = []
        for i, p in enumerate(self.perms):
            image = (size,
                     tuple([sum(map(moves[i][0].__getitem__, ones)) for moves, ones in rels]),
                     tuple([tuple([p[table[j]] for j in moves[i][1]]) for moves, table in funs]),
                     tuple([p[c] for c in consts]))
            images.setdefault(image, p)
            if image == enc:
                stabilizer.append(p)
        return images, stabilizer


def orbits(models: Sequence[FiniteModel], nodes: NodeCounter
           ) -> Iterator[tuple[list[FiniteModel], list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """Split models of one signature and size, in encoding order, into classes.

    One Relabelling sweep per isomorphism class, from its least member m,
    yields (members in encoding order, moves, Aut(m) in lexicographic
    order), where moves[i] carries m = members[0] onto members[i].  Classes
    come in the order of their least members; since fixed-width encodings
    order like their bytes, members[0].encode_bytes() is the canonical key.
    InternalError is raised unless every image is one of the models not
    yet classified (the list is closed under relabelling) and
    |class| * |Aut(m)| = n! (orbit-stabilizer).
    """
    if not models:
        return
    relabelling = Relabelling(models[0].sig, models[0].size)
    pending = {m.encode(): m for m in models}
    for m in models:
        if m.encode() not in pending:
            continue
        images, stabilizer = relabelling.orbit(m, nodes)
        order = sorted(images)
        expected = len(relabelling.perms) // len(stabilizer)
        strays = sum(enc not in pending for enc in order)
        if strays or len(order) != expected:
            raise InternalError(
                f"class of {m!r} has {len(order)} members, {strays} of them not "
                f"enumerated or already classified; orbit-stabilizer expects {expected}")
        yield [pending.pop(enc) for enc in order], [images[enc] for enc in order], stabilizer


def reduct(m: FiniteModel, keep: Iterable[str] | Signature) -> FiniteModel:
    """Forget every symbol not named; the universe stays put."""
    if isinstance(keep, Signature):
        sub = keep
        names = set(sub.relations) | set(sub.functions) | set(sub.constants)
        if m.sig.restrict(names) != sub:
            raise SignatureError("not a sub-signature of the model's signature")
    else:
        sub = m.sig.restrict(keep)
    return FiniteModel._raw(
        sub, m.size,
        {name: m.rels[name] for name in sub.relations},
        {name: m.funs[name] for name in sub.functions},
        {name: m.consts[name] for name in sub.constants},
    )


def substructure(m: FiniteModel, subset: Iterable[int]) -> tuple[FiniteModel, dict[int, int]]:
    """Induced substructure on subset, relabeled order-preservingly to 0..k-1.

    subset must be nonempty, contain every constant, and be closed under
    every function; otherwise ValueError.  Returns the substructure and the
    old-element -> new-element map.
    """
    elems = sorted(set(subset))
    if not elems:
        raise ValueError("subset must be nonempty")
    if not all(0 <= e < m.size for e in elems):
        raise ValueError("subset not within the universe")
    inside = set(elems)
    for name, value in m.consts.items():
        if value not in inside:
            raise ValueError(f"subset misses constant {name!r}")
    for name, arity in m.sig.functions.items():
        for args in itertools.product(elems, repeat=arity):
            if m.fun_value(name, args) not in inside:
                raise ValueError(f"subset not closed under function {name!r}")
    relabel = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    rels = {name: frozenset(tuple(relabel[e] for e in t)
                            for t in table if all(e in inside for e in t))
            for name, table in m.rels.items()}
    funs = {}
    for name, arity in m.sig.functions.items():
        table = [0] * (k ** arity)
        for args in itertools.product(elems, repeat=arity):
            idx = 0
            for a in args:
                idx = idx * k + relabel[a]
            table[idx] = relabel[m.fun_value(name, args)]
        funs[name] = tuple(table)
    consts = {name: relabel[value] for name, value in m.consts.items()}
    return FiniteModel._raw(m.sig, k, rels, funs, consts), relabel

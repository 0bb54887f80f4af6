"""Truth vectors: the truth of whole levels of the formula stream at once.

A LevelTruth reads the levels of a folang.FormulaLevels at one model and
assignment, one bit per formula, so that a search over the stream (beth's
candidates, the Los checks of ultra) tests a section of formulas with a
few int operations instead of evaluating its formulas one by one.
folang.eval_formula is the reference.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping, Sequence

from .folang import (And, Const, Exists, Formula, FormulaLevels, Iff, Implies, Or, Rel,
                     SignatureError, Term, UnboundVariableError, Var)
from .models import _transpose

__all__ = ["LevelTruth"]


# The block of a binary connective's (left, right) section under one left
# formula, from the right level's truth bits r and all-ones mask full:
# (when the left formula holds, when it fails).
_BLOCKS: dict[type, Callable[[int, int], tuple[int, int]]] = {
    And: lambda r, full: (r, 0),
    Or: lambda r, full: (full, r),
    Implies: lambda r, full: (r, full),
    Iff: lambda r, full: (r, full ^ r),
}


class LevelTruth:
    """Truth of the formulas of some FormulaLevels at one model and assignment.

    A level's truth vector has one int per assignment to its bound names,
    the a-th for the assignment whose j-th name takes digit j of a in base
    m.size (the first name is the most significant digit); bit i of it is
    the truth of the level's i-th formula there, as eval_formula gives it.
    Atoms are read a column at a time, one bit per assignment, and the
    columns transposed into the level's ints: a term's value masks give,
    per value, the assignments where it takes that value (a bound name's
    are its digit masks, a free variable's and a constant's all or
    nothing, a function application's the AND of its arguments' masks,
    ORed into the mask of each table entry's value), a relation atom ORs
    the AND of its arguments' masks over the relation's tuples, and an
    equation the AND of its sides' masks over the values.  A negation is a
    complement, a binary section spreads the left level's bits, and their
    complement, to the right level's stride and multiplies them by a
    block of the right level's bits, and a quantifier ANDs or ORs the
    m.size ints of its body that differ in its own name only.  Vectors of
    the levels below the size bound are kept, as the object stream keeps
    their formulas.  The spread bits, which the four connectives over one
    split share, are kept until a level's vector is done.
    """

    __slots__ = ("levels", "m", "assignment", "_vectors", "_spreads")

    def __init__(self, levels: FormulaLevels, m, assignment: Mapping[str, int] | None = None):
        self.levels = levels
        self.m = m
        self.assignment = dict(assignment) if assignment else {}
        self._vectors: dict[tuple[int, int, int], list[int]] = {}
        self._spreads: dict[tuple, list[tuple[int, int]]] = {}

    def vector(self, key: tuple[int, int, int]) -> list[int]:
        """A level's truth vector."""
        got = self._vectors.get(key)
        if got is not None:
            return got
        got = [0] * self.m.size ** key[1]
        shift = 0
        for section in self.levels.sections(key):
            for a, bits in enumerate(self._section(key, section)):
                got[a] |= bits << shift
            shift += self.levels.section_count(section)
        if key[0] < self.levels.size_bound:
            self._vectors[key] = got
        self._spreads.clear()
        return got

    def section(self, key: tuple[int, int, int], k: int) -> list[int]:
        """The truth vector of the k-th section of a level alone."""
        sections = self.levels.sections(key)
        if key[0] >= self.levels.size_bound:
            return self._section(key, sections[k])
        shift = sum(map(self.levels.section_count, sections[:k]))
        mask = (1 << self.levels.section_count(sections[k])) - 1
        return [bits >> shift & mask for bits in self.vector(key)]

    def _section(self, key: tuple[int, int, int], section: tuple) -> list[int]:
        levels, n = self.levels, self.m.size
        kind = section[0]
        if kind == "atoms":
            return self._atoms(section[1], key[1])
        if kind == "not":
            full = (1 << levels.count(section[1])) - 1
            return [full ^ bits for bits in self.vector(section[1])]
        if kind == "quant":
            body = self.vector(section[3])
            fold = int.__or__ if section[1] is Exists else int.__and__
            return [functools.reduce(fold, body[a:a + n]) for a in range(0, len(body), n)]
        _, ctor, left, right = section
        width, stride = levels.count(left), levels.count(right)
        if not width or not stride:
            return [0] * n ** key[1]
        full = (1 << stride) - 1
        blocks = _BLOCKS[ctor]
        out = []
        for (holds, fails), rbits in zip(self._spread(left, width, stride), self.vector(right)):
            when_true, when_false = blocks(rbits, full)
            bits = holds * when_true if when_true else 0
            if when_false:
                bits |= fails * when_false
            out.append(bits)
        return out

    def _spread(self, left: tuple[int, int, int], width: int, stride: int
                ) -> list[tuple[int, int]]:
        # per assignment, bit j * stride set when the j-th formula of level
        # left holds, and when it fails
        got = self._spreads.get((left, stride))
        if got is None:
            full = (1 << width) - 1
            gap, digits = "0" * (stride - 1), f"0{width}b"
            got = self._spreads[left, stride] = [
                (int(gap.join(format(bits, digits)), 2),
                 int(gap.join(format(full ^ bits, digits)), 2)) for bits in self.vector(left)]
        return got

    def _atoms(self, atoms: list[Formula], binders: int) -> list[int]:
        # each atom's column, bit a its truth at the a-th assignment, from
        # value masks: per term and value u, the assignments where the term
        # takes the value u
        m, n = self.m, self.m.size
        width = n ** binders
        full = (1 << width) - 1
        sig, (_, bitmaps, tables, consts) = m.sig, m.encode()
        masks: dict[int, Sequence[int]] = {}  # by id: the terms outlive the call
        bound = dict(zip(self.levels.bound_names[:binders], _digit_masks(n, binders)))

        def value(t: Term) -> Sequence[int]:
            got = masks.get(id(t))
            if got is not None:
                return got
            if type(t) is Var:
                got = bound.get(t.name)
                if got is None:
                    if t.name not in self.assignment:
                        raise UnboundVariableError(f"no value for variable {t.name!r}")
                    got = _one_hot(self.assignment[t.name], n, full)
            elif type(t) is Const:
                if t.name not in sig.constants:
                    raise SignatureError(f"model has no constant {t.name!r}")
                got = _one_hot(consts[sig.constants.index(t.name)], n, full)
            else:
                if t.name not in sig.functions:
                    raise SignatureError(f"model has no function {t.name!r}")
                table = tables[list(sig.functions).index(t.name)]
                got = [0] * n
                for rank, mask in _conjunctions(list(map(value, t.args)), n, full):
                    got[table[rank]] |= mask
            masks[id(t)] = got
            return got

        columns = []
        for f in atoms:
            if type(f) is Rel:
                if f.name not in sig.relations:
                    raise SignatureError(f"model has no relation {f.name!r}")
                bits, column = bitmaps[sig._rel_at[f.name][0]], 0
                for rank, mask in _conjunctions(list(map(value, f.args)), n, full):
                    if bits >> rank & 1:
                        column |= mask
            else:
                column = 0
                for left, right in zip(value(f.left), value(f.right)):
                    column |= left & right
            columns.append(column)
        return _transpose(columns, width)


@functools.lru_cache(maxsize=None)
def _digit_masks(size: int, binders: int) -> tuple[tuple[int, ...], ...]:
    """Per bound name j and value u, the mask of the assignments (in base
    size, name 0 the most significant digit) whose digit j is u."""
    width = size ** binders
    out = []
    for j in range(binders):
        run = size ** (binders - 1 - j)
        period = run * size
        # one run of set bits per period, from the value's offset in it
        spread = ((1 << width) - 1) // ((1 << period) - 1)
        out.append(tuple([((1 << run) - 1 << u * run) * spread for u in range(size)]))
    return tuple(out)


def _one_hot(value: int, size: int, full: int) -> list[int]:
    """The value masks of a term that takes one value at every assignment."""
    return [full if u == value else 0 for u in range(size)]


def _conjunctions(args: Sequence[Sequence[int]], size: int, full: int) -> list[tuple[int, int]]:
    """(rank, mask) per argument tuple, in rank order, whose arguments take
    its values together somewhere: the mask is the AND of the arguments'
    value masks, and tuples whose partial AND is empty are never extended."""
    out = [(0, full)]
    for values in args:
        out = [(rank * size + u, mask & at) for rank, mask in out
               for u, at in enumerate(values) if mask & at]
    return out

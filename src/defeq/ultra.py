"""Ultrafilters on finite index sets and explicit ultraproducts.

The quotient is built verbatim: enumerate every choice function, partition
by U-agreement, then read the tables off class representatives.  Each
product makes its own partition and keeps nothing for the next.  A
relation of the quotient is read off each factor's bitmap at the ranks
its tuples of classes pick there, one row per factor, and the membership
test is expanded over those rows, so it runs once per set of factors that
occurs, not once per tuple of classes.  No step assumes the ultrafilter
is principal; that every ultrafilter on a finite index set IS principal,
and that the quotient then collapses to one factor, are theorems the
tests check against this construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from math import prod
from operator import eq
from types import MappingProxyType

from . import folang
from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Formula, Signature, SignatureError
from .models import FiniteModel
from .record import Record

__all__ = [
    "Ultrafilter", "UltraproductResult", "ultraproduct", "quotient_encoding", "LosReport",
    "los_check", "LosLevels",
]


def _mask(s: Iterable[int], size: int) -> int:
    """The bit mask of an index set; bit i is index i."""
    indices = set(s)
    if not indices <= set(range(size)):
        raise ValueError(f"{sorted(indices)} not within the index set 0..{size - 1}")
    return sum(1 << i for i in indices)


class Ultrafilter:
    """An ultrafilter on {0..size-1}, stored as its membership test.

    The test takes the bit mask of an index set (bit i is index i) and is
    truthy for a member.  Every ultrafilter on a finite index set is
    principal, and principal() is the only one the commands build; the
    kernels below read any membership test, principal or not.
    """

    __slots__ = ("size", "_test")

    def __init__(self, size: int, test: Callable[[int], object]):
        if size < 1:
            raise ValueError("index set must be nonempty")
        self.size = size
        self._test = test

    @classmethod
    def principal(cls, point: int, size: int) -> "Ultrafilter":
        """All subsets of {0..size-1} containing the point."""
        if not 0 <= point < size:
            raise ValueError("principal point outside the index set")
        return cls(size, (1 << point).__and__)

    def classes(self, sizes: tuple[int, ...], budget: WorkBudget, reps: list) -> Iterator:
        """(f, its U-agreement class) for each choice function f of factors
        of these sizes in lexicographic order, reps getting each new class's
        least member; all count against the budget first, so a shape over
        the budget is refused before anything is read."""
        space = prod(sizes)
        NodeCounter(budget, f"enumerating {space} choice functions").tick(space)
        return _classes(sizes, self._test, reps)

    def contains(self, s: Iterable[int]) -> bool:
        return bool(self._test(_mask(s, self.size)))

    def __repr__(self) -> str:
        return f"<Ultrafilter on {self.size} indices>"


def _classes(sizes: tuple[int, ...], test, reps: list) -> Iterator:
    # f joins the first class whose least member agrees with it on a member
    # set of the ultrafilter, else starts a class of its own
    bits = [1 << i for i in range(len(sizes))]
    for f in itertools.product(*map(range, sizes)):
        for ci, rep in enumerate(reps):
            if test(sum(itertools.compress(bits, map(eq, f, rep)))):
                yield f, ci
                break
        else:
            reps.append(f)
            yield f, len(reps) - 1


class UltraproductResult(Record):
    """Quotient model plus the read-only choice-function -> class map, with
    the class representatives, the factors and the ultrafilter it was built
    from.  Each product partitions its choice functions afresh."""

    __slots__ = ("quotient", "class_map", "reps", "factors", "ultrafilter")
    quotient: FiniteModel
    class_map: Mapping[tuple[int, ...], int]
    reps: tuple[tuple[int, ...], ...]
    factors: tuple[FiniteModel, ...]
    ultrafilter: Ultrafilter


def ultraproduct(models: Sequence[FiniteModel], u: Ultrafilter,
                 budget: WorkBudget | None = None) -> UltraproductResult:
    """The quotient of prod(models) by U-agreement.

    Classes are numbered by their lexicographically least choice function,
    in order of first appearance; with initial-segment universes this makes
    the quotient of a principal ultrafilter literally equal to the factor
    at its principal point.  The classes come from u.classes, the tables
    from quotient_encoding.
    """
    budget = budget or DEFAULT_BUDGET
    if len(models) != u.size:
        raise ValueError(f"expected {u.size} models, got {len(models)}")
    sig = models[0].sig
    for m in models[1:]:
        if m.sig != sig:
            raise SignatureError("ultraproduct factors must share a signature")
    reps: list[tuple[int, ...]] = []
    class_map = dict(u.classes(tuple(m.size for m in models), budget, reps))
    enc = quotient_encoding(u, reps, class_map, [m.encode() for m in models], sig)
    return UltraproductResult(FiniteModel._from_encoding(sig, enc), MappingProxyType(class_map),
                              tuple(reps), tuple(models), u)


def _ranks(reps: Sequence[tuple[int, ...]], sizes: Sequence[int], arity: int) -> list[list[int]]:
    """Per factor i, for each tuple of classes in lexicographic order, the
    rank of the argument tuple its representatives pick in factor i."""
    out = []
    for i, n in enumerate(sizes):
        picked = [rep[i] for rep in reps]
        ranks = [0]
        for _ in range(arity):
            ranks = [r * n + e for r in ranks for e in picked]
        out.append(ranks)
    return out


def quotient_encoding(u: Ultrafilter, reps: Sequence[tuple[int, ...]],
                      class_map: Mapping[tuple[int, ...], int], encs: Sequence[tuple],
                      sig: Signature) -> tuple:
    """The quotient's encoding for the factors with encodings encs, all over
    sig, whose choice functions u partitions into the classes with
    representatives reps and the map class_map (Ultrafilter.classes).

    A relation's tuple of classes holds when the factors whose bitmaps
    hold at its representatives' ranks form a member of the ultrafilter.
    Per factor, the digits of its bitmap at those ranks make a row with
    bit j for the j-th tuple of classes, and the membership test is
    expanded over the rows (_members).  Function tables and constants are
    read through the class map.
    """
    sizes = [enc[0] for enc in encs]
    ranks = {arity: _ranks(reps, sizes, arity)
             for arity in {*sig.relations.values(), *sig.functions.values()}}
    rels = []
    for r, arity in enumerate(sig.relations.values()):
        rows = []
        for enc, picks in zip(encs, ranks[arity]):
            # the bitmap's digits, lowest first, read at the ranks and the
            # row made from them, highest first
            digits = format(enc[1][r], f"0{enc[0] ** arity}b")[::-1]
            rows.append(int("".join(map(digits.__getitem__, reversed(picks))), 2))
        rels.append(_members(rows, u._test, (1 << len(reps) ** arity) - 1))
    class_of = class_map.__getitem__
    fun_part = tuple([
        tuple(map(class_of, zip(*[list(map(enc[2][g].__getitem__, picks))
                                  for enc, picks in zip(encs, ranks[arity])])))
        for g, arity in enumerate(sig.functions.values())])
    const_part = tuple(map(class_of, zip(*[enc[3] for enc in encs])))
    return len(reps), tuple(rels), fun_part, const_part


class LosReport(Record):
    """One Los-theorem instance: quotient truth vs truth-set membership."""

    __slots__ = ("lhs", "truth_set", "rhs")
    lhs: bool
    truth_set: frozenset[int]
    rhs: bool

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def los_check(product: UltraproductResult, f: Formula) -> LosReport:
    """Compare truth of a closed formula in the quotient with its truth set.

    lhs is eval in the ultraproduct; rhs is whether {i : factor i |= f}
    belongs to its ultrafilter.  The Los theorem says they always agree.
    """
    fv = folang.free_vars(f)
    if fv:
        raise ValueError(f"los_check needs a closed formula, free: {sorted(fv)}")
    lhs = folang.eval_formula(product.quotient, f)
    truth_set = frozenset(i for i, m in enumerate(product.factors) if folang.eval_formula(m, f))
    return LosReport(lhs, truth_set, product.ultrafilter.contains(truth_set))


class LosLevels:
    """The Los verdicts of one product on whole levels of closed formulas.

    levels must have no free variables.  The quotient and each factor get
    a truth.LevelTruth over levels; for a level, bit i of the quotient's
    truth is lhs of los_check on the level's i-th formula, and rhs is read
    off the factors' truths by expanding the ultrafilter's membership test
    over them (_members), so the Los check of every formula of the level is
    a handful of int operations.  los_check is the reference.
    """

    __slots__ = ("levels", "test", "truths")

    def __init__(self, product: UltraproductResult, levels: folang.FormulaLevels):
        from .truth import LevelTruth  # see definability.beth_search

        if levels.free:
            raise ValueError(f"Los checks need closed formulas, free: {list(levels.free)}")
        self.levels = levels
        self.test = product.ultrafilter._test
        self.truths = [LevelTruth(levels, m) for m in (product.quotient, *product.factors)]

    def failures(self, key: tuple[int, int, int]) -> int:
        """Bit i set when the Los check fails on the i-th formula of the
        level key: the quotient's truth XOR the membership of its truth set."""
        lhs, *rows = [truth.vector(key)[0] for truth in self.truths]
        return lhs ^ _members(rows, self.test, (1 << self.levels.count(key)) - 1)


def _members(rows: Sequence[int], test, full: int) -> int:
    """The bits i of full whose truth set {k : bit i of rows[k]} passes test.

    A Shannon expansion of test over the rows: each branch fixes whether
    the next factor is in the truth set and keeps the bits that agree, and
    a branch left with no bits is dropped, so at most one leaf per bit is
    reached and test runs once per leaf, on the leaf's truth set.
    """
    out = 0
    stack = [(0, full, 0)]
    while stack:
        k, bits, members = stack.pop()
        if not bits:
            continue
        if k == len(rows):
            if test(members):
                out |= bits
            continue
        stack.append((k + 1, bits & ~rows[k], members))
        stack.append((k + 1, bits & rows[k], members | 1 << k))
    return out

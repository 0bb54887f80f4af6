"""Ultrafilters on finite index sets and explicit ultraproducts.

The quotient is built verbatim: enumerate every choice function, partition
by U-agreement, then read the tables off class representatives.  The
partition depends only on the factor sizes and the ultrafilter, so it is
made once per (factor sizes, ultrafilter) and reused: an Ultrafilter keeps
the plan of the last factor sizes it was asked for, and every result of
those sizes shares its read-only class_map.  A relation of the quotient is
read off byte tables that scatter each factor's bitmap onto the tuples of
classes, and the membership test is expanded over those bitmaps, so it
runs once per set of factors that occurs, not once per tuple of classes.
No step assumes the ultrafilter is principal; that every ultrafilter on
a finite index set IS principal, and that the quotient then collapses to
one factor, are theorems the tests check against this construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from math import prod
from operator import eq
from types import MappingProxyType

from . import folang
from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Formula, Signature, SignatureError
from .models import FiniteModel, _ByteTable
from .record import Record, _set

__all__ = [
    "Ultrafilter", "ultrafilters_on", "UltraproductResult",
    "ultraproduct", "quotient_encoding", "diagonal_embedding", "LosReport", "los_check",
    "LosLevels",
]


def _mask(s: Iterable[int], size: int) -> int:
    """The bit mask of an index set; bit i is index i."""
    indices = set(s)
    if not indices <= set(range(size)):
        raise ValueError(f"{sorted(indices)} not within the index set 0..{size - 1}")
    return sum(1 << i for i in indices)


class Ultrafilter:
    """A family of subsets of {0..size-1} intended to be an ultrafilter.

    The family is stored as one membership test on bit masks (bit i is
    index i), truthy for a member: a passed family becomes a frozenset of
    masks, a principal ultrafilter ands the mask with its point's bit.
    Construction does not validate; call validate() to check the axioms
    (no empty set, upward closed, closed under intersection, and containing
    exactly one of each complementary pair).  An ultrafilter also keeps the
    plan (see plan) of the last factor sizes a product over it was built for.
    """

    __slots__ = ("size", "_test", "_plan")

    def __init__(self, size: int, members: Iterable[Iterable[int]]):
        if size < 1:
            raise ValueError("index set must be nonempty")
        self.size = size
        self._test = frozenset(_mask(s, size) for s in members).__contains__
        self._plan: _Plan | None = None

    @classmethod
    def principal(cls, point: int, size: int) -> "Ultrafilter":
        """All subsets of {0..size-1} containing the point."""
        if not 0 <= point < size:
            raise ValueError("principal point outside the index set")
        u = cls(size, ())
        u._test = (1 << point).__and__
        return u

    @property
    def members(self) -> frozenset[frozenset[int]]:
        """Every member set, found by testing all 2^size subsets."""
        return frozenset(frozenset(i for i in range(self.size) if bits >> i & 1)
                         for bits in range(1 << self.size) if self._test(bits))

    def validate(self) -> None:
        """Raise ValueError naming the first violated ultrafilter axiom."""
        members = self.members
        if frozenset() in members:
            raise ValueError("contains the empty set")
        for s, t in itertools.product(members, repeat=2):
            if s & t not in members:
                raise ValueError(f"not closed under intersection: {sorted(s)} and {sorted(t)}")
        for s, extra in itertools.product(members, range(self.size)):
            if s | {extra} not in members:
                raise ValueError(f"not upward closed at {sorted(s | {extra})}")
        full = (1 << self.size) - 1
        for bits in range(1 << self.size):
            if bool(self._test(bits)) == bool(self._test(full ^ bits)):
                s = [i for i in range(self.size) if bits >> i & 1]
                raise ValueError(f"must contain exactly one of {s} and its complement")

    def classes(self, sizes: tuple[int, ...], budget: WorkBudget, reps: list) -> Iterator:
        """(f, its U-agreement class) for each choice function f of factors
        of these sizes in lexicographic order, reps getting each new class's
        least member; all count against the budget first, so a shape over
        the budget is refused before anything is read."""
        space = prod(sizes)
        NodeCounter(budget, f"enumerating {space} choice functions").tick(space)
        return _classes(sizes, self._test, reps)

    def plan(self, sizes: tuple[int, ...], budget: WorkBudget) -> "_Plan":
        """The plan of products over this ultrafilter of factors of these
        sizes: the one kept if it is for these sizes, else a new one, kept
        in its place.  Either way classes counts the choice functions."""
        reps: list[tuple[int, ...]] = []
        classes = self.classes(sizes, budget, reps)
        plan = self._plan
        if plan is None or plan.sizes != sizes:
            plan = self._plan = _Plan(sizes, self._test, dict(classes), reps)
        return plan

    def contains(self, s: Iterable[int]) -> bool:
        return bool(self._test(_mask(s, self.size)))

    def principal_point(self) -> int:
        """The point whose singleton is a member; on a finite index set one exists."""
        points = [i for i in range(self.size) if self._test(1 << i)]
        if len(points) != 1:
            raise ValueError("not a principal ultrafilter")
        return points[0]

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


def ultrafilters_on(size: int) -> list[Ultrafilter]:
    """Every ultrafilter on {0..size-1}: the principal ones.

    On a finite index set the intersection of all members is a U-member
    singleton, so this list is exhaustive; the tests verify that by brute
    force over set families for small sizes.
    """
    return [Ultrafilter.principal(i, size) for i in range(size)]


@lru_cache(maxsize=64)
def _scatter_table(onto: tuple[int, ...]) -> _ByteTable:
    """The byte table that sends bit r of a factor's bitmap to the tuples of
    classes in onto[r].  It depends on nothing else, so plans with equal
    onto share it: a plan rebuilt for factor sizes seen before (an
    ultrafilter keeps one plan) starts with the entries made before."""
    return _ByteTable(len(onto), onto.__getitem__, sum)


class _Plan:
    """What an ultraproduct reads that depends only on the factor sizes and
    the ultrafilter: the U-agreement classes of the choice functions, per
    arity the ranks that the classes' representatives pick in each factor,
    and per arity and factor the byte table that scatters the factor's
    bitmaps onto the tuples of classes (scatter)."""

    __slots__ = ("sizes", "test", "reps", "class_map", "_ranks", "_scatter")

    def __init__(self, sizes: tuple[int, ...], test, class_map: dict, reps: list) -> None:
        self.sizes = sizes
        self.test = test
        self.reps = tuple(reps)
        self.class_map = MappingProxyType(class_map)
        self._ranks: dict[int, list[list[int]]] = {}
        self._scatter: dict[int, list[_ByteTable]] = {}

    def ranks(self, arity: int) -> list[list[int]]:
        """Per factor i, for each tuple of classes in lexicographic order, the
        rank of the argument tuple its representatives pick in factor i."""
        out = self._ranks.get(arity)
        if out is None:
            out = []
            for i, n in enumerate(self.sizes):
                picked = [rep[i] for rep in self.reps]
                ranks = [0]
                for _ in range(arity):
                    ranks = [r * n + e for r in ranks for e in picked]
                out.append(ranks)
            self._ranks[arity] = out
        return out

    def scatter(self, arity: int) -> list[_ByteTable]:
        """Per factor i, the table whose read(bits), summed, has bit j set
        when the j-th tuple of classes picks in factor i a tuple that bits
        holds.  Each tuple of classes picks one tuple per factor, so the
        masks of distinct tuples are disjoint and their sum is their union."""
        out = self._scatter.get(arity)
        if out is None:
            out = []
            for n, ranks in zip(self.sizes, self.ranks(arity)):
                onto = [0] * n ** arity
                for j, rank in enumerate(ranks):
                    onto[rank] |= 1 << j
                out.append(_scatter_table(tuple(onto)))
            self._scatter[arity] = out
        return out


class UltraproductResult(Record):
    """Quotient model plus the choice-function -> class map, with the
    factors and the ultrafilter it was built from.  Results over the same
    factor sizes and ultrafilter share one read-only class_map."""

    __slots__ = ("quotient", "class_map", "reps", "factors", "ultrafilter")
    quotient: FiniteModel
    class_map: Mapping[tuple[int, ...], int]
    reps: tuple[tuple[int, ...], ...]
    factors: tuple[FiniteModel, ...]
    ultrafilter: Ultrafilter

    def __init__(self, quotient: FiniteModel, class_map: Mapping[tuple[int, ...], int],
                 reps: tuple[tuple[int, ...], ...], factors: tuple[FiniteModel, ...],
                 ultrafilter: Ultrafilter) -> None:
        _set(self, "quotient", quotient)
        _set(self, "class_map", class_map)
        _set(self, "reps", reps)
        _set(self, "factors", factors)
        _set(self, "ultrafilter", ultrafilter)


def ultraproduct(models: Sequence[FiniteModel], u: Ultrafilter,
                 budget: WorkBudget | None = None) -> UltraproductResult:
    """The quotient of prod(models) by U-agreement.

    Classes are numbered by their lexicographically least choice function,
    in order of first appearance; with initial-segment universes this makes
    the quotient of a principal ultrafilter literally equal to the factor
    at its principal point.  The classes come from u's plan for these
    factor sizes (see Ultrafilter.plan), the tables from quotient_encoding.
    """
    budget = budget or DEFAULT_BUDGET
    if len(models) != u.size:
        raise ValueError(f"expected {u.size} models, got {len(models)}")
    sig = models[0].sig
    for m in models[1:]:
        if m.sig != sig:
            raise SignatureError("ultraproduct factors must share a signature")
    plan = u.plan(tuple(m.size for m in models), budget)
    enc = quotient_encoding(plan, [m.encode() for m in models], sig)
    return UltraproductResult(FiniteModel._from_encoding(sig, enc), plan.class_map,
                              plan.reps, tuple(models), u)


def quotient_encoding(plan: _Plan, encs: Sequence[tuple], sig: Signature) -> tuple:
    """The quotient's encoding for the factors with encodings encs, all over
    sig; plan must be the one for their sizes and ultrafilter
    (Ultrafilter.plan).

    A relation's tuple of classes holds when the factors whose bitmaps
    hold at its representatives' ranks form a member of the ultrafilter:
    each factor's bitmap is scattered onto the tuples of classes
    (plan.scatter), and the membership test is expanded over those
    (_members).  Function tables and constants are read through the class
    map.
    """
    rels = tuple([_members([sum(t.read(enc[1][r])) for enc, t in zip(encs, plan.scatter(arity))],
                           plan.test, (1 << len(plan.reps) ** arity) - 1)
                  for r, arity in enumerate(sig.relations.values())])
    class_of = plan.class_map.__getitem__
    fun_part = tuple([
        tuple(map(class_of, zip(*[list(map(enc[2][g].__getitem__, ranks))
                                  for enc, ranks in zip(encs, plan.ranks(arity))])))
        for g, arity in enumerate(sig.functions.values())])
    const_part = tuple(map(class_of, zip(*[enc[3] for enc in encs])))
    return len(plan.reps), rels, fun_part, const_part


def diagonal_embedding(m: FiniteModel, u: Ultrafilter,
                       budget: WorkBudget | None = None) -> dict[int, int]:
    """a -> class of the constant choice function (a,...,a) in the ultrapower."""
    result = ultraproduct([m] * u.size, u, budget)
    return {a: result.class_map[(a,) * u.size] for a in range(m.size)}


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

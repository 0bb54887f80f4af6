"""Ultrafilters on finite index sets and explicit ultraproducts.

The quotient is built verbatim: enumerate every choice function, partition
by U-agreement, then read the tables off class representatives.  No step
assumes the ultrafilter is principal; that every ultrafilter on a finite
index set IS principal, and that the quotient then collapses to one factor,
are theorems the tests check against this construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import prod

from . import folang
from .budget import NodeCounter, WorkBudget
from .folang import Formula, SignatureError
from .models import FiniteModel
from .record import Record

__all__ = [
    "Ultrafilter", "ultrafilters_on", "UltraproductResult",
    "ultraproduct", "diagonal_embedding", "LosReport", "los_check",
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
    index i): a passed family becomes a frozenset of masks, a principal
    ultrafilter tests its point's bit.  Construction does not validate;
    call validate() to check the axioms (no empty set, upward closed,
    closed under intersection, and containing exactly one of each
    complementary pair).
    """

    __slots__ = ("size", "_test")

    def __init__(self, size: int, members: Iterable[Iterable[int]]):
        if size < 1:
            raise ValueError("index set must be nonempty")
        self.size = size
        self._test = frozenset(_mask(s, size) for s in members).__contains__

    @classmethod
    def principal(cls, point: int, size: int) -> "Ultrafilter":
        """All subsets of {0..size-1} containing the point."""
        if not 0 <= point < size:
            raise ValueError("principal point outside the index set")
        u = cls(size, ())
        u._test = lambda mask: mask >> point & 1
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


def ultrafilters_on(size: int) -> list[Ultrafilter]:
    """Every ultrafilter on {0..size-1}: the principal ones.

    On a finite index set the intersection of all members is a U-member
    singleton, so this list is exhaustive; the tests verify that by brute
    force over set families for small sizes.
    """
    return [Ultrafilter.principal(i, size) for i in range(size)]


class UltraproductResult(Record):
    """Quotient model plus the choice-function -> class map, with the
    factors and the ultrafilter it was built from."""

    __slots__ = ("quotient", "class_map", "reps", "factors", "ultrafilter")
    quotient: FiniteModel
    class_map: dict[tuple[int, ...], int]
    reps: tuple[tuple[int, ...], ...]
    factors: tuple[FiniteModel, ...]
    ultrafilter: Ultrafilter


def ultraproduct(models: Sequence[FiniteModel], u: Ultrafilter,
                 budget: WorkBudget | None = None) -> UltraproductResult:
    """The quotient of prod(models) by U-agreement.

    Classes are numbered by their lexicographically least choice function,
    in order of first appearance; with initial-segment universes this makes
    the quotient of a principal ultrafilter literally equal to the factor
    at its principal point.
    """
    budget = budget or WorkBudget()
    if len(models) != u.size:
        raise ValueError(f"expected {u.size} models, got {len(models)}")
    sig = models[0].sig
    for m in models[1:]:
        if m.sig != sig:
            raise SignatureError("ultraproduct factors must share a signature")
    space = prod(m.size for m in models)
    NodeCounter(budget, f"enumerating {space} choice functions").tick(space)

    k, test = u.size, u._test
    reps: list[tuple[int, ...]] = []
    class_map: dict[tuple[int, ...], int] = {}
    for f in itertools.product(*(range(m.size) for m in models)):
        for ci, rep in enumerate(reps):
            agree = sum(1 << i for i in range(k) if f[i] == rep[i])
            if test(agree):
                class_map[f] = ci
                break
        else:
            class_map[f] = len(reps)
            reps.append(f)

    m_count = len(reps)
    sizes = [m.size for m in models]
    encs = [m.encode() for m in models]

    def ranks(classes: tuple[int, ...]) -> list[int]:
        # per factor, the rank of the argument tuple the classes' reps pick there
        out = []
        for i, n in enumerate(sizes):
            r = 0
            for c in classes:
                r = r * n + reps[c][i]
            out.append(r)
        return out

    rel_part = []
    for r, arity in enumerate(sig.relations.values()):
        bits = 0
        for j, classes in enumerate(itertools.product(range(m_count), repeat=arity)):
            agree = sum(1 << i for i, rank in enumerate(ranks(classes))
                        if encs[i][1][r] >> rank & 1)
            if test(agree):
                bits |= 1 << j
        rel_part.append(bits)
    fun_part = tuple(
        tuple(class_map[tuple(encs[i][2][g][rank] for i, rank in enumerate(ranks(classes)))]
              for classes in itertools.product(range(m_count), repeat=arity))
        for g, arity in enumerate(sig.functions.values()))
    const_part = tuple(class_map[values] for values in zip(*(enc[3] for enc in encs)))
    quotient = FiniteModel._from_encoding(sig, (m_count, tuple(rel_part), fun_part, const_part))
    return UltraproductResult(quotient, class_map, tuple(reps), tuple(models), u)


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

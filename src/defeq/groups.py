"""Concrete permutation groups on {0..n-1}.

Permutations are image tuples: p[i] is where i goes.  Groups store their
full element set, not generators; every question about them is answered by
finite search.  Two groups on bases of equal size are base-isomorphic when
some bijection of the bases conjugates one onto the other; the canonical
form of a group is its lexicographically least conjugate, and form_key is
that form's byte encoding.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "identity", "compose", "invert",
    "PermutationGroup", "automorphism_group", "canonical_form", "form_key",
    "group_to_text",
]


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: (p . q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class PermutationGroup:
    """A set of permutations of {0..base_size-1} closed under the group ops."""

    __slots__ = ("base_size", "elements")

    def __init__(self, base_size: int, elements: Iterable[Sequence[int]],
                 _trusted: bool = False):
        elems = sorted({tuple(p) for p in elements})
        if not _trusted:
            ident = identity(base_size)
            for p in elems:
                if sorted(p) != list(ident):
                    raise ValueError(f"not a permutation of the base: {p!r}")
            if ident not in elems:
                raise ValueError("identity missing")
            known = set(elems)
            for p in elems:
                if invert(p) not in known:
                    raise ValueError(f"inverse of {p!r} missing")
                for q in elems:
                    if compose(p, q) not in known:
                        raise ValueError(f"composition {p!r}.{q!r} missing")
        self.base_size = base_size
        self.elements = tuple(elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.elements)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PermutationGroup)
                and self.base_size == other.base_size
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((self.base_size, self.elements))

    def __repr__(self) -> str:
        return f"<PermutationGroup order {self.order} on {self.base_size} points>"


def automorphism_group(m, budget=None) -> PermutationGroup:
    """Aut(m) as a concrete group.  m is a FiniteModel; the budget bounds
    the search (models.find_isomorphisms)."""
    from .models import find_isomorphisms
    return PermutationGroup(m.size, find_isomorphisms(m, m, budget), _trusted=True)


def canonical_form(g: PermutationGroup
                   ) -> tuple[PermutationGroup, frozenset[tuple[int, ...]]]:
    """The lexicographically least conjugate of g over all base bijections,
    and its conjugators: the bijections b with b G b^-1 equal to it.

    The conjugate set b G b^-1 depends on b only through the left coset bG,
    so one representative per coset is inspected, and the conjugators are
    the cosets that reach the least conjugate.
    """
    n = g.base_size
    elems = g.elements
    seen: set[tuple[int, ...]] = set()
    best: tuple[tuple[int, ...], ...] | None = None
    reaching: set[tuple[int, ...]] = set()
    for b in itertools.permutations(range(n)):
        if b in seen:
            continue
        image = b.__getitem__
        coset = [tuple(map(image, x)) for x in elems]  # bG
        seen.update(coset)
        binv = invert(b)
        # b x b^-1 takes i to b[x[binv[i]]]
        conj = tuple(sorted(tuple(map(image, map(x.__getitem__, binv))) for x in elems))
        if best is None or conj < best:
            best, reaching = conj, set(coset)
        elif conj == best:
            reaching.update(coset)
    assert best is not None
    return PermutationGroup(n, best, _trusted=True), frozenset(reaching)


def form_key(canon: PermutationGroup) -> bytes:
    """Byte encoding of a group already in canonical form (canonical_form).

    Two groups' canonical forms get the same key exactly when the groups
    are base-isomorphic.  Keys are only comparable between groups on
    equal-size bases, which the leading size bytes enforce.
    """
    return canon.base_size.to_bytes(2, "big") + b"".join(
        bytes(p) for p in canon.elements)


def group_to_text(g: PermutationGroup) -> str:
    """Print form: sorted image lists, e.g. [[0,1],[1,0]]."""
    inner = ",".join("[" + ",".join(map(str, p)) + "]" for p in g.elements)
    return f"[{inner}]"

"""Automorphism spectra and concrete model-class bijections.

The spectrum of a theory maps, per universe size, each base-isomorphism
class of permutation groups to how many models (and how many isomorphism
classes of models) realize it as their automorphism group.  Equal spectra
license an explicit universe-preserving bijection between the two model
classes that preserves and reflects isomorphisms; build_concrete_iso
constructs it and verify_concrete_iso checks it from scratch.  Spectra
and the bijection both come from a Census, which classifies the models of
one theory at one size once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .budget import WorkBudget
from .groups import (PermutationGroup, automorphism_group, canonical_form,
                     form_key, group_to_text)
from .models import (FiniteModel, Theory, apply_permutation, canonical_key,
                     enumerate_models, find_isomorphisms, is_isomorphism)
from .ultra import ultrafilters_on, ultraproduct

__all__ = [
    "SpectrumEntry", "Spectrum", "SpectrumWitness", "Census", "aut_spec",
    "compare_spectra", "SpectraMismatchError", "ConcreteBijection",
    "build_concrete_iso", "VerificationReport", "verify_concrete_iso",
]


@dataclass(frozen=True)
class SpectrumEntry:
    """Counts for one (size, group) cell.

    class_count is the number of isomorphism classes of models whose
    automorphism group lies in this base-isomorphism class; model_count is
    the number of raw models on {0..n-1}.
    """

    class_count: int
    model_count: int
    group: PermutationGroup  # canonical representative


class Spectrum:
    """Per-size tables from group keys to spectrum entries."""

    __slots__ = ("sizes", "table")

    def __init__(self, sizes: Sequence[int],
                 table: dict[int, dict[bytes, SpectrumEntry]]):
        self.sizes = tuple(sizes)
        self.table = table

    def entry(self, size: int, key: bytes) -> SpectrumEntry | None:
        return self.table.get(size, {}).get(key)

    def cells(self) -> Iterator[tuple[int, bytes, SpectrumEntry]]:
        """All cells sorted by (size, key bytes); the canonical report order."""
        for n in self.sizes:
            for key in sorted(self.table[n]):
                yield n, key, self.table[n][key]

    def report_lines(self) -> list[str]:
        return [
            f"size={n} group={group_to_text(e.group)} order={e.group.order} "
            f"classes={e.class_count} models={e.model_count}"
            for n, _, e in self.cells()
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        if self.sizes != other.sizes:
            return False
        mine = {(n, k): (e.class_count, e.model_count) for n, k, e in self.cells()}
        theirs = {(n, k): (e.class_count, e.model_count) for n, k, e in other.cells()}
        return mine == theirs

    def __hash__(self) -> int:
        return hash((self.sizes,
                     tuple((n, k, e.class_count, e.model_count) for n, k, e in self.cells())))

    def __repr__(self) -> str:
        return f"<Spectrum sizes={self.sizes}, {sum(len(v) for v in self.table.values())} cells>"


@dataclass(frozen=True)
class SpectrumWitness:
    """First cell on which two spectra disagree; absent cells count (0, 0)."""

    size: int
    key: bytes
    group: PermutationGroup
    left: tuple[int, int]   # (class_count, model_count)
    right: tuple[int, int]

    def describe(self) -> str:
        return (f"size={self.size} group={group_to_text(self.group)} "
                f"order={self.group.order} "
                f"left_classes={self.left[0]} left_models={self.left[1]} "
                f"right_classes={self.right[0]} right_models={self.right[1]}")


class SpectraMismatchError(ValueError):
    """build_concrete_iso was asked to pair theories with unequal spectra."""

    def __init__(self, witness: SpectrumWitness):
        super().__init__(f"spectra differ: {witness.describe()}")
        self.witness = witness


class Census:
    """The models of t at one size, each classified once.

    One enumeration, and per model one automorphism group, one canonical
    form and one canonical key; no per-model group is kept.  cells maps
    each group key to (canonical group, classes sorted by canonical key),
    and each class is [members in encoding order, representative].  The
    representative is the least member whose automorphism group literally
    equals the canonical group.
    """

    __slots__ = ("cells",)

    def __init__(self, t: Theory, size: int, budget: WorkBudget | None = None):
        found: dict[PermutationGroup, dict[bytes, list]] = {}
        for m in enumerate_models(t, size, budget):
            aut = automorphism_group(m)
            canon = canonical_form(aut)
            cls = found.setdefault(canon, {}).setdefault(canonical_key(m), [[], None])
            cls[0].append(m)
            if cls[1] is None and aut == canon:
                cls[1] = m
        self.cells: dict[bytes, tuple[PermutationGroup, list[list]]] = {}
        for canon, classes in found.items():
            # orbit-stabilizer: a class is the n!/|Aut| relabellings of any
            # member, and one of them has the canonical group itself
            expected = math.factorial(size) // canon.order
            for members, rep in classes.values():
                if len(members) != expected or rep is None:
                    raise RuntimeError(
                        f"class of {members[0]!r} has {len(members)} members"
                        f"{'' if rep else ' and no representative'}, "
                        f"orbit-stabilizer expects {expected}")
            self.cells[form_key(canon)] = (canon, [classes[k] for k in sorted(classes)])

    def entries(self) -> dict[bytes, SpectrumEntry]:
        """This size's spectrum table: group key -> counts."""
        return {gkey: SpectrumEntry(len(classes), sum(len(ms) for ms, _ in classes), group)
                for gkey, (group, classes) in self.cells.items()}


def aut_spec(t: Theory, max_size: int, budget: WorkBudget | None = None,
             *, sizes: Sequence[int] | None = None) -> Spectrum:
    """The automorphism spectrum of t for sizes 1..max_size.

    Pass sizes= to restrict to an explicit size list (the CLI's exact-size
    mode); max_size is ignored then.
    """
    size_list = tuple(sizes) if sizes is not None else tuple(range(1, max_size + 1))
    return Spectrum(size_list, {n: Census(t, n, budget).entries() for n in size_list})


def _first_difference(n: int, left: dict[bytes, SpectrumEntry],
                      right: dict[bytes, SpectrumEntry]) -> SpectrumWitness | None:
    """First cell of one size, in key order, whose counts differ."""
    for key in sorted(set(left) | set(right)):
        le, re = left.get(key), right.get(key)
        lc = (le.class_count, le.model_count) if le else (0, 0)
        rc = (re.class_count, re.model_count) if re else (0, 0)
        if lc != rc:
            return SpectrumWitness(n, key, (le or re).group, lc, rc)
    return None


def compare_spectra(s1: Spectrum, s2: Spectrum) -> SpectrumWitness | None:
    """None when equal; otherwise the first differing cell in (size, key) order."""
    if s1.sizes != s2.sizes:
        raise ValueError(f"size ranges differ: {s1.sizes} vs {s2.sizes}")
    witnesses = (_first_difference(n, s1.table[n], s2.table[n]) for n in s1.sizes)
    return next((w for w in witnesses if w is not None), None)


# ============================================================
# the concrete bijection
# ============================================================

class ConcreteBijection:
    """An explicit map from Mod(t1) to Mod(t2) on sizes 1..max_size.

    pairs[n] maps each size-n model of t1 to a size-n model of t2.  The map
    built by build_concrete_iso sends isomorphic models to isomorphic
    models and preserves every concrete isomorphism; verify_concrete_iso
    checks that explicitly.
    """

    __slots__ = ("sizes", "pairs")

    def __init__(self, sizes: Sequence[int],
                 pairs: dict[int, dict[FiniteModel, FiniteModel]]):
        self.sizes = tuple(sizes)
        self.pairs = pairs

    def apply(self, m: FiniteModel) -> FiniteModel:
        try:
            return self.pairs[m.size][m]
        except KeyError:
            raise ValueError(f"bijection not defined on {m!r}") from None

    def items(self) -> Iterator[tuple[FiniteModel, FiniteModel]]:
        for n in self.sizes:
            for m in sorted(self.pairs[n], key=FiniteModel.encode):
                yield m, self.pairs[n][m]


def _paired_classes(c1: Census, c2: Census):
    """(rep1, rep2, members of rep1's class) for classes paired off per cell.

    Within each group key the classes of both censuses are paired in
    canonical-key order; the censuses must have equal spectra.
    """
    for gkey, (_, classes1) in c1.cells.items():
        for (members, rep1), (_, rep2) in zip(classes1, c2.cells[gkey][1]):
            yield rep1, rep2, members


def build_concrete_iso(t1: Theory, t2: Theory, max_size: int,
                       budget: WorkBudget | None = None) -> ConcreteBijection:
    """Build the spectrum-driven bijection b from Mod(t1) to Mod(t2).

    Requires equal spectra: sizes are taken in turn, and the first size
    whose spectra differ raises SpectraMismatchError before any larger size
    is enumerated.  Per size and per group key, the isomorphism classes on
    both sides are ordered by canonical key and paired off; each pair has
    representatives with literally equal automorphism groups, and then
    b(M) = f(M2rep) for the least isomorphism f from M's representative
    M1rep to M.  Any such f gives the same image, which is what makes b
    well defined; the tests iterate all f to confirm.
    """
    sizes = range(1, max_size + 1)
    pairs: dict[int, dict[FiniteModel, FiniteModel]] = {}
    for n in sizes:
        c1, c2 = Census(t1, n, budget), Census(t2, n, budget)
        witness = _first_difference(n, c1.entries(), c2.entries())
        if witness is not None:
            raise SpectraMismatchError(witness)
        pairs[n] = {m: apply_permutation(rep2, find_isomorphisms(rep1, m)[0])
                    for rep1, rep2, members in _paired_classes(c1, c2)
                    for m in members}
    return ConcreteBijection(tuple(sizes), pairs)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three verifier verdicts, with first witnesses.

    universes_ok: every b(M) lives on M's universe.
    iso_ok: for all M, N and every base bijection h, h is an isomorphism
        M -> N exactly when it is one b(M) -> b(N).  Taking M = N this
        already forces Aut(M) = Aut(b(M)).
    ultra_ok: b commutes with ultraproducts over every ultrafilter on index
        sets up to the checked bound, by literal table equality of the
        canonicalized quotients.  Finite index sets only carry principal
        ultrafilters, so this verdict is bounded evidence, not a proof of
        the elementary-embedding condition.
    """

    universes_ok: bool
    universe_witness: FiniteModel | None
    iso_ok: bool
    iso_witness: tuple[FiniteModel, FiniteModel, tuple[int, ...]] | None
    ultra_ok: bool
    ultra_witness: tuple[int, int, tuple[FiniteModel, ...]] | None
    checked_tuples: int

    @property
    def ok(self) -> bool:
        return self.universes_ok and self.iso_ok and self.ultra_ok


def verify_concrete_iso(b: ConcreteBijection, t1: Theory, t2: Theory,
                        max_size: int, *, index_bound: int = 2,
                        sample_budget: int = 2000,
                        budget: WorkBudget | None = None) -> VerificationReport:
    """Re-derive the model lists and check b against the three verdicts.

    Raises ValueError when b is not a total injection from Mod(t1) into
    Mod(t2) on the checked sizes.  Witnesses are the first failures in
    deterministic order.  The ultraproduct verdict draws model tuples in
    lexicographic order up to sample_budget per (index set size, point).
    """
    models1: dict[int, list[FiniteModel]] = {}
    models2: dict[int, list[FiniteModel]] = {}
    for n in range(1, max_size + 1):
        models1[n] = enumerate_models(t1, n, budget)
        models2[n] = enumerate_models(t2, n, budget)
        mod2set = set(models2[n])
        seen: set[FiniteModel] = set()
        for m in models1[n]:
            bm = b.apply(m)  # raises if not total
            if bm in seen:
                raise ValueError(f"bijection not injective at {bm!r}")
            seen.add(bm)
            if bm.size == n and bm not in mod2set:
                raise ValueError(f"image {bm!r} is not a model of the target theory")

    universes_ok, universe_witness = True, None
    for n in range(1, max_size + 1):
        for m in models1[n]:
            if b.apply(m).size != n:
                universes_ok, universe_witness = False, m
                break
        if not universes_ok:
            break

    iso_ok, iso_witness = True, None
    for n in range(1, max_size + 1):
        perms = list(itertools.permutations(range(n)))
        for m, other in itertools.product(models1[n], repeat=2):
            bm, bo = b.apply(m), b.apply(other)
            for h in perms:
                if is_isomorphism(m, other, h) != is_isomorphism(bm, bo, h):
                    iso_ok, iso_witness = False, (m, other, h)
                    break
            if not iso_ok:
                break
        if not iso_ok:
            break

    all1 = [m for n in range(1, max_size + 1) for m in models1[n]]
    ultra_ok, ultra_witness = True, None
    checked = 0
    for k in range(1, index_bound + 1):
        for u in ultrafilters_on(k):
            point = u.principal_point()
            for count, tup in enumerate(itertools.product(all1, repeat=k)):
                if count >= sample_budget:
                    break
                left = b.apply(ultraproduct(list(tup), u, budget).quotient)
                right = ultraproduct([b.apply(m) for m in tup], u, budget).quotient
                checked += 1
                if left != right:
                    ultra_ok, ultra_witness = False, (k, point, tup)
                    break
            if not ultra_ok:
                break
        if not ultra_ok:
            break

    return VerificationReport(universes_ok, universe_witness,
                              iso_ok, iso_witness,
                              ultra_ok, ultra_witness, checked)

"""Automorphism spectra and concrete model-class bijections.

The spectrum of a theory maps, per universe size, each base-isomorphism
class of permutation groups to how many models (and how many isomorphism
classes of models) realize it as their automorphism group.  Equal spectra
license an explicit universe-preserving bijection between the two model
classes that preserves and reflects isomorphisms; build_concrete_iso
constructs it and verify_concrete_iso checks it from scratch.  Spectra
and the bijection both come from a census.Census, which classifies the
models of one theory at one size, as encodings, with one relabelling sweep
per class.  Since Iso(M, N) is a coset h Aut(M), the verifier checks
isomorphisms class by class, off the sweep that classifies each class and
the sweep of its image (the coset criterion of VerificationReport).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from math import prod

from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Signature
from .groups import PermutationGroup, group_to_text
from .models import FiniteModel, Theory, enumerate_models
from .record import Record

# census (Census, Relabelling, orbits) is imported where it is used, so
# that only the commands that classify models load it

__all__ = [
    "SpectrumEntry", "Spectrum", "SpectrumWitness", "aut_spec",
    "spectra", "compare_spectra", "SpectraMismatchError", "ConcreteBijection",
    "build_concrete_iso", "VerificationReport", "verify_concrete_iso",
]


class SpectrumEntry(Record):
    """Counts for one (size, group) cell.

    class_count is the number of isomorphism classes of models whose
    automorphism group lies in this base-isomorphism class; model_count is
    the number of raw models on {0..n-1}.
    """

    __slots__ = ("class_count", "model_count", "group")
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


class SpectrumWitness(Record):
    """First cell on which two spectra disagree; absent cells count (0, 0)."""

    __slots__ = ("size", "key", "group", "left", "right")
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
    """Two theories that had to have equal spectra do not."""

    def __init__(self, witness: SpectrumWitness):
        super().__init__(f"spectra differ: {witness.describe()}")
        self.witness = witness


def _entries(census: Census) -> dict[bytes, SpectrumEntry]:
    """The spectrum table of a census's size: group key -> counts."""
    return {gkey: SpectrumEntry(len(classes), sum(count for count, _ in classes), group)
            for gkey, (group, classes) in census.cells.items()}


def aut_spec(t: Theory, sizes: Iterable[int], budget: WorkBudget | None = None) -> Spectrum:
    """The automorphism spectrum of t at each of the given sizes."""
    from .census import Census
    sizes = tuple(sizes)
    return Spectrum(sizes, {n: _entries(Census(t.sig, n, enumerate_models(t, n, budget), budget))
                            for n in sizes})


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


def spectra(t1: Theory, t2: Theory, sizes: Iterable[int], budget: WorkBudget | None = None
            ) -> Iterator[tuple[int, list[tuple], Census, Census]]:
    """(n, t1's encodings, census of t1, census of t2) for each size n in
    turn; raises SpectraMismatchError at the first size whose spectra
    differ, before any larger size is enumerated (or could exceed the
    budget).  The two censuses of a size share their canonical_form memo."""
    from .census import Census
    for n in sizes:
        forms: dict = {}  # census.Census's canonical-form memo, shared by both sides
        encodings = enumerate_models(t1, n, budget)
        c1 = Census(t1.sig, n, encodings, budget, forms)
        c2 = Census(t2.sig, n, enumerate_models(t2, n, budget), budget, forms)
        witness = _first_difference(n, _entries(c1), _entries(c2))
        if witness is not None:
            raise SpectraMismatchError(witness)
        yield n, encodings, c1, c2


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

    The map built by build_concrete_iso sends isomorphic models to
    isomorphic models and preserves every concrete isomorphism;
    verify_concrete_iso checks that explicitly.  It is kept a size at a
    time in two columns of encodings over sigs = (t1's signature, t2's):
    columns[n] = (sources, images), the size-n models in encoding order
    and, index for index, their images.
    """

    __slots__ = ("sizes", "sigs", "columns")

    def __init__(self, sizes: Sequence[int], sigs: tuple[Signature, Signature],
                 columns: dict[int, tuple[list[tuple], list[tuple]]]):
        self.sizes, self.sigs, self.columns = tuple(sizes), sigs, columns


def _paired_classes(c1: Census, c2: Census):
    """(rep1, rep2) for the classes paired off per cell.

    Within each group key the classes of both censuses are paired in
    canonical-key order; the censuses must have equal spectra.
    """
    for gkey, (_, classes1) in c1.cells.items():
        for (_, rep1), (_, rep2) in zip(classes1, c2.cells[gkey][1]):
            yield rep1, rep2


def build_concrete_iso(t1: Theory, t2: Theory, max_size: int,
                       budget: WorkBudget | None = None) -> ConcreteBijection:
    """Build the spectrum-driven bijection b from Mod(t1) to Mod(t2).

    Requires equal spectra: the sizes are taken in turn by spectra, which
    raises SpectraMismatchError at the first size whose spectra differ.
    Per size and per group key, the isomorphism classes on both sides are
    ordered by canonical key and paired off; each pair has
    representatives with literally equal automorphism groups, and then
    b(f.M1rep) = f.M2rep for every permutation f.  Any f carrying M1rep
    onto M gives the same image, which is what makes b well defined; the
    tests iterate all f to confirm.  The images come from one paired sweep
    of M1rep and M2rep, each with its census's relabellings, and are kept
    as a column beside t1's list of encodings; t2's list is not kept.
    """
    sizes = range(1, max_size + 1)
    columns: dict[int, tuple[list[tuple], list[tuple]]] = {}
    for n, encodings, c1, c2 in spectra(t1, t2, sizes, budget):
        # keyed by t1's own encodings, in their order; an update keeps the
        # key and drops the sweep's equal copy
        image = dict.fromkeys(encodings)
        for rep1, rep2 in _paired_classes(c1, c2):
            # the i-th relabellings of rep1 and rep2 come from one permutation
            image.update(zip(c1.relabelling.images(rep1), c2.relabelling.images(rep2)))
        columns[n] = (encodings, list(image.values()))
    return ConcreteBijection(sizes, (t1.sig, t2.sig), columns)


class VerificationReport(Record):
    """Outcome of the three verifier verdicts, with first witnesses.

    universes_ok: every b(M) lives on M's universe.
    iso_ok: for all M, N and every base bijection h, h is an isomorphism
        M -> N exactly when it is one b(M) -> b(N).  Decided by the coset
        criterion: with R any member of a class of t1, an injective b
        passes exactly when b(p.R) = p.b(R) for every permutation p; the
        condition does not depend on which member is R.  Sketch: p in Aut(R)
        gives Aut(R) contained in Aut(b(R)).  b maps R's class, n!/|Aut(R)|
        models, injectively into b(R)'s class, n!/|Aut(b(R))| models, which
        is no larger; so b maps the class onto it, Aut(R) = Aut(b(R)), and
        distinct classes go to distinct classes.  Iso(p.R, q.R) is the coset
        q Aut(R) p^-1, and Iso(b(p.R), b(q.R)) is q Aut(b(R)) p^-1, the same
        coset; across classes both sides are empty.  Conversely M = R,
        N = p.R and h = p give the condition.
    ultra_ok: b commutes with ultraproducts over every ultrafilter on index
        sets up to the checked bound, on the sampled tuples.  Each such
        ultrafilter is principal, at some i, and the quotient of M_0..M_k-1
        is then literally M_i, so both sides are b(M_i) and the verdict
        holds whatever b is; the tuples are only counted (_ultra_tuples).
        Up to isomorphism it holds on every index set when iso_ok does: the
        checked models have finitely many isomorphism types, exactly one
        type's index set A is in an ultrafilter U, so prod M_i/U is
        isomorphic to M_a for a in A (Los), and prod b(M_i)/U to b(M_a).
        It cannot show definitional equivalence (the paper's Example 2).
    """

    __slots__ = ("universes_ok", "universe_witness", "iso_ok", "iso_witness",
                 "ultra_ok", "checked_tuples")
    universes_ok: bool
    universe_witness: FiniteModel | None
    iso_ok: bool
    iso_witness: tuple[FiniteModel, FiniteModel, tuple[int, ...]] | None
    ultra_ok: bool
    checked_tuples: int

    @property
    def ok(self) -> bool:
        return self.universes_ok and self.iso_ok and self.ultra_ok


def _ultra_tuples(shapes: list[tuple], index_bound: int, sample_budget: int,
                  budget: WorkBudget, sampled: NodeCounter) -> None:
    """Take the tuples of the ultraproduct verdict in turn; build no product.

    shapes holds, per checked model in order, (its size, its image's
    size).  Per index set size k and point, the tuples are the first
    sample_budget k-tuples of the models in lexicographic order, each a
    node of sampled.  The first tuple of each factor sizes, and the first
    of each image sizes, counts the choice functions a product of those
    sizes would enumerate, against a count of its own, as
    Ultrafilter.classes does; nothing is classified, since the verdict
    follows from the isomorphism verdict (VerificationReport.ultra_ok).
    The tuples and the counts do not depend on the point, so the sizes are
    counted at point 0, and the other k - 1 points add their tuples to
    sampled.
    """
    asked = set()
    for k in range(1, index_bound + 1):
        before, last = sampled.count, None
        for tup in itertools.islice(itertools.product(shapes, repeat=k), sample_budget):
            sampled.tick()
            if tup == last:  # the shapes of the tuple before, counted there
                continue
            last = tup
            for sizes in zip(*tup):  # the factor sizes, then the image sizes
                if sizes not in asked:
                    space = prod(sizes)
                    NodeCounter(budget, f"enumerating {space} choice functions").tick(space)
                    asked.add(sizes)
        sampled.tick((k - 1) * (sampled.count - before))


def verify_concrete_iso(b: ConcreteBijection, t1: Theory, t2: Theory,
                        max_size: int, *, index_bound: int = 2,
                        sample_budget: int = 2000,
                        budget: WorkBudget | None = None) -> VerificationReport:
    """Re-derive the model lists, classifying t1's models per size by
    census.orbits without reading b, and check b against the three verdicts.

    Raises ValueError when b is not a total injection from Mod(t1) into
    Mod(t2) on the checked sizes.  Witnesses are the first failures in
    deterministic order; the isomorphism witness is the first that a scan
    of all model pairs and base bijections would meet.  Models are checked
    as encodings, with b read off its columns a size at a time, and built
    only for witnesses and diagnostics.  The budget counts a node per
    member checked and per model pair rescanned; enumeration and the sweeps
    have counts of their own.  The ultraproduct verdict draws model tuples
    in lexicographic order up to sample_budget per (index set size,
    point), and its own count against the budget ticks once per tuple.
    """
    from .census import Relabelling, _iso_witness, orbits
    budget = budget or DEFAULT_BUDGET
    nodes = NodeCounter(budget, "verifying the bijection")
    foreign = b.sigs[1] != t2.sig  # no image can be a model of t2
    shapes: list[tuple] = []  # per checked model, see _ultra_tuples
    universe_witness = iso_witness = None
    for n in range(1, max_size + 1):
        encodings = enumerate_models(t1, n, budget)
        sweeps = NodeCounter(budget, f"relabelling models at size {n}")
        # every class is swept before b is read, so budget and internal
        # errors come in the order a census of t1 gives them; a sweep is
        # kept as the members it reaches, not as n! encodings of its own
        classes = [(members, list(map(dict(zip(members, members)).__getitem__, swept)))
                   for members, swept, _ in orbits(Relabelling(t1.sig, n), encodings, sweeps)
                   ] if encodings else []
        models2 = set(enumerate_models(t2, n, budget))
        column = dict(zip(*b.columns.get(n, ()))) if b.sigs[0] == t1.sig else {}
        seen: set[tuple] = set()
        for enc in encodings:
            bm = column.get(enc)
            if bm is None:
                raise ValueError(
                    f"bijection not defined on {FiniteModel._from_encoding(t1.sig, enc)!r}")
            if bm in seen:
                raise ValueError("bijection not injective at "
                                 f"{FiniteModel._from_encoding(b.sigs[1], bm)!r}")
            seen.add(bm)
            if bm[0] == n and (foreign or bm not in models2):
                raise ValueError(f"image {FiniteModel._from_encoding(b.sigs[1], bm)!r} "
                                 "is not a model of the target theory")
            if bm[0] != n and universe_witness is None:
                universe_witness = FiniteModel._from_encoding(t1.sig, enc)
            # neighbours of one shape share one tuple: 4 MB less at size 4,
            # and _ultra_tuples's comparisons of them stop at identity
            shape = (n, bm[0])
            shapes.append(shapes[-1] if shapes and shapes[-1] == shape else shape)
        iso_witness = iso_witness or _iso_witness(column, n, (t1.sig, t2.sig), classes, nodes)

    sampled = NodeCounter(budget, "sampling ultraproduct tuples")
    _ultra_tuples(shapes, index_bound, sample_budget, budget, sampled)
    return VerificationReport(universe_witness is None, universe_witness,
                              iso_witness is None, iso_witness, True, sampled.count)

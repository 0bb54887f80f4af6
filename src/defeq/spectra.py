"""Automorphism spectra and concrete model-class bijections.

The spectrum of a theory maps, per universe size, each base-isomorphism
class of permutation groups to how many models (and how many isomorphism
classes of models) realize it as their automorphism group.  Equal spectra
license an explicit universe-preserving bijection between the two model
classes that preserves and reflects isomorphisms; build_concrete_iso
constructs it and verify_concrete_iso checks it from scratch.  Spectra
and the bijection both come from a Census, which classifies the models of
one theory at one size with one relabelling sweep per class.  Since
Iso(M, N) is a coset h Aut(M), the verifier checks isomorphisms class by
class, one check per model (the coset criterion of VerificationReport).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Signature, SignatureError
from .groups import PermutationGroup, canonical_form, form_key, group_to_text
from .models import (FiniteModel, InternalError, Relabelling, Theory, enumerate_models,
                     is_isomorphism, orbits)
from .record import Record
from .ultra import quotient_encoding, ultrafilters_on

__all__ = [
    "SpectrumEntry", "Spectrum", "SpectrumWitness", "Census", "aut_spec",
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


class Census:
    """The models of t at one size, classified by one sweep per class (models.orbits).

    cells maps group keys to (canonical group, classes by canonical key), a
    class being [members in encoding order, representative]: the least
    member whose group is literally the canonical one, by
    Aut(p.M) = p Aut(M) p^-1, so canonical_form runs once per class.
    relabelling holds the index tables of the sweeps (None when there are no
    models).  The budget bounds enumeration and sweeps apart.
    """

    __slots__ = ("models", "cells", "relabelling", "_moves")

    def __init__(self, t: Theory, size: int, budget: WorkBudget | None = None):
        budget = budget or DEFAULT_BUDGET
        self.models = enumerate_models(t, size, budget)
        self.relabelling = Relabelling(t.sig, size) if self.models else None
        nodes = NodeCounter(budget, f"relabelling models at size {size}")
        found: dict[PermutationGroup, dict[bytes, list]] = {}
        forms: dict[PermutationGroup, PermutationGroup] = {}  # canonical_form, per group
        elements: dict[PermutationGroup, frozenset] = {}  # per canonical form
        for members, moves, stabilizer in orbits(self.relabelling, self.models, nodes):
            aut = PermutationGroup(size, stabilizer, _trusted=True)
            canon = forms.get(aut)
            if canon is None:
                canon = forms[aut] = canonical_form(aut)
            if canon not in elements:
                elements[canon] = frozenset(canon.elements)
            # canon is a conjugate of Aut(members[0]), so some member has it literally
            rep = next(m for m, p in zip(members, moves)
                       if _conjugates_into(aut, p, elements[canon]))
            found.setdefault(canon, {})[members[0].encode_bytes()] = [members, rep]
        self.cells: dict[bytes, tuple[PermutationGroup, list[list]]] = {
            form_key(canon): (canon, [classes[k] for k in sorted(classes)])
            for canon, classes in found.items()}
        self._moves: dict[FiniteModel, list[tuple[int, ...]]] | None = None

    @property
    def moves(self) -> dict[FiniteModel, list[tuple[int, ...]]]:
        """Each representative mapped to, per member, the first permutation
        in lexicographic order that carries it onto that member.  Built on
        first read, by one more sweep of each representative; only the
        verifier reads it."""
        if self._moves is None:
            self._moves = {}
            for _, classes in self.cells.values():
                for members, rep in classes:
                    # reversed, so that the first permutation giving an image is the one kept
                    first = dict(zip(reversed(self.relabelling.images(rep)),
                                     reversed(self.relabelling.perms)))
                    self._moves[rep] = [first[m.encode()] for m in members]
        return self._moves

    def entries(self) -> dict[bytes, SpectrumEntry]:
        """This size's spectrum table: group key -> counts."""
        return {gkey: SpectrumEntry(len(classes), sum(len(ms) for ms, _ in classes), group)
                for gkey, (group, classes) in self.cells.items()}


def _conjugates_into(group: Iterable[tuple[int, ...]], p: tuple[int, ...],
                     elements: frozenset) -> bool:
    """Is p g p^-1 in elements for every g of group?  When elements is a
    group of the same order, that makes p group p^-1 equal to it."""
    inverse = [0] * len(p)
    for i, v in enumerate(p):
        inverse[v] = i
    return all(tuple([p[g[v]] for v in inverse]) in elements for g in group)


def aut_spec(t: Theory, sizes: Iterable[int], budget: WorkBudget | None = None) -> Spectrum:
    """The automorphism spectrum of t at each of the given sizes."""
    sizes = tuple(sizes)
    return Spectrum(sizes, {n: Census(t, n, budget).entries() for n in sizes})


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


def spectra(t1: Theory, t2: Theory, sizes: Iterable[int],
            budget: WorkBudget | None = None) -> Iterator[tuple[int, Census, Census]]:
    """(n, census of t1, census of t2) for each size n in turn; raises
    SpectraMismatchError at the first size whose spectra differ, before any
    larger size is enumerated (or could exceed the budget)."""
    for n in sizes:
        c1, c2 = Census(t1, n, budget), Census(t2, n, budget)
        witness = _first_difference(n, c1.entries(), c2.entries())
        if witness is not None:
            raise SpectraMismatchError(witness)
        yield n, c1, c2


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

    Requires equal spectra: the sizes are taken in turn by spectra, which
    raises SpectraMismatchError at the first size whose spectra differ.
    Per size and per group key, the isomorphism classes on both sides are
    ordered by canonical key and paired off; each pair has
    representatives with literally equal automorphism groups, and then
    b(f.M1rep) = f.M2rep for every permutation f.  Any f carrying M1rep
    onto M gives the same image, which is what makes b well defined; the
    tests iterate all f to confirm.  The images come from one paired sweep
    of M1rep and M2rep, each with its census's relabellings.
    """
    sizes = range(1, max_size + 1)
    pairs: dict[int, dict[FiniteModel, FiniteModel]] = {}
    for n, c1, c2 in spectra(t1, t2, sizes, budget):
        pairs[n] = images = {}
        for rep1, rep2, members in _paired_classes(c1, c2):
            # the i-th relabellings of rep1 and rep2 come from one permutation
            image = dict(zip(c1.relabelling.images(rep1), c2.relabelling.images(rep2)))
            for m in members:
                images[m] = FiniteModel._from_encoding(rep2.sig, image[m.encode()])
    return ConcreteBijection(tuple(sizes), pairs)


class VerificationReport(Record):
    """Outcome of the three verifier verdicts, with first witnesses.

    universes_ok: every b(M) lives on M's universe.
    iso_ok: for all M, N and every base bijection h, h is an isomorphism
        M -> N exactly when it is one b(M) -> b(N).  Decided by the coset
        criterion: with each member of a class of t1 written M = p.R for its
        representative R, an injective b passes exactly when (a) Aut(R) is
        contained in Aut(b(R)) and (b) b(p.R) = p.b(R).  Sketch: by (b), b
        maps R's class, n!/|Aut(R)| models, injectively into b(R)'s class,
        n!/|Aut(b(R))| models, and by (a) that is no larger; so b maps the
        class onto it, Aut(R) = Aut(b(R)), and distinct classes go to
        distinct classes.  Iso(p.R, q.R) is the coset q Aut(R) p^-1, and by
        (b) Iso(b(p.R), b(q.R)) is q Aut(b(R)) p^-1, the same coset; across
        classes both sides are empty.  Conversely M = N = R gives (a) and
        h = p gives (b).
    ultra_ok: b commutes with ultraproducts over every ultrafilter on index
        sets up to the checked bound, by literal table equality of the
        canonicalized quotients.  Finite index sets only carry principal
        ultrafilters, so this verdict is bounded evidence, not a proof of
        the elementary-embedding condition.
    """

    __slots__ = ("universes_ok", "universe_witness", "iso_ok", "iso_witness",
                 "ultra_ok", "ultra_witness", "checked_tuples")
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


def _iso_witness(b: ConcreteBijection, n: int, c1: Census,
                 nodes: NodeCounter) -> tuple[FiniteModel, FiniteModel, tuple[int, ...]] | None:
    """The first (M, N, h) of size n, in full-scan order, that breaks iso_ok.

    b is injective here, and a class that passes (a) and (b) of the coset
    criterion is mapped onto a whole class of b(R)'s.  So a pair of models
    breaks iso_ok only when both their classes fail: only those pairs are
    rescanned.
    """
    failed: set[FiniteModel] = set()  # the members of classes that fail
    for group, classes in c1.cells.values():
        for members, rep in classes:
            nodes.tick(len(members))
            brep = b.apply(rep)
            ok = all(is_isomorphism(brep, brep, g) for g in group)  # (a); group is Aut(rep)
            for m, p in zip(members, c1.moves[rep]):
                if not is_isomorphism(rep, m, p):
                    raise InternalError(f"census move {p} does not carry {rep!r} onto {m!r}")
                ok = ok and is_isomorphism(brep, b.apply(m), p)  # (b), on M's universe
            if not ok:
                failed.update(members)
    if not failed:
        return None
    perms = list(itertools.permutations(range(n)))
    for m, other in itertools.product([m for m in c1.models if m in failed], repeat=2):
        nodes.tick()
        bm, bo = b.apply(m), b.apply(other)
        for h in perms:
            if is_isomorphism(m, other, h) != is_isomorphism(bm, bo, h):
                return m, other, h
    raise InternalError(f"the coset verdict failed at size {n}, but no model pair breaks it")


def _sampled_runs(encs: list[tuple], k: int, sample_budget: int
                  ) -> Iterator[tuple[tuple[tuple, ...], list[tuple]]]:
    """The first sample_budget k-tuples of encs, in lexicographic order, as
    (head, lasts): the tuples head + (last,) for last in lasts, lasts being
    a run of encodings of one size."""
    runs = [list(run) for _, run in itertools.groupby(encs, key=lambda enc: enc[0])]
    left = sample_budget
    for head in itertools.product(encs, repeat=k - 1):
        for run in runs:
            if left <= 0:
                return
            yield head, run[:left]
            left -= len(run)


def _ultra_witness(b: ConcreteBijection, sig: Signature, models: list[FiniteModel],
                   index_bound: int, sample_budget: int, budget: WorkBudget,
                   sampled: NodeCounter) -> tuple[int, int, tuple[FiniteModel, ...]] | None:
    """The first sampled (k, point, tuple) whose product b does not commute with.

    b is total on models, which are over sig.  Each model's image is taken
    once, and the products are made on encodings by ultra.quotient_encoding,
    the kernel of ultra.ultraproduct, with the same plans and the same
    budget check, made once per factor shape.  The tuples come in runs
    that share all factors but the last, and the last factors' size, so a
    run's products are made by one kernel call per side (on the right, one
    per stretch of the run whose images share their size and signature);
    the tuples are then checked, and counted, one at a time.
    """
    source = {m.encode(): m for m in models}
    image = {enc: b.apply(m) for enc, m in source.items()}
    image_enc = {enc: bm.encode() for enc, bm in image.items()}
    mixed = len({bm.sig for bm in image.values()}) > 1  # so a tuple may mix signatures
    encs = list(source)
    for k in range(1, index_bound + 1):
        for u in ultrafilters_on(k):
            plan = None
            for head, lasts in _sampled_runs(encs, k, sample_budget):
                sampled.tick()
                sizes = (*[enc[0] for enc in head], lasts[0][0])
                if plan is None or plan.sizes != sizes:
                    plan = u.plan(sizes, budget)
                products = quotient_encoding(plan, head, lasts, sig)
                right_head = [image_enc[enc] for enc in head]
                rights = [image_enc[enc] for enc in lasts]
                right_products: list[tuple] = []
                for i, (q, last) in enumerate(zip(products, lasts)):
                    if i:
                        sampled.tick()
                    # a quotient outside models goes through b.apply, which raises if b misses it
                    left = image.get(q) or b.apply(FiniteModel._from_encoding(sig, q))
                    if mixed and len({image[enc].sig for enc in (*head, last)}) > 1:
                        raise SignatureError("ultraproduct factors must share a signature")
                    if i == len(right_products):
                        # the stretch from i whose images share a size and a signature
                        target = image[head[0] if head else last].sig
                        right_sizes = (*[enc[0] for enc in right_head], rights[i][0])
                        right_plan = plan if right_sizes == sizes else u.plan(right_sizes, budget)
                        j = i + 1
                        while j < len(lasts) and rights[j][0] == rights[i][0] and (
                                not mixed or image[lasts[j]].sig == target):
                            j += 1
                        right_products += quotient_encoding(right_plan, right_head,
                                                            rights[i:j], target)
                    if left.encode() != right_products[i] or (left.sig is not target
                                                              and left.sig != target):
                        return k, u.principal_point(), tuple(map(source.__getitem__,
                                                                 (*head, last)))
    return None


def verify_concrete_iso(b: ConcreteBijection, t1: Theory, t2: Theory,
                        max_size: int, *, index_bound: int = 2,
                        sample_budget: int = 2000,
                        budget: WorkBudget | None = None) -> VerificationReport:
    """Re-derive the model lists, with a Census of t1 per size that does
    not read b, and check b against the three verdicts.

    Raises ValueError when b is not a total injection from Mod(t1) into
    Mod(t2) on the checked sizes.  Witnesses are the first failures in
    deterministic order; the isomorphism witness is the first that a scan
    of all model pairs and base bijections would meet.  The budget counts
    a node per member checked and per model pair rescanned.  The
    ultraproduct verdict draws model tuples in lexicographic order up to
    sample_budget per (index set size, point), and its own count against
    the budget ticks once per tuple.
    """
    budget = budget or DEFAULT_BUDGET
    nodes = NodeCounter(budget, "verifying the bijection")
    all1: list[FiniteModel] = []
    universe_witness = iso_witness = None
    for n in range(1, max_size + 1):
        c1 = Census(t1, n, budget)
        all1.extend(c1.models)
        mod2set = set(enumerate_models(t2, n, budget))
        seen: set[FiniteModel] = set()
        for m in c1.models:
            bm = b.apply(m)  # raises if not total
            if bm in seen:
                raise ValueError(f"bijection not injective at {bm!r}")
            seen.add(bm)
            if bm.size == n and bm not in mod2set:
                raise ValueError(f"image {bm!r} is not a model of the target theory")
            if bm.size != n and universe_witness is None:
                universe_witness = m
        iso_witness = iso_witness or _iso_witness(b, n, c1, nodes)

    sampled = NodeCounter(budget, "sampling ultraproduct tuples")
    ultra_witness = _ultra_witness(b, t1.sig, all1, index_bound, sample_budget, budget, sampled)
    return VerificationReport(universe_witness is None, universe_witness,
                              iso_witness is None, iso_witness,
                              ultra_witness is None, ultra_witness, sampled.count)

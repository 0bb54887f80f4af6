"""The models of one signature at one size, classified into isomorphism classes.

A Census sweeps every relabelling of one member per class (Relabelling,
orbits), on model encodings that its caller enumerates, and groups the
classes by the canonical form of their automorphism groups; it keeps each
class's member count and representative, not its members.  Spectra and
the concrete bijection are read off it (spectra), and the verifier of the
bijection checks isomorphisms off the sweeps of orbits (_iso_witness).
Only the commands that need a census or those sweeps import this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from operator import itemgetter

from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Signature
from .groups import PermutationGroup, canonical_form, form_key
from .models import FiniteModel, InternalError, _ones, _ranks

__all__ = ["Relabelling", "orbits", "Census"]


class Relabelling:
    """The n! relabellings of one signature's models on {0..n-1}, as index tables.

    perms lists the permutations in lexicographic order.  For the i-th
    permutation p and each symbol of the signature, the tables hold, per
    k-tuple rank j, the bit (as a power of two) that p moves bit j of a
    relation bitmap to, and, per rank r, the argument rank whose value
    lands at rank r of a relabelled function table.  They are built per
    instance, when a caller asks for one, never at import.
    """

    __slots__ = ("size", "perms", "_rels", "_funs")

    def __init__(self, sig: Signature, size: int):
        self.size = size
        self.perms = list(itertools.permutations(range(size)))
        bits: dict[int, list[list[int]]] = {}  # per arity, per permutation
        srcs: dict[int, list[list[int]]] = {}
        for arity in {*sig.relations.values(), *sig.functions.values()}:
            bits[arity], srcs[arity] = [], []
            for p in self.perms:
                dst = _ranks(size, arity, p)
                src = [0] * len(dst)
                for j, d in enumerate(dst):
                    src[d] = j
                bits[arity].append([1 << d for d in dst])
                srcs[arity].append(src)
        # the tables per symbol, in signature order
        self._rels = [bits[k] for k in sig.relations.values()]
        self._funs = [srcs[k] for k in sig.functions.values()]

    def images(self, enc: tuple) -> list[tuple]:
        """The encoding of p.M for each permutation p of perms, in order, M
        having encoding enc: apply_permutation(M, perms[i]).encode() is
        images(enc)[i].  Two models of one size, each swept with the
        relabelling of its own signature, give the images of one
        permutation at one index."""
        size, rel_part, fun_part, consts = enc
        if size != self.size:
            raise ValueError(f"model of size {size}, relabellings of size {self.size}")
        perms = self.perms
        # one column per symbol, one entry per permutation; zip makes the rows
        rels = [_gathered(rows, ones) for ones, rows in zip(map(_ones, rel_part), self._rels)]
        funs = [[tuple(map(p.__getitem__, map(table.__getitem__, src)))
                 for p, src in zip(perms, srcs)]
                for table, srcs in zip(fun_part, self._funs)]
        values = [[p[c] for p in perms] for c in consts]
        empty = [()] * len(perms)
        return list(zip([size] * len(perms), list(zip(*rels)) or empty,
                        list(zip(*funs)) or empty, list(zip(*values)) or empty))


def _gathered(rows: list[list[int]], ones: list[int]) -> list[int]:
    """sum(row[j] for j in ones) for each row of rows."""
    if len(ones) > 1:
        return list(map(sum, map(itemgetter(*ones), rows)))
    return list(map(itemgetter(*ones), rows)) if ones else [0] * len(rows)


def orbits(relabelling: Relabelling, encodings: Sequence[tuple], nodes: NodeCounter
           ) -> Iterator[tuple[list[tuple], list[tuple], list[tuple[int, ...]]]]:
    """Split models of one signature and size, as sorted encodings, into classes.

    One sweep of relabelling (made for that signature and size) per
    isomorphism class, from its least member m, yields (members in encoding
    order, swept, Aut(m) in lexicographic order), where swept is
    relabelling.images(m): swept[i] is the encoding of perms[i].m.  members
    are objects of encodings; nodes counts one node per permutation
    applied.  Classes come in the order of their least members, which are
    the canonical keys.  InternalError is raised unless every image is one
    of the models not yet classified (the list is closed under relabelling)
    and |class| * |Aut(m)| = n! (orbit-stabilizer).
    """
    pending = dict(zip(encodings, encodings))  # the models not yet classified
    for m in encodings:
        if m not in pending:
            continue
        swept, perms = relabelling.images(m), relabelling.perms
        nodes.tick(len(perms))
        stabilizer = [p for p, image in zip(perms, swept) if image == m]
        found = list(map(pending.pop, set(swept), itertools.repeat(None)))
        expected = len(perms) // len(stabilizer)
        strays = found.count(None)
        if strays or len(found) != expected:
            raise InternalError(
                f"class of {m} has {len(found)} members, {strays} of them not "
                f"enumerated or already classified; orbit-stabilizer expects {expected}")
        found.sort()  # sorted encodings are in encoding order
        yield found, swept, stabilizer


class Census:
    """The models of one signature at one size, classified by one sweep per
    class (orbits).

    encodings, the models' encodings in encoding order
    (models.enumerate_encodings), is read once and not kept.  cells maps
    group keys to (canonical group, classes in canonical-key order), a
    class being (its member count, its representative): the least member
    whose group is literally the canonical one.  Since Aut(p.M) = p Aut(M)
    p^-1, that is the least image of the class's least member under the
    conjugators of its group's canonical form, read off the class's sweep;
    canonical_form runs once per literal group.  A representative is an
    object of encodings.  forms, the memo of those calls, maps a literal
    group to its canonical form and the indices of its conjugators in
    relabelling.perms; the censuses of one size may share it.  relabelling
    holds the index tables of the sweeps (None when there are no models).
    The budget bounds the sweeps.
    """

    __slots__ = ("sig", "cells", "relabelling")

    def __init__(self, sig: Signature, size: int, encodings: Sequence[tuple],
                 budget: WorkBudget | None = None,
                 forms: dict[PermutationGroup, tuple[PermutationGroup, list[int]]] | None = None):
        forms = {} if forms is None else forms
        self.sig = sig
        self.relabelling = Relabelling(sig, size) if encodings else None
        nodes = NodeCounter(budget or DEFAULT_BUDGET, f"relabelling models at size {size}")
        found: dict[PermutationGroup, list[tuple[int, tuple]]] = {}
        # classes come in the order of their least members, the canonical keys
        for members, swept, stabilizer in orbits(self.relabelling, encodings, nodes):
            aut = PermutationGroup(size, stabilizer, _trusted=True)
            if aut not in forms:
                canon, conjugators = canonical_form(aut)
                forms[aut] = canon, [i for i, p in enumerate(self.relabelling.perms)
                                     if p in conjugators]
            canon, conjugators = forms[aut]
            rep = members[bisect_left(members, min(map(swept.__getitem__, conjugators)))]
            found.setdefault(canon, []).append((len(members), rep))
        self.cells: dict[bytes, tuple[PermutationGroup, list[tuple[int, tuple]]]] = {
            form_key(canon): (canon, classes) for canon, classes in found.items()}


def _iso_witness(column: dict[tuple, tuple], n: int, sigs: tuple[Signature, Signature],
                 classes: list[tuple[list, list]], nodes: NodeCounter
                 ) -> tuple[FiniteModel, FiniteModel, tuple[int, ...]] | None:
    """The first (M, N, h) of size n, in full-scan order, that breaks
    spectra.VerificationReport.iso_ok for the bijection b.

    column maps each size-n model of t1 to its image under b, as encodings,
    checked: an image on its model's universe is a model of t2.  classes
    are the classes of the size-n models in orbits' order, as (members,
    the sweep of the least member R).  A class passes the coset criterion
    when the sweep of b(R) is b applied to R's sweep, index by index.  b is
    injective here, and a class that passes is mapped onto a whole class
    of b(R)'s.  So a pair of models breaks iso_ok only when both their
    classes fail: only those pairs are rescanned, off one sweep of each
    model and of its image.
    """
    target = None  # the relabellings of t2's size-n models, made when first needed
    failed: set[tuple] = set()  # the members of classes that fail
    for members, swept in classes:
        nodes.tick(len(members))
        brep = column[members[0]]
        ok = brep[0] == n  # b(R) off R's universe fails the class
        if ok:
            target = target or Relabelling(sigs[1], n)
            for enc, want in zip(swept, target.images(brep)):
                if column[enc] != want:
                    ok = False
                    break
        if not ok:
            failed.update(members)
    if not failed:
        return None
    source = Relabelling(sigs[0], n)
    members = sorted(failed)  # sorted encodings are in encoding order
    for m in members:
        swept, bm, bswept = source.images(m), column[m], [None] * len(source.perms)
        if bm[0] == n:
            target = target or Relabelling(sigs[1], n)
            bswept = target.images(bm)
        for other in members:
            nodes.tick()
            bo = column[other]
            for h, image, bimage in zip(source.perms, swept, bswept):
                if (image == other) != (bimage == bo):
                    return (FiniteModel._from_encoding(sigs[0], m),
                            FiniteModel._from_encoding(sigs[0], other), h)
    raise InternalError(f"the coset verdict failed at size {n}, but no model pair breaks it")

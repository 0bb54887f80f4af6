"""Definitional extensions and bounded definability checks.

A DefinitionSet turns new relation symbols into biconditional axioms; the
checks here test, over all models up to a size bound, whether a hidden
relation is pinned down implicitly (unique expansion) or explicitly (some
defining formula within a size bound), and whether a theory survives
passage to substructures.  Everything is bounded evidence: a pass speaks
only about the sizes and formula sizes actually searched.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Mapping

from . import folang
from .budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from .folang import Forall, Formula, Iff, Rel, Signature, SignatureError, Var
from .models import (FiniteModel, InternalError, Theory, _definer, _rank, _transpose, _tuples,
                     enumerate_encodings)
from .record import Record

__all__ = [
    "Definition", "DefinitionSet", "extend_theory", "expand_model",
    "unique_expansion_check", "beth_search", "substructure_closure_check",
]


class Definition(Record):
    """A defining formula with its argument variable tuple."""

    __slots__ = ("variables", "formula")
    variables: tuple[str, ...]
    formula: Formula

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables) or not self.variables:
            raise ValueError("definition needs a nonempty tuple of distinct variables")
        extra = folang.free_vars(self.formula) - set(self.variables)
        if extra:
            raise ValueError(f"defining formula has stray free variables {sorted(extra)}")

    @property
    def arity(self) -> int:
        return len(self.variables)


class DefinitionSet:
    """New relation symbols mapped to their definitions over a base signature."""

    __slots__ = ("defs",)

    def __init__(self, defs: Mapping[str, Definition] | None = None):
        self.defs = dict(defs or {})

    def add(self, name: str, variables: Iterable[str], formula: Formula) -> "DefinitionSet":
        if name in self.defs:
            raise ValueError(f"duplicate definition for {name!r}")
        self.defs[name] = Definition(tuple(variables), formula)
        return self

    def items(self):
        return sorted(self.defs.items())

    def __len__(self) -> int:
        return len(self.defs)


def _biconditional(name: str, d: Definition) -> Formula:
    body: Formula = Iff(Rel(name, tuple(Var(v) for v in d.variables)), d.formula)
    for v in reversed(d.variables):
        body = Forall(v, body)
    return body


def _extended_signature(sig: Signature, defs: DefinitionSet) -> Signature:
    """sig plus the defined relations, whose definitions must be over sig."""
    for name, d in defs.items():
        if sig.has_symbol(name):
            raise SignatureError(f"defined symbol {name!r} already declared")
        folang.validate_formula(sig, d.formula)
    return Signature({**sig.relations, **{name: d.arity for name, d in defs.items()}},
                     sig.functions, sig.constants)


def extend_theory(t: Theory, defs: DefinitionSet) -> Theory:
    """t plus the defined relations and their biconditional axioms."""
    axioms = list(t.axioms) + [_biconditional(name, d) for name, d in defs.items()]
    return Theory(_extended_signature(t.sig, defs), axioms, name=t.name)


def expand_model(m: FiniteModel, defs: DefinitionSet) -> FiniteModel:
    """The unique expansion of m interpreting each defined relation by its
    formula, computed as model enumeration computes a defined relation."""
    new_sig = _extended_signature(m.sig, defs)
    size, bitmaps, tables, consts = m.encode()
    data = [*bitmaps, *tables, *consts]
    rels = dict(zip(m.sig.relations, bitmaps))
    for name, d in defs.items():
        rels[name] = _transpose(_definer(m.sig, d.variables, d.formula, size)(data), 1)[0]
    return FiniteModel._from_encoding(
        new_sig, (size, tuple(map(rels.__getitem__, new_sig.relations)), tables, consts))


def _visible(t: Theory, hidden: Iterable[str]) -> list[int]:
    """Positions of t's relations not in hidden, which may name relations of t only."""
    hidden = set(hidden)
    for name in hidden:
        if name not in t.sig.relations:
            raise ValueError(f"hidden symbol {name!r} is not a relation of the theory")
    return [i for i, name in enumerate(t.sig.relations) if name not in hidden]


def _shared_reduct(encs: Iterable[tuple], visible: list[int]) -> tuple[tuple, tuple] | None:
    """The encodings of the first two models, in the given order, whose
    reducts to the visible relations, every function and every constant
    agree.

    The models share a signature and a size, so each is keyed on its
    encoding with the hidden relations' bitmaps left out.
    """
    seen: dict[tuple, tuple] = {}
    for enc in encs:
        _, bitmaps, tables, consts = enc
        first = seen.setdefault((tables, consts, *[bitmaps[i] for i in visible]), enc)
        if first is not enc:
            return first, enc
    return None


def unique_expansion_check(t: Theory, hidden: Iterable[str], max_size: int,
                           budget: WorkBudget | None = None,
                           ) -> tuple[FiniteModel, FiniteModel] | None:
    """Search sizes 1..max_size for two models of t sharing a reduct.

    The reduct forgets the hidden relations.  None means every reduct that
    expands at all expands uniquely (implicit definability evidence up to
    the bound); otherwise the first such pair in enumeration order is the
    witness.
    """
    visible = _visible(t, hidden)
    for n in range(1, max_size + 1):
        pair = _shared_reduct(enumerate_encodings(t, n, budget), visible)
        if pair is not None:
            return tuple(FiniteModel._from_encoding(t.sig, enc) for enc in pair)
    return None


def beth_search(t: Theory, target: str, max_size: int, formula_bound: int,
                budget: WorkBudget | None = None) -> Formula | None:
    """First formula over t's signature minus target that defines target.

    Scans enumerate_formulas order; a candidate phi qualifies when every
    model of t of size <= max_size satisfies the pointwise biconditional
    between target and phi.  None means no formula within formula_bound
    works (bounded evidence only).  Its variables avoid every symbol of t,
    target included, so the answer parses against t.

    When two models of t share a reduct, no candidate can ever separate
    them (candidates do not mention target), so the one enumeration of
    each size also looks for such a pair, and the search returns None at
    once on one; this changes nothing observable, only the running time.

    The candidates are read off the stream's sections (folang.FormulaLevels)
    with one bit each.  A point (model, assignment) that refuted an earlier
    candidate is kept with its truth.LevelTruth, and the AND of the kept
    points' agreement with target, one big-int vector per section, leaves
    exactly the candidates that no kept point refutes.  Only the first of
    them is built, with unrank, and checked on every point at once, in
    model lanes (_first_refutation); the first point, in the order of a
    plain scan, that it fails on is kept and its vector ANDed in.  A
    candidate is dropped only on a point where it disagrees with target,
    so the answer is the one a plain scan in stream order gives: the
    counterexample cache of CEGIS, with whole sections of candidates ruled
    out at once.  The budget counts one node per candidate up to the one
    checked, as a scan would.
    """
    # only beth and the Los checks read truth vectors, so the commands that
    # do not search formulas start without the module
    from .truth import LevelTruth

    budget = budget or DEFAULT_BUDGET
    arity = t.sig.relations.get(target)
    if arity is None:
        raise ValueError(f"target {target!r} is not a relation of the theory")
    visible = _visible(t, [target])
    base_sig = Signature({name: a for name, a in t.sig.relations.items() if name != target},
                         t.sig.functions, t.sig.constants)
    variables = _argument_variables(t.sig, arity)
    at = list(t.sig.relations).index(target)
    sizes = []
    for n in range(1, max_size + 1):
        encs = enumerate_encodings(t, n, budget)
        if _shared_reduct(encs, visible) is not None:
            return None
        sizes.append(_Points(t.sig, encs, n))
    levels = folang.FormulaLevels(base_sig, variables, formula_bound, taken=[target])
    # (truth at a point that refuted a candidate, target value there)
    refuters: list[tuple[LevelTruth, bool]] = []
    nodes = NodeCounter(budget, "scanning candidate defining formulas")
    for size in range(1, formula_bound + 1):
        key = levels.top(size)
        first = nodes.count
        for k, section in enumerate(levels.sections(key)):
            width = levels.section_count(section)
            full = alive = (1 << width) - 1
            for r, (truth, holds) in enumerate(refuters):
                bits = truth.section(key, k)[0]
                alive &= bits if holds else full ^ bits
                if not alive:
                    # the AND is order-free: the refuter that emptied this
                    # section goes first from now on, and the rest are not read
                    refuters.insert(0, refuters.pop(r))
                    break
            start = nodes.count
            while alive:
                i = (alive & -alive).bit_length() - 1
                nodes.tick(start + i + 1 - nodes.count)
                phi = levels.unrank(key, start - first + i)
                refuted = _first_refutation(sizes, t.sig, at, phi, variables)
                if refuted is None:
                    return phi
                m, args, holds = refuted
                truth = LevelTruth(levels, m, dict(zip(variables, args)))
                refuters.append((truth, holds))
                bits = truth.section(key, k)[0]
                alive &= bits if holds else full ^ bits
                if alive >> i & 1:
                    raise InternalError(f"truth vector keeps refuted candidate {phi!r}")
            nodes.tick(start + width - nodes.count)
    return None


class _Points:
    """The models of one size, in model lanes.

    encs are the encodings of the models of t of size size in enumeration
    order, on t's signature sig.  Models sharing their function tables and
    constants form a batch (positions, data): their positions in encs,
    increasing, and the slots that folang.compile_lanes reads with every
    relation a lane relation, lane b being the model at positions[b].
    """

    __slots__ = ("size", "encs", "batches")

    def __init__(self, sig: Signature, encs: list[tuple], size: int):
        self.size = n = size
        self.encs = encs
        groups: dict[tuple, list[int]] = {}
        for pos, (_, _, tables, consts) in enumerate(encs):
            groups.setdefault((tables, consts), []).append(pos)
        self.batches = []
        for (tables, consts), positions in groups.items():
            bitmaps = [encs[pos][1] for pos in positions]
            rels = [_transpose([b[r] for b in bitmaps], n ** a)
                    for r, a in enumerate(sig.relations.values())]
            self.batches.append((positions, [*rels, *tables, *consts]))

    def first_miss(self, misses: Callable[[int, list], list[int]]) -> tuple[int, int] | None:
        """(position, j) of the first miss in the order of a plain scan,
        model by model, then j by j; None if there is none.  misses(full,
        data) gives, for a batch with lane mask full, per index j the lanes
        of the batch's models that miss at j.
        """
        first = None
        for positions, data in self.batches:
            per_j = misses((1 << len(positions)) - 1, data)
            anywhere = functools.reduce(int.__or__, per_j, 0)
            if anywhere:
                b = (anywhere & -anywhere).bit_length() - 1
                if first is None or positions[b] < first[0]:
                    first = positions[b], next(j for j, miss in enumerate(per_j) if miss >> b & 1)
        return first


def _first_refutation(sizes: list[_Points], sig: Signature, target_at: int, phi: Formula,
                      variables: tuple[str, ...],
                      ) -> tuple[FiniteModel, tuple[int, ...], bool] | None:
    """(model, argument tuple, target value) of the first point, in the
    order of a plain scan, where phi disagrees with the target, relation
    target_at of sig; None if there is none.

    phi is evaluated once per batch and argument tuple, on all the
    batch's models at once; its lanes XOR the target's give the models
    it fails on at that tuple.
    """
    lanes = tuple(sig.relations)
    for points in sizes:
        args = _tuples(points.size, len(variables))
        compiled: dict[int, Callable] = {}  # per batch width

        def misses(full: int, data: list) -> list[int]:
            run = compiled.get(full)
            if run is None:
                run = compiled[full] = folang.compile_lanes(
                    sig, phi, points.size, full, lanes, variables)
            return [run(data, a) ^ want for a, want in zip(args, data[target_at])]
        miss = points.first_miss(misses)
        if miss is not None:
            pos, j = miss
            enc = points.encs[pos]
            return FiniteModel._from_encoding(sig, enc), args[j], enc[1][target_at] >> j & 1 == 1
    return None


def _argument_variables(sig: Signature, arity: int) -> tuple[str, ...]:
    """x1..xk, stepping around any collision with declared symbols."""
    names = (f"x{i}" for i in itertools.count(1))
    return tuple(itertools.islice((n for n in names if not sig.has_symbol(n)), arity))


def substructure_closure_check(t: Theory, max_size: int,
                               budget: WorkBudget | None = None,
                               ) -> tuple[FiniteModel, tuple[int, ...]] | None:
    """First (model, subset) whose induced substructure violates t.

    Models are scanned in enumeration order for sizes 1..max_size; subsets
    in order of cardinality then lexicographically.  Subsets that miss a
    constant or are not closed under a function are not substructures and
    are skipped.  None means t held in every induced substructure seen.
    No substructure is built: it satisfies an axiom exactly when its model
    does with the quantifiers over the subset, so each axiom is evaluated
    once per batch of _Points and subset, on all the batch's models at once.
    The budget counts one node per subset tried over all sizes, ticked a
    size at a time, apart from the nodes each size's enumeration counts.
    """
    budget = budget or DEFAULT_BUDGET
    nodes = NodeCounter(budget, "checking induced substructures")
    sig, at = t.sig, len(t.sig.relations)
    for n in range(1, max_size + 1):
        points = _Points(sig, enumerate_encodings(t, n, budget), n)
        subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
        compiled: dict[tuple, list[Callable]] = {}  # per batch width and subset

        def escapes(full: int, data: list) -> list[int]:
            tables = list(zip(data[at:], sig.functions.values()))
            consts, out = data[at + len(tables):], []
            for s in subsets:
                ok = full
                images = (table[_rank(args, n)] for table, a in tables
                          for args in itertools.product(s, repeat=a))
                if set(s).issuperset(itertools.chain(consts, images)):
                    if (full, s) not in compiled:
                        compiled[full, s] = [folang.compile_lanes(
                            sig, ax, n, full, sig.relations, domain=s) for ax in t.axioms]
                    for run in compiled[full, s]:
                        ok &= run(data)
                out.append(full ^ ok)
            return out
        miss = points.first_miss(escapes)
        if miss is not None:
            pos, k = miss
            nodes.tick(pos * len(subsets) + k + 1)
            return FiniteModel._from_encoding(sig, points.encs[pos]), subsets[k]
        nodes.tick(len(points.encs) * len(subsets))
    return None

"""Slow reference implementations and random inputs the tests share.

Nothing here is on a command's path: each function is either the
definition-chasing version of something the package computes faster, or
a generator of test inputs.
"""

import itertools
import random
import re
from collections.abc import Sequence
from functools import lru_cache

from defeq.folang import (
    And, App, Const, Eq, Exists, Forall, Formula, Iff, Implies, Not, Or, Rel, Signature,
    SignatureError, Term, FormulaSyntaxError, Var, _fresh_names, eval_formula,
)
from defeq.budget import DEFAULT_BUDGET, NodeCounter, WorkBudget
from defeq.definability import _argument_variables
from defeq.groups import (PermutationGroup, automorphism_group, canonical_form, compose,
                          form_key, group_to_text, invert)
from defeq.models import (_LANE_BITS, FiniteModel, Theory, _ones, _rank, _tuples,
                          apply_permutation, canonical_key, enumerate_models, find_isomorphisms,
                          is_model)
from defeq.spectra import ConcreteBijection
from defeq.ultra import Ultrafilter, _mask, los_check, ultraproduct


def models_of(t: Theory, n: int, budget: WorkBudget | None = None) -> list[FiniteModel]:
    """The models of t on {0..n-1} in encoding order: enumerate_models'
    encodings, each made a FiniteModel."""
    return [FiniteModel._from_encoding(t.sig, enc) for enc in enumerate_models(t, n, budget)]


def group_key(g: PermutationGroup) -> bytes:
    """Byte encoding of canonical_form(g).

    Two groups get the same key exactly when they are base-isomorphic.
    """
    return form_key(canonical_form(g)[0])


def conjugate(g: PermutationGroup, h: Sequence[int]) -> PermutationGroup:
    """The group {h x h^-1 : x in g}; h must be a bijection of the base."""
    h = tuple(h)
    if sorted(h) != list(range(g.base_size)):
        raise ValueError("not a bijection of the base")
    hinv = invert(h)
    return PermutationGroup(g.base_size, (compose(h, compose(x, hinv)) for x in g.elements),
                            _trusted=True)


def restrict(sig: Signature, keep) -> Signature:
    """The sub-signature of sig with exactly the symbols named in keep."""
    keep = set(keep)
    unknown = keep - set(sig.relations) - set(sig.functions) - set(sig.constants)
    if unknown:
        raise SignatureError(f"not in signature: {sorted(unknown)}")
    return Signature({n: a for n, a in sig.relations.items() if n in keep},
                     {n: a for n, a in sig.functions.items() if n in keep},
                     [c for c in sig.constants if c in keep])


def fun_value(m: FiniteModel, name: str, args: Sequence[int]) -> int:
    """The value of function name of m at args, off its table."""
    return m.funs[name][_rank(args, m.size)]


def reduct(m: FiniteModel, keep) -> FiniteModel:
    """m with every symbol not named in keep forgotten; the universe stays put."""
    sub = restrict(m.sig, keep)
    return FiniteModel(sub, m.size, {name: m.tuples(name) for name in sub.relations},
                       {name: m.funs[name] for name in sub.functions},
                       {name: m.consts[name] for name in sub.constants})


def expansion_by_eval(m: FiniteModel, defs) -> FiniteModel:
    """expand_model by the definition: each defined relation holds at the
    argument tuples where eval_formula makes its formula true."""
    sig = Signature({**m.sig.relations, **{name: d.arity for name, d in defs.items()}},
                    m.sig.functions, m.sig.constants)
    rels = {name: m.tuples(name) for name in m.sig.relations}
    for name, d in defs.items():
        rels[name] = frozenset(
            args for args in itertools.product(range(m.size), repeat=d.arity)
            if eval_formula(m, d.formula, dict(zip(d.variables, args))))
    return FiniteModel(sig, m.size, rels, m.funs, m.consts)


def reduct_expansion_check(t, hidden, max_size):
    """unique_expansion_check by the definition: the first two models of one
    size, in enumeration order, whose reducts forgetting hidden agree."""
    keep = [n for n in (*t.sig.relations, *t.sig.functions, *t.sig.constants)
            if n not in set(hidden)]
    for n in range(1, max_size + 1):
        seen: dict[bytes, FiniteModel] = {}
        for m in models_of(t, n):
            first = seen.setdefault(reduct(m, keep).encode_bytes(), m)
            if first is not m:
                return first, m
    return None


def substructure(m: FiniteModel, subset) -> tuple[FiniteModel, dict[int, int]]:
    """Induced substructure on subset, relabeled order-preservingly to 0..k-1.

    subset must be nonempty, contain every constant, and be closed under
    every function; otherwise ValueError.  Returns the substructure and the
    old-element -> new-element map.
    """
    elems = sorted(set(subset))
    if not elems:
        raise ValueError("subset must be nonempty")
    if not all(0 <= e < m.size for e in elems):
        raise ValueError("subset not within the universe")
    inside = set(elems)
    for name, value in m.consts.items():
        if value not in inside:
            raise ValueError(f"subset misses constant {name!r}")
    for name, arity in m.sig.functions.items():
        for args in itertools.product(elems, repeat=arity):
            if fun_value(m, name, args) not in inside:
                raise ValueError(f"subset not closed under function {name!r}")
    relabel = {e: i for i, e in enumerate(elems)}
    size, bitmaps, tables, consts = m.encode()
    # tuples over elems in lexicographic order are the substructure's in rank order
    rel_part = tuple(
        sum(1 << j for j, args in enumerate(itertools.product(elems, repeat=arity))
            if bits >> _rank(args, size) & 1)
        for bits, arity in zip(bitmaps, m.sig.relations.values()))
    fun_part = tuple(
        tuple(relabel[table[_rank(args, size)]] for args in itertools.product(elems, repeat=arity))
        for table, arity in zip(tables, m.sig.functions.values()))
    const_part = tuple(relabel[value] for value in consts)
    return FiniteModel._from_encoding(m.sig, (len(elems), rel_part, fun_part, const_part)), relabel


def substructure_scan(t: Theory, max_size: int, budget: WorkBudget = DEFAULT_BUDGET):
    """substructure_closure_check by the definition: every (model, subset)
    in scan order, one node each, the substructure built and checked with
    is_model."""
    nodes = NodeCounter(budget, "checking induced substructures")
    for n in range(1, max_size + 1):
        for m in models_of(t, n, budget):
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    nodes.tick()
                    try:
                        sub, _ = substructure(m, subset)
                    except ValueError:
                        continue
                    if not is_model(sub, t):
                        return m, subset
    return None


def family_filter(size: int, family) -> Ultrafilter:
    """The Ultrafilter on {0..size-1} whose members are the sets of family,
    an ultrafilter or not: its test looks a mask up among the family's."""
    return Ultrafilter(size, frozenset(_mask(s, size) for s in family).__contains__)


def member_sets(u: Ultrafilter) -> frozenset[frozenset[int]]:
    """Every member set of u, found by testing all 2^size subsets."""
    return frozenset(frozenset(i for i in range(u.size) if bits >> i & 1)
                     for bits in range(1 << u.size) if u._test(bits))


def ultrafilters_on(size: int) -> list[Ultrafilter]:
    """Every ultrafilter on {0..size-1}: the principal ones.

    On a finite index set the intersection of all members is a member
    singleton, so this list is exhaustive;
    test_every_ultrafilter_on_a_small_index_set_is_principal checks that by
    brute force over set families for small sizes."""
    return [Ultrafilter.principal(i, size) for i in range(size)]


def principal_point(u: Ultrafilter) -> int:
    """The point whose singleton is a member of u, or ValueError when no
    one point's is."""
    points = [i for i in range(u.size) if u.contains([i])]
    if len(points) != 1:
        raise ValueError("not a principal ultrafilter")
    return points[0]


def diagonal_embedding(m: FiniteModel, u: Ultrafilter,
                       budget: WorkBudget = DEFAULT_BUDGET) -> dict[int, int]:
    """a -> class of the constant choice function (a,...,a) in the ultrapower."""
    result = ultraproduct([m] * u.size, u, budget)
    return {a: result.class_map[(a,) * u.size] for a in range(m.size)}


def verbatim_ultraproduct(models: Sequence[FiniteModel], u: Ultrafilter):
    """(quotient, reps, class_map) of ultraproduct: partition every choice
    function by U-agreement, then read the tables class tuple by class
    tuple (quotient_by_class_tuples)."""
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
    sig = models[0].sig
    enc = quotient_by_class_tuples(u, reps, class_map, [m.encode() for m in models], sig)
    return FiniteModel._from_encoding(sig, enc), tuple(reps), class_map


def quotient_by_class_tuples(u: Ultrafilter, reps, class_map, encs, sig):
    """ultra.quotient_encoding of the factors with encodings encs, class
    tuple by class tuple: per relation, the set of factors that hold each
    tuple of classes at the ranks its representatives pick there, then the
    membership test on that set; function tables and constants through the
    class map."""
    sizes = [enc[0] for enc in encs]

    def ranks(classes: tuple[int, ...]) -> list[int]:
        # per factor, the rank of the argument tuple the classes' reps pick there
        return [_rank([reps[c][i] for c in classes], n) for i, n in enumerate(sizes)]

    rel_part = []
    for r, arity in enumerate(sig.relations.values()):
        bits = 0
        for j, classes in enumerate(itertools.product(range(len(reps)), repeat=arity)):
            agree = sum(1 << i for i, rank in enumerate(ranks(classes))
                        if encs[i][1][r] >> rank & 1)
            if u._test(agree):
                bits |= 1 << j
        rel_part.append(bits)
    fun_part = tuple(
        tuple(class_map[tuple(encs[i][2][g][rank] for i, rank in enumerate(ranks(classes)))]
              for classes in itertools.product(range(len(reps)), repeat=arity))
        for g, arity in enumerate(sig.functions.values()))
    const_part = tuple(class_map[values] for values in zip(*(enc[3] for enc in encs)))
    return len(reps), tuple(rel_part), fun_part, const_part


def model_text_by_tuples(m: FiniteModel) -> str:
    """cli.model_to_text with each relation's tuples listed one by one."""
    size, rel_part, fun_part, const_part = m.encode()
    parts = [f"size {size}"]
    for (name, arity), bits in zip(m.sig.relations.items(), rel_part):
        texts = [f"({','.join(map(str, t))})" for t in _tuples(size, arity)]
        tuples = " ".join(map(texts.__getitem__, _ones(bits)))
        parts.append(f"rel {name} {{ {tuples} }}" if tuples else f"rel {name} {{ }}")
    for name, table in zip(m.sig.functions, fun_part):
        parts.append(f"fun {name} [ {' '.join(map(str, table))} ]")
    for name, value in zip(m.sig.constants, const_part):
        parts.append(f"const {name} {value}")
    return " ".join(parts)


@lru_cache(maxsize=8)
def census_cells(t, n):
    """census.Census.cells on models, built model by model from the
    definitions, with no sweep: per group key, (canonical group, classes in
    canonical-key order), a class being [its member count, representative],
    the least member in encoding order whose automorphism group is
    literally the canonical one.  Kept for the last few (t, n) asked for;
    the caller must not change it."""
    found = {}
    for m in models_of(t, n):
        aut = automorphism_group(m)
        canon, _ = canonical_form(aut)
        cls = found.setdefault(canon, {}).setdefault(canonical_key(m), [0, None])
        cls[0] += 1
        if cls[1] is None and aut == canon:
            cls[1] = m
    return {form_key(canon): (canon, [classes[k] for k in sorted(classes)])
            for canon, classes in found.items()}


def census_models(census):
    """The cells of a census.Census with its encodings made models, in the
    form census_cells gives."""
    def model(enc):
        return FiniteModel._from_encoding(census.sig, enc)
    return {gkey: (group, [[count, model(rep)] for count, rep in classes])
            for gkey, (group, classes) in census.cells.items()}


def spectrum_lines(t, sizes):
    """spectra.Spectrum.report_lines of t from census_cells."""
    lines = []
    for n in sizes:
        cells = census_cells(t, n)
        for gkey in sorted(cells):
            canon, classes = cells[gkey]
            lines.append(f"size={n} group={group_to_text(canon)} order={canon.order} "
                         f"classes={len(classes)} models={sum(count for count, _ in classes)}")
    return lines


def paired_members(t1, t2, n):
    """(m, rep1, rep2) for each size-n model m of t1, in encoding order:
    rep1 is the representative of m's class in census_cells, found by
    canonical key, and rep2 the class it is paired with in
    build_concrete_iso's pairing, which pairs off the classes of both
    sides per group key in canonical-key order."""
    cells2 = census_cells(t2, n)
    reps = {canonical_key(rep1): (rep1, rep2)
            for gkey, (_, classes1) in census_cells(t1, n).items()
            for (_, rep1), (_, rep2) in zip(classes1, cells2[gkey][1])}
    for m in models_of(t1, n):
        yield (m, *reps[canonical_key(m)])


def pairs_by_moves(t1, t2, max_size):
    """build_concrete_iso's pairs made member by member, in encoding order:
    per size, each model m of t1 goes to apply_permutation(rep2, p) for
    the least permutation p carrying rep1 onto m (paired_members)."""
    return {n: {m: apply_permutation(rep2, find_isomorphisms(rep1, m)[0])
                for m, rep1, rep2 in paired_members(t1, t2, n)}
            for n in range(1, max_size + 1)}


def bijection(sigs, pairs):
    """The spectra.ConcreteBijection over sigs of the map pairs[n][M] = b(M)
    for each size n of pairs, its columns in encoding order."""
    columns = {}
    for n, by_model in pairs.items():
        rows = sorted((m.encode(), bm.encode()) for m, bm in by_model.items())
        columns[n] = ([enc for enc, _ in rows], [benc for _, benc in rows])
    return ConcreteBijection(tuple(pairs), sigs, columns)


def bijection_pairs(b):
    """The model maps of b: per size n of b, each size-n model, in encoding
    order, to its image."""
    def models(sig, column):
        return [FiniteModel._from_encoding(sig, enc) for enc in column]
    return {n: dict(zip(*map(models, b.sigs, b.columns[n]))) for n in b.sizes}


def listing_by_models(pairs):
    """build-iso's listing of the pairs that pairs_by_moves gives, one line
    per pair, each model rendered by model_text_by_tuples."""
    return [f"{model_text_by_tuples(m)} => {model_text_by_tuples(bm)}"
            for by_size in pairs.values() for m, bm in by_size.items()]


def ultra_verdict(b, models, index_bound=2, sample_budget=2000, budget=DEFAULT_BUDGET):
    """(witness, checked_tuples) by the loop on models: for each sampled
    tuple, the image under b of the ultraproduct against the ultraproduct
    of the images, b applied to every member.  witness is the first
    (k, point, tuple) where they differ, or None; verify_concrete_iso's
    ultra_ok is witness is None, and its checked_tuples is the count."""
    image = {m: bm for pairs in bijection_pairs(b).values() for m, bm in pairs.items()}
    sampled = NodeCounter(budget, "sampling ultraproduct tuples")
    for k in range(1, index_bound + 1):
        for u in ultrafilters_on(k):
            for tup in itertools.islice(itertools.product(models, repeat=k), sample_budget):
                sampled.tick()
                left = image[ultraproduct(list(tup), u, budget).quotient]
                right = ultraproduct([image[m] for m in tup], u, budget).quotient
                if left != right:
                    return (k, principal_point(u), tup), sampled.count
    return None, sampled.count


_TOKEN = re.compile(r"\s*(<->|->|!=|[()=.,!&|]|[A-Za-z_][A-Za-z0-9_]*)")


def tokenize_by_match(text: str) -> list[tuple[str, int]]:
    """folang._tokenize one anchored match at a time: (token, offset) pairs
    and ("", len(text)), or FormulaSyntaxError at the first character that
    starts no token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))
    return tokens


def random_model(sig: Signature, size: int, rng: random.Random) -> FiniteModel:
    """Random model of sig on {0..size-1}, each relation tuple in with probability 0.4."""
    rels = {name: [t for t in itertools.product(range(size), repeat=a)
                   if rng.random() < 0.4]
            for name, a in sig.relations.items()}
    funs = {name: tuple(rng.randrange(size) for _ in range(size ** a))
            for name, a in sig.functions.items()}
    consts = {name: rng.randrange(size) for name in sig.constants}
    return FiniteModel(sig, size, rels, funs, consts)


def random_formula(sig: Signature, rng: random.Random, max_depth: int,
                   free: Sequence[str] = ()) -> Formula:
    """Random formula of depth <= max_depth, closed when free is empty.

    Deterministic for a given seeded rng.  Used by the randomized Los
    harness; not a uniform distribution over anything.
    """
    fresh = _fresh_names(sig, free)

    def rand_term(vars_avail: tuple[str, ...], fuel: int) -> Term:
        pool: list[Term] = [Var(v) for v in vars_avail]
        pool.extend(Const(c) for c in sig.constants)
        if sig.functions and fuel > 0 and rng.random() < 0.3:
            name, arity = rng.choice(sorted(sig.functions.items()))
            return App(name, tuple(rand_term(vars_avail, fuel - 1) for _ in range(arity)))
        if not pool:
            raise ValueError("no terms available: no variables in scope and no constants")
        return rng.choice(pool)

    def rand_atom(vars_avail: tuple[str, ...]) -> Formula:
        choices = []
        if sig.relations:
            choices.append("rel")
        if vars_avail or sig.constants:
            choices.append("eq")
        kind = rng.choice(choices)
        if kind == "rel":
            name, arity = rng.choice(sorted(sig.relations.items()))
            return Rel(name, tuple(rand_term(vars_avail, 1) for _ in range(arity)))
        return Eq(rand_term(vars_avail, 1), rand_term(vars_avail, 1))

    def go(depth: int, vars_avail: tuple[str, ...]) -> Formula:
        atoms_possible = bool(vars_avail or sig.constants)
        if depth <= 1:
            if not atoms_possible:
                raise ValueError("cannot build a closed atom: empty scope, no constants")
            return rand_atom(vars_avail)
        kinds = ["forall", "exists"]
        if atoms_possible:
            kinds += ["atom", "not", "and", "or", "imp", "iff"]
        kind = rng.choice(kinds)
        if kind == "atom":
            return rand_atom(vars_avail)
        if kind == "not":
            return Not(go(depth - 1, vars_avail))
        if kind in ("and", "or", "imp", "iff"):
            ctor = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
            return ctor(go(depth - 1, vars_avail), go(depth - 1, vars_avail))
        var = next(fresh)
        body = go(depth - 1, vars_avail + (var,))
        return Forall(var, body) if kind == "forall" else Exists(var, body)

    return go(max_depth, tuple(free))


def scan_points(t, target, max_size):
    """beth_search's points in the order of a plain scan: (model, assignment,
    target value), the models of sizes 1..max_size in enumeration order,
    then the argument tuples in rank order."""
    arity = t.sig.relations[target]
    variables = _argument_variables(t.sig, arity)
    at = list(t.sig.relations).index(target)
    points = []
    for n in range(1, max_size + 1):
        envs = [dict(zip(variables, args)) for args in itertools.product(range(n), repeat=arity)]
        for m in models_of(t, n):
            bits = m.encode()[1][at]
            points.extend((m, env, bits >> j & 1 == 1) for j, env in enumerate(envs))
    return points


def first_refuting_point(points, phi):
    """The first of scan_points where phi disagrees with the target, or None."""
    return next(((m, env, holds) for m, env, holds in points
                 if eval_formula(m, phi, env) != holds), None)


def los_loop(product, levels, key):
    """(failures, first failing formula or None) of los_check on each
    formula of a closed level in turn."""
    failed = [f for f in levels.formulas(key) if not los_check(product, f).ok]
    return len(failed), (failed[0] if failed else None)


def lanes_by_division(width: int) -> tuple[list[int], int]:
    """models._lanes by its closed form: each lane pattern is one period
    times the repunit full // (2**period - 1), one big-int division per
    pattern."""
    k = min(width, _LANE_BITS)
    full = (1 << (1 << k)) - 1
    patterns = [((1 << (1 << j)) - 1 << (1 << j)) * (full // ((1 << (2 << j)) - 1))
                for j in range(k)]
    return patterns, full

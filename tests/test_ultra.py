"""Ultrafilters and ultraproducts, checked against first principles."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    diagonal_embedding, family_filter, fun_value, los_loop, member_sets, principal_point,
    quotient_by_class_tuples, random_formula, random_model, ultrafilters_on,
    verbatim_ultraproduct,
)

from defeq.budget import BudgetExceededError, WorkBudget
from defeq.folang import FormulaLevels, Signature, SignatureError, parse_formula
from defeq.models import FiniteModel
from defeq.ultra import LosLevels, Ultrafilter, los_check, quotient_encoding, ultraproduct

SIG = Signature({"P": 1, "E": 2}, {}, ["c"])


def model_of(size, p_members, edges=(), c=0):
    return FiniteModel(SIG, size,
                       {"P": [(a,) for a in p_members], "E": edges}, {}, {"c": c})


# ------------------------------------------------------------
# ultrafilter axioms
# ------------------------------------------------------------

def naive_is_ultrafilter(size, members):
    """Definition chasing over the powerset."""
    subsets = [frozenset(s) for r in range(size + 1)
               for s in itertools.combinations(range(size), r)]
    fam = {frozenset(s) for s in members}
    if frozenset() in fam:
        return False
    if any(s & t not in fam for s in fam for t in fam):
        return False
    if any(s in fam and s <= t and t not in fam for s in fam for t in subsets):
        return False
    universe = frozenset(range(size))
    return all((s in fam) != (universe - s in fam) for s in subsets)


def test_principal_ultrafilters_validate():
    for size in (1, 2, 3, 4):
        for point in range(size):
            u = Ultrafilter.principal(point, size)
            assert principal_point(u) == point
            assert naive_is_ultrafilter(size, member_sets(u))
    with pytest.raises(ValueError):
        Ultrafilter.principal(3, 3)


def test_principal_membership_is_the_point_test():
    for size in range(1, 6):
        subsets = [s for r in range(size + 1) for s in itertools.combinations(range(size), r)]
        for point in range(size):
            u = Ultrafilter.principal(point, size)
            assert all(u.contains(s) is (point in s) for s in subsets)


def test_every_ultrafilter_on_a_small_index_set_is_principal():
    # sweep every family of subsets, keep the ones passing the naive
    # definition, and confirm they are exactly the principal ones
    for size in (1, 2, 3):
        subsets = [frozenset(s) for r in range(size + 1)
                   for s in itertools.combinations(range(size), r)]
        valid = []
        for picks in itertools.product([False, True], repeat=len(subsets)):
            fam = [s for s, take in zip(subsets, picks) if take]
            if naive_is_ultrafilter(size, fam):
                valid.append(frozenset(fam))
        expected = {member_sets(Ultrafilter.principal(p, size)) for p in range(size)}
        assert set(valid) == expected
        assert len(ultrafilters_on(size)) == size


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
def test_a_principal_partition_puts_each_choice_function_in_its_points_class(sizes):
    # the collapse: at every point p, f's class is f[p], so the quotient of
    # factors of these sizes (at most 4^5 choice functions) is factor p
    for p in range(len(sizes)):
        reps = []
        classes = Ultrafilter.principal(p, len(sizes)).classes(tuple(sizes), WorkBudget(), reps)
        assert all(c == f[p] for f, c in classes)
        assert reps == [(0,) * p + (a,) + (0,) * (len(sizes) - p - 1) for a in range(sizes[p])]


# ------------------------------------------------------------
# quotients
# ------------------------------------------------------------

def test_principal_quotient_equals_the_pointed_factor_frozen():
    ms = [model_of(1, []), model_of(1, [0]), model_of(1, [0])]
    res = ultraproduct(ms, Ultrafilter.principal(2, 3))
    assert res.quotient == ms[2]
    assert res.reps[0] == (0, 0, 0)


def test_principal_quotient_equals_the_pointed_factor_randomized():
    rng = random.Random(414)
    for _ in range(25):
        ms = [random_model(SIG, rng.choice([1, 2, 3]), rng) for _ in range(rng.choice([1, 2, 3]))]
        for point in range(len(ms)):
            res = ultraproduct(ms, Ultrafilter.principal(point, len(ms)))
            assert res.quotient == ms[point]


FUN_SIG = Signature({"P": 1, "E": 2}, {"f": 1}, ["c"])


def tuple_quotient(models, u, res):
    """The quotient's tables read tuple by tuple off res's representatives: the oracle."""
    sig, reps, k = models[0].sig, res.reps, u.size
    classes = {arity: list(itertools.product(range(len(reps)), repeat=arity))
               for arity in {*sig.relations.values(), *sig.functions.values()}}

    def picked(i, cs):
        return tuple(reps[c][i] for c in cs)

    rels = {name: [cs for cs in classes[arity]
                   if u.contains(i for i in range(k) if picked(i, cs) in models[i].rels[name])]
            for name, arity in sig.relations.items()}
    funs = {name: [res.class_map[tuple(fun_value(models[i], name, picked(i, cs))
                                       for i in range(k))]
                   for cs in classes[arity]]
            for name, arity in sig.functions.items()}
    consts = {name: res.class_map[tuple(m.consts[name] for m in models)] for name in sig.constants}
    return FiniteModel(sig, len(reps), rels, funs, consts)


def test_quotient_tables_match_the_tuple_oracle():
    # principal ultrafilters, and arbitrary set families, which the table
    # loop reads the same way
    rng = random.Random(1018)
    for _ in range(40):
        ms = [random_model(FUN_SIG, rng.choice([1, 2, 3]), rng)
              for _ in range(rng.choice([1, 2, 3]))]
        k = len(ms)
        subsets = [s for r in range(k + 1) for s in itertools.combinations(range(k), r)]
        for u in [*ultrafilters_on(k), family_filter(k, rng.sample(subsets, len(subsets) // 2))]:
            res = ultraproduct(ms, u)
            oracle = tuple_quotient(ms, u, res)
            assert res.quotient == oracle and res.quotient.rels == oracle.rels


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_ultraproduct_matches_the_verbatim_oracle(seed, k):
    # calls alternate between factor lists of different sizes and between two
    # ultrafilters on the same index set, so a product that read anything
    # left by an earlier call, of another shape or ultrafilter, gives a
    # wrong quotient
    rng = random.Random(seed)
    subsets = [s for r in range(k + 1) for s in itertools.combinations(range(k), r)]
    us = [Ultrafilter.principal(rng.randrange(k), k),
          rng.choice([Ultrafilter.principal(rng.randrange(k), k),
                      family_filter(k, rng.sample(subsets, rng.randint(0, len(subsets))))])]
    families = [[random_model(FUN_SIG, rng.randint(1, 3), rng) for _ in range(k)] for _ in range(3)]
    families.append([random_model(FUN_SIG, m.size, rng) for m in families[0]])
    done = []
    for _ in range(12):
        ms, u = rng.choice(families), rng.choice(us)
        res = ultraproduct(ms, u)
        assert (res.quotient, res.reps, res.class_map) == verbatim_ultraproduct(ms, u)
        done.append((ms, u, res))
    for ms, u, res in done:  # later calls left earlier results as they were
        assert (res.quotient, res.reps, res.class_map) == verbatim_ultraproduct(ms, u)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.integers(1, 3), min_size=1, max_size=2), st.sampled_from(["", "f", "c"]),
       st.none() | st.sets(st.frozensets(st.integers(0, 3)), max_size=10))
def test_quotient_kernel_matches_the_class_tuple_oracle(seed, sizes, arities, extra, family):
    # the kernel, which reads each factor's bitmap at the ranks its tuples
    # of classes pick, against the loop over tuples of classes: on every
    # principal ultrafilter, or on a family of sets that is not an
    # ultrafilter, so that a kernel that took the test for principal
    # would differ
    rng = random.Random(seed)
    k = len(sizes)
    sig = Signature({f"R{i}": a for i, a in enumerate(arities)},
                    {"f": 1} if extra == "f" else {}, ["c"] if extra == "c" else [])
    if family is None:
        us = ultrafilters_on(k)
    else:
        us = [family_filter(k, [s for s in family if max(s, default=0) < k])]
    encs = [random_model(sig, n, rng).encode() for n in sizes]
    for u in us:
        reps = []
        class_map = dict(u.classes(tuple(sizes), WorkBudget(), reps))
        assume(len(reps) ** max(arities) <= 4096)
        assert quotient_encoding(u, reps, class_map, encs, sig) == \
            quotient_by_class_tuples(u, reps, class_map, encs, sig)


def test_a_wide_relation_is_read_in_memory_linear_in_its_width():
    # a 4-ary relation on 12 elements has 20,736 argument tuples, so a
    # table per bitmap byte of full-width masks would take tens of MB
    rng = random.Random(12)
    sig = Signature({"R": 4}, {}, [])
    ms = [random_model(sig, 12, rng) for _ in range(2)]
    u = Ultrafilter.principal(1, 2)
    tracemalloc.start()
    try:
        res = ultraproduct(ms, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.quotient == ms[1]
    assert peak < 4 << 20


def test_class_map_is_read_only():
    res = ultraproduct([model_of(2, [0]), model_of(1, [])], Ultrafilter.principal(0, 2))
    with pytest.raises(TypeError):
        res.class_map[(0, 0)] = 1
    with pytest.raises(TypeError):
        del res.class_map[(0, 0)]
    assert dict(res.class_map) == {(0, 0): 0, (1, 0): 1}
    res = ultraproduct([model_of(1, []), model_of(2, [1])], family_filter(2, [{0}, {0, 1}]))
    assert res.class_map == {(0, 0): 0, (0, 1): 0}


def test_class_map_is_consistent_with_representatives():
    ms = [model_of(2, [0]), model_of(3, [1, 2])]
    u = Ultrafilter.principal(1, 2)
    res = ultraproduct(ms, u)
    assert res.quotient.size == len(res.reps)
    for func, cls in res.class_map.items():
        rep = res.reps[cls]
        agree = frozenset(i for i in range(2) if func[i] == rep[i])
        assert u.contains(agree)
    # distinct classes disagree on an ultrafilter-large set complement
    for a, b in itertools.combinations(res.reps, 2):
        agree = frozenset(i for i in range(2) if a[i] == b[i])
        assert not u.contains(agree)


def test_mismatched_signatures_are_rejected():
    other = FiniteModel(Signature({"P": 1}, {}, []), 1, {"P": []})
    with pytest.raises(SignatureError):
        ultraproduct([model_of(1, []), other], Ultrafilter.principal(0, 2))
    with pytest.raises(ValueError):
        ultraproduct([model_of(1, [])], Ultrafilter.principal(0, 2))


def test_ultraproduct_budget_guard():
    ms = [model_of(3, []), model_of(3, []), model_of(3, [])]
    with pytest.raises(BudgetExceededError):
        ultraproduct(ms, Ultrafilter.principal(0, 3), WorkBudget(max_nodes=8))


# ------------------------------------------------------------
# diagonal embedding and the product-truth equivalence
# ------------------------------------------------------------

def test_diagonal_embedding_is_the_identity_on_constant_families():
    m = model_of(3, [1], [(0, 1), (2, 2)], c=2)
    u = Ultrafilter.principal(1, 2)
    emb = diagonal_embedding(m, u)
    assert emb == {0: 0, 1: 1, 2: 2}
    assert ultraproduct([m, m], u).quotient == m


def test_diagonal_embedding_is_elementary_for_closed_formulas():
    from defeq.folang import enumerate_formulas, eval_formula

    m = model_of(2, [1], [(0, 1)], c=0)
    u = Ultrafilter.principal(0, 2)
    quotient = ultraproduct([m, m], u).quotient
    checked = 0
    for f in enumerate_formulas(SIG, (), 5, 3):
        assert eval_formula(m, f) == eval_formula(quotient, f)
        checked += 1
    assert checked > 100


def test_los_equivalence_on_random_triples():
    rng = random.Random(20260815)
    failures = 0
    for _ in range(100):
        ms = [random_model(SIG, rng.choice([1, 2, 3]), rng) for _ in range(rng.choice([2, 3]))]
        point = rng.randrange(len(ms))
        f = random_formula(SIG, rng, rng.choice([2, 3, 4]))
        report = los_check(ultraproduct(ms, Ultrafilter.principal(point, len(ms))), f)
        if not report.ok:
            failures += 1
    assert failures == 0


def test_los_report_fields_frozen():
    ms = [model_of(1, []), model_of(1, [0]), model_of(1, [0])]
    u = Ultrafilter.principal(2, 3)
    f = parse_formula(SIG, "E x. P(x)")
    report = los_check(ultraproduct(ms, u), f)
    assert report.lhs is True
    assert sorted(report.truth_set) == [1, 2]
    assert report.rhs is True and report.ok
    g = parse_formula(SIG, "A x. P(x) & E(x,x)")
    report2 = los_check(ultraproduct(ms, u), g)
    assert report2.lhs is False and sorted(report2.truth_set) == [] and report2.ok


def test_los_check_requires_closed_formulas():
    ms = [model_of(1, []), model_of(1, [0])]
    with pytest.raises(ValueError):
        los_check(ultraproduct(ms, Ultrafilter.principal(0, 2)), parse_formula(SIG, "P(x)"))


# (signature, depth) pairs whose closed formulas number a few hundred at most
LOS_LEVELS = [(FUN_SIG, 2), (SIG, 2), (Signature({"E": 2}, {}, []), 3),
              (Signature({"P": 1}, {"g": 2}, []), 2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from(LOS_LEVELS),
       st.booleans())
def test_batched_los_verdict_matches_a_loop_of_los_check(seed, k, sig_depth, principal):
    # the same failure count and first failing formula per level as
    # los_check formula by formula, over principal ultrafilters and
    # arbitrary set families, on which Los's theorem may fail
    rng = random.Random(seed)
    sig, depth = sig_depth
    ms = [random_model(sig, rng.randint(1, 3), rng) for _ in range(k)]
    subsets = [s for r in range(k + 1) for s in itertools.combinations(range(k), r)]
    u = (Ultrafilter.principal(rng.randrange(k), k) if principal
         else family_filter(k, rng.sample(subsets, rng.randint(0, len(subsets)))))
    product = ultraproduct(ms, u)
    levels = FormulaLevels(sig, (), (1 << depth) - 1, depth)
    verdicts = LosLevels(product, levels)
    for size in range(1, levels.size_bound + 1):
        key = levels.top(size)
        failed = verdicts.failures(key)
        first = levels.unrank(key, (failed & -failed).bit_length() - 1) if failed else None
        assert (bin(failed).count("1"), first) == los_loop(product, levels, key)
        if principal:
            assert not failed


def test_los_levels_require_closed_formulas():
    ms = [model_of(1, []), model_of(1, [0])]
    with pytest.raises(ValueError):
        LosLevels(ultraproduct(ms, Ultrafilter.principal(0, 2)), FormulaLevels(SIG, ("x",), 2))

"""Model layer: enumeration counts, ordering, isomorphism search."""

import contextlib
import itertools
import random
import tracemalloc

import pytest
from conftest import random_theory
from hypothesis import assume, given, settings, strategies as st
from oracles import (fun_value, lanes_by_division, random_formula, random_model, reduct,
                     substructure)

from defeq import models
from defeq.budget import BudgetExceededError, NodeCounter, WorkBudget
from defeq.cli import parse_theory_text
from defeq.folang import And, Signature, compile_lanes, eval_formula, parse_formula
from defeq.models import (
    FiniteModel, Theory, _blocks, _lanes, _Plan, _split, apply_permutation,
    canonical_key, count_models, enumerate_encodings, enumerate_models, find_isomorphisms,
    is_isomorphism, is_model,
)

SIG_ER = Signature({"E": 2, "R": 2}, {}, [])
SIG_P = Signature({"P": 1}, {}, [])


def all_binary_pairs(size):
    """Brute-force stream of (E, R) relation pairs on a universe."""
    pairs = list(itertools.product(range(size), repeat=2))
    for e_bits in range(1 << len(pairs)):
        e = {p for j, p in enumerate(pairs) if e_bits >> j & 1}
        for r_bits in range(1 << len(pairs)):
            r = {p for j, p in enumerate(pairs) if r_bits >> j & 1}
            yield e, r


# ------------------------------------------------------------
# counting oracles, computed here without the enumerator
# ------------------------------------------------------------

def test_one_empty_relation_count_matches_inclusion_exclusion(t1):
    # |E empty or R empty| = 16 + 16 - 1 on two elements
    oracle = sum(1 for e, r in all_binary_pairs(2) if not e or not r)
    assert oracle == 31
    assert len(enumerate_models(t1, 2)) == oracle


def test_asymmetric_variant_count(t2):
    def asym(r):
        return all((b, a) not in r for (a, b) in r)
    oracle = sum(1 for e, r in all_binary_pairs(2) if (not e or not r) and asym(r))
    assert oracle == 18
    assert len(enumerate_models(t2, 2)) == oracle
    assert len(enumerate_models(t2, 1)) == 2


def test_enumeration_equals_brute_force_filter(t2):
    # enumerator agrees with filtering the raw product through the evaluator
    expected = []
    for e, r in all_binary_pairs(2):
        m = FiniteModel(SIG_ER, 2, {"E": e, "R": r})
        if is_model(m, t2):
            expected.append(m.encode())
    got = [m.encode() for m in enumerate_models(t2, 2)]
    assert sorted(expected) == got


def test_enumeration_order_is_binary_counter_over_lex_tuples():
    free = Theory(SIG_P, [], name="free")
    got = [sorted(m.rels["P"]) for m in enumerate_models(free, 2)]
    # bit j of the bitmap is the j-th tuple (0,), (1,)
    assert got == [[], [(0,)], [(1,)], [(0,), (1,)]]


def test_enumeration_with_functions_and_constants():
    sig = Signature({}, {"f": 1}, ["c"])
    free = Theory(sig, [], name="free")
    ms = enumerate_models(free, 2)
    assert len(ms) == 2 ** 2 * 2
    assert [(m.funs["f"], m.consts["c"]) for m in ms[:3]] == \
        [((0, 0), 0), ((0, 0), 1), ((0, 1), 0)]
    fixed = Theory(sig, [parse_formula(sig, "A x. f(x)=c")], name="fixed")
    assert len(enumerate_models(fixed, 2)) == 2


def test_enumeration_budget_guards():
    free = Theory(SIG_ER, [], name="free")
    with pytest.raises(BudgetExceededError):
        enumerate_models(free, 2, WorkBudget(max_nodes=10))
    sig = Signature({}, {"f": 2}, [])
    with pytest.raises(BudgetExceededError):
        enumerate_models(Theory(sig, [], name="free"), 4, WorkBudget(max_nodes=1000))


def test_enumeration_budget_counts_visited_candidates(t1, t2):
    # the full product at size 3 has 262,144 candidates per theory
    assert len(enumerate_models(t2, 3, WorkBudget(max_nodes=5_000))) == 538
    assert len(enumerate_models(t1, 3, WorkBudget(max_nodes=5_000))) == 1023


def outcome(search, t, size, budget):
    """What search(t, size, budget) gives, or the message of its budget exit."""
    try:
        return search(t, size, budget)
    except BudgetExceededError as e:
        return str(e)


@contextlib.contextmanager
def recorded_counters():
    """(the NodeCounters models makes inside the block, in order, and the
    block's monkeypatch)."""
    counters = []

    class Recording(NodeCounter):
        def __init__(self, budget, what):
            super().__init__(budget, what)
            counters.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "NodeCounter", Recording)
        yield counters, mp


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_count_models_shares_the_search_of_enumerate_models(seed, size):
    # the same count, the same nodes, and the same budget exits one node
    # short of them, with no model built for the count
    t, candidates = random_theory(random.Random(seed), size)
    assume(candidates <= 4096)
    with recorded_counters() as (counters, mp):
        found = enumerate_models(t, size)
        mp.setattr(FiniteModel, "_from_encoding", None)  # count_models builds no model
        count = count_models(t, size)
    assert count == len(found)
    assert len(counters) == 2 and counters[0].count == counters[1].count
    nodes = counters[0].count
    for limit in {max(nodes - 1, 1), nodes}:
        budget = WorkBudget(max_nodes=limit)
        assert outcome(lambda *a: len(enumerate_models(*a)), t, size, budget) == \
            outcome(count_models, t, size, budget)
    assert outcome(count_models, t, size, WorkBudget(max_nodes=nodes)) == count


def brute_force_models(t, size):
    """Every table assignment filtered through eval_formula, in encoding order."""
    sig = t.sig
    rels = [[{tup for j, tup in enumerate(itertools.product(range(size), repeat=a))
              if bits >> j & 1} for bits in range(1 << size ** a)]
            for a in sig.relations.values()]
    funs = [list(itertools.product(range(size), repeat=size ** a))
            for a in sig.functions.values()]
    consts = [range(size) for _ in sig.constants]
    k, j = len(rels), len(rels) + len(funs)
    found = []
    for choice in itertools.product(*rels, *funs, *consts):
        m = FiniteModel(sig, size, dict(zip(sig.relations, choice[:k])),
                        dict(zip(sig.functions, choice[k:j])),
                        dict(zip(sig.constants, choice[j:])))
        if all(eval_formula(m, ax) for ax in t.axioms):
            found.append(m.encode())
    return sorted(found)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_enumeration_matches_brute_force_on_random_theories(seed, size):
    # half the two-relation theories start with an explicit definition, so
    # the computed relations meet the oracle here too
    t, candidates = random_theory(random.Random(seed), size)
    assume(candidates <= 4096)
    sig = t.sig
    want = brute_force_models(t, size)
    assert enumerate_encodings(t, size) == want
    assert count_models(t, size) == len(want)
    got = enumerate_models(t, size)
    assert [m.encode() for m in got] == want
    # the enumerator presets each encoding; the tables must agree with it
    assert [FiniteModel(sig, size, m.rels, m.funs, m.consts).encode() for m in got] \
        == [m.encode() for m in got]


def searched(t, size):
    """The relations the enumeration of t at size searches, in walk order;
    the others are computed from their definitions."""
    plan = _Plan(t.sig, [c for ax in t.axioms for c in _split(ax, And)], size,
                 [size ** a for a in t.sig.relations.values()], 62)
    return [list(t.sig.relations)[j] for j in plan.walked]


@pytest.mark.parametrize("text, walked", [
    # the bench's mutual pair, with the definition either side first
    ("rel G 2\nrel R 1\naxiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))", ["G"]),
    ("rel G 2\nrel R 1\naxiom A x. ((E y. (G(x,y) & G(y,x) & !(x=y))) <-> R(x))", ["G"]),
    # argument variables bound in another order than R reads them
    ("rel G 2\nrel H 2\naxiom A y. A x. (H(x,y) <-> (G(y,x) | x=y))\n"
     "axiom E x. E y. (H(x,y) & !G(x,y))", ["G"]),
    # a chain: B from A, C from A and B, both computed once A is assigned
    ("rel A 2\nrel B 1\nrel C 1\naxiom A x. (C(x) <-> (E y. (A(x,y) & B(y))))\n"
     "axiom A x. (B(x) <-> A(x,x))\naxiom E x. C(x)", ["A"]),
    # D reads both searched relations, so it is computed per table of A
    ("rel A 1\nrel B 1\nrel D 1\naxiom A x. (D(x) <-> (A(x) & !B(x)))\naxiom E x. D(x)",
     ["A", "B"]),
    # a two-relation cycle: both are searched, the definitions stay constraints
    ("rel P 1\nrel Q 1\naxiom A x. (P(x) <-> !Q(x))\naxiom A x. (Q(x) <-> !P(x))",
     ["P", "Q"]),
    # over a constant only: R is computed once per choice of c
    ("const c\nrel R 1\naxiom A x. (R(x) <-> (E y. E z. !(y=z) & x=c))", []),
    # and over a function, with a constraint read on the computed bitmap
    ("fun f 1\nrel P 1\nrel R 1\naxiom A x. (R(x) <-> P(f(x)))\naxiom A x. (R(x) -> P(x))",
     ["P"]),
    # the second definition of R is an ordinary constraint
    ("rel G 2\nrel R 1\naxiom A x. (R(x) <-> G(x,x))\naxiom A x. (R(x) <-> (E y. G(x,y)))",
     ["G"]),
    # not a definition: a bound variable R does not read, or R on both sides
    ("rel G 2\nrel R 1\naxiom A x. A y. (R(x) <-> G(x,y))", ["R"]),
    ("rel R 1\nrel S 1\naxiom A x. (R(x) <-> (S(x) & R(x)))", ["R", "S"]),
    # B is computed with A, a level before the last, and read at C's
    ("rel A 1\nrel B 1\nrel C 1\naxiom A x. (B(x) <-> A(x))\naxiom E x. (B(x) & !C(x))",
     ["A", "C"]),
    ("rel A 2\nrel B 1\nrel C 1\naxiom A x. (B(x) <-> A(x,x))\naxiom E x. (B(x) & !C(x))",
     ["A", "C"]),
    # chains whose inputs are defined later in signature order: C is placed
    # before B, and D before C
    ("rel A 1\nrel B 1\nrel C 1\naxiom A x. (B(x) <-> !C(x))\naxiom A x. (C(x) <-> A(x))\n"
     "axiom E x. B(x)", ["A"]),
    ("rel A 1\nrel B 1\nrel C 1\nrel D 1\naxiom A x. (B(x) <-> (E y. (C(y) & !A(x))))\n"
     "axiom A x. (C(x) <-> D(x))\naxiom A x. (D(x) <-> A(x))", ["A"]),
])
def test_defined_relations_are_computed_and_match_brute_force(text, walked):
    t = parse_theory_text(text)
    for size in (1, 2, 3):
        assert searched(t, size) == walked
        want = brute_force_models(t, size)
        assert enumerate_encodings(t, size) == want
        assert count_models(t, size) == len(want)


def test_a_computed_relation_costs_one_node_per_tuple_and_table():
    # the mutual pair at size 3: the one function/constant choice, G's 512
    # tables in one block of lanes plus R's 3 argument tuples, and the 512
    # G tables walked; at size 4 the sieve visited 1,179,649 nodes
    t = parse_theory_text(
        "rel G 2\nrel R 1\naxiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))")
    for size, models, nodes in ((3, 512, 1 + 512 + 3 + 512), (4, 65536, 1 + 65536 + 4 + 65536)):
        assert count_models(t, size, WorkBudget(max_nodes=nodes)) == models
        with pytest.raises(BudgetExceededError):
            count_models(t, size, WorkBudget(max_nodes=nodes - 1))
    # a definition of arity 62 at size 2 would be evaluated at 2**62 tuples:
    # refused before any is made
    sig = Signature({"G": 1, "W": 62}, {}, [])
    xs = [f"x{i}" for i in range(62)]
    wide = Theory(sig, [parse_formula(sig, "".join(f"A {x}. " for x in xs)
                                      + f"(W({','.join(xs)}) <-> G(x0))")])
    with pytest.raises(BudgetExceededError):
        count_models(wide, 2)


def flat_model(sig, size, flat):
    """The model whose tables, in the layout compiled formulas read, are flat."""
    k, j = len(sig.relations), len(sig.relations) + len(sig.functions)
    rels = {name: [t for r, t in enumerate(itertools.product(range(size), repeat=arity))
                   if flat[i] >> r & 1]
            for i, (name, arity) in enumerate(sig.relations.items())}
    return FiniteModel(sig, size, rels, dict(zip(sig.functions, flat[k:j])),
                       dict(zip(sig.constants, flat[j:])))


def test_lane_patterns_match_their_closed_form():
    # built by doubling, each pattern must equal one period times a repunit
    for width in range(1, 21):
        assert _lanes(width) == lanes_by_division(width), width


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 3), st.integers(1, 2),
       st.booleans(), st.sampled_from(["", "A", "S"]))
def test_lane_filter_matches_eval_formula(seed, depth, size, arity, function, other):
    # one relation R of up to 9 tuple bits, all its tables in one block of
    # lanes, next to a unary function or a constant and maybe a unary
    # relation read off its bitmap, named to sort before or after R; lane b
    # is R's table b
    rng = random.Random(seed)
    rels = {"R": arity, **({other: 1} if other else {})}
    sig = Signature(rels, {"s": 1} if function else {}, [] if function else ["c"])
    f = random_formula(sig, rng, depth)
    rest = [tuple(rng.randrange(size) for _ in range(size)) if function else rng.randrange(size)]
    width = size ** arity
    [(first, lanes)] = _blocks(width)
    got = compile_lanes(sig, f, size, _lanes(width)[1], {"R"})
    bitmap = rng.randrange(1 << size)
    at = sorted(rels).index("R")
    slots = [bitmap] * len(rels)
    slots[at] = lanes
    lane_truth = got([*slots, *rest])
    assert first == 0
    for bits in range(1 << width):
        slots[at] = bits
        assert lane_truth >> bits & 1 == eval_formula(flat_model(sig, size, [*slots, *rest]), f)


def test_lane_filter_past_one_block():
    # 17 tuple bits: two blocks of 2**16 tables, bit 16 fixed in each
    sig = Signature({"P": 1}, {"s": 1}, ["c"])
    f = parse_formula(sig, "(A x. (P(x) -> P(s(x)))) | (P(c) & (E x. (!P(x) & x != c)))")
    size = 17
    rest = [tuple((3 * e + 1) % size for e in range(size)), 16]
    lane_ev = compile_lanes(sig, f, size, _lanes(size)[1], {"P"})
    blocks = list(_blocks(size))
    assert [first for first, _ in blocks] == [0, 1 << 16]
    rng = random.Random(17)
    for first, lanes in blocks:
        got = lane_ev([lanes, *rest])
        for b in [0, 1, (1 << 16) - 1, *rng.sample(range(1 << 16), 300)]:
            m = flat_model(sig, size, [first + b, *rest])
            assert got >> b & 1 == eval_formula(m, f), first + b


def test_a_count_across_blocks_keeps_nothing_per_block():
    # graphs at size 5: E's 2^25 tables span 512 blocks of lanes, and no
    # level is sieved or computes a relation, so no block's mask or lane
    # rows is read again; kept per block, they took the traced peak from
    # 0.32 to 0.75 MB
    t = parse_theory_text("rel E 2\naxiom A x. !E(x,x)\naxiom A x. A y. (E(x,y) -> E(y,x))\n",
                          name="graphs")
    tracemalloc.start()
    try:
        count = count_models(t, 5, WorkBudget(1 << 26))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1 << 10
    assert peak < 500_000


# ------------------------------------------------------------
# the lane sieve past one block: relations of more than 16 tuple bits,
# whose 2^width tables span several blocks of 2^16 lanes
# ------------------------------------------------------------

# a budget above every table count here, so no relation is cut short
WIDE = WorkBudget(1 << 40)


def encodings_of(sig, size, tables):
    """The sorted encodings of the models with each of tables, a tuple of
    argument-tuple sets per relation in signature order."""
    return sorted(FiniteModel(sig, size, dict(zip(sig.relations, rels))).encode()
                  for rels in tables)


def test_a_symmetric_relation_at_size_5_is_its_closed_form():
    # E's 2^25 tables span 512 blocks; the 2^15 symmetric ones are the
    # subsets of the 15 unordered pairs, loops included
    t = parse_theory_text("rel E 2\naxiom A x. A y. (E(x,y) -> E(y,x))")
    pairs = list(itertools.combinations_with_replacement(range(5), 2))
    symmetric = ([{*chosen, *((y, x) for x, y in chosen)}]
                 for chosen in ([p for j, p in enumerate(pairs) if bits >> j & 1]
                                for bits in range(1 << len(pairs))))
    assert enumerate_encodings(t, 5, WIDE) == encodings_of(t.sig, 5, symmetric)


@pytest.mark.parametrize("text, size, count", [
    ("rel P 1\naxiom A x. A y. (P(x) & P(y) -> x = y)", 17, 18),
    ("rel P 1\naxiom E x. P(x)\naxiom A x. A y. (P(x) & P(y) -> x = y)", 19, 19),
    ("rel P 1\naxiom A x. A y. (P(x) & P(y) -> x = y)", 22, 23),
    # a function graph: 5^5 of E's 2^25 tables, 3^9 of T's 2^27
    ("rel E 2\naxiom A x. E y. E(x,y)\naxiom A x. A y. A z. (E(x,y) & E(x,z) -> y = z)",
     5, 5 ** 5),
    ("rel T 3\naxiom A x. A y. E z. T(x,y,z)\n"
     "axiom A x. A y. A z. A w. (T(x,y,z) & T(x,y,w) -> z = w)", 3, 3 ** 9),
    # the first table and the last, up to 2^14 blocks apart
    ("rel P 1\naxiom (A x. P(x)) | (A x. !P(x))", 28, 2),
    ("rel P 1\naxiom (A x. P(x)) | (A x. !P(x))", 30, 2),
])
def test_sampled_tables_past_one_block_match_eval_formula(text, size, count):
    # random tables, and the tables one bit away from some members, each
    # decided by eval_formula and looked up in the enumerator's output
    t = parse_theory_text(text)
    got = enumerate_encodings(t, size, WIDE)
    assert len(got) == count
    members = {enc[1][0] for enc in got}
    [arity] = t.sig.relations.values()
    width = size ** arity
    rng = random.Random(width)
    near = rng.sample(sorted(members), min(count, 8))
    tables = [rng.getrandbits(width) for _ in range(100)] + near + \
        [b ^ 1 << rng.randrange(width) for b in near for _ in range(8)]
    for bits in tables:
        m = flat_model(t.sig, size, [bits])
        assert (bits in members) == all(eval_formula(m, ax) for ax in t.axioms), bits


def test_a_relation_computed_from_a_multi_block_relation_before_the_last_level():
    # B's 2^17 tables span two blocks; D reads B alone, so it is computed
    # on each of B's blocks, and C is searched after it.  B holds at most
    # one point b, D every other point, and C one point outside D
    t = parse_theory_text(
        "rel B 1\nrel C 1\nrel D 1\naxiom A x. (D(x) <-> (E y. (B(y) & !(x = y))))\n"
        "axiom A x. A y. (B(x) & B(y) -> x = y)\n"
        "axiom A x. A y. (C(x) & C(y) -> x = y)\naxiom E x. (C(x) & !D(x))")
    assert searched(t, 17) == ["B", "C"]
    points = range(17)
    want = encodings_of(t.sig, 17, [*(((), {(c,)}, ()) for c in points),
                                    *(({(b,)}, {(b,)}, {(x,) for x in points if x != b})
                                      for b in points)])
    assert enumerate_encodings(t, 17, WIDE) == want


def test_a_relation_computed_from_an_earlier_level_and_a_multi_block_relation():
    # D reads A, searched first, and B: it moves with A, so it is computed
    # on both of B's blocks once for each of A's 17 tables.  A is one point
    # a, B at most one point, and D is a unless B holds it
    t = parse_theory_text(
        "rel A 1\nrel B 1\nrel D 1\naxiom A x. (D(x) <-> (A(x) & !B(x)))\n"
        "axiom E x. A(x)\naxiom A x. A y. (A(x) & A(y) -> x = y)\n"
        "axiom A x. A y. (B(x) & B(y) -> x = y)")
    assert searched(t, 17) == ["A", "B"]
    points = range(17)
    want = encodings_of(t.sig, 17, (({(a,)}, held, {(a,)} - held)
                                    for a in points for held in [set(), *({(b,)} for b in points)]))
    assert enumerate_encodings(t, 17, WIDE) == want


def test_conjuncts_spanning_two_multi_block_relations():
    # P and Q each have 2^17 tables in two blocks; both conjuncts read both,
    # so Q's blocks are sieved once per kept table of P: P is one point, and
    # Q holds it and at most one point more
    t = parse_theory_text(
        "rel P 1\nrel Q 1\naxiom E x. P(x)\naxiom A x. A y. (P(x) & P(y) -> x = y)\n"
        "axiom A x. (P(x) -> Q(x))\naxiom A x. A y. (Q(x) & Q(y) -> x = y | P(x) | P(y))")
    got = enumerate_encodings(t, 17, WIDE)
    assert got == encodings_of(t.sig, 17, (
        ({(a,)}, {(a,), (b,)}) for a in range(17) for b in range(17)))
    rng = random.Random(17)
    for enc in rng.sample(got, 10):
        for bits in (enc[1][1], enc[1][1] ^ 1 << rng.randrange(17), rng.getrandbits(17)):
            m = flat_model(t.sig, 17, [enc[1][0], bits])
            assert (m.encode() in got) == all(eval_formula(m, ax) for ax in t.axioms)


def test_a_budget_exit_inside_a_multi_block_level():
    # P and Q are filtered on their own, two blocks of 2^16 nodes each,
    # after the one function/constant choice; then P's 18 kept tables are
    # walked, and Q's 18 are the models under each: 1 + 2^18 + 18 + 18 * 18
    # nodes.  A budget that runs out inside Q's level stops the search at
    # the block that crosses it, counted whole: the second, or the first
    t = parse_theory_text("rel P 1\nrel Q 1\naxiom A x. A y. (P(x) & P(y) -> x = y)\n"
                          "axiom A x. A y. (Q(x) & Q(y) -> x = y)")
    kept = 1 + 17  # tables with at most one point
    nodes = 1 + 4 * (1 << 16) + kept + kept * kept
    assert count_models(t, 17, WorkBudget(nodes)) == kept * kept
    with recorded_counters() as (counters, _):
        for limit, reached in ((nodes - 1, nodes), (1 + 3 * (1 << 16) + 5, 1 + 4 * (1 << 16)),
                               ((1 << 17) + (1 << 16), 1 + 3 * (1 << 16))):
            with pytest.raises(BudgetExceededError, match=rf"\(limit {limit}\)$"):
                count_models(t, 17, WorkBudget(limit))
            assert counters.pop().count == reached


# ------------------------------------------------------------
# model construction and encoding
# ------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        FiniteModel(SIG_ER, 0)
    with pytest.raises(ValueError):
        FiniteModel(SIG_ER, 2, {"E": [(0, 2)]})
    with pytest.raises(ValueError):
        FiniteModel(SIG_ER, 2, {"E": [(0,)]})
    with pytest.raises(Exception):
        FiniteModel(SIG_ER, 2, {"Q": []})
    sig_fc = Signature({}, {"f": 1}, ["c"])
    with pytest.raises(ValueError):
        FiniteModel(sig_fc, 2, {}, {"f": (0,)}, {"c": 0})     # short table
    with pytest.raises(ValueError):
        FiniteModel(sig_fc, 2, {}, {"f": (0, 1)}, {})          # missing const
    m = FiniteModel(sig_fc, 2, {}, {"f": (1, 0)}, {"c": 1})
    assert fun_value(m, "f", [0]) == 1


def test_tables_are_read_only_views_of_the_encoding():
    sig = Signature({"E": 2, "P": 1}, {"f": 1}, ["c"])
    rng = random.Random(5)
    for size in (1, 2, 3):
        rels = {"E": [t for t in itertools.product(range(size), repeat=2) if rng.random() < 0.5],
                "P": [(a,) for a in range(size) if rng.random() < 0.5]}
        funs = {"f": [rng.randrange(size) for _ in range(size)]}
        consts = {"c": rng.randrange(size)}
        m = FiniteModel(sig, size, rels, funs, consts)
        assert m.rels == {name: frozenset(ts) for name, ts in rels.items()}
        assert m.funs == {"f": tuple(funs["f"])} and m.consts == consts
        assert m.tuples("E") == sorted(rels["E"])
        # holds reads the bitmap: false off the universe and at the wrong arity
        for arity in (1, 2, 3):
            for t in itertools.product(range(-1, size + 1), repeat=arity):
                for name in ("E", "P"):
                    assert m.holds(name, t) is (t in m.rels[name])
    with pytest.raises(KeyError):
        m.holds("Q", (0,))
    with pytest.raises(AttributeError):
        m.rels = {}
    with pytest.raises(TypeError):
        m.rels["E"] = frozenset()


def test_encoding_orders_models_deterministically():
    a = FiniteModel(SIG_P, 2, {"P": []})
    b = FiniteModel(SIG_P, 2, {"P": [(0,)]})
    c = FiniteModel(SIG_P, 2, {"P": [(1,)]})
    assert a.encode() < b.encode() < c.encode()
    assert a == FiniteModel(SIG_P, 2, {"P": ()})
    assert len({a, b, c, FiniteModel(SIG_P, 2, {"P": []})}) == 3


def test_theory_rejects_open_or_foreign_axioms():
    with pytest.raises(ValueError):
        Theory(SIG_P, [parse_formula(SIG_P, "P(x)")])
    other = parse_formula(SIG_ER, "A x. E(x,x)")
    with pytest.raises(Exception):
        Theory(SIG_P, [other])


# ------------------------------------------------------------
# isomorphism search against a brute-force oracle
# ------------------------------------------------------------

def naive_isomorphisms(m, n):
    """Definition-chasing oracle, independent of the search code."""
    if m.size != n.size or m.sig != n.sig:
        return []
    found = []
    for perm in itertools.permutations(range(m.size)):
        ok = all(perm[m.consts[c]] == n.consts[c] for c in m.sig.constants)
        for name, arity in m.sig.relations.items():
            if not ok:
                break
            for t in itertools.product(range(m.size), repeat=arity):
                if (t in m.rels[name]) != (tuple(perm[e] for e in t) in n.rels[name]):
                    ok = False
                    break
        for name, arity in m.sig.functions.items():
            if not ok:
                break
            for t in itertools.product(range(m.size), repeat=arity):
                if perm[fun_value(m, name, t)] != fun_value(n, name, tuple(perm[e] for e in t)):
                    ok = False
                    break
        if ok:
            found.append(perm)
    return found


def test_isomorphism_search_matches_oracle():
    sig = Signature({"E": 2, "P": 1}, {"f": 1, "g": 2}, ["c"])
    rng = random.Random(20260815)
    for trial in range(40):
        size = rng.choice([1, 2, 3, 4])
        m = random_model(sig, size, rng)
        n = apply_permutation(m, tuple(rng.sample(range(size), size))) \
            if rng.random() < 0.7 else random_model(sig, size, rng)
        got = find_isomorphisms(m, n)
        assert got == naive_isomorphisms(m, n)
        assert got == sorted(got)
        for h in got:
            assert is_isomorphism(m, n, h)


def test_apply_permutation_is_an_isomorphism():
    rng = random.Random(3)
    m = random_model(SIG_ER, 3, rng)
    h = (2, 0, 1)
    n = apply_permutation(m, h)
    assert is_isomorphism(m, n, h)
    assert not is_isomorphism(m, n, (0, 1, 2)) or m == n


def tuple_permutation(m, perm):
    """The image of m under perm, tuple by tuple: the oracle of apply_permutation."""
    rels = {name: {tuple(perm[e] for e in t) for t in table} for name, table in m.rels.items()}
    funs = {}
    for name, arity in m.sig.functions.items():
        table = {tuple(perm[a] for a in args): perm[fun_value(m, name, args)]
                 for args in itertools.product(range(m.size), repeat=arity)}
        funs[name] = [table[args] for args in itertools.product(range(m.size), repeat=arity)]
    consts = {name: perm[value] for name, value in m.consts.items()}
    return FiniteModel(m.sig, m.size, rels, funs, consts)


def tuple_is_isomorphism(m, n, h):
    """h carries every tuple, function entry and constant of m onto n's: the oracle."""
    if m.size != n.size or sorted(h) != list(range(m.size)):
        return False
    for name, table in m.rels.items():
        if {tuple(h[e] for e in t) for t in table} != n.rels[name]:
            return False
    for name, arity in m.sig.functions.items():
        for args in itertools.product(range(m.size), repeat=arity):
            if h[fun_value(m, name, args)] != fun_value(n, name, tuple(h[a] for a in args)):
                return False
    return all(h[value] == n.consts[name] for name, value in m.consts.items())


def test_relabelling_matches_the_tuple_oracles():
    sig = Signature({"E": 2, "P": 1}, {"f": 1, "g": 2}, ["c"])
    rng = random.Random(20261018)
    for _ in range(60):
        size = rng.choice([1, 2, 3, 4])
        m = random_model(sig, size, rng)
        perm = tuple(rng.sample(range(size), size))
        image = apply_permutation(m, perm)
        assert image == tuple_permutation(m, perm)
        assert image.rels == tuple_permutation(m, perm).rels
        others = [image, m, random_model(sig, size, rng)]
        for n, h in itertools.product(others, [perm, tuple(range(size)), perm[::-1]]):
            assert is_isomorphism(m, n, h) == tuple_is_isomorphism(m, n, h)
    assert not is_isomorphism(m, m, (0,) * m.size) or m.size == 1


def test_canonical_key_is_permutation_invariant():
    sig = Signature({"E": 2}, {}, ["c"])
    rng = random.Random(99)
    for _ in range(30):
        m = random_model(sig, 3, rng)
        for perm in itertools.permutations(range(3)):
            assert canonical_key(apply_permutation(m, perm)) == canonical_key(m)


# ------------------------------------------------------------
# reducts and substructures
# ------------------------------------------------------------

def test_reduct_drops_symbols():
    sig = Signature({"E": 2, "P": 1}, {}, ["c"])
    m = FiniteModel(sig, 2, {"E": [(0, 1)], "P": [(0,)]}, {}, {"c": 1})
    r = reduct(m, ["E"])
    assert set(r.sig.relations) == {"E"} and not r.sig.constants
    assert r.rels["E"] == frozenset({(0, 1)})
    with pytest.raises(Exception):
        reduct(m, ["nope"])


def test_substructure_relabels_in_order():
    sig = Signature({"E": 2}, {}, ["c"])
    m = FiniteModel(sig, 3, {"E": [(0, 2), (2, 2), (1, 0)]}, {}, {"c": 2})
    sub, relabel = substructure(m, (0, 2))
    assert relabel == {0: 0, 2: 1}
    assert sub.size == 2 and sub.consts["c"] == 1
    assert sub.rels["E"] == frozenset({(0, 1), (1, 1)})
    with pytest.raises(ValueError):
        substructure(m, (0, 1))  # constant not inside the subset
    with pytest.raises(ValueError):
        substructure(m, ())


def test_substructure_requires_function_closure():
    sig = Signature({}, {"f": 1}, [])
    m = FiniteModel(sig, 3, {}, {"f": (1, 2, 0)}, {})
    with pytest.raises(ValueError):
        substructure(m, (0, 1))  # f(1) = 2 escapes
    sub, _ = substructure(m, (0, 1, 2))
    assert sub == m

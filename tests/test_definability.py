"""Definitional extensions, implicit and explicit definability, closure."""

import itertools
import random

import pytest
from conftest import random_theory
from hypothesis import assume, given, settings, strategies as st
from oracles import (expansion_by_eval, first_refuting_point, random_formula, random_model,
                     reduct, reduct_expansion_check, restrict, scan_points, substructure_scan)

from defeq import cli, definability, folang, truth
from defeq.budget import BudgetExceededError, NodeCounter, WorkBudget
from defeq.definability import (
    DefinitionSet, beth_search, expand_model, extend_theory,
    substructure_closure_check, unique_expansion_check,
)
from defeq.folang import (
    Signature, SignatureError, enumerate_formulas, eval_formula, formula_to_text,
    free_vars, parse_formula,
)
from defeq.models import FiniteModel, Theory, enumerate_encodings, enumerate_models

SIG_P = Signature({"P": 1}, {}, [])
SIG_PR = Signature({"P": 1, "R": 1}, {}, [])


def defs_over(sig, **named):
    ds = DefinitionSet()
    for name, (variables, text) in named.items():
        ds.add(name, variables, parse_formula(sig, text))
    return ds


# ------------------------------------------------------------
# definition sets and extensions
# ------------------------------------------------------------

def test_definition_set_validation():
    ds = DefinitionSet()
    ds.add("R", ("x",), parse_formula(SIG_P, "!P(x)"))
    with pytest.raises(ValueError):
        ds.add("R", ("x",), parse_formula(SIG_P, "P(x)"))  # duplicate name
    with pytest.raises(ValueError):
        ds.add("S", ("x",), parse_formula(SIG_P, "P(x) & P(y)"))  # loose free var
    with pytest.raises(ValueError):
        ds.add("T", ("x", "x"), parse_formula(SIG_P, "P(x)"))


def test_extend_theory_adds_biconditional_axioms():
    base = Theory(SIG_P, [], name="base")
    ext = extend_theory(base, defs_over(SIG_P, R=(("x",), "!P(x)")))
    assert set(ext.sig.relations) == {"P", "R"}
    assert any("R(x)" in formula_to_text(ax) and "<->" in formula_to_text(ax)
               for ax in ext.axioms)
    with pytest.raises(SignatureError):
        extend_theory(base, defs_over(SIG_P, P=(("x",), "P(x)")))


def test_expansion_is_a_bijection_between_model_classes():
    base = Theory(SIG_P, [], name="base")
    ds = defs_over(SIG_P, R=(("x",), "!P(x)"))
    ext = extend_theory(base, ds)
    for n in (1, 2, 3):
        expanded = sorted(expand_model(m, ds).encode()
                          for m in enumerate_models(base, n))
        direct = [m.encode() for m in enumerate_models(ext, n)]
        assert expanded == direct
        for m in enumerate_models(ext, n):
            again = expand_model(reduct(m, list(SIG_P.relations)), ds)
            assert again == m


def test_expand_model_evaluates_the_definition():
    m = FiniteModel(SIG_P, 3, {"P": [(0,), (2,)]})
    ds = defs_over(SIG_P, R=(("x",), "!P(x)"))
    assert expand_model(m, ds).rels["R"] == frozenset({(1,)})
    ds2 = defs_over(SIG_P, Q=(("x", "y"), "P(x) & !P(y)"))
    assert expand_model(m, ds2).rels["Q"] == \
        frozenset({(0, 1), (2, 1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_expand_model_matches_the_evaluation_oracle(seed, size):
    # random models with a unary function or a constant, random definitions
    # of arity 1 or 2 over them; no formula is evaluated point by point
    rng = random.Random(seed)
    sig = Signature({"P": 1, "G": 2}, *(({"f": 1}, []) if rng.random() < 0.5 else ({}, ["c"])))
    m = random_model(sig, size, rng)
    ds = DefinitionSet()
    for name, variables in (("R", ("x",)), ("S", ("x", "y"))):
        ds.add(name, variables, random_formula(sig, rng, rng.randint(1, 4), free=variables))
    want = expansion_by_eval(m, ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(folang, "eval_formula", None)
        assert expand_model(m, ds) == want


# ------------------------------------------------------------
# implicit definability
# ------------------------------------------------------------

def test_unique_expansion_holds_for_definitional_extensions(subst, chain):
    assert unique_expansion_check(subst, ["R"], 3) is None
    assert unique_expansion_check(chain, ["R"], 3) is None


def test_unique_expansion_fails_without_axioms():
    loose = Theory(SIG_PR, [], name="loose")
    witness = unique_expansion_check(loose, ["R"], 1)
    assert witness is not None
    m1, m2 = witness
    assert m1.size == m2.size == 1
    assert reduct(m1, ["P"]) == reduct(m2, ["P"])
    assert m1.rels["R"] != m2.rels["R"]
    assert {m1.rels["R"], m2.rels["R"]} == {frozenset(), frozenset({(0,)})}


def test_unique_expansion_builds_no_signature_per_model(monkeypatch):
    # the mutual pair has 2 models at size 1 and 512 at size 3; keying each
    # on its encoding needs no reduct signature, so the signatures made do
    # not grow with the models
    sig = Signature({"G": 2, "R": 1}, {}, [])
    t = Theory(sig, [parse_formula(
        sig, "A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))")], name="mutual")
    calls = 0
    real = Signature.__init__

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Signature, "__init__", counted)
    counts = []
    for size in (1, 3):
        calls = 0
        assert unique_expansion_check(t, ["R"], size) is None
        counts.append(calls)
    assert counts[1] == counts[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_unique_expansion_matches_the_reduct_oracle(seed, size):
    rng = random.Random(seed)
    t, candidates = random_theory(rng, size)
    assume(candidates <= 4096)
    hidden = [rng.choice(sorted(t.sig.relations))]
    assert unique_expansion_check(t, hidden, size) == reduct_expansion_check(t, hidden, size)


def test_unique_expansion_rejects_non_relations(subst):
    with pytest.raises(ValueError):
        unique_expansion_check(subst, ["c"], 2)
    with pytest.raises(ValueError):
        unique_expansion_check(subst, ["nope"], 2)


# ------------------------------------------------------------
# explicit definability search
# ------------------------------------------------------------

def test_beth_search_finds_a_definition():
    t = extend_theory(Theory(SIG_P, [], name="base"),
                      defs_over(SIG_P, R=(("x",), "!P(x)")))
    assert beth_search(t, "R", 2, 1) is None  # nothing that small works
    phi = beth_search(t, "R", 2, 2)
    assert phi is not None and free_vars(phi) == {"x1"}
    for n in (1, 2, 3):
        for m in enumerate_models(Theory(SIG_P, [], name="base"), n):
            for a in range(n):
                assert eval_formula(m, phi, {"x1": a}) == \
                    ((a,) not in m.rels["P"])


def test_beth_search_recovers_the_marked_point_definition(subst):
    phi = beth_search(subst, "R", 3, 6)
    assert phi is not None
    base_sig = restrict(subst.sig, ["c"])
    assert not free_vars(phi) - {"x1"}
    ref = parse_formula(base_sig, "(E y. E z. !(y=z)) & x1=c")
    base = Theory(base_sig, [], name="base")
    for n in (1, 2, 3):
        for m in enumerate_models(base, n):
            for a in range(n):
                env = {"x1": a}
                assert eval_formula(m, phi, env) == eval_formula(m, ref, env)


def test_beth_search_short_circuits_when_not_implicitly_defined():
    loose = Theory(SIG_PR, [], name="loose")
    assert beth_search(loose, "R", 2, 6) is None


def test_beth_search_enumerates_each_theory_and_size_once(subst, monkeypatch):
    calls = []
    real = definability.enumerate_encodings
    monkeypatch.setattr(definability, "enumerate_encodings",
                        lambda t, n, budget=None: calls.append((t.name, n)) or real(t, n, budget))
    assert beth_search(subst, "R", 3, 6) is not None
    assert calls == [("glymour_subst", 1), ("glymour_subst", 2), ("glymour_subst", 3)]
    calls.clear()
    # two models of size 1 share a reduct, so no size 2 is enumerated
    assert beth_search(Theory(SIG_PR, [], name="loose"), "R", 2, 6) is None
    assert calls == [("loose", 1)]


@pytest.mark.parametrize("target, expected", [
    ("R", "E v0. G(x1,v0)"),   # no clash: the stream's own names
    ("x1", "E v0. G(x2,v0)"),  # the first argument variable's name
    ("v0", "E v1. G(x1,v1)"),  # the first bound variable's name
])
def test_beth_definitions_parse_against_their_theory(target, expected):
    sig = Signature({target: 1, "G": 2}, {}, [])
    t = Theory(sig, [parse_formula(sig, f"A x. ({target}(x) <-> (E y. G(x,y)))")])
    phi = beth_search(t, target, 2, 4)
    assert formula_to_text(phi) == expected
    assert parse_formula(t.sig, expected) == phi
    for m in enumerate_models(t, 2):
        for a in range(2):
            assert eval_formula(m, phi, {free: a for free in free_vars(phi)}) == \
                ((a,) in m.rels[target])


def full_scan(t, target, max_size, bound):
    """The plain search: each candidate in stream order, on every model and
    assignment in turn, with no cache and no unique-expansion shortcut."""
    arity = t.sig.relations[target]
    variables = tuple(f"x{i}" for i in range(1, arity + 1))  # no test theory declares these
    base_sig = restrict(t.sig, [s for s in (*t.sig.relations, *t.sig.functions,
                                            *t.sig.constants) if s != target])
    models = [m for n in range(1, max_size + 1) for m in enumerate_models(t, n)]
    for phi in enumerate_formulas(base_sig, variables, bound):
        if all((args in m.rels[target]) == eval_formula(m, phi, dict(zip(variables, args)))
               for m in models for args in itertools.product(range(m.size), repeat=arity)):
            return phi
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(1, 4), st.booleans())
def test_beth_search_matches_the_full_scan(seed, size, bound, defined):
    # defined: a new relation R is defined by a candidate of the stream, so
    # the search must find a formula no later than that one; otherwise the
    # target is one of the random theory's own relations, which its axioms
    # may or may not define
    rng = random.Random(seed)
    t, _ = random_theory(rng, size)
    if defined:
        variables = ("x1", "x2")[:rng.randint(1, 2)]
        stream = list(enumerate_formulas(t.sig, variables, bound))
        k = rng.randrange(len(stream))
        t = extend_theory(t, DefinitionSet().add("R", variables, stream[k]))
        target = "R"
    else:
        target = rng.choice(sorted(t.sig.relations))
    phi = beth_search(t, target, size, bound)
    assert phi == full_scan(t, target, size, bound)
    if defined:
        assert phi is not None and stream.index(phi) <= k


def test_beth_search_agrees_with_the_full_scan_when_the_bound_is_too_small():
    # R is definable (by P & Q) but by nothing of size 2, so both searches
    # run through every candidate and find none
    sig = Signature({"P": 1, "Q": 1}, {}, [])
    t = extend_theory(Theory(sig, [], name="base"),
                      defs_over(sig, R=(("x1",), "P(x1) & Q(x1)")))
    assert beth_search(t, "R", 2, 2) is None and full_scan(t, "R", 2, 2) is None
    phi = beth_search(t, "R", 2, 3)
    assert phi is not None and phi == full_scan(t, "R", 2, 3)


def test_beth_search_tries_earlier_counterexamples_first(monkeypatch):
    # the mutual-pair theory of the benchmark: at size 2 and bound 7 the
    # answer is candidate 34,459.  A scan of every point from the first
    # evaluates 134,217 times; with the counterexample cache and its truth
    # vectors (truth.LevelTruth) only the few candidates that survive every
    # cached point are scanned, in model lanes: 44 lane evaluations,
    # enumeration's included, and none point by point
    sig = Signature({"G": 2, "R": 1}, {}, [])
    t = Theory(sig, [parse_formula(
        sig, "A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))")], name="mutual")
    evaluations = 0
    real = folang.compile_lanes

    def counted(*args, **kwargs):
        run = real(*args, **kwargs)

        def evaluate(*slots):
            nonlocal evaluations
            evaluations += 1
            return run(*slots)
        return evaluate

    def refused(*args):
        raise AssertionError("beth_search evaluated a formula point by point")

    monkeypatch.setattr(folang, "compile_lanes", counted)
    monkeypatch.setattr(folang, "eval_formula", refused)
    phi = beth_search(t, "R", 2, 7)
    monkeypatch.undo()
    stream = enumerate_formulas(restrict(sig, ["G"]), ("x1",), 7)
    candidates = next(i for i, f in enumerate(stream, 1) if f == phi)
    assert candidates == 34_459
    assert 0 < evaluations <= candidates // 8


def _target_and_base(t, rng):
    """A random relation of t, its argument variables and index, and t's
    signature without it."""
    target = rng.choice(sorted(t.sig.relations))
    base_sig = restrict(t.sig, [s for s in (*t.sig.relations, *t.sig.functions,
                                            *t.sig.constants) if s != target])
    return (target, definability._argument_variables(t.sig, t.sig.relations[target]),
            list(t.sig.relations).index(target), base_sig)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4))
def test_lane_scan_finds_the_first_refuting_point(seed, size, depth):
    # random theories, with a unary function or a constant half the time,
    # so models fall into several batches; random candidates over the
    # argument variables, against eval_formula point by point
    rng = random.Random(seed)
    t, candidates = random_theory(rng, size)
    assume(candidates <= 4096)
    target, variables, at, base_sig = _target_and_base(t, rng)
    sizes = [definability._Points(t.sig, enumerate_encodings(t, n), n) for n in range(1, size + 1)]
    points = scan_points(t, target, size)
    for _ in range(8):
        phi = random_formula(base_sig, rng, depth, free=variables)
        want = first_refuting_point(points, phi)
        got = definability._first_refutation(sizes, t.sig, at, phi, variables)
        if want is None:
            assert got is None, formula_to_text(phi)
        else:
            m, env, holds = want
            assert got == (m, tuple(env[v] for v in variables), holds), formula_to_text(phi)


def test_lane_scan_takes_the_earliest_model_over_all_batches():
    # models sort by their relations first, so the batches of the four
    # tables of f interleave; "f is the identity" agrees with the empty
    # target on the first model (f constant 0) and fails on the second,
    # the identity's batch, before its own batch's first failure
    sig = Signature({"P": 1, "Q": 1}, {"f": 1}, [])
    t = Theory(sig, [], name="free")
    sizes = [definability._Points(sig, enumerate_encodings(t, 2), 2)]
    phi = parse_formula(sig, "A v0. f(v0)=v0")
    m, args, holds = definability._first_refutation(sizes, sig, 1, phi, ("x1",))
    assert (m.funs["f"], m.tuples("P"), m.tuples("Q"), args, holds) == ((0, 1), [], [], (0,), False)
    points = [point for point in scan_points(t, "Q", 2) if point[0].size == 2]
    assert first_refuting_point(points, phi)[0] == m


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(1, 5), st.booleans())
def test_beth_search_matches_the_point_scan(seed, size, bound, defined):
    # the same answer and the same node count, or the same budget exit, as
    # the search with each surviving candidate checked point by point;
    # defined adds a relation R defined by a candidate of the stream, as
    # the target
    rng = random.Random(seed)
    t, candidates = random_theory(rng, size)
    assume(candidates <= 4096)
    if defined:
        variables = ("x1", "x2")[:rng.randint(1, 2)]
        stream = list(enumerate_formulas(t.sig, variables, bound))
        t = extend_theory(t, DefinitionSet().add("R", variables, rng.choice(stream)))
        target = "R"
    else:
        target = _target_and_base(t, rng)[0]
    points = scan_points(t, target, size)

    def per_point(sizes, sig, target_at, phi, variables):
        refuted = first_refuting_point(points, phi)
        return refuted and (refuted[0], tuple(map(refuted[1].get, variables)), refuted[2])

    outcomes = []
    for scan in (definability._first_refutation, per_point):
        counters = []

        class Recorded(NodeCounter):
            def __init__(self, *args):
                super().__init__(*args)
                counters.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(definability, "NodeCounter", Recorded)
            mp.setattr(definability, "_first_refutation", scan)
            try:
                phi = beth_search(t, target, size, bound, WorkBudget(20_000))
            except BudgetExceededError:
                phi = "budget"
        outcomes.append((phi, sum(c.count for c in counters)))
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------------------
# substructure closure
# ------------------------------------------------------------

def test_universal_style_theories_are_substructure_closed(t2):
    assert substructure_closure_check(t2, 3) is None


def test_base_of_the_marked_point_theory_is_closed(subst):
    base = Theory(restrict(subst.sig, ["c"]), [], name="base")
    assert substructure_closure_check(base, 3) is None


def test_marked_point_extension_is_not_closed_with_frozen_witness(subst):
    witness = substructure_closure_check(subst, 3)
    assert witness is not None
    m, subset = witness
    assert m.size == 2 and subset == (0,)
    assert m.consts["c"] == 0 and m.rels["R"] == frozenset({(0,)})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([None, 1, 5, 40]))
def test_substructure_closure_matches_the_substructure_scan(seed, size, max_nodes):
    # random theories, with a unary function or a constant two times in
    # three, so some subsets are not substructures and models fall into
    # several batches: the same witness, or the same budget exit, as the
    # scan that builds every substructure
    rng = random.Random(seed)
    t, candidates = random_theory(rng, size)
    assume(candidates <= 4096)
    budget = WorkBudget(max_nodes) if max_nodes else WorkBudget()
    outcomes = []
    for check in (substructure_closure_check, substructure_scan):
        try:
            outcomes.append(check(t, size, budget))
        except BudgetExceededError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


def test_substructure_closure_never_evaluates_point_by_point(monkeypatch, subst):
    def refused(*args):
        raise AssertionError("substructure_closure_check evaluated a formula point by point")

    monkeypatch.setattr(folang, "eval_formula", refused)
    witness = substructure_closure_check(subst, 3)
    assert witness is not None and witness[1] == (0,)
    sig = Signature({"E": 2}, {"f": 1}, ["c"])
    t = Theory(sig, [parse_formula(sig, "A x. E(x,f(x)) -> E(c,x)")], name="closed")
    assert substructure_closure_check(t, 3) is None


@pytest.mark.parametrize("argv, code, built", [
    # beth builds a model per refuting point it keeps (counted separately),
    # idc the two models of its witness, subclosure the model of its
    # witness, and none of them one per enumerated model
    (("beth", "--theory", "MUTUAL", "--target", "R", "--size", "3", "--bound", "7"), 0, None),
    (("beth", "--theory", "ex1_t1.thy", "--target", "R", "--size", "3", "--bound", "3"), 1, 0),
    (("idc", "--theory", "MUTUAL", "--hidden", "R", "--size", "3"), 0, 0),
    (("idc", "--theory", "ex1_t1.thy", "--hidden", "R", "--size", "3"), 1, 2),
    (("subclosure", "--theory", "ex1_t2.thy", "--size", "3"), 0, 0),
    (("subclosure", "--theory", "glymour_subst.thy", "--size", "3"), 1, 1),
])
def test_definability_commands_build_models_for_witnesses_only(argv, code, built, tmp_path,
                                                                monkeypatch):
    mutual = tmp_path / "mutual.thy"
    mutual.write_text("rel G 2\nrel R 1\n"
                      "axiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))\n")
    made, refuters = [], []
    real_model, real_truth = FiniteModel._from_encoding.__func__, truth.LevelTruth.__init__
    monkeypatch.setattr(FiniteModel, "_from_encoding", classmethod(
        lambda cls, sig, enc: made.append(enc) or real_model(cls, sig, enc)))
    monkeypatch.setattr(truth.LevelTruth, "__init__", lambda self, levels, m, a=None:
                        refuters.append(m) or real_truth(self, levels, m, a))
    got, _ = cli.dispatch([str(mutual) if a == "MUTUAL" else a for a in argv])
    assert got == code
    assert len(made) == (len(refuters) if built is None else built)
    if built is None:
        assert 0 < len(refuters) < 100

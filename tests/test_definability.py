"""Definitional extensions, implicit and explicit definability, closure."""

import itertools
import random

import pytest
from conftest import random_theory
from hypothesis import assume, given, settings, strategies as st
from oracles import reduct, reduct_expansion_check

from defeq import definability, folang
from defeq.definability import (
    DefinitionSet, beth_search, expand_model, extend_theory,
    substructure_closure_check, unique_expansion_check,
)
from defeq.folang import (
    Signature, SignatureError, enumerate_formulas, eval_formula, formula_to_text,
    free_vars, parse_formula,
)
from defeq.models import FiniteModel, Theory, enumerate_models

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
    # on its encoding needs no reduct signature, so no restrict per model
    sig = Signature({"G": 2, "R": 1}, {}, [])
    t = Theory(sig, [parse_formula(
        sig, "A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))")], name="mutual")
    calls = 0
    real = Signature.restrict

    def counted(self, keep):
        nonlocal calls
        calls += 1
        return real(self, keep)

    monkeypatch.setattr(Signature, "restrict", counted)
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
    base_sig = subst.sig.restrict(["c"])
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
    real = definability.enumerate_models
    monkeypatch.setattr(definability, "enumerate_models",
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
    base_sig = t.sig.restrict([s for s in (*t.sig.relations, *t.sig.functions,
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
    # answer is candidate 34,459; a scan of every point from the first makes
    # 134,217 evaluations, the counterexample cache with one evaluation per
    # candidate and cached point 41,511, and with the cached points' truth
    # vectors (folang.LevelTruth) 111, the full scans of the few candidates
    # that survive every cached point
    sig = Signature({"G": 2, "R": 1}, {}, [])
    t = Theory(sig, [parse_formula(
        sig, "A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))")], name="mutual")
    calls = 0
    real = folang.eval_formula

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(folang, "eval_formula", counted)
    phi = beth_search(t, "R", 2, 7)
    monkeypatch.undo()
    stream = enumerate_formulas(sig.restrict(["G"]), ("x1",), 7)
    candidates = next(i for i, f in enumerate(stream, 1) if f == phi)
    assert candidates == 34_459
    assert calls <= candidates // 8


# ------------------------------------------------------------
# substructure closure
# ------------------------------------------------------------

def test_universal_style_theories_are_substructure_closed(t2):
    assert substructure_closure_check(t2, 3) is None


def test_base_of_the_marked_point_theory_is_closed(subst):
    base = Theory(subst.sig.restrict(["c"]), [], name="base")
    assert substructure_closure_check(base, 3) is None


def test_marked_point_extension_is_not_closed_with_frozen_witness(subst):
    witness = substructure_closure_check(subst, 3)
    assert witness is not None
    m, subset = witness
    assert m.size == 2 and subset == (0,)
    assert m.consts["c"] == 0 and m.rels["R"] == frozenset({(0,)})

"""Syntax layer: parsing, printing, evaluation, enumeration."""

import itertools
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st
from oracles import random_formula, random_model, restrict, substructure, tokenize_by_match

from defeq import folang
from defeq.folang import (
    And, App, Const, Eq, Exists, Forall, FormulaLevels, FormulaSyntaxError, Iff,
    Implies, Not, Or, Rel, Signature, SignatureError, Var,
    compile_lanes, enumerate_formulas, eval_formula, formula_depth, formula_size,
    formula_to_text, free_vars, parse_formula, validate_formula,
)
from defeq.models import _TRANSPOSE_CHUNK, FiniteModel, _transpose
from defeq.truth import LevelTruth

SIG = Signature({"E": 2, "R": 2, "P": 1}, {"s": 1}, ["c"])


# ------------------------------------------------------------
# signatures
# ------------------------------------------------------------

def test_signature_rejects_clashing_names():
    with pytest.raises(SignatureError):
        Signature({"f": 1}, {"f": 1}, [])
    with pytest.raises(SignatureError):
        Signature({}, {}, ["c", "c"])
    with pytest.raises(SignatureError):
        Signature({"R": 0}, {}, [])
    with pytest.raises(SignatureError):
        Signature({"bad name": 1}, {}, [])


def test_signature_restrict():
    small = restrict(SIG, ["P", "c"])
    assert small.relations == {"P": 1}
    assert small.functions == {}
    assert small.constants == ("c",)
    assert not small.has_symbol("E")


# ------------------------------------------------------------
# parsing and printing
# ------------------------------------------------------------

# canonical minimal-paren forms: printing reproduces them byte for byte
FIXED_POINTS = [
    "A x. E y. E(x,y) & !(x=y)",
    "(A x. A y. !E(x,y)) | (A x. A y. !R(x,y))",
    "A x. A y. R(x,y) -> !R(y,x)",
    "A x. P(x) <-> (E y. E z. !(y=z) & x=c)",
    "A x. !(s(s(x))=c)",
    "P(c) -> P(s(c)) -> P(s(s(c)))",
    "P(x) & P(y) | P(z)",
    "!(P(x) | P(y))",
    "x=y <-> y=x",
]


@pytest.mark.parametrize("text", FIXED_POINTS)
def test_canonical_text_is_a_fixed_point(text):
    f = parse_formula(SIG, text)
    assert formula_to_text(f) == text
    assert parse_formula(SIG, formula_to_text(f)) == f


@pytest.mark.parametrize("text, canonical", [
    # redundant parens are dropped; quantifier bodies never need them
    ("A x. A y. (R(x,y) -> !R(y,x))", "A x. A y. R(x,y) -> !R(y,x)"),
    ("((P(x)))", "P(x)"),
    ("(P(x) & P(y)) | P(z)", "P(x) & P(y) | P(z)"),
])
def test_print_drops_redundant_parens(text, canonical):
    f = parse_formula(SIG, text)
    assert formula_to_text(f) == canonical
    assert parse_formula(SIG, canonical) == f


def test_parse_structure():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert parse_formula(SIG, "x=y") == Eq(x, y)
    assert parse_formula(SIG, "x!=y") == Not(Eq(x, y))
    assert formula_to_text(parse_formula(SIG, "x!=y")) == "!(x=y)"
    # implication and iff associate right, and/or left
    px, py, pz = Rel("P", (x,)), Rel("P", (y,)), Rel("P", (z,))
    assert parse_formula(SIG, "P(x) -> P(y) -> P(z)") == Implies(px, Implies(py, pz))
    assert parse_formula(SIG, "P(x) & P(y) & P(z)") == And(And(px, py), pz)
    assert parse_formula(SIG, "P(x) | P(y) | P(z)") == Or(Or(px, py), pz)
    assert parse_formula(SIG, "P(x) <-> P(y) <-> P(z)") == Iff(px, Iff(py, pz))
    # negation binds tightest, quantifier bodies extend right
    assert parse_formula(SIG, "!P(x) & P(y)") == And(Not(px), py)
    assert parse_formula(SIG, "A x. P(x) & P(y)") == Forall("x", And(px, py))
    assert parse_formula(SIG, "s(c)=x") == Eq(App("s", (Const("c"),)), x)


def test_quantifier_vs_relation_lookahead():
    # E is both a relation name and the exists keyword; the dot decides
    f = parse_formula(SIG, "E x. E(x,x)")
    assert f == Exists("x", Rel("E", (Var("x"), Var("x"))))


_X = Var("x")
_NODES = [_X, Const("c"), App("s", (_X,)), Rel("P", (_X,)), Eq(_X, _X), Not(Eq(_X, _X)),
          *(ctor(Eq(_X, _X), Eq(_X, _X)) for ctor in (And, Or, Implies, Iff)),
          Forall("x", Eq(_X, _X)), Exists("x", Eq(_X, _X))]


def test_nodes_have_slots_not_dicts():
    # streams of formulas hold hundreds of thousands of nodes at once
    assert {type(node) for node in _NODES} == \
        {*typing.get_args(folang.Formula), *typing.get_args(folang.Term)}
    for node in _NODES:
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_rebinding_shadows_the_outer_variable():
    f = parse_formula(SIG, "A x. P(x) & (E x. !P(x))")
    m = FiniteModel(SIG, 2, {"E": [], "R": [], "P": [(0,), (1,)]},
                    {"s": (0, 1)}, {"c": 0})
    assert eval_formula(m, f) is False  # inner E x. cannot find a non-P point
    assert free_vars(f) == frozenset()


@pytest.mark.parametrize("text", [
    "P(x,y)",            # arity mismatch
    "Q(x)",              # unknown symbol with arguments
    "P(x",               # unbalanced
    "x = ",              # missing term
    "E(x,y)=c",          # relation used inside a term
    "s=c",               # function symbol without arguments
    "A c. P(c)",         # quantifying a constant name
    "",
])
def test_parse_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(SIG, text)


def test_every_walker_takes_the_deepest_parsable_formula():
    limit = folang.MAX_SYNTAX_DEPTH
    model = FiniteModel(SIG, 1, {"E": [], "R": [], "P": [(0,)]}, {"s": [0]}, {"c": 0})
    # a Rel over a Const is two levels; Not and And add one each
    for deepest, deeper in [("!" * (limit - 2) + "P(c)", "!" * (limit - 1) + "P(c)"),
                            (" & ".join(["P(c)"] * (limit - 1)),
                             " & ".join(["P(c)"] * limit))]:
        f = parse_formula(SIG, deepest)
        assert formula_depth(f) == limit - 1
        assert parse_formula(SIG, formula_to_text(f)) == f
        assert free_vars(f) == frozenset() and formula_size(f) >= limit - 1
        assert folang.used_symbols(f)["relations"] == {"P"}
        validate_formula(SIG, f)
        assert eval_formula(model, f) == (deepest[0] == "P" or limit % 2 == 0)
        assert compile_lanes(SIG, f, 1, 1)(flat_tables(model)) == eval_formula(model, f)
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse_formula(SIG, deeper)


def test_paren_limit_does_not_depend_on_the_callers_stack():
    deep = "(" * 150 + "A x. P(x)" + ")" * 150

    def error(frames):
        if frames:
            return error(frames - 1)
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(SIG, deep)
        return str(info.value)

    limit = folang.MAX_PAREN_DEPTH
    message = f"formula nested in more than {limit} parentheses (at offset {limit})"
    assert error(0) == error(300) == message
    # argument lists count too: P(c) inside limit - 1 groups is at the limit
    inner = "(" * (limit - 1) + "P(c)" + ")" * (limit - 1)
    assert parse_formula(SIG, inner) == Rel("P", (Const("c"),))
    with pytest.raises(FormulaSyntaxError, match="parentheses"):
        parse_formula(SIG, f"({inner})")


@pytest.mark.parametrize("ctor", [And, Or, Implies, Iff])
@pytest.mark.parametrize("nest_right", [True, False])
def test_chains_at_the_depth_limit_print_within_the_paren_limit(ctor, nest_right):
    # P(c) is two levels and each connective one more; right-nested & and |
    # and left-nested -> and <-> print one group of parentheses per level
    atom = Rel("P", (Const("c"),))
    f = atom
    for _ in range(folang.MAX_SYNTAX_DEPTH - 2):
        f = ctor(atom, f) if nest_right else ctor(f, atom)
    assert formula_depth(f) == folang.MAX_SYNTAX_DEPTH - 1
    assert parse_formula(SIG, formula_to_text(f)) == f


def test_validate_formula_catches_foreign_symbols():
    f = parse_formula(SIG, "P(x)")
    with pytest.raises(SignatureError):
        validate_formula(Signature({"E": 2}, {}, []), f)


def test_free_vars():
    assert free_vars(parse_formula(SIG, "A x. E(x,y) & P(z)")) == {"y", "z"}
    assert free_vars(parse_formula(SIG, "A x. E y. E(x,y)")) == frozenset()
    assert free_vars(parse_formula(SIG, "s(x)=c")) == {"x"}


def test_formula_size_and_depth():
    # connectives and atoms cost one node each, function applications too
    assert formula_size(parse_formula(SIG, "A x. E y. E(x,y) & !(x=y)")) == 6
    assert formula_size(parse_formula(SIG, "A x. !(s(s(x))=c)")) == 5
    assert formula_size(parse_formula(SIG, "P(c)")) == 1
    assert formula_depth(parse_formula(SIG, "P(c)")) == 1
    assert formula_depth(parse_formula(SIG, "A x. !P(x)")) == 3


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_round_trip_random_asts(seed, depth):
    f = random_formula(SIG, random.Random(seed), depth, free=("x",))
    assert parse_formula(SIG, formula_to_text(f)) == f


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as e:
        return str(e), e.position


# near misses of tokens, and whitespace that str.isspace knows but ASCII does not
TOKEN_CHARS = st.sampled_from("()=.,!&|<->AEx_09 \t\n\x0b\x1c\xa0\u2003\u3000@#~é")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                          TOKEN_CHARS | st.characters()), max_size=4))
def test_tokenizer_matches_the_match_loop(seed, depth, edits):
    # the same tokens and offsets, or the same first error, on formula text
    # and on formula text with characters inserted, deleted or replaced
    text = formula_to_text(random_formula(SIG, random.Random(seed), depth, free=("x",)))
    texts = [text]
    for at, op, ch in edits:
        at %= len(text) + 1
        text = text[:at] + ch * (op != 1) + text[at + (op > 0):]
        texts.append(text)
    for text in texts:
        assert tokens_or_error(folang._tokenize, text) == \
            tokens_or_error(tokenize_by_match, text), text


def test_random_formula_is_deterministic():
    fs1 = [random_formula(SIG, random.Random(11), 4) for _ in range(10)]
    fs2 = [random_formula(SIG, random.Random(11), 4) for _ in range(10)]
    assert fs1 == fs2


# ------------------------------------------------------------
# evaluation
# ------------------------------------------------------------

def _two_point_model():
    return FiniteModel(SIG, 2,
                       {"E": [(0, 1)], "R": [(0, 1), (1, 0)], "P": [(1,)]},
                       {"s": (1, 0)}, {"c": 0})


def test_eval_formula_cases():
    m = _two_point_model()
    cases = [
        ("P(c)", None, False),
        ("P(s(c))", None, True),
        ("E x. E(x,x)", None, False),
        ("A x. E y. R(x,y)", None, True),
        ("E(x,y)", {"x": 0, "y": 1}, True),
        ("E(x,y)", {"x": 1, "y": 0}, False),
        ("A x. s(s(x))=x", None, True),
        ("x!=c", {"x": 1}, True),
        ("A x. (P(x) <-> !(x=c))", None, True),
    ]
    for text, env, expected in cases:
        assert eval_formula(m, parse_formula(SIG, text), env) is expected, text


def test_eval_formula_reads_relation_bitmaps():
    m = _two_point_model()
    assert eval_formula(m, parse_formula(SIG, "E x. E y. (E(x,y) & P(y))")) is True
    assert m._rels is None  # no frozenset view was built
    other = FiniteModel(Signature({"P": 1}), 2, {"P": [(0,)]})
    with pytest.raises(SignatureError, match="model has no relation 'E'"):
        eval_formula(other, parse_formula(SIG, "E(c,c)"))


def test_eval_requires_bound_environment():
    m = _two_point_model()
    with pytest.raises(folang.UnboundVariableError):
        eval_formula(m, parse_formula(SIG, "P(x)"))
    with pytest.raises(folang.UnboundVariableError):
        compile_lanes(SIG, parse_formula(SIG, "A y. E(x,y)"), 2, 1)


def flat_tables(m):
    """A model's tables in the layout compiled formulas read."""
    _, bitmaps, fun_tables, constants = m.encode()
    return [*bitmaps, *fun_tables, *constants]


@pytest.mark.parametrize("text", [
    # shadowed binders, the outer variable read again after the inner loop
    "A x. P(x) & (E x. !P(x))",
    "E x. (A x. E(x,x)) & P(x)",
    "A x. E y. (E x. R(x,y)) <-> R(x,y)",
    # <-> of atoms whose bits sit at different positions
    "A x. A y. R(x,y) <-> R(y,x)",
    "E x. E y. E(x,y) <-> P(y)",
    # function terms and constants
    "A x. P(s(x)) <-> s(s(x))=c",
    "E(c,s(c)) | R(s(c),c)",
    "E x. A y. E(s(y),x) -> y=c",
])
def test_compiled_formula_cases(text):
    f = parse_formula(SIG, text)
    rng = random.Random(text)
    for size in (1, 2, 3):
        ev = compile_lanes(SIG, f, size, 1)
        for _ in range(20):
            m = random_model(SIG, size, rng)
            assert ev(flat_tables(m)) == int(eval_formula(m, f)), (text, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_compiled_formula_matches_eval_formula(seed, depth, size):
    rng = random.Random(seed)
    f = random_formula(SIG, rng, depth)
    ev = compile_lanes(SIG, f, size, 1)
    for _ in range(5):
        m = random_model(SIG, size, rng)
        assert ev(flat_tables(m)) == int(eval_formula(m, f))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_compiled_formula_over_a_domain_is_its_truth_in_the_substructure(seed, depth, size):
    # quantifiers over a subset S closed under s and holding c: the truth
    # in the substructure on S (relativisation)
    rng = random.Random(seed)
    f = random_formula(SIG, rng, depth)
    for _ in range(5):
        m = random_model(SIG, size, rng)
        inside = {m.consts["c"], *rng.sample(range(size), rng.randint(0, size - 1))}
        while not inside.issuperset(m.funs["s"][e] for e in inside):
            inside.update(m.funs["s"][e] for e in list(inside))
        domain = tuple(sorted(inside))
        sub, _ = substructure(m, domain)
        ev = compile_lanes(SIG, f, size, 1, domain=domain)
        assert ev(flat_tables(m)) == int(eval_formula(sub, f)), (formula_to_text(f), m, domain)


# ------------------------------------------------------------
# enumeration
# ------------------------------------------------------------

ENUM_SIG = Signature({"P": 1}, {}, [])

# the fixed head of the stream over one unary relation with free variable x
ENUM_PREFIX = [
    "P(x)", "x=x",
    "!P(x)", "!(x=x)",
    "A v0. P(x)", "A v0. P(v0)",
    "A v0. x=x", "A v0. x=v0", "A v0. v0=x", "A v0. v0=v0",
    "E v0. P(x)", "E v0. P(v0)",
    "E v0. x=x", "E v0. x=v0", "E v0. v0=x", "E v0. v0=v0",
]


def test_enumeration_prefix_is_frozen():
    got = [formula_to_text(f) for f in enumerate_formulas(ENUM_SIG, ("x",), 2)]
    assert got == ENUM_PREFIX


def test_enumeration_is_prefix_stable_unique_and_monotone():
    small = list(enumerate_formulas(ENUM_SIG, ("x",), 3))
    big = list(enumerate_formulas(ENUM_SIG, ("x",), 5))
    assert big[:len(small)] == small
    assert len(set(big)) == len(big)
    sizes = [formula_size(f) for f in big]
    assert sizes == sorted(sizes)
    assert all(free_vars(f) <= {"x"} for f in big)


def test_enumeration_covers_small_formulas():
    # spot check membership rather than counting
    big = set(enumerate_formulas(ENUM_SIG, ("x",), 4))
    for text in ["P(x) & !P(x)", "A v0. P(v0) -> P(x)", "E v0. !(x=v0)"]:
        assert parse_formula(ENUM_SIG, text) in big


def test_enumeration_closed_formulas_have_no_free_vars():
    for f in enumerate_formulas(ENUM_SIG, (), 4):
        assert free_vars(f) == frozenset()


# signature, free variables, largest size bound the unbounded oracle may take
DEPTH_CASES = [
    (ENUM_SIG, ("x",), 5),
    (Signature({"E": 2, "P": 1}, {"s": 1}, ["c"]), (), 4),
    (Signature({"E": 2}, {}, []), ("x", "y"), 4),
    (Signature({"R": 2}, {"f": 2}, ["a", "b"]), ("z",), 3),
]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("sig, free, cap", DEPTH_CASES)
def test_depth_bound_equals_the_filtered_stream(sig, free, cap, depth):
    size = min(2 ** depth - 1, cap)
    want = [f for f in enumerate_formulas(sig, free, size) if formula_depth(f) <= depth]
    assert list(enumerate_formulas(sig, free, size, depth)) == want


def test_the_largest_size_is_streamed_not_stored(monkeypatch):
    made = 0
    real = folang.Forall

    def counting_forall(var, body):
        nonlocal made
        made += 1
        return real(var, body)

    monkeypatch.setattr(folang, "Forall", counting_forall)
    shorter = sum(1 for _ in enumerate_formulas(ENUM_SIG, ("x",), 4))
    made_for_shorter = made
    made = 0
    stream = enumerate_formulas(ENUM_SIG, ("x",), 5)
    next(itertools.islice(stream, shorter, None))  # the first formula of size 5
    # sizes 1-4 are built as for bound 4, and nothing of size 5 ahead of the stream
    assert made == made_for_shorter


# a signature with a unary function or a constant, the free variables, and
# the largest size bound taken
UNRANK_CASES = [
    (Signature({"P": 1}, {"s": 1}, []), ("x",), 5),
    (Signature({"P": 1}, {}, ["c"]), (), 5),
    (Signature({"E": 2}, {"s": 1}, ["c"]), ("x", "y"), 4),
]


@pytest.mark.parametrize("depth", [None, 2, 3])
@pytest.mark.parametrize("sig, free, cap", UNRANK_CASES)
def test_unrank_agrees_with_the_stream_on_every_index(sig, free, cap, depth):
    for bound in range(1, cap + 1):
        levels = FormulaLevels(sig, free, bound, depth)
        ranked = [levels.unrank(levels.top(s), i) for s in range(1, bound + 1)
                  for i in range(levels.count(levels.top(s)))]
        assert ranked == list(enumerate_formulas(sig, free, bound, depth))
    with pytest.raises(IndexError):
        levels.unrank(levels.top(cap), levels.count(levels.top(cap)))


def reachable_levels(levels, key):
    """key and every level its sections are built from."""
    seen = [key]
    for k in seen:
        for section in levels.sections(k):
            seen.extend(sub for sub in section[2:] if isinstance(sub, tuple) and sub not in seen)
    return seen


def _repeats(node) -> bool:
    """Does an atom or term node take one variable as two of its arguments?"""
    names = [a.name for a in node.args if isinstance(a, Var)]
    return len(set(names)) < len(names)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from(["s", "g", "c"]),
       st.sampled_from([None, 2, 3]))
def test_level_truth_matches_eval_formula(seed, size, extra, depth):
    # bit i of a level's vector at assignment a is eval_formula of the
    # level's i-th formula there, over a unary function s, a binary
    # function g or a constant c
    rng = random.Random(seed)
    sig = Signature({"E": 2, "P": 1}, {extra: {"s": 1, "g": 2}[extra]} if extra != "c" else {},
                    ["c"] if extra == "c" else [])
    m = random_model(sig, size, rng)
    x = rng.randrange(size)
    levels = FormulaLevels(sig, ("x",), 4, depth)
    truth = LevelTruth(levels, m, {"x": x})
    # atoms and function terms that repeat a variable, E(x,x) or g(v0,v0),
    # read one value mask twice
    atoms = [f for key in reachable_levels(levels, levels.top(4))
             for section in levels.sections(key) if section[0] == "atoms" for f in section[1]]
    assert any(isinstance(f, Rel) and _repeats(f) for f in atoms)
    if extra == "g":
        assert any(isinstance(t, App) and _repeats(t)
                   for f in atoms for t in (f.args if isinstance(f, Rel) else (f.left, f.right)))
    for key in reachable_levels(levels, levels.top(4)):
        vector = truth.vector(key)
        names = levels.bound_names[:key[1]]
        assert len(vector) == size ** len(names)
        for a, values in enumerate(itertools.product(range(size), repeat=len(names))):
            env = {"x": x, **dict(zip(names, values))}
            for i, f in enumerate(levels.formulas(key)):
                assert (vector[a] >> i & 1 == 1) is eval_formula(m, f, env), \
                    (formula_to_text(f), env, m)
        # a section read alone is that stretch of the level's bits
        shift = 0
        for k, section in enumerate(levels.sections(key)):
            width = levels.section_count(section)
            assert truth.section(key, k) == [v >> shift & (1 << width) - 1 for v in vector]
            shift += width


def test_transpose_past_one_chunk():
    # a bit matrix of more columns than one chunk reads: row j has bit i
    # set when column i has bit j
    rng = random.Random(2)
    width = 5
    columns = [rng.randrange(1 << width) for _ in range(2 * _TRANSPOSE_CHUNK + 7)]
    rows = _transpose(columns, width)
    assert rows == [sum((c >> j & 1) << i for i, c in enumerate(columns)) for j in range(width)]
    assert _transpose([], 3) == [0, 0, 0]

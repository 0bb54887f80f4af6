"""Command line surface: exit codes, golden output, file formats."""

import contextlib
import io
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from oracles import model_text_by_tuples, random_model, restrict

import defeq
from defeq import cli, folang, spectra, ultra
from defeq.cli import (
    CliError, dispatch, fixture_path, load_models, load_theory, main,
    model_to_text, parse_model_text, parse_theory_text, theory_to_text,
)
from defeq.folang import Signature, enumerate_formulas, formula_to_text
from defeq.groups import automorphism_group
from defeq.models import FiniteModel


def run(*argv):
    return dispatch(list(argv))


# ------------------------------------------------------------
# theory files
# ------------------------------------------------------------

def test_theory_text_round_trip(t2):
    again = parse_theory_text(theory_to_text(t2), name=t2.name)
    assert again.sig == t2.sig
    assert [formula_to_text(a) for a in again.axioms] == \
        [formula_to_text(a) for a in t2.axioms]


def test_theory_parse_errors():
    for text in ["rel R\n", "rel R two\n", "axiom A x. Q(x)\nrel R 1\n",
                 "widget R 1\n", "rel R 1\nrel R 2\n"]:
        with pytest.raises(CliError):
            parse_theory_text(text)


def test_theory_comments_and_blanks():
    t = parse_theory_text("# header\n\nrel R 1  # trailing\naxiom A x. R(x)\n")
    assert set(t.sig.relations) == {"R"}
    assert len(t.axioms) == 1


def test_fixture_resolution():
    assert os.path.exists(fixture_path("ex1_t1.thy"))
    t = load_theory("ex1_t1.thy")  # bare name falls back to the package copy
    assert set(t.sig.relations) == {"E", "R"}
    with pytest.raises(CliError):
        load_theory("missing_file.thy")
    with pytest.raises(CliError, match="no such file"):
        load_theory("")  # not the package's fixture directory


# ------------------------------------------------------------
# model files
# ------------------------------------------------------------

def test_model_text_round_trip():
    sig = Signature({"E": 2, "P": 1}, {"f": 1}, ["c"])
    m = FiniteModel(sig, 3, {"E": [(0, 1), (2, 0)], "P": []},
                    {"f": (2, 2, 1)}, {"c": 1})
    text = model_to_text(m)
    assert text == ("size 3 rel E { (0,1) (2,0) } rel P { } "
                    "fun f [ 2 2 1 ] const c 1")
    assert parse_model_text(text) == m


# (size, relation arities): bitmaps 1 bit wide; 8 and 2; 9 and 27; 25 and 5,
# so that a bitmap ends on, just past and well past a byte boundary
BYTE_SHAPES = [(1, (1, 2)), (2, (3, 1)), (3, (2, 3)), (5, (2, 1))]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(BYTE_SHAPES),
       st.sampled_from(["", "f", "c", "fc"]))
def test_model_text_matches_the_tuple_oracle(seed, shape, extra):
    size, arities = shape
    sig = Signature({f"R{i}": a for i, a in enumerate(arities)},
                    {"f": 1} if "f" in extra else {}, ["c"] if "c" in extra else [])
    rng = random.Random(seed)
    for _ in range(4):
        m = random_model(sig, size, rng)
        text = model_to_text(m)
        assert text == model_text_by_tuples(m)
        assert parse_model_text(text, sig) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(BYTE_SHAPES),
       st.sampled_from(["", "f", "c", "fc", "fgcd"]), st.integers(0, 6))
def test_the_column_renderer_matches_the_tuple_oracle(seed, shape, extra, count):
    # model_to_text is the column of one model; a column of several, or of none
    size, arities = shape
    sig = Signature({f"R{i}": a for i, a in enumerate(arities)},
                    {name: 1 for name in "fg" if name in extra},
                    [name for name in "cd" if name in extra])
    rng = random.Random(seed)
    ms = [random_model(sig, size, rng) for _ in range(count)]
    assert list(cli._renderer(sig, size).column([m.encode() for m in ms])) == \
        [model_text_by_tuples(m) for m in ms] == list(map(model_to_text, ms))


def test_a_wide_model_fills_one_text_entry_per_byte():
    # 1,000 bits: the renderer's table for the relation holds the texts of
    # the 125 bytes one model reads, not all 256 values of each byte
    sig = Signature({"Wide": 3})
    m = random_model(sig, 10, random.Random(7))
    assert model_to_text(m) == model_text_by_tuples(m)
    [(_, table)] = cli._renderer(sig, 10).rels
    assert 0 < len(table) <= 125


def test_model_parse_multiline_and_comments():
    text = """
    size 2           # two points
    rel E { (0,1)
            (1,0) }
    const c 0
    """
    m = parse_model_text(text)
    assert m.rels["E"] == frozenset({(0, 1), (1, 0)})
    assert m.consts["c"] == 0


def test_model_arity_inference():
    m = parse_model_text("size 2 rel R { }")
    assert m.sig.relations == {"R": 1}  # empty table defaults to arity 1
    m2 = parse_model_text("size 3 fun f [ 0 1 2 0 1 2 0 1 2 ]")
    assert m2.sig.functions == {"f": 2}
    with pytest.raises(CliError):
        parse_model_text("size 3 fun f [ 0 1 ]")
    with pytest.raises(CliError):
        parse_model_text("size 2 rel R { (0) (0,1) }")


def test_model_parse_errors():
    for text in ["rel R { }", "size 2 rel R { (0,2) }", "size 2 blob",
                 "size 2 rel R { (0", "size 2 const c 5"]:
        with pytest.raises(CliError):
            parse_model_text(text)


@pytest.mark.parametrize("text, message", [
    ("size 2 rel P { (2) }\nsize 3\n", "duplicate size"),
    ("size 2 const c 0 const c 1\n", "duplicate constant 'c'"),
    ("size 2 rel P { (0) } rel P { (1) }\n", "duplicate relation 'P'"),
    ("size 2 fun f [ 0 1 ] fun f [ 1 0 ]\n", "duplicate function 'f'"),
])
def test_a_second_declaration_is_refused(tmp_path, capsys, text, message):
    # the later one silently won before: a size-2 table loaded as a size-3 model
    mod = tmp_path / "dup.mod"
    mod.write_text(text)
    assert run("aut", "--model", str(mod)) == (2, "")
    assert capsys.readouterr().err == f"defeq: {message}\n"


def test_load_models_unifies_signatures(tmp_path):
    a = tmp_path / "a.mod"
    b = tmp_path / "b.mod"
    a.write_text("size 1 rel R { }")          # arity unknown here
    b.write_text("size 2 rel R { (0,1) }")    # resolved to 2 by this file
    ms = load_models([str(a), str(b)])
    assert ms[0].sig.relations == {"R": 2}
    assert ms[0].rels["R"] == frozenset()
    c = tmp_path / "c.mod"
    c.write_text("size 2 rel R { (0) }")
    with pytest.raises(CliError):
        load_models([str(b), str(c)])


# ------------------------------------------------------------
# subcommands and exit codes
# ------------------------------------------------------------

def test_parse_command():
    code, out = run("parse", "--theory", "ex1_t1.thy",
                    "--formula", "A x. (E(x,x) -> R(x,x))")
    assert code == 0 and out == "A x. E(x,x) -> R(x,x)\n"
    code, _ = run("parse", "--theory", "ex1_t1.thy", "--formula", "E(x")
    assert code == 2


def test_deeply_nested_axioms_exit_2(tmp_path, capsys):
    # too deep for the recursive parser, or deeper than the walkers take
    axioms = ["(" * 150 + "A x. P(x)" + ")" * 150,
              "(" * 2000 + "A x. P(x)" + ")" * 2000,
              "!" * 5000 + "P(c)",
              " & ".join(["P(c)"] * 5000)]
    thy = tmp_path / "deep.thy"
    for axiom in axioms:
        thy.write_text(f"rel P 1\nconst c\naxiom {axiom}\n")
        assert run("models", "--theory", str(thy), "--size", "1") == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("defeq: line 3: formula nested")


def test_models_command(tmp_path):
    thy = tmp_path / "p.thy"
    thy.write_text("rel P 1\n")
    code, out = run("models", "--theory", str(thy), "--size", "2", "--count-only")
    assert (code, out) == (0, "4\n")
    code, out = run("models", "--theory", str(thy), "--size", "2")
    assert out.splitlines() == [
        "size 2 rel P { }",
        "size 2 rel P { (0) }",
        "size 2 rel P { (1) }",
        "size 2 rel P { (0) (1) }",
    ]
    code, _ = run("models", "--theory", str(thy), "--size", "2", "--max-nodes", "2")
    assert code == 2  # budget exhausted


def test_the_models_listing_builds_no_model(monkeypatch):
    # the listing renders the enumerated encodings as they are
    made = []
    real = FiniteModel._from_encoding.__func__
    monkeypatch.setattr(FiniteModel, "_from_encoding", classmethod(
        lambda cls, sig, enc: made.append(enc) or real(cls, sig, enc)))
    code, out = run("models", "--theory", "ex1_t2.thy", "--size", "3")
    assert (code, len(out.splitlines()), made) == (0, 538, [])


def test_a_function_factor_above_the_budget_is_refused_up_front(tmp_path, capsys):
    # each of the 3**9 tables of a binary function at size 3 would cost a node
    thy = tmp_path / "f.thy"
    thy.write_text("fun f 2\n")
    models = ("models", "--theory", str(thy), "--size", "3")
    assert run(*models, "--max-nodes", "1000") == (2, "")
    assert capsys.readouterr().err == ("defeq: work budget exceeded while enumerating 19683 "
                                       "function/constant tables at size 3 (limit 1000)\n")
    # 2**(2**40) tables, and an arity too large to raise 2 to: refused
    # before the table count is made
    for arity in ("40", "99999999999999999999"):
        thy.write_text(f"fun f {arity}\n")
        assert run("models", "--theory", str(thy), "--size", "2", "--count-only") == (2, "")
        assert capsys.readouterr().err == ("defeq: work budget exceeded while enumerating too "
                                           "many function/constant tables at size 2 "
                                           "(limit 5000000)\n")


def test_relation_tables_beyond_the_budget_are_refused_when_reached(tmp_path, capsys):
    # 2**128 and 2**(2**40) tables at size 2, and an arity too large to
    # raise 2 to: each is refused at the first relation the search reaches,
    # with no table range made; a wide relation after one with no tables is
    # never reached
    widths = []
    for arity in ("7", "40", "99999999999999999999"):
        thy = tmp_path / f"p{len(widths)}.thy"
        thy.write_text(f"rel P {arity}\n")
        widths.append(run("models", "--theory", str(thy), "--size", "2", "--count-only"))
    assert widths == [(2, "")] * 3
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while enumerating models at size 2 (limit 5000000)\n" * 3
    # from 2**62 up, the budget's width-limit table range is too long for len
    for limit in ("9223372036854775807", "100000000000000000000"):
        assert run("models", "--theory", str(tmp_path / "p0.thy"), "--size", "2",
                   "--count-only", "--max-nodes", limit) == (2, "")
        assert capsys.readouterr().err == \
            f"defeq: work budget exceeded while enumerating models at size 2 (limit {limit})\n"
    thy = tmp_path / "unreached.thy"
    thy.write_text("rel A 1\nrel Z 99999999999999999999\naxiom A x. !A(x)\naxiom E x. A(x)\n")
    assert run("models", "--theory", str(thy), "--size", "2", "--count-only") == (0, "0\n")


def test_every_search_command_takes_one_budget_flag(capsys):
    for command in ("models", "aut", "spec", "spec-compare", "build-iso", "ultra", "beth",
                    "idc", "subclosure"):
        assert run(command, "--help") == (0, "")
        flags = set(re.findall(r"--max-[a-z-]+", capsys.readouterr().out))
        assert flags - {"--max-size"} == {"--max-nodes"}, command


def test_the_node_count_of_a_function_search_is_exact(tmp_path, capsys):
    # 256 choices of f, 16 P tables filtered for each of its 10 involutions,
    # and the 76 P tables kept
    thy = tmp_path / "involution.thy"
    thy.write_text("rel P 1\nfun f 1\naxiom A x. f(f(x)) = x\n"
                   "axiom A x. (P(x) -> P(f(x)))\n")
    models = ("models", "--theory", str(thy), "--size", "4", "--count-only")
    assert run(*models, "--max-nodes", "492") == (0, "76\n")
    assert run(*models, "--max-nodes", "491") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while enumerating models at size 4 (limit 491)\n"


@pytest.mark.parametrize("text, message", [
    # a universe and a bitmap too wide to build: an OverflowError and a
    # MemoryError before they were refused
    ("size 1000000000000 rel E { (999999999999,0) }",
     "universe of 1000000000000 elements, more than a model may have (1048576)"),
    ("size 2 rel E { (" + ",".join(["1"] * 40) + ") }",
     "relation 'E' has 2**40 argument tuples, more than a model may have (1048576)"),
    # a function table's arity was sought among the powers of 0 forever
    ("size 0 fun f [ 1 2 0 1 ]", "universe must be nonempty"),
    ("size -2 fun f [ 1 2 0 1 ]", "universe must be nonempty"),
])
def test_huge_model_files_are_refused(text, message, tmp_path, capsys):
    mod = tmp_path / "huge.mod"
    mod.write_text(text)
    assert run("aut", "--model", str(mod)) == (2, "")
    assert capsys.readouterr().err == f"defeq: {message}\n"


@pytest.mark.parametrize("texts, message", [
    (["size 1 fun f [ 0 0 ]"], "function 'f': table length 2 on a 1-element universe"),
    (["size 2 rel E { (0) (0,1) }"], "relation 'E' has tuples of mixed arity [1, 2]"),
    (["size 2 fun f [ 0 1 ]", "size 2 fun f [ 0 1 1 0 ]"],
     "function 'f' has inconsistent arity across files"),
    (["size 2 rel f { (0) }", "size 2 fun f [ 0 1 ]"], "symbol names must be pairwise distinct"),
    # the signature is read off all the files, so the second one lacks f's table
    (["size 2 fun f [ 0 1 ]", "size 2 rel E { (0,1) }"], "missing table for function 'f'"),
])
def test_model_files_that_disagree_get_one_diagnostic(texts, message, tmp_path, capsys):
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"m{i}.mod")
        paths[-1].write_text(text)
    assert run("ultra", "--models", ",".join(map(str, paths)), "--principal", "0") == (2, "")
    assert capsys.readouterr().err == f"defeq: {message}\n"


# The front door under mutation: seed texts of each kind, the mutations
# made of tokens that include huge sizes, arities and tuple entries, and the
# commands each mutated text goes through
FUZZ_SEEDS = {
    "thy": [theory_to_text(load_theory(name)) for name in
            ("ex1_t1.thy", "ex1_t2.thy", "glymour_subst.thy", "glymour_chain.thy")]
           + ["rel P 1\nfun f 1\nconst c\naxiom A x. (P(f(x)) -> P(x)) & f(c) = c\n"],
    "mod": ["size 3 rel E { (0,1) (1,2) (2,0) } rel P { (1) } fun f [ 1 2 0 ] const c 2",
            "size 2 rel E { (0,1) (1,0) }", "size 1 rel P { }"],
    "formula": ["A x. E y. (E(x,y) -> !(x=y))", "f(c) = c & P(f(c))",
                "(A x. P(x)) <-> E y. E(y,y) | !(y != c)"],
}
FUZZ_TOKENS = ["(", ")", "{", "}", "[", "]", ",", ".", "#", "\n", "\t", "\u00e9", "rel", "fun",
               "const", "size", "axiom", "A", "E", "x", "P", "f(", "=", "!=", "->", "<->", "!",
               "&", "|", "rel W 1000000\n", "fun g 40\n", "(99999999999,0)",
               "(" + ",".join(map(str, range(40))) + ")", "(1)", "(0,1)", "(2,2,2)"]
FUZZ_NUMBERS = ["0", "1", "2", "3", "-1", "40", "1048576", "1048577", "1000000000000",
                "99999999999999999999999"]


def mutated(text, mutations):
    """text with each mutation applied in turn: a token inserted between
    spaces, a span deleted or repeated, or a number replaced."""
    for kind, at, length, pick in mutations:
        at %= len(text) + 1
        if kind == "insert":
            text = f"{text[:at]} {FUZZ_TOKENS[pick % len(FUZZ_TOKENS)]} {text[at:]}"
        elif kind == "delete":
            text = text[:at] + text[at + length:]
        elif kind == "repeat":
            text = text[:at] + text[at:at + length] * 3 + text[at:]
        else:
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                m = numbers[at % len(numbers)]
                text = text[:m.start()] + FUZZ_NUMBERS[pick % len(FUZZ_NUMBERS)] + text[m.end():]
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_SEEDS)), st.integers(0, 4), st.lists(st.tuples(
    st.sampled_from(["insert", "delete", "repeat", "number"]), st.integers(0, 10 ** 6),
    st.integers(1, 12), st.integers(0, 99)), max_size=4))
def test_mutated_input_exits_0_or_2_with_one_diagnostic(tmp_path_factory, kind, seed, mutations):
    text = mutated(FUZZ_SEEDS[kind][seed % len(FUZZ_SEEDS[kind])], mutations)
    path = tmp_path_factory.getbasetemp() / f"fuzz.{kind}"
    path.write_text("rel E 2\nrel P 1\nfun f 1\nconst c\n" if kind == "formula" else text)
    budget = ("--max-nodes", "20000")
    commands = {
        "thy": [("models", "--theory", str(path), "--size", "2", "--count-only", *budget),
                ("spec", "--theory", str(path), "--max-size", "2", *budget)],
        "mod": [("aut", "--model", str(path), *budget),
                ("ultra", "--models", f"{path},{path}", "--principal", "1", *budget)],
        "formula": [("parse", "--theory", str(path), "--formula", text)],
    }[kind]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = dispatch(argv)
        lines = err.getvalue().splitlines()
        assert (code, lines) == (0, []) or \
            (code == 2 and len(lines) == 1 and lines[0].startswith("defeq: ")), (argv, text)
    if kind == "mod":
        try:
            m = parse_model_text(text)
        except (CliError, ValueError):
            return
        assert parse_model_text(model_to_text(m), m.sig) == m


def test_aut_counts_each_partial_map_tried(tmp_path, capsys):
    # with no symbols every map is tried: 3 + 3*2 + 3*2*1 partial maps at size 3,
    # and 109,600 at size 8
    small, large = tmp_path / "three.mod", tmp_path / "eight.mod"
    small.write_text("size 3")
    large.write_text("size 8")
    assert run("aut", "--model", str(small), "--max-nodes", "15") == \
        (0, "[[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]]\n")
    assert run("aut", "--model", str(small), "--max-nodes", "14") == (2, "")
    assert run("aut", "--model", str(large), "--max-nodes", "1000") == (2, "")
    assert capsys.readouterr().err == (
        "defeq: work budget exceeded while searching for isomorphisms at size 3 (limit 14)\n"
        "defeq: work budget exceeded while searching for isomorphisms at size 8 (limit 1000)\n")


SPANNING = ("rel A 1\nrel E 2\n"
            "axiom A x. A y. (E(x,y) -> A(x))\naxiom A x. !E(x,x)\n")
MOVING = ("rel A 1\nrel B 2\nrel D 1\n"
          "axiom A x. (D(x) <-> (A(x) & (E y. B(x,y))))\n"
          "axiom A x. A y. (B(x,y) -> B(y,x))\naxiom E x. (A(x) & !D(x))\n")
ALL_SPANNING = ("rel A 2\nrel B 2\n"
                "axiom A x. A y. (A(x,y) | B(y,x) | x=y)\naxiom A x. (B(x,x) -> A(x,x))\n")


def assert_exact_node_count(theory, size, models, nodes, capsys):
    argv = ("models", "--theory", theory, "--size", str(size), "--count-only")
    assert run(*argv, "--max-nodes", str(nodes)) == (0, f"{models}\n")
    assert run(*argv, "--max-nodes", str(nodes - 1)) == (2, "")
    assert capsys.readouterr().err == ("defeq: work budget exceeded while enumerating models "
                                       f"at size {size} (limit {nodes - 1})\n")


@pytest.mark.parametrize("theory, models, nodes", [
    # no disjunct spans two relations, so each relation is filtered on its own
    ("ex1_t2.thy", 538, 2075),
    # R is defined from le, so it is computed, not searched: the one (empty)
    # function/constant choice, le's 512 tables in one block of lanes plus
    # R's 3 argument tuples evaluated on it, and the 512 le tables walked,
    # each with the R it defines
    ("glymour_chain.thy", 512, 1028),
    # R is computed from c alone: each of the 3 choices of c, with R's 3
    # argument tuples evaluated at it
    ("glymour_subst.thy", 3, 12),
])
def test_the_node_count_of_a_relation_search_is_exact(theory, models, nodes, capsys):
    assert_exact_node_count(theory, 3, models, nodes, capsys)


@pytest.mark.parametrize("theory, size, models, nodes", [
    # the choice, E's 512 tables filtered by irreflexivity, then per A
    # table (8) the table and the 512 E tables sieved again by the axiom
    # that reads both, and the 125 models
    pytest.param(SPANNING, 3, 125, 1 + 512 + 8 * (1 + 512) + 125, id="spanning"),
    # D reads A and B, so it moves: the choice, B's 512 tables filtered by
    # symmetry, then per A table (8) the table and B's 512 tables sieved
    # with D's 3 argument tuples, and the 85 models
    pytest.param(MOVING, 3, 85, 1 + 512 + 8 * (1 + 512 + 3) + 85, id="moving"),
    # both axioms read A and B, so B has no filter pass: the choice, per A
    # table the table and every B table sieved, and the models
    pytest.param(ALL_SPANNING, 2, 81, 1 + 16 * (1 + 16) + 81, id="all_spanning-2"),
    pytest.param(ALL_SPANNING, 3, 19683, 1 + 512 * (1 + 512) + 19683, id="all_spanning-3"),
])
def test_the_node_count_of_a_per_prefix_sweep_is_exact(theory, size, models, nodes, tmp_path,
                                                       capsys):
    (tmp_path / "t.thy").write_text(theory)
    assert_exact_node_count(str(tmp_path / "t.thy"), size, models, nodes, capsys)


DIAMOND = ("rel A 1\nrel D1 1\nrel D2 1\nrel D3 1\n"
           "axiom A x. (D1(x) <-> (D2(x) & D3(x)))\naxiom A x. (D2(x) <-> D3(x))\n"
           "axiom A x. (D3(x) <-> A(x))\n")


def test_a_relation_two_definitions_read_is_computed_once(tmp_path, capsys):
    # D1 reads D2 and D3, and D2 reads D3: the choice, A's 8 tables in one
    # block with the 3 argument tuples of each of D1, D2 and D3 (D3 once),
    # and the 8 models
    (tmp_path / "t.thy").write_text(DIAMOND)
    assert_exact_node_count(str(tmp_path / "t.thy"), 3, 8, 1 + 8 + 3 * 3 + 8, capsys)


def test_a_long_chain_of_definitions_is_placed_without_recursion(tmp_path):
    # R0000 <-> R0001 <-> ... <-> R1100: one searched relation, 1,100
    # computed from it, more links than Python's recursion limit
    (tmp_path / "chain.thy").write_text("".join(
        [f"rel R{i:04d} 1\n" for i in range(1101)]
        + [f"axiom A x. (R{i:04d}(x) <-> R{i + 1:04d}(x))\n" for i in range(1100)]))
    assert run("models", "--theory", str(tmp_path / "chain.thy"), "--size", "1",
               "--count-only") == (0, "2\n")


def test_aut_command(tmp_path):
    mod = tmp_path / "m.mod"
    mod.write_text("size 2 rel R { (0,1) (1,0) }")
    assert run("aut", "--model", str(mod)) == (0, "[[0,1],[1,0]]\n")


def test_spec_commands():
    code, out = run("spec", "--theory", "ex1_t1.thy", "--max-size", "2")
    assert code == 0
    assert out.splitlines() == [
        "size=1 group=[[0]] order=1 classes=3 models=3",
        "size=2 group=[[0,1]] order=1 classes=12 models=24",
        "size=2 group=[[0,1],[1,0]] order=2 classes=7 models=7",
    ]
    code, out = run("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy",
                    "--size", "2")
    assert code == 1
    assert out == ("WITNESS size=2 group=[[0,1]] order=1 "
                   "left_classes=12 left_models=24 "
                   "right_classes=7 right_models=14\n")
    code, out = run("spec-compare", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                    "--max-size", "2")
    assert (code, out) == (0, "EQUAL\n")
    code, _ = run("spec", "--theory", "ex1_t1.thy", "--size", "1", "--max-size", "2")
    assert code == 2  # the two size modes exclude each other


def test_spec_compare_stops_at_the_first_differing_size():
    # size 3 would exceed the budget, but the spectra already differ at size 1
    code, out = run("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy",
                    "--max-size", "3", "--max-nodes", "1000")
    assert code == 1
    assert out == ("WITNESS size=1 group=[[0]] order=1 "
                   "left_classes=3 left_models=3 "
                   "right_classes=2 right_models=2\n")


def test_build_iso_command(tmp_path):
    renamed = tmp_path / "renamed.thy"
    renamed.write_text(theory_to_text(load_theory("ex1_t2.thy"))
                       .replace("E", "Q").replace("R", "S"))
    code, out = run("build-iso", "--t1", "ex1_t2.thy", "--t2", str(renamed),
                    "--max-size", "2", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21  # 20 pairs plus the verdict line
    assert all(" => " in line for line in lines[:-1])
    assert lines[-1].startswith("verdict universes=PASS isomorphisms=PASS "
                                "ultraproducts=PASS")
    code, out = run("build-iso", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy",
                    "--max-size", "2")
    assert code == 1 and out.startswith("WITNESS size=1")


def test_budgets_bound_the_census_sweep_and_the_verifier(tmp_path, capsys):
    # two constants: at size 3 enumeration visits 9 nodes, the census sweep
    # applies 12 permutations, and the verifier checks 1 + 4 + 9 members
    thy, copy = tmp_path / "two.thy", tmp_path / "two_copy.thy"
    thy.write_text("const a\nconst b\n")
    copy.write_text("const c\nconst d\n")
    assert run("spec", "--theory", str(thy), "--size", "3", "--max-nodes", "10") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while relabelling models at size 3 (limit 10)\n"
    build = ("build-iso", "--t1", str(thy), "--t2", str(copy), "--max-size", "3",
             "--max-nodes", "13")
    assert run(*build)[0] == 0
    assert run(*build, "--verify") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while verifying the bijection (limit 13)\n"


def test_budget_bounds_the_verifiers_ultraproduct_samples(capsys):
    # one tuple per (index size, point): 1 + 2 + ... + 16 = 136 samples
    verify = ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "1",
              "--verify", "--index-bound", "16", "--sample-budget", "1")
    assert run(*verify, "--max-nodes", "100") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while sampling ultraproduct tuples (limit 100)\n"
    code, out = run(*verify, "--max-nodes", "1000")
    assert code == 0 and out.splitlines()[-1].endswith(" checked_tuples=136")


def test_budget_bounds_the_choice_functions_of_a_verifier_product(tmp_path, capsys):
    # models of size 3 only, one class: the census applies 6 permutations,
    # the verifier checks 3 members and samples 3 tuples at k = 1, and the
    # first tuple at k = 2 has 3 * 3 choice functions
    thy, copy = tmp_path / "three.thy", tmp_path / "three_copy.thy"
    three = "axiom E x. E y. E z. (!(x=y) & !(x=z) & !(y=z))\n"
    thy.write_text("const a\n" + three)
    copy.write_text("const b\n" + three)
    build = ("build-iso", "--t1", str(thy), "--t2", str(copy), "--max-size", "3",
             "--max-nodes", "8")
    assert run(*build)[0] == 0
    assert run(*build, "--verify") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while enumerating 9 choice functions (limit 8)\n"


@pytest.mark.parametrize("argv, what", [
    # 4,270 tuples up to size 3: the 4,001st is over the budget
    (("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "3", "--verify",
      "--max-nodes", "4000"), "sampling ultraproduct tuples"),
    # one tuple per (index size, point) of three-element models: at k = 7
    # their partition has 3^7 choice functions
    (("build-iso", "--t1", "three.thy", "--t2", "three_copy.thy", "--max-size", "3", "--verify",
      "--index-bound", "16", "--sample-budget", "1", "--max-nodes", "1000"),
     "enumerating 2187 choice functions"),
])
def test_verifier_budget_exits_keep_their_lines(argv, what, tmp_path, monkeypatch, capsys):
    three = "axiom E x. E y. E z. (!(x=y) & !(x=z) & !(y=z))\n"
    (tmp_path / "three.thy").write_text("const a\n" + three)
    (tmp_path / "three_copy.thy").write_text("const b\n" + three)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"defeq: work budget exceeded while {what} (limit " \
                                      f"{argv[-1]})\n"


def test_internal_errors_exit_3(monkeypatch, capsys):
    # a census that misses one rigid size-2 model breaks closure under relabelling
    real = spectra.enumerate_models

    def one_short(t, n, budget=None):
        encs = real(t, n, budget)
        if n == 2:
            encs.remove(next(e for e in encs if automorphism_group(
                FiniteModel._from_encoding(t.sig, e)).order == 1))
        return encs

    monkeypatch.setattr(spectra, "enumerate_models", one_short)
    assert run("spec", "--theory", "ex1_t2.thy", "--size", "2") == (3, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("defeq: internal error: class of ")
    assert "orbit-stabilizer" in err[0]


def test_ultra_command(tmp_path):
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("size 1 rel P { }")
    b.write_text("size 2 rel P { (1) }")
    code, out = run("ultra", "--models", f"{a},{b}", "--principal", "1",
                    "--los-depth", "2")
    assert code == 0
    assert out.splitlines() == ["size 2 rel P { (1) }",
                                "los depth=2 formulas=4 failures=0"]
    code, _ = run("ultra", "--models", f"{a},{b}", "--principal", "2")
    assert code == 2  # point outside the index set


def test_ultra_rejects_a_negative_los_depth(tmp_path, capsys):
    a = tmp_path / "a.mod"
    a.write_text("size 1 rel P { }")
    assert run("ultra", "--models", str(a), "--principal", "0", "--los-depth", "-1") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: --los-depth takes a depth of 0 or more, got -1\n"


def test_ultra_names_only_the_bound_variables_it_can_use(tmp_path, monkeypatch, capsys):
    # depth d allows formulas of size 2^d - 1 but at most d nested
    # quantifiers, so the stream needs d bound names, not 2^d - 1
    a = tmp_path / "a.mod"
    a.write_text("size 1 rel P { }")
    drawn = 0
    real = folang._fresh_names

    def counted(*args):
        nonlocal drawn
        for name in real(*args):
            drawn += 1
            assert drawn <= 64, "more bound names than the depth allows"
            yield name

    monkeypatch.setattr(folang, "_fresh_names", counted)
    assert run("ultra", "--models", str(a), "--principal", "0", "--los-depth", "64",
               "--max-nodes", "10") == (2, "")
    assert capsys.readouterr().err == \
        "defeq: work budget exceeded while enumerating closed formulas (limit 10)\n"
    assert drawn == 64


def test_ultra_on_twenty_files_runs_under_a_small_budget(tmp_path):
    # the principal ultrafilter is a bit test, so its 2^19 member sets are
    # never built; only the one choice function counts
    paths = []
    for i in range(20):
        paths.append(tmp_path / f"m{i}.mod")
        paths[-1].write_text("size 1 rel P { }")
    models = ",".join(map(str, paths))
    assert run("ultra", "--models", models, "--principal", "3", "--max-nodes", "10") == \
        (0, "size 1 rel P { }\n")


@pytest.mark.parametrize("count", [2, 3])
def test_ultra_builds_one_product_per_command(tmp_path, monkeypatch, count):
    texts = ["size 1 rel P { }", "size 2 rel P { (1) }", "size 2 rel P { (0) (1) }"]
    paths = []
    for i, text in enumerate(texts[:count]):
        paths.append(tmp_path / f"m{i}.mod")
        paths[-1].write_text(text)
    calls = 0
    real = ultra.ultraproduct

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(ultra, "ultraproduct", counted)
    code, out = run("ultra", "--models", ",".join(map(str, paths)), "--principal", "1",
                    "--los-depth", "3")
    assert code == 0 and out.splitlines()[1] == "los depth=3 formulas=132 failures=0"
    assert calls == 1


def test_ultra_reports_the_first_los_failure(tmp_path, monkeypatch):
    # Los's theorem never fails, so a flipped verdict stands in for a broken
    # product: every formula of every level fails
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("size 1 rel P { }")
    b.write_text("size 2 rel P { (1) }")
    real = ultra.LosLevels.failures

    def flipped(self, key):
        return real(self, key) ^ (1 << self.levels.count(key)) - 1

    def refused(*args):
        raise AssertionError("ultra checked a formula on its own")

    monkeypatch.setattr(ultra.LosLevels, "failures", flipped)
    monkeypatch.setattr(ultra, "los_check", refused)
    monkeypatch.setattr(folang, "eval_formula", refused)
    code, out = run("ultra", "--models", f"{a},{b}", "--principal", "1", "--los-depth", "2")
    assert code == 1
    assert out.splitlines()[1:] == ["los depth=2 formulas=4 failures=4",
                                    "los witness: A v0. P(v0)"]


@pytest.mark.parametrize("entries", ["{a},,{a}", ",", "{a},"])
def test_ultra_rejects_an_empty_models_entry(tmp_path, capsys, entries):
    a = tmp_path / "a.mod"
    a.write_text("size 1 rel P { }")
    models = entries.format(a=a)
    assert run("ultra", "--models", models, "--principal", "0") == (2, "")
    assert capsys.readouterr().err == ("defeq: --models takes comma-separated model files, "
                                       f"got an empty entry in {models!r}\n")


@pytest.mark.parametrize("hidden", ["", ",", "R,,"])
def test_idc_rejects_an_empty_hidden_entry(capsys, hidden):
    # with nothing hidden every model is its own reduct, so OK would be vacuous
    assert run("idc", "--theory", "glymour_subst.thy", "--hidden", hidden,
               "--size", "2") == (2, "")
    assert capsys.readouterr().err == ("defeq: --hidden takes comma-separated relation "
                                       f"names, got an empty entry in {hidden!r}\n")


def test_beth_and_idc_commands(tmp_path):
    code, out = run("beth", "--theory", "glymour_subst.thy", "--target", "R",
                    "--size", "3", "--bound", "6")
    assert code == 0 and out.strip()
    code, out = run("beth", "--theory", "glymour_subst.thy", "--target", "R",
                    "--size", "2", "--bound", "1")
    assert code == 1 and out.startswith("NOTFOUND")
    loose = tmp_path / "loose.thy"
    loose.write_text("rel P 1\nrel R 1\n")
    code, out = run("idc", "--theory", str(loose), "--hidden", "R", "--size", "1")
    assert code == 1
    assert out.splitlines() == ["WITNESS",
                                "size 1 rel P { } rel R { }",
                                "size 1 rel P { } rel R { (0) }"]
    code, out = run("idc", "--theory", "glymour_subst.thy", "--hidden", "R",
                    "--size", "2")
    assert (code, out) == (0, "OK\n")


@pytest.mark.parametrize("argv", [
    ("models", "--theory", "ex1_t1.thy", "--size", "0"),
    ("spec", "--theory", "ex1_t1.thy", "--size", "0"),
    ("spec", "--theory", "ex1_t1.thy", "--max-size", "0"),
    ("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy", "--size", "0"),
    ("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy", "--max-size", "0"),
    ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "0", "--verify"),
    ("beth", "--theory", "glymour_subst.thy", "--target", "R", "--size", "0", "--bound", "3"),
    ("idc", "--theory", "glymour_subst.thy", "--hidden", "R", "--size", "-1"),
    ("subclosure", "--theory", "glymour_subst.thy", "--size", "0"),
], ids=lambda argv: " ".join(a for a in argv if a in (argv[0], "--size", "--max-size")))
def test_universe_sizes_below_one_exit_2(argv, capsys):
    # no model is checked on an empty range of sizes, so no verdict is given
    flag, value = next((a, v) for a, v in zip(argv, argv[1:]) if a.endswith("size"))
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"defeq: {flag} takes a size of 1 or more, got {value}\n"


def test_beth_rejects_a_negative_bound(capsys):
    beth = ("beth", "--theory", "glymour_subst.thy", "--target", "R", "--size", "2")
    assert run(*beth, "--bound", "-1") == (2, "")
    assert capsys.readouterr().err == "defeq: --bound takes a bound of 0 or more, got -1\n"
    assert run(*beth, "--bound", "0") == (1, "NOTFOUND target=R size<=2 bound<=0\n")


_VERIFY = ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "2",
           "--verify")


@pytest.mark.parametrize("argv, message", [
    # with no index set or no sampled tuple the ultraproduct verdict checks nothing
    ((*_VERIFY, "--index-bound", "0"), "--index-bound takes an index size of 1 or more, got 0"),
    ((*_VERIFY, "--index-bound", "-2"), "--index-bound takes an index size of 1 or more, got -2"),
    ((*_VERIFY, "--sample-budget", "0"), "--sample-budget takes a budget of 1 or more, got 0"),
    (("models", "--theory", "ex1_t1.thy", "--size", "2", "--max-nodes", "0"),
     "--max-nodes takes a limit of 1 or more, got 0"),
    (("irregular-report", "--variant", "s0", "--max-n", "0", "--bound", "100"),
     "--max-n takes a length of 1 or more, got 0"),
    (("irregular-report", "--variant", "s0", "--max-n", "2", "--bound", "0"),
     "--bound takes a bound of 1 or more, got 0"),
    (("pattern", "--variant", "s0", "--pattern", "0,2:3", "--bound", "-5"),
     "--bound takes a bound of 0 or more, got -5"),
    (("ts-axioms", "--variant", "s0", "--depth", "0"), "--depth takes a depth of 1 or more, got 0"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v.split()[0] + "=" + v.split()[-1])
def test_flags_out_of_range_exit_2(argv, message, capsys):
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"defeq: {message}\n"


@pytest.mark.parametrize("flag, value", [("--index-bound", "99"), ("--sample-budget", "7")])
def test_verifier_flags_without_verify_exit_2(flag, value, capsys):
    # only the verifier reads them, so without --verify they would do nothing
    build = ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "1")
    assert run(*build, flag, value) == (2, "")
    assert capsys.readouterr().err == f"defeq: {flag} takes effect only with --verify\n"


def test_principal_point_outside_the_index_set_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("size 1 rel P { }")
    b.write_text("size 2 rel P { (1) }")
    for point in ("2", "-1"):
        assert run("ultra", "--models", f"{a},{b}", "--principal", point) == (2, "")
        assert capsys.readouterr().err == \
            f"defeq: --principal takes a point of the index set 0..1, got {point}\n"


def test_smallest_flag_values_in_range_still_run():
    code, out = run(*_VERIFY, "--index-bound", "1", "--sample-budget", "1")
    assert code == 0
    assert out.splitlines()[-1] == ("verdict universes=PASS isomorphisms=PASS "
                                    "ultraproducts=PASS checked_tuples=1")
    assert run("pattern", "--variant", "s0", "--pattern", "0,2:3", "--bound", "0") == \
        (1, "NOTFOUND\n")
    code, out = run("irregular-report", "--variant", "s0", "--max-n", "1", "--bound", "1")
    assert code == 1
    assert out.splitlines()[-1] == "IRREGULAR-UP-TO n=1 bound=1: FAIL missing=0:1"


def test_beth_budget_counts_one_node_per_candidate(capsys):
    # the answer is candidate N of the stream, far more nodes than the
    # enumeration of glymour_subst's models takes, so N nodes are enough
    # and N - 1 run out while scanning the candidates
    beth = ("beth", "--theory", "glymour_subst.thy", "--target", "R", "--size", "2",
            "--bound", "6")
    code, out = run(*beth)
    assert code == 0
    t = load_theory("glymour_subst.thy")
    stream = enumerate_formulas(restrict(t.sig, ["c"]), ("x1",), 6)
    n = next(i for i, f in enumerate(stream, 1) if formula_to_text(f) + "\n" == out)
    assert n > 1000
    assert run(*beth, "--max-nodes", str(n)) == (0, out)
    assert run(*beth, "--max-nodes", str(n - 1)) == (2, "")
    assert capsys.readouterr().err == ("defeq: work budget exceeded while scanning "
                                       f"candidate defining formulas (limit {n - 1})\n")


MUTUAL_PAIR = "rel G 2\nrel R 1\naxiom A x. (R(x) <-> (E y. (G(x,y) & G(y,x) & !(x=y))))\n"


@pytest.mark.parametrize("size, bound, nodes, code, out", [
    # the answer is candidate 34,459 of the stream
    (2, 7, 34_459, 0, "!(E v0. A v1. G(v0,v1) -> v0=v1)\n"),
    # no candidate of size 6 or less defines R: all 254,620 are scanned
    (3, 6, 254_620, 1, "NOTFOUND target=R size<=3 bound<=6\n"),
], ids=["answer", "notfound"])
def test_beth_budget_stops_at_the_same_candidate_as_a_scan(tmp_path, capsys, size, bound,
                                                           nodes, code, out):
    # the bench's mutual pair: whole sections of candidates are ruled out
    # at once, yet the budget still counts each one up to the one checked
    thy = tmp_path / "mutual.thy"
    thy.write_text(MUTUAL_PAIR)
    beth = ("beth", "--theory", str(thy), "--target", "R", "--size", str(size),
            "--bound", str(bound))
    assert run(*beth, "--max-nodes", str(nodes)) == (code, out)
    assert run(*beth, "--max-nodes", str(nodes - 1)) == (2, "")
    assert capsys.readouterr().err == ("defeq: work budget exceeded while scanning "
                                       f"candidate defining formulas (limit {nodes - 1})\n")


def test_subclosure_command(tmp_path):
    base = tmp_path / "base.thy"
    base.write_text("const c\n")
    assert run("subclosure", "--theory", str(base), "--size", "2") == (0, "OK\n")
    code, out = run("subclosure", "--theory", "glymour_subst.thy", "--size", "3")
    assert code == 1
    assert out.splitlines() == ["WITNESS",
                                "model: size 2 rel R { (0) } const c 0",
                                "subset: 0"]


def test_subclosure_budget_bounds_the_subset_loop(capsys):
    # ex1_t2 up to size 3: enumeration ticks 2,075 nodes at size 3 on its
    # own counter, and the subsets of its 2 + 18 + 538 models number
    # 2*1 + 18*3 + 538*7 = 3,822
    argv = ("subclosure", "--theory", "ex1_t2.thy", "--size", "3")
    assert run(*argv, "--max-nodes", "3822") == (0, "OK\n")
    for limit in (3821, 3000):
        assert run(*argv, "--max-nodes", str(limit)) == (2, "")
        assert capsys.readouterr().err == ("defeq: work budget exceeded while checking "
                                           f"induced substructures (limit {limit})\n")


def test_sequence_commands():
    assert run("seq", "--variant", "master", "--range", "0..15") == \
        (0, "0 1 x 0 0 0 1 1 0 1 1 x 0 0 0\n")
    assert run("pattern", "--variant", "s0", "--pattern", "0,2:3",
               "--bound", "1000") == (0, "7\n")
    code, out = run("pattern", "--variant", "evens", "--pattern", ":2",
                    "--bound", "1000")
    assert (code, out) == (1, "NOTFOUND\n")
    code, _ = run("seq", "--variant", "master", "--range", "15")
    assert code == 2
    code, out = run("irregular-report", "--variant", "s0", "--max-n", "2",
                    "--bound", "1000")
    assert code == 0
    assert out.splitlines()[-1] == "IRREGULAR-UP-TO n=2 bound=1000: PASS"
    assert out.splitlines()[0] == "pattern=:1 first=0 count=545"
    code, out = run("irregular-report", "--variant", "evens", "--max-n", "2",
                    "--bound", "1000")
    assert code == 1 and out.splitlines()[-1].endswith("FAIL missing=:2")


MASTER = "variant 'master' has no membership; known: ['evens', 's0', 's1']"


@pytest.mark.parametrize("argv, message", [
    # master is a sequence of three symbols, not a set, so only seq takes it
    pytest.param(("pattern", "--variant", "master", "--pattern", "0:1", "--bound", "10"),
                 MASTER, id="pattern-master"),
    pytest.param(("irregular-report", "--variant", "master", "--max-n", "2", "--bound", "10"),
                 MASTER, id="irregular-report-master"),
    pytest.param(("ts-axioms", "--variant", "master", "--depth", "2"), MASTER,
                 id="ts-axioms-master"),
    pytest.param(("seq", "--variant", "bogus", "--range", "0..3"),
                 "unknown variant 'bogus'; known: ['master', 'evens', 's0', 's1']",
                 id="seq-bogus"),
    # the report holds all its patterns before its first line
    pytest.param(("irregular-report", "--variant", "s0", "--max-n", "21", "--bound", "1000"),
                 "pattern length 21 is more than 20: the report would hold 2**22 - 2 patterns "
                 "at once", id="max-n-21"),
    pytest.param(("irregular-report", "--variant", "s0", "--max-n", "64", "--bound", "1000"),
                 "pattern length 64 is more than 20: the report would hold 2**65 - 2 patterns "
                 "at once", id="max-n-64"),
])
def test_sequence_commands_refuse_what_they_cannot_do(argv, message, capsys):
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"defeq: {message}\n"


def test_ts_axioms_command():
    code, out = run("ts-axioms", "--variant", "s0", "--depth", "3")
    assert code == 0
    assert out.splitlines()[0].startswith("# PREFIX-ONLY")
    t = parse_theory_text(out, name="echo")
    assert set(t.sig.functions) == {"suc"}
    assert len(t.axioms) == 3 + 2 + 3  # literals, structure, acyclicity


def test_ts_axioms_refuses_a_depth_a_theory_file_cannot_hold(capsys):
    # the acyclicity axiom A x. !(suc^137(x)=x) is 141 levels deep, the most
    # a theory file may nest
    code, out = run("ts-axioms", "--variant", "s0", "--depth", "137")
    assert code == 0
    assert len(parse_theory_text(out).axioms) == 137 + 2 + 137
    for depth in ("138", "400"):
        assert run("ts-axioms", "--variant", "s0", "--depth", depth) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"defeq: depth {depth} is more than 137")


def test_usage_errors_and_main(capsys):
    code, _ = run("models", "--theory", "ex1_t1.thy")  # missing --size
    assert code == 2
    code, _ = run("no-such-command")
    assert code == 2
    assert main(["seq", "--variant", "master", "--range", "0..4"]) == 0
    assert capsys.readouterr().out == "0 1 x 0\n"
    # --jobs was removed; it is now an unknown argument, even with a valid count
    assert main(["--jobs=1", "seq", "--variant", "master", "--range", "0..3"]) == 2
    assert "unrecognized arguments: --jobs=1" in capsys.readouterr().err


def parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing argv; code None if it parsed."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(command, monkeypatch, capsys):
    # dispatch builds only the named command's subparser; its help, its
    # usage errors and their exit codes must be the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser([])
    cases = [["--help"], ["--bogus"], ["--size", "x"], ["--max-size"], ["--verify=1"],
             ["--theory", "t.thy", "--help"]]
    for case in cases:
        argv = [command, *case]
        one = cli._build_parser(argv)
        assert list(one._subparsers._group_actions[0].choices) == [command]
        assert parse_outcome(one, argv, capsys) == parse_outcome(full, argv, capsys), argv


def argparse_vars(argv):
    """vars() of the namespace argparse builds for argv; None when it
    refuses argv or prints help instead."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


def command_flags(command):
    """(flags, required, choice) of a command: each flag as (name, takes a
    value, is an int), the names it requires, and the names of its one size
    choice, if it has one."""
    flags, required, choice = [], [], []
    for flag in cli._COMMANDS[command][2]:
        for name, options in [flag] if isinstance(flag[0], str) else flag:
            flags.append((name, options.get("action") != "store_true", options.get("type") is int))
            if options.get("required"):
                required.append(name)
            elif not isinstance(flag[0], str):
                choice.append(name)
    return flags, required, choice


# one line gives no two flags the same value, so a repeated flag's two
# values differ
INT_WORDS = ["0", "1", "2", "3", "007", "+4", " 5"]
STR_WORDS = ["ex1_t1.thy", "a", "", "3", "x=y", "a b"]
# bad ints, and values that start with "-", which argparse may still take
NEAR_WORDS = ["x", "", "1.5", "-1", "-2", "-x", "-", "--size"]
# "wrong arity" gives a switch a value and a flag that takes one none
NEAR_FORMS = ["abbreviated", "equals", "wrong arity", "help"]


@st.composite
def command_lines(draw, command):
    """(argv, plain): a command line drawn from a command's flags and their
    near misses.  plain is True when the command comes first, then nothing
    but exact flags, each once, with values that do not start with "-"."""
    flags, required, choice = command_flags(command)
    by_name = {name: (value, is_int) for name, value, is_int in flags}
    names = required + draw(st.lists(st.sampled_from(choice), max_size=2) if choice else
                            st.just([]))
    if names and draw(st.integers(0, 5)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))
    names += [name for name in by_name
              if name not in required + choice and draw(st.booleans())]
    if names and draw(st.integers(0, 2)) == 0:
        names.append(draw(st.sampled_from(names)))
    plain = len(set(names)) == len(names)
    ints, strs = iter(draw(st.permutations(INT_WORDS))), iter(draw(st.permutations(STR_WORDS)))
    items = []
    for name in names:
        value, is_int = by_name[name]
        word = next(ints if is_int else strs)
        if draw(st.integers(0, 9)) == 0:
            word = draw(st.sampled_from(NEAR_WORDS))
        form = draw(st.sampled_from(NEAR_FORMS)) if draw(st.integers(0, 9)) == 0 else "exact"
        plain = plain and form == "exact" and not (value and word.startswith("-"))
        if form == "abbreviated":
            name = name[:draw(st.integers(3, len(name) - 1))]
        if form == "equals":
            items.append([f"{name}={word}"])
        elif form == "help":
            items.append([draw(st.sampled_from(["-h", "--help"]))])
        elif value != (form == "wrong arity"):
            items.append([name, word])
        else:
            items.append([name])
    items = draw(st.permutations(items))
    words = [command] + [word for item in items for word in item]
    if draw(st.integers(0, 7)) == 0:
        words = draw(st.permutations(words))
        plain = False
    if draw(st.integers(0, 7)) == 0:
        words.insert(0, draw(st.sampled_from(["--", "-h", "modles", command.upper()])))
        plain = False
    return words, plain


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_table_reader_reads_as_argparse(command, data):
    # a line the reader takes must parse to argparse's namespace; a plain
    # line that argparse takes must be the reader's, so that the fast path
    # cannot quietly shrink
    argv, plain = data.draw(command_lines(command))
    fast, want = cli._plain_args(argv), argparse_vars(argv)
    if fast is not None:
        assert vars(fast) == want
    elif plain:
        assert want is None


FULL_HELP = """\
usage: defeq [-h] COMMAND ...

Finite-model workbench: automorphism spectra, concrete model-class bijections,
ultraproducts, definability checks, and irregular 0/1 sequences.

positional arguments:
  COMMAND
    parse           parse a formula against a theory's signature
    models          enumerate the models of a theory at one size
    aut             automorphism group of a model
    spec            automorphism spectrum of a theory
    spec-compare    compare two spectra
    build-iso       build (and optionally verify) the spectrum-driven
                    bijection
    ultra           ultraproduct of model files
    beth            search for an explicit definition of a relation
    idc             implicit definability (unique expansion) check
    subclosure      substructure closure check
    seq             print a stretch of a sequence variant
    pattern         first occurrence of a membership pattern
    irregular-report
                    occurrence report for all patterns up to a length
    ts-axioms       emit the finite prefix theory of a variant

options:
  -h, --help        show this help message and exit
"""
CHOICES = ("(choose from 'parse', 'models', 'aut', 'spec', 'spec-compare', 'build-iso', "
           "'ultra', 'beth', 'idc', 'subclosure', 'seq', 'pattern', 'irregular-report', "
           "'ts-axioms')")
USAGE = "usage: defeq [-h] COMMAND ...\n"


# argparse's messages change between Python versions; these are CPython 3.11's
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text of CPython 3.11")
@pytest.mark.parametrize("argv, want", [
    (["--help"], (0, FULL_HELP, "")),
    (["-h", "models"], (0, FULL_HELP, "")),
    (["modles"], (2, "", f"{USAGE}defeq: error: argument COMMAND: "
                         f"invalid choice: 'modles' {CHOICES}\n")),
    # one leading "--" is dropped, so a second one is argparse's command name
    (["--", "--", "models", "--theory", "ex1_t1.thy", "--size", "2", "--count-only"],
     (2, "", f"{USAGE}defeq: error: argument COMMAND: invalid choice: '--' {CHOICES}\n")),
    (["--jobs=1", "seq", "--variant", "master", "--range", "0..3"],
     (2, "", f"{USAGE}defeq: error: unrecognized arguments: --jobs=1\n")),
])
def test_command_lines_that_name_no_command_first(argv, want, monkeypatch, capsys):
    # these need every command's parser: the listing, or argparse's own scan
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run(*argv)
    captured = capsys.readouterr()
    assert (code, captured.out + out, captured.err) == want


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text of CPython 3.11")
def test_one_leading_double_dash_is_dropped(capsys):
    # on the plain-line path and on argparse's, as if the "--" were not there
    count = ("models", "--theory", "ex1_t1.thy", "--size", "2", "--count-only")
    assert run("--", *count) == run(*count) == (0, "31\n")
    assert run("--", "models", "--theory", "ex1_t1.thy", "--size") == (2, "")
    assert run("models", "--theory", "ex1_t1.thy", "--size") == (2, "")
    err = capsys.readouterr().err
    want = "defeq models: error: argument --size: expected one argument\n"
    assert err.count(want) == 2 and err.endswith(want)


def cli_process(*argv, **options) -> subprocess.CompletedProcess:
    """python -m defeq.cli ARGV on this checkout's package, with stdout
    buffered as it is by default."""
    src = os.path.dirname(os.path.dirname(defeq.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "defeq.cli", *argv], env=env, **options)


@pytest.mark.parametrize("argv, code", [
    # 60 KB of pairs, past any one buffer of stdout
    (("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "3"), 0),
    (("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy", "--max-size", "2"), 1),
    (("models", "--theory", "ex1_t1.thy", "--size", "0"), 2),
    (("models", "--theory", "ex1_t1.thy", "--bogus"), 2),
])
def test_the_process_writes_what_dispatch_returns(argv, code, capsys):
    # the process ends with os._exit, so everything must be flushed before it
    want = run(*argv)
    want_err = capsys.readouterr().err
    done = cli_process(*argv, capture_output=True)
    assert done.returncode == want[0] == code
    assert done.stdout == want[1].encode()
    assert done.stderr == want_err.encode()


_LISTINGS = [("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", str(n),
              *verify) for n in (1, 2, 3) for verify in ((), ("--verify",))]


@pytest.mark.parametrize("argv", [
    *_LISTINGS,
    ("models", "--theory", "ex1_t2.thy", "--size", "3"),
    ("spec", "--theory", "ex1_t2.thy", "--max-size", "3"),
    ("beth", "--theory", "glymour_chain.thy", "--target", "R", "--size", "3", "--bound", "7"),
], ids=lambda argv: "-".join(a for a in argv if not a.endswith(".thy") and "--t" not in a))
def test_the_streamed_output_is_the_dispatched_text(argv):
    code, out = run(*argv)
    done = cli_process(*argv, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")


def test_a_budget_exit_streams_nothing():
    done = cli_process(*_LISTINGS[-1], "--max-nodes", "4000", capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", (
        b"defeq: work budget exceeded while sampling ultraproduct tuples (limit 4000)\n"))


def test_main_writes_a_few_hundred_lines_at_a_time(monkeypatch):
    # 2 + 18 + 538 pairs and the verdict: 256, 256 and 47 lines
    writes = []
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys.stdout, "write", writes.append)
    assert main(list(_LISTINGS[-1])) == 0
    assert [w.count("\n") for w in writes] == [256, 256, 47]
    assert (0, "".join(writes)) == run(*_LISTINGS[-1])


def test_a_closed_stdout_exits_2_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write fails with EPIPE
    try:
        done = cli_process("seq", "--variant", "master", "--range", "0..4",
                           stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"defeq: cannot write the output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, closed, want", [
    # no stdout: one line on stderr, whether or not the command would succeed
    (("seq", "--variant", "master", "--range", "0..4"), 1,
     (2, b"", b"defeq: cannot write the output: stdout is closed\n")),
    (("models", "--theory", "nosuch.thy", "--size", "1"), 1,
     (2, b"", b"defeq: cannot write the output: stdout is closed\n")),
    # no stderr: the diagnostic is dropped, never printed on stdout
    (("models", "--theory", "nosuch.thy", "--size", "1"), 2, (2, b"", b"")),
    (("seq", "--variant", "mastr", "--range", "0..4"), 2, (2, b"", b"")),
    (("seq", "--variant", "master", "--range", "0..4"), 2, (0, b"0 1 x 0\n", b"")),
])
def test_a_closed_descriptor_gets_no_traceback(argv, closed, want):
    done = cli_process(*argv, capture_output=True, preexec_fn=lambda: os.close(closed))
    assert (done.returncode, done.stdout, done.stderr) == want


def test_size_4_counts_and_census_build_no_tuple_view(monkeypatch):
    # the rels view and the printer read tuples through FiniteModel.tuples;
    # counting models and classifying them needs the bitmaps only
    def tuples(self, name):
        raise AssertionError("tuple view built")
    monkeypatch.setattr(FiniteModel, "tuples", tuples)
    assert run("models", "--theory", "ex1_t1.thy", "--size", "4", "--count-only") == \
        (0, "131071\n")  # 2 * 2**16 - 1
    code, out = run("spec", "--theory", "ex1_t2.thy", "--size", "4")
    assert code == 0
    # 2**16 + 3**6 - 1: E alone, or R asymmetric, one of them empty
    assert sum(int(line.rsplit("models=", 1)[1]) for line in out.splitlines()) == 66264


def test_search_commands_build_no_rels_view(tmp_path, monkeypatch):
    # every command reads relations off the bitmaps; the frozenset view is
    # for library callers only
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("size 3 rel E { (0,1) (1,0) (2,2) } fun f [ 1 0 2 ] const c 2")
    b.write_text("size 2 rel E { (0,1) } fun f [ 1 0 ] const c 0")
    mutual, loose = tmp_path / "mutual.thy", tmp_path / "loose.thy"
    mutual.write_text(MUTUAL_PAIR)
    loose.write_text("rel P 1\nrel R 1\n")
    commands = [
        ("models", "--theory", "ex1_t2.thy", "--size", "2"),
        ("spec", "--theory", "ex1_t2.thy", "--size", "3"),
        ("spec-compare", "--t1", "ex1_t1.thy", "--t2", "ex1_t2.thy", "--max-size", "2"),
        ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "2", "--verify"),
        ("aut", "--model", str(a)),
        ("aut", "--model", str(b)),
        ("ultra", "--models", f"{a},{b}", "--principal", "0", "--los-depth", "2"),
        ("beth", "--theory", str(mutual), "--target", "R", "--size", "2", "--bound", "7"),
        ("idc", "--theory", "glymour_chain.thy", "--hidden", "R", "--size", "3"),
        ("idc", "--theory", str(loose), "--hidden", "R", "--size", "2"),
        ("subclosure", "--theory", "glymour_subst.thy", "--size", "3"),
    ]
    expected = [run(*argv) for argv in commands]
    assert all(out for _, out in expected)

    def rels(self):
        raise AssertionError("rels view built")
    monkeypatch.setattr(FiniteModel, "rels", property(rels))
    for argv, want in zip(commands, expected):
        assert run(*argv) == want, argv


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("size 2 rel P { (0) } rel E { (0,1) (1,1) }")
    b.write_text("size 3 rel P { (1) (2) } rel E { (2,0) }")
    commands = [
        ("models", "--theory", "ex1_t2.thy", "--size", "3"),
        ("spec", "--theory", "ex1_t2.thy", "--size", "3"),
        ("build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy", "--max-size", "2", "--verify"),
        ("ultra", "--models", f"{a},{b}", "--principal", "1", "--los-depth", "2"),
    ]
    src = os.path.dirname(os.path.dirname(defeq.__file__))
    outputs = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outputs[seed] = [subprocess.run([sys.executable, "-m", "defeq.cli", *argv], env=env,
                                        capture_output=True, text=True, check=True).stdout
                         for argv in commands]
    assert all(outputs["0"])
    assert outputs["0"] == outputs["1"]

"""Acceptance gate: one test per advertised guarantee, with time caps.

Each test prints exactly one PASS line (visible with pytest -s; pytest -v
shows the same verdicts as PASSED/FAILED rows).  Every expected value here
was fixed up front, not read off the implementation.
"""

import itertools
import random
import time

from conftest import replay_images
from oracles import bijection_pairs, random_formula, random_model, restrict

from defeq import cli
from defeq.cli import dispatch, model_to_text
from defeq.folang import (
    Signature, enumerate_formulas, eval_formula, free_vars, parse_formula,
)
from defeq.groups import automorphism_group
from defeq.irregular import (
    chain_stats, irregularity_report, marker_positions, membership, symbols,
)
from defeq.models import FiniteModel, Theory, enumerate_models
from defeq.spectra import aut_spec, build_concrete_iso, compare_spectra, verify_concrete_iso
from defeq.ultra import Ultrafilter, los_check, ultraproduct
from defeq.definability import (
    DefinitionSet, beth_search, extend_theory, substructure_closure_check,
    unique_expansion_check,
)


def _pass(num, label, t0, cap):
    elapsed = time.time() - t0
    assert elapsed < cap, f"criterion {num} overran its {cap}s budget: {elapsed:.1f}s"
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)")


def test_criterion_1_rigid_binary_relations_on_two_points():
    t0 = time.time()
    sig = Signature({"R": 2}, {}, [])
    pairs = list(itertools.product(range(2), repeat=2))
    rigid = []
    for bits in range(16):
        table = {p for j, p in enumerate(pairs) if bits >> j & 1}
        m = FiniteModel(sig, 2, {"R": table})
        if automorphism_group(m).order == 1:
            rigid.append(table)
    asymmetric = [t for t in rigid
                  if all((b, a) not in t for (a, b) in t)]
    assert len(rigid) == 12
    assert len(asymmetric) == 2
    assert {frozenset(t) for t in asymmetric} == \
        {frozenset({(0, 1)}), frozenset({(1, 0)})}
    _pass(1, "12 of 16 binary relations on two points are rigid, 2 asymmetric",
          t0, 1.0)


def test_criterion_2_spectra_separate_the_two_bundled_theories(t1, t2):
    t0 = time.time()
    s1 = aut_spec(t1, [2])
    s2 = aut_spec(t2, [2])
    cells1 = {(e.group.order, e.class_count, e.model_count) for _, _, e in s1.cells()}
    assert (1, 12, 24) in cells1
    assert any(e.class_count == 7 and e.model_count == 14 and e.group.order == 1
               for _, _, e in s2.cells())
    code, out = dispatch(["spec-compare", "--t1", "ex1_t1.thy",
                          "--t2", "ex1_t2.thy", "--size", "2"])
    assert code == 1
    assert out == ("WITNESS size=2 group=[[0,1]] order=1 "
                   "left_classes=12 left_models=24 "
                   "right_classes=7 right_models=14\n")
    _pass(2, "trivial-group cell 24/12 vs 14/7 at size 2, witnessed on exit 1",
          t0, 5.0)


def test_criterion_3_renamed_theory_gets_a_verified_bijection(t2, tmp_path):
    t0 = time.time()
    renamed = tmp_path / "renamed.thy"
    renamed.write_text(cli.theory_to_text(t2).replace("E", "Q").replace("R", "S"))
    t2r = cli.load_theory(str(renamed))
    assert compare_spectra(aut_spec(t2, [1, 2]), aut_spec(t2r, [1, 2])) is None
    b = build_concrete_iso(t2, t2r, 2)
    report = verify_concrete_iso(b, t2, t2r, 2)
    assert report.universes_ok and report.universe_witness is None
    assert report.iso_ok and report.iso_witness is None
    assert report.ok
    pairs = bijection_pairs(b)
    for n in (1, 2):
        for m, images in replay_images(t2, t2r, n):
            assert images == {pairs[n][m]}, "image depends on the isomorphism"
    code, out = dispatch(["build-iso", "--t1", "ex1_t2.thy", "--t2",
                          str(renamed), "--max-size", "2", "--verify"])
    assert code == 0 and "universes=PASS isomorphisms=PASS" in out
    _pass(3, "equal spectra yield a verified, well-defined concrete bijection",
          t0, 10.0)


def test_criterion_4_product_truth_matches_quotient_truth():
    t0 = time.time()
    sig = Signature({"P": 1, "E": 2}, {}, ["c"])
    rng = random.Random(20260815)
    for _ in range(100):
        ms = [random_model(sig, rng.choice([1, 2, 3]), rng) for _ in range(rng.choice([2, 3]))]
        point = rng.randrange(len(ms))
        u = Ultrafilter.principal(point, len(ms))
        f = random_formula(sig, rng, rng.choice([2, 3, 4]))
        report = los_check(ultraproduct(ms, u), f)
        assert report.ok, f"product truth diverged on {f}"
        assert ultraproduct(ms, u).quotient == ms[point]

    # the diagonal into an ultrapower preserves every closed formula
    small_sig = Signature({"P": 1}, {}, [])
    m = FiniteModel(small_sig, 2, {"P": [(1,)]})
    for point in (0, 1):
        u = Ultrafilter.principal(point, 2)
        quotient = ultraproduct([m, m], u).quotient
        checked = 0
        for f in enumerate_formulas(small_sig, (), 7, 3):
            assert eval_formula(m, f) == eval_formula(quotient, f)
            checked += 1
        assert checked == 132
    _pass(4, "product truth agrees with quotient truth on 100 random checks "
             "and all 132 closed formulas of depth 3", t0, 30.0)


def test_criterion_5_master_sequence_prefix():
    t0 = time.time()
    assert symbols("master", 0, 15) == \
        ["0", "1", "x", "0", "0", "0", "1", "1", "0", "1", "1", "x", "0", "0", "0"]
    assert marker_positions(110) == [2, 11, 36, 101]
    _pass(5, "master sequence opens 01x000110 11x000... with markers at "
             "2, 11, 36, 101", t0, 1.0)


def test_criterion_6_every_short_pattern_recurs():
    t0 = time.time()
    for variant in ("s0", "s1"):
        report = irregularity_report(variant, 4, 100_000)
        assert report.ok, f"{variant} missed {report.missing}"
        assert len(report.entries) == 30
        assert all(e.count >= 2 for e in report.entries)
    broken = irregularity_report("evens", 2, 100_000)
    assert not broken.ok and broken.missing
    code, out = dispatch(["irregular-report", "--variant", "evens",
                          "--max-n", "2", "--bound", "1000"])
    assert code == 1 and "FAIL missing=" in out
    _pass(6, "all 30 patterns up to width 4 recur in s0 and s1; evens fails "
             "with a named witness", t0, 10.0)


def test_criterion_7_marker_chain_counts():
    t0 = time.time()
    marks = marker_positions(4000)
    assert len(marks) == 8
    for n, pos in enumerate(marks, start=1):
        st = chain_stats("s0", pos, 4000)
        assert st.ones_before == n
        assert st.zeros_after == 2 * n + 1
        assert st.zeros_after >= n + 1
        assert not st.truncated
        assert membership("s0", pos) is False
        assert membership("s1", pos) is True
    _pass(7, "marker n carries n ones before and 2n+1 zeros after, split by "
             "s0/s1 membership", t0, 5.0)


def test_criterion_8_marked_point_definability_suite(subst, chain):
    t0 = time.time()
    for t in (subst, chain):
        assert unique_expansion_check(t, ["R"], 3) is None
    phi = beth_search(subst, "R", 3, 6)
    assert phi is not None and free_vars(phi) <= {"x1"}
    base_sig = restrict(subst.sig, ["c"])
    ref = parse_formula(base_sig, "(E y. E z. !(y=z)) & x1=c")
    base = Theory(base_sig, [], name="base")
    for n in (1, 2, 3):
        for m in enumerate_models(base, n):
            for a in range(n):
                assert eval_formula(m, phi, {"x1": a}) == \
                    eval_formula(m, ref, {"x1": a})
    assert substructure_closure_check(base, 3) is None
    witness = substructure_closure_check(subst, 3)
    assert witness is not None
    m, subset = witness
    assert subset == (0,)
    assert model_to_text(m) == "size 2 rel R { (0) } const c 0"
    _pass(8, "implicit definability holds, an explicit definition is found, "
             "and closure fails exactly at the marked-point witness", t0, 60.0)


def test_criterion_9_spectra_survive_definitional_extension(subst, chain):
    t0 = time.time()
    for t, definition in ((subst, "(E y. E z. !(y=z)) & x=c"),
                          (chain, "(E y. A z. le(z,y)) & (A z. le(z,x))")):
        base_sig = restrict(t.sig, [s for s in ("c", "le") if t.sig.has_symbol(s)])
        base = Theory(base_sig, [], name="base")
        ds = DefinitionSet()
        ds.add("R", ("x",), parse_formula(base_sig, definition))
        ext = extend_theory(base, ds)
        s_base, s_ext = aut_spec(base, [1, 2, 3]), aut_spec(ext, [1, 2, 3])
        assert compare_spectra(s_base, s_ext) is None
        assert [(n, k) for n, k, _ in s_base.cells()] == \
            [(n, k) for n, k, _ in s_ext.cells()]
    _pass(9, "defining a new relation changes no spectrum cell up to size 3",
          t0, 30.0)

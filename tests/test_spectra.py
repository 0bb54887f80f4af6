"""Spectra: frozen cell counts, comparison witnesses, the concrete bijection."""

import itertools

import pytest
from conftest import replay_images

from defeq import cli, spectra
from defeq.folang import Signature
from defeq.groups import PermutationGroup, automorphism_group, group_key
from defeq.models import (
    FiniteModel, Theory, enumerate_models, find_isomorphisms, is_isomorphism,
)
from defeq.spectra import (
    Census, ConcreteBijection, SpectraMismatchError, aut_spec,
    build_concrete_iso, compare_spectra, verify_concrete_iso,
)

TRIVIAL2 = group_key(PermutationGroup(2, [(0, 1)]))
SWAP2 = group_key(PermutationGroup(2, [(0, 1), (1, 0)]))


def renamed_copy(t):
    """The same theory over fresh symbol names."""
    text = cli.theory_to_text(t).replace("E", "Q").replace("R", "S")
    return cli.parse_theory_text(text, name=t.name + "-renamed")


# ------------------------------------------------------------
# spectra of the bundled theories, values frozen
# ------------------------------------------------------------

def test_spectrum_cells_frozen(t1, t2):
    s1, s2 = aut_spec(t1, 2), aut_spec(t2, 2)

    def counts(s, n, key):
        e = s.entry(n, key)
        return (e.class_count, e.model_count)

    assert counts(s1, 2, TRIVIAL2) == (12, 24)
    assert counts(s1, 2, SWAP2) == (7, 7)
    assert counts(s2, 2, TRIVIAL2) == (7, 14)
    assert counts(s2, 2, SWAP2) == (4, 4)
    assert s1.entry(2, group_key(PermutationGroup(3, [(0, 1, 2)]))) is None


def test_report_lines_frozen(t1):
    assert aut_spec(t1, 2).report_lines() == [
        "size=1 group=[[0]] order=1 classes=3 models=3",
        "size=2 group=[[0,1]] order=1 classes=12 models=24",
        "size=2 group=[[0,1],[1,0]] order=2 classes=7 models=7",
    ]


def test_free_unary_spectrum():
    t = Theory(Signature({"P": 1}, {}, []), [], name="free")
    s = aut_spec(t, 1)
    e = s.entry(1, group_key(PermutationGroup(1, [(0,)])))
    assert (e.class_count, e.model_count) == (2, 2)


def test_model_and_class_totals_agree_with_enumeration(t2):
    s = aut_spec(t2, 2)
    for n in (1, 2):
        total = sum(e.model_count for sz, _, e in s.cells() if sz == n)
        assert total == len(enumerate_models(t2, n))


def test_compare_witness_is_first_cell_in_order(t1, t2):
    w = compare_spectra(aut_spec(t1, 2), aut_spec(t2, 2))
    assert w.describe() == ("size=1 group=[[0]] order=1 "
                            "left_classes=3 left_models=3 "
                            "right_classes=2 right_models=2")
    w2 = compare_spectra(aut_spec(t1, 0, sizes=[2]), aut_spec(t2, 0, sizes=[2]))
    assert w2.describe() == ("size=2 group=[[0,1]] order=1 "
                             "left_classes=12 left_models=24 "
                             "right_classes=7 right_models=14")


def test_compare_equal_and_range_mismatch(t2):
    s = aut_spec(t2, 2)
    assert compare_spectra(s, aut_spec(t2, 2)) is None
    assert s == aut_spec(t2, 2)
    with pytest.raises(ValueError):
        compare_spectra(s, aut_spec(t2, 1))


def test_census_classes_and_representatives(t2):
    for gkey, (group, classes) in Census(t2, 2).cells.items():
        assert group_key(group) == gkey
        for members, rep in classes:
            assert members == sorted(members, key=FiniteModel.encode)
            assert rep == min((m for m in members if automorphism_group(m) == group),
                              key=FiniteModel.encode)


def test_census_checks_orbit_stabilizer(t2, monkeypatch):
    # without one rigid size-2 model, its class is short of n!/|Aut| = 2 members
    real = spectra.enumerate_models

    def one_short(t, n, budget=None):
        ms = real(t, n, budget)
        if n == 2:
            ms.remove(next(m for m in ms if automorphism_group(m).order == 1))
        return ms

    monkeypatch.setattr(spectra, "enumerate_models", one_short)
    with pytest.raises(RuntimeError, match="orbit-stabilizer"):
        aut_spec(t2, 2)


def test_build_enumerates_each_theory_and_size_once(t2, monkeypatch):
    calls = []
    real = spectra.enumerate_models
    monkeypatch.setattr(spectra, "enumerate_models",
                        lambda t, n, budget=None: calls.append((t.name, n)) or real(t, n, budget))
    build_concrete_iso(t2, renamed_copy(t2), 2)
    assert sorted(calls) == [("ex1_t2", 1), ("ex1_t2", 2),
                             ("ex1_t2-renamed", 1), ("ex1_t2-renamed", 2)]


def test_renaming_preserves_the_spectrum(t2):
    assert compare_spectra(aut_spec(t2, 2), aut_spec(renamed_copy(t2), 2)) is None


# ------------------------------------------------------------
# the concrete bijection and its verifier
# ------------------------------------------------------------

def test_build_concrete_iso_is_a_bijection(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    source = [m for n in (1, 2) for m in enumerate_models(t2, n)]
    target = [m for n in (1, 2) for m in enumerate_models(t2r, n)]
    images = [b.apply(m) for m in source]
    assert len(source) == 20
    assert sorted(i.encode() for i in images) == sorted(m.encode() for m in target)
    for m, bm in zip(source, images):
        assert bm.size == m.size
    with pytest.raises(ValueError):
        b.apply(FiniteModel(t2.sig, 3, {"E": [], "R": []}))


def test_bijection_preserves_and_reflects_isomorphism(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    for n in (1, 2):
        ms = enumerate_models(t2, n)
        for m, other in itertools.product(ms, repeat=2):
            assert (find_isomorphisms(m, other) != []) == \
                   (find_isomorphisms(b.apply(m), b.apply(other)) != [])


def test_bijection_preserves_automorphism_groups_literally(t2):
    b = build_concrete_iso(t2, renamed_copy(t2), 2)
    for m, bm in b.items():
        assert automorphism_group(m) == automorphism_group(bm)


def test_image_does_not_depend_on_the_chosen_isomorphism(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    for n in (1, 2):
        for m, images in replay_images(t2, t2r, n):
            assert images == {b.apply(m)}


def test_image_choice_is_a_singleton_at_size_three(t2):
    # the well-definedness property on the larger size, without rebuilding b
    t2r = renamed_copy(t2)
    for m, images in replay_images(t2, t2r, 3):
        assert len(images) == 1


def test_verify_passes_on_the_built_bijection(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    report = verify_concrete_iso(b, t2, t2r, 2)
    assert report.ok
    assert report.universes_ok and report.iso_ok and report.ultra_ok
    # k=1 contributes 20 tuples, k=2 contributes 2 * 20^2
    assert report.checked_tuples == 820


def test_build_refuses_unequal_spectra(t1, t2):
    with pytest.raises(SpectraMismatchError) as err:
        build_concrete_iso(t1, t2, 2)
    assert err.value.witness.size == 1
    assert err.value.witness.left == (3, 3)
    assert err.value.witness.right == (2, 2)


def _model_with(t, n, e_table, r_table):
    e_names = sorted(t.sig.relations)
    want = {e_names[0]: frozenset(e_table), e_names[1]: frozenset(r_table)}
    for m in enumerate_models(t, n):
        if {k: m.rels[k] for k in e_names} == want:
            return m
    raise AssertionError("model not found")


def test_verifier_catches_a_cross_class_swap(t2):
    # swap the images of two rigid but non-isomorphic models
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    m1 = _model_with(t2, 2, [], [(0, 1)])
    m2 = _model_with(t2, 2, [(0, 0)], [])
    pairs = {n: dict(d) for n, d in b.pairs.items()}
    pairs[2][m1], pairs[2][m2] = pairs[2][m2], pairs[2][m1]
    report = verify_concrete_iso(ConcreteBijection(b.sizes, pairs), t2, t2r, 2)
    assert not report.ok and not report.iso_ok
    m, other, h = report.iso_witness
    assert is_isomorphism(m, other, h) != \
        is_isomorphism(pairs[m.size][m], pairs[other.size][other], h)


def test_verifier_catches_a_universe_change(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    pairs = {n: dict(d) for n, d in b.pairs.items()}
    small = sorted(pairs[1], key=FiniteModel.encode)[0]
    big_image = next(iter(pairs[2].values()))
    pairs[1][small] = big_image
    report = verify_concrete_iso(ConcreteBijection(b.sizes, pairs), t2, t2r, 2)
    assert not report.universes_ok
    assert report.universe_witness == small

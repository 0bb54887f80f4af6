"""Spectra: frozen cell counts, comparison witnesses, the concrete bijection."""

import gc
import itertools
import random
import re
import tracemalloc
import weakref

import pytest
from conftest import random_theory, replay_images
from hypothesis import assume, given, settings, strategies as st
from oracles import (bijection, bijection_pairs, census_cells, census_models, group_key,
                     listing_by_models, pairs_by_moves, spectrum_lines, ultra_verdict)

from defeq import census, cli, spectra, ultra
from defeq.budget import BudgetExceededError, NodeCounter, WorkBudget
from defeq.census import Census, Relabelling, orbits
from defeq.folang import Signature, parse_formula
from defeq.groups import PermutationGroup, automorphism_group, canonical_form
from defeq.models import (
    FiniteModel, InternalError, Theory, apply_permutation, canonical_key, enumerate_encodings,
    enumerate_models, find_isomorphisms, is_isomorphism, is_model,
)
from defeq.spectra import (
    ConcreteBijection, SpectraMismatchError, VerificationReport, aut_spec, build_concrete_iso,
    compare_spectra, verify_concrete_iso,
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
    s1, s2 = aut_spec(t1, [1, 2]), aut_spec(t2, [1, 2])

    def counts(s, n, key):
        e = s.entry(n, key)
        return (e.class_count, e.model_count)

    assert counts(s1, 2, TRIVIAL2) == (12, 24)
    assert counts(s1, 2, SWAP2) == (7, 7)
    assert counts(s2, 2, TRIVIAL2) == (7, 14)
    assert counts(s2, 2, SWAP2) == (4, 4)
    assert s1.entry(2, group_key(PermutationGroup(3, [(0, 1, 2)]))) is None


def test_report_lines_frozen(t1):
    assert aut_spec(t1, [1, 2]).report_lines() == [
        "size=1 group=[[0]] order=1 classes=3 models=3",
        "size=2 group=[[0,1]] order=1 classes=12 models=24",
        "size=2 group=[[0,1],[1,0]] order=2 classes=7 models=7",
    ]


def test_free_unary_spectrum():
    t = Theory(Signature({"P": 1}, {}, []), [], name="free")
    s = aut_spec(t, [1])
    e = s.entry(1, group_key(PermutationGroup(1, [(0,)])))
    assert (e.class_count, e.model_count) == (2, 2)


def test_model_and_class_totals_agree_with_enumeration(t2):
    s = aut_spec(t2, [1, 2])
    for n in (1, 2):
        total = sum(e.model_count for sz, _, e in s.cells() if sz == n)
        assert total == len(enumerate_models(t2, n))


def test_compare_witness_is_first_cell_in_order(t1, t2):
    w = compare_spectra(aut_spec(t1, [1, 2]), aut_spec(t2, [1, 2]))
    assert w.describe() == ("size=1 group=[[0]] order=1 "
                            "left_classes=3 left_models=3 "
                            "right_classes=2 right_models=2")
    w2 = compare_spectra(aut_spec(t1, [2]), aut_spec(t2, [2]))
    assert w2.describe() == ("size=2 group=[[0,1]] order=1 "
                             "left_classes=12 left_models=24 "
                             "right_classes=7 right_models=14")


def test_compare_equal_and_range_mismatch(t2):
    s = aut_spec(t2, [1, 2])
    assert compare_spectra(s, aut_spec(t2, [1, 2])) is None
    assert s == aut_spec(t2, [1, 2])
    with pytest.raises(ValueError):
        compare_spectra(s, aut_spec(t2, [1]))


def census_of(t, n):
    """The census of t's models of size n."""
    return Census(t.sig, n, enumerate_encodings(t, n))


def test_census_classes_and_representatives(t2):
    models = enumerate_models(t2, 2)  # in encoding order
    for gkey, (group, classes) in census_models(census_of(t2, 2)).items():
        assert group_key(group) == gkey
        for count, rep in classes:
            members = [m for m in models if find_isomorphisms(rep, m)]
            assert count == len(members)
            assert rep == next(m for m in members if automorphism_group(m) == group)


def test_census_checks_orbit_stabilizer(t2, monkeypatch):
    # without one rigid size-2 model, its class is short of n!/|Aut| = 2 members
    real = spectra.enumerate_encodings

    def one_short(t, n, budget=None):
        encs = real(t, n, budget)
        if n == 2:
            encs.remove(next(e for e in encs if automorphism_group(
                FiniteModel._from_encoding(t.sig, e)).order == 1))
        return encs

    monkeypatch.setattr(spectra, "enumerate_encodings", one_short)
    with pytest.raises(RuntimeError, match="orbit-stabilizer"):
        aut_spec(t2, [1, 2])


def test_the_irreflexive_census_at_size_4_matches_the_per_model_census():
    # loopless digraphs on 4 points: of the 218 classes, 52 have a least
    # member whose group is a conjugate of the canonical form, not the form
    # itself, so their representatives come off the form's conjugators
    sig = Signature({"E": 2})
    t = Theory(sig, [parse_formula(sig, "A x. !E(x,x)")], name="irreflexive")
    groups = [PermutationGroup(4, stabilizer) for _, _, stabilizer in orbits(
        Relabelling(sig, 4), enumerate_encodings(t, 4), NodeCounter(WorkBudget(), "test"))]
    assert (len(groups), sum(g != canonical_form(g)[0] for g in groups)) == (218, 52)
    assert list(census_models(census_of(t, 4)).items()) == list(census_cells(t, 4).items())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_orbit_census_matches_the_per_model_census(seed, size):
    t, candidates = random_theory(random.Random(seed), size)
    assume(candidates <= 1024)
    encodings = enumerate_encodings(t, size)
    assert encodings == [m.encode() for m in enumerate_models(t, size)]
    c = Census(t.sig, size, encodings)
    assert list(census_models(c).items()) == list(census_cells(t, size).items())
    # orbits' members are the per-model classes, by canonical key
    classes = {}
    for m in enumerate_models(t, size):
        classes.setdefault(canonical_key(m), []).append(m.encode())
    relabelling, nodes = Relabelling(t.sig, size), NodeCounter(WorkBudget(), "test")
    found = []
    for members, swept, _ in orbits(relabelling, encodings, nodes):
        least = FiniteModel._from_encoding(t.sig, members[0])
        assert swept == [apply_permutation(least, p).encode() for p in relabelling.perms]
        found.append(members)
    assert found == sorted(classes.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_every_image_of_a_class_sweep_is_a_model(seed, size):
    t, candidates = random_theory(random.Random(seed), size)
    assume(candidates <= 4096)
    relabelling, nodes = Relabelling(t.sig, size), NodeCounter(WorkBudget(), "test")
    for members, swept, stabilizer in orbits(relabelling, enumerate_encodings(t, size), nodes):
        assert sorted(set(swept)) == members
        least = FiniteModel._from_encoding(t.sig, members[0])
        for enc, p in zip(swept, relabelling.perms):
            image = apply_permutation(least, p)
            assert image.encode() == enc and is_model(image, t)
        assert stabilizer == find_isomorphisms(least, least)


def test_census_checks_the_sweep_against_orbit_stabilizer(t2, monkeypatch):
    # a sweep that loses an automorphism, its image replaced by a table
    # that is no model, gives a class of one stray member too many for it
    real = Relabelling.images

    def lossy(self, enc):
        swept = real(self, enc)
        if swept[-1] == enc:
            size, rel_part, fun_part, consts = enc
            swept[-1] = size, (-1, *rel_part[1:]), fun_part, consts
        return swept

    monkeypatch.setattr(Relabelling, "images", lossy)
    with pytest.raises(InternalError, match="1 of them not enumerated .* expects 2"):
        census_of(t2, 2)


def test_build_enumerates_each_theory_and_size_once(t2, monkeypatch):
    calls = []
    real = spectra.enumerate_encodings
    monkeypatch.setattr(spectra, "enumerate_encodings",
                        lambda t, n, budget=None: calls.append((t.name, n)) or real(t, n, budget))
    build_concrete_iso(t2, renamed_copy(t2), 2)
    assert sorted(calls) == [("ex1_t2", 1), ("ex1_t2", 2),
                             ("ex1_t2-renamed", 1), ("ex1_t2-renamed", 2)]


def test_build_holds_only_the_lists_of_t1(t2, monkeypatch):
    # t1's lists are the source columns; t2's go once its classes are
    # known, before the classes are paired off
    class Listed(list):
        """A list of encodings that takes weak references."""

    made = []
    real = spectra.enumerate_encodings

    def listed(t, n, budget=None):
        encodings = Listed(real(t, n, budget))
        made.append((t.name, n, weakref.ref(encodings)))
        return encodings

    def alive():
        gc.collect()
        return [(name, n) for name, n, ref in made if ref() is not None]

    seen = []
    real_pairing = spectra._paired_classes
    monkeypatch.setattr(spectra, "enumerate_encodings", listed)
    monkeypatch.setattr(spectra, "_paired_classes",
                        lambda c1, c2: seen.append(alive()) or real_pairing(c1, c2))
    b = build_concrete_iso(t2, renamed_copy(t2), 2)
    assert seen == [[("ex1_t2", 1)], [("ex1_t2", 1), ("ex1_t2", 2)]]
    assert alive() == [("ex1_t2", 1), ("ex1_t2", 2)]
    assert all(b.columns[n][0] is ref() for name, n, ref in made if name == "ex1_t2")


def test_renaming_preserves_the_spectrum(t2):
    assert compare_spectra(aut_spec(t2, [1, 2]), aut_spec(renamed_copy(t2), [1, 2])) is None


# ------------------------------------------------------------
# the concrete bijection and its verifier
# ------------------------------------------------------------

def test_build_concrete_iso_is_a_bijection(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    source = [m.encode() for n in (1, 2) for m in enumerate_models(t2, n)]
    target = [m.encode() for n in (1, 2) for m in enumerate_models(t2r, n)]
    assert (b.sizes, b.sigs) == ((1, 2), (t2.sig, t2r.sig))
    assert [enc for n in b.sizes for enc in b.columns[n][0]] == source
    images = [enc for n in b.sizes for enc in b.columns[n][1]]
    assert len(source) == 20
    assert sorted(images) == sorted(target)
    assert [bm[0] for bm in images] == [m[0] for m in source]


def test_bijection_preserves_and_reflects_isomorphism(t2):
    t2r = renamed_copy(t2)
    pairs = bijection_pairs(build_concrete_iso(t2, t2r, 2))
    for n in (1, 2):
        ms = enumerate_models(t2, n)
        for m, other in itertools.product(ms, repeat=2):
            assert (find_isomorphisms(m, other) != []) == \
                   (find_isomorphisms(pairs[n][m], pairs[n][other]) != [])


def test_bijection_preserves_automorphism_groups_literally(t2):
    for pairs in bijection_pairs(build_concrete_iso(t2, renamed_copy(t2), 2)).values():
        for m, bm in pairs.items():
            assert automorphism_group(m) == automorphism_group(bm)


def test_image_does_not_depend_on_the_chosen_isomorphism(t2):
    t2r = renamed_copy(t2)
    pairs = bijection_pairs(build_concrete_iso(t2, t2r, 2))
    for n in (1, 2):
        for m, images in replay_images(t2, t2r, n):
            assert images == {pairs[n][m]}


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
    pairs = bijection_pairs(b)
    pairs[2][m1], pairs[2][m2] = pairs[2][m2], pairs[2][m1]
    report = verify_concrete_iso(bijection(b.sigs, pairs), t2, t2r, 2)
    assert not report.ok and not report.iso_ok
    m, other, h = report.iso_witness
    assert is_isomorphism(m, other, h) != \
        is_isomorphism(pairs[m.size][m], pairs[other.size][other], h)


def test_verifier_catches_a_universe_change(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    pairs = bijection_pairs(b)
    small = sorted(pairs[1], key=FiniteModel.encode)[0]
    big_image = next(iter(pairs[2].values()))
    pairs[1][small] = big_image
    report = verify_concrete_iso(bijection(b.sigs, pairs), t2, t2r, 2)
    assert not report.universes_ok
    assert report.universe_witness == small


# ------------------------------------------------------------
# the coset verifier against the brute-force scan
# ------------------------------------------------------------

def brute_force_verdicts(b, t1, t2, max_size):
    """The |Mod|^2 * n! scan: universes and isomorphism verdicts with witnesses."""
    models1, image = {}, bijection_pairs(b)
    for n in range(1, max_size + 1):
        models1[n] = enumerate_models(t1, n)
        mod2set = set(enumerate_models(t2, n))
        seen = set()
        for m in models1[n]:
            bm = image[n][m]
            if bm in seen:
                raise ValueError(f"bijection not injective at {bm!r}")
            seen.add(bm)
            if bm.size == n and bm not in mod2set:
                raise ValueError(f"image {bm!r} is not a model of the target theory")
    universe_witness = next((m for n in models1 for m in models1[n]
                             if image[n][m].size != n), None)
    for n in range(1, max_size + 1):
        for m, other in itertools.product(models1[n], repeat=2):
            bm, bo = image[n][m], image[n][other]
            for h in itertools.permutations(range(n)):
                if is_isomorphism(m, other, h) != is_isomorphism(bm, bo, h):
                    return universe_witness, (m, other, h)
    return universe_witness, None


def assert_verdicts_agree(pairs, t1, t2, max_size=2):
    b = bijection((t1.sig, t2.sig), pairs)
    try:
        expected = brute_force_verdicts(b, t1, t2, max_size)
    except ValueError as e:
        with pytest.raises(ValueError) as err:
            verify_concrete_iso(b, t1, t2, max_size, index_bound=0)
        assert str(err.value) == str(e)
        return None
    report = verify_concrete_iso(b, t1, t2, max_size, index_bound=0)
    assert (report.universe_witness, report.iso_witness) == expected
    assert report.universes_ok == (expected[0] is None)
    assert report.iso_ok == (expected[1] is None)
    return report


@pytest.fixture(scope="module")
def built(t2):
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    relabelling, nodes = Relabelling(t2.sig, 2), NodeCounter(WorkBudget(), "test")
    classes = [[FiniteModel._from_encoding(t2.sig, enc) for enc in members]
               for members, _, _ in orbits(relabelling, enumerate_encodings(t2, 2), nodes)]
    return t2r, b, classes


def test_coset_verdict_equals_the_scan_on_broken_bijections(t2, built):
    t2r, b, classes = built
    within = next(ms for ms in classes if len(ms) > 1)
    across = [next(ms for ms in classes if len(ms) == 1), within]  # unequal groups
    outside = FiniteModel(t2r.sig, 2, {"Q": [(0, 1)], "S": [(0, 1), (1, 0)]})
    assert outside not in enumerate_models(t2r, 2)
    broken = []
    for m1, m2 in [(within[0], within[1]), (across[0][0], across[1][0])]:
        pairs = bijection_pairs(b)
        pairs[2][m1], pairs[2][m2] = pairs[2][m2], pairs[2][m1]
        broken.append(pairs)
    for change in [lambda p: p[2].update({within[0]: p[2][within[1]]}),   # not injective
                   lambda p: p[2].update({within[0]: outside}),           # outside Mod(t2)
                   lambda p: p[1].update({next(iter(p[1])): p[2][within[0]]})]:  # universe
        pairs = bijection_pairs(b)
        change(pairs)
        broken.append(pairs)
    reports = [assert_verdicts_agree(pairs, t2, t2r) for pairs in broken]
    # a swap inside a two-member class relabels that class: still a good bijection
    assert [r and (r.universes_ok, r.iso_ok) for r in reports] == \
        [(True, True), (True, False), None, None, (False, False)]
    assert assert_verdicts_agree(bijection_pairs(b), t2, t2r).ok


def test_coset_verdict_equals_the_scan_on_a_three_member_swap():
    # one unary relation: at size 3 the classes with one or two points have three members
    t1 = Theory(Signature({"P": 1}), [], name="unary")
    t2 = Theory(Signature({"U": 1}), [], name="unary-renamed")
    b = build_concrete_iso(t1, t2, 3)
    single = [m for m in enumerate_models(t1, 3) if len(m.rels["P"]) == 1]
    pairs = bijection_pairs(b)
    assert assert_verdicts_agree(pairs, t1, t2, 3).ok
    pairs[3][single[0]], pairs[3][single[1]] = pairs[3][single[1]], pairs[3][single[0]]
    report = assert_verdicts_agree(pairs, t1, t2, 3)
    assert report.universes_ok and not report.iso_ok


def test_rescan_visits_only_the_failing_classes(monkeypatch):
    # one binary relation: 512 models at size 3.  Swapping the complete
    # relation with the one missing only (2,2) fails two classes, and the
    # first failing model in encoding order is the 256th
    t1 = Theory(Signature({"E": 2}), [], name="graph")
    t2 = Theory(Signature({"Q": 2}), [], name="graph-renamed")
    b = build_concrete_iso(t1, t2, 3)
    models = enumerate_models(t1, 3)
    full, loopless2 = models[511], models[255]
    assert loopless2.rels["E"] == full.rels["E"] - {(2, 2)}
    pairs = bijection_pairs(b)
    pairs[3][full], pairs[3][loopless2] = pairs[3][loopless2], pairs[3][full]
    hashes = 0
    real_hash = FiniteModel.__hash__

    def counted(self):
        nonlocal hashes
        hashes += 1
        return real_hash(self)

    counters = []

    class Recorded(NodeCounter):
        def __init__(self, budget, what):
            super().__init__(budget, what)
            counters.append(self)

    monkeypatch.setattr(FiniteModel, "__hash__", counted)
    monkeypatch.setattr(spectra, "NodeCounter", Recorded)
    report = verify_concrete_iso(bijection(b.sigs, pairs), t1, t2, 3, index_bound=0)
    # (0, 2, 1) moves 2's missing loop to 1, so it fixes b(loopless2) = full alone
    assert report.iso_witness == (loopless2, loopless2, (0, 2, 1))
    # one node per model checked (2 + 16 + 512), then one rescanned pair
    assert [c.count for c in counters if c.what == "verifying the bijection"] == [531]
    # set lookups stay linear in |Mod|; a walk over all pairs takes over 130,000
    assert hashes < 20 * len(models)


def test_verifier_sweeps_each_class_and_its_image_once(monkeypatch):
    # one binary relation with at most one loop: 61 classes at sizes 1-3.
    # The verifier sweeps each class once to classify it, and each image
    # representative once; it computes no canonical form
    sig1, sig2 = Signature({"E": 2}), Signature({"Q": 2})
    loops = "A x. A y. (({r}(x,x) & {r}(y,y)) -> x=y)"
    t1 = Theory(sig1, [parse_formula(sig1, loops.format(r="E"))], name="one-loop")
    t2 = Theory(sig2, [parse_formula(sig2, loops.format(r="Q"))], name="one-loop-copy")
    b = build_concrete_iso(t1, t2, 3)
    classes = sum(len(cls) for n in (1, 2, 3) for _, cls in census_of(t1, n).cells.values())
    sweeps = []
    real = Relabelling.images
    monkeypatch.setattr(Relabelling, "images", lambda self, enc: sweeps.append(enc) or
                        real(self, enc))

    def no_form(group):
        raise AssertionError("canonical_form called")
    monkeypatch.setattr(census, "canonical_form", no_form)
    assert verify_concrete_iso(b, t1, t2, 3).ok
    assert classes == 61 and len(sweeps) == 2 * classes


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_coset_verdict_equals_the_scan_on_random_bijections(t2, built, seed):
    t2r, b, _ = built
    rng = random.Random(seed)
    pairs = {}
    for n, d in bijection_pairs(b).items():
        images = list(d.values())
        if rng.random() < 0.5:
            rng.shuffle(images)
        else:  # one transposition of the built bijection
            i, j = rng.randrange(len(images)), rng.randrange(len(images))
            images[i], images[j] = images[j], images[i]
        pairs[n] = dict(zip(d, images))
    assert_verdicts_agree(pairs, t2, t2r)


# ------------------------------------------------------------
# the paired sweep and the verdict on encodings, against their oracles
# ------------------------------------------------------------

def renamed_symbols(t):
    """A random theory (conftest.random_theory) over fresh symbol names,
    which sort as the old ones do."""
    names = {"P": "S", "Q": "T", "f": "g", "c": "d"}
    text = re.sub(r"\b[PQfc]\b", lambda m: names[m.group()], cli.theory_to_text(t))
    return cli.parse_theory_text(text, name="renamed")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_paired_sweep_gives_the_per_member_images(seed, size):
    t, candidates = random_theory(random.Random(seed), size)
    assume((t.sig.functions or t.sig.constants) and candidates <= 4096)
    tr = renamed_symbols(t)
    b = build_concrete_iso(t, tr, size)
    expected = pairs_by_moves(t, tr, size)
    assert [list(d.items()) for d in bijection_pairs(b).values()] == \
        [list(expected[n].items()) for n in b.sizes]


def test_paired_sweep_relabels_each_side_in_its_own_signature():
    # a constant, and a unary relation holding at exactly one point: equal
    # spectra over signatures with no arity in common
    point = Theory(Signature({}, {}, ["a"]), [], name="point")
    sig = Signature({"U": 1})
    marked = Theory(sig, [parse_formula(sig, "E x. (U(x) & (A y. (U(y) -> y=x)))")],
                    name="marked")
    b = build_concrete_iso(point, marked, 3)
    pairs = bijection_pairs(b)
    assert pairs == pairs_by_moves(point, marked, 3)
    assert [bm.tuples("U") for bm in pairs[3].values()] == [[(0,)], [(1,)], [(2,)]]
    assert verify_concrete_iso(b, point, marked, 3).ok


def perturbed(b, rng):
    """b as built, with its images shuffled within one size, or with the
    images of two models of different sizes swapped."""
    pairs = bijection_pairs(b)
    kind, filled = rng.randrange(3), [n for n in pairs if pairs[n]]
    if kind == 1:
        n = rng.choice(filled)
        images = list(pairs[n].values())
        rng.shuffle(images)
        pairs[n] = dict(zip(pairs[n], images))
    elif kind == 2 and len(filled) > 1:
        n1, n2 = rng.sample(filled, 2)
        m1, m2 = rng.choice(list(pairs[n1])), rng.choice(list(pairs[n2]))
        pairs[n1][m1], pairs[n2][m2] = pairs[n2][m2], pairs[n1][m1]
    return bijection(b.sigs, pairs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_verifier_report_equals_the_oracle_verdicts(seed, size):
    # the scan of brute_force_verdicts for universes and isomorphisms, and
    # the loop of two ultraproducts per tuple for ultraproducts
    rng = random.Random(seed)
    t, candidates = random_theory(rng, size)
    assume((t.sig.functions or t.sig.constants) and candidates <= 4096)
    models = [m for n in range(1, size + 1) for m in enumerate_models(t, n)]
    assume(models and all(sum(m.size == n for m in models) <= 40 for n in range(1, size + 1)))
    tr = renamed_symbols(t)
    b = perturbed(build_concrete_iso(t, tr, size), rng)
    universe, iso = brute_force_verdicts(b, t, tr, size)
    witness, checked = ultra_verdict(b, models)
    assert verify_concrete_iso(b, t, tr, size) == VerificationReport(
        universe is None, universe, iso is None, iso, witness is None, checked)


def test_ultra_witness_equals_the_oracle_loops(t2, monkeypatch):
    # the verifier counts the 20 + 2 * 400 tuples and agrees with the loop
    # that builds both products of each; it classifies no choice function,
    # so with the partition refused it still gives the loop's report
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    models = [m for n in (1, 2) for m in enumerate_models(t2, n)]
    report = verify_concrete_iso(b, t2, t2r, 2)
    assert (report.ultra_ok, report.checked_tuples) == (True, 820)
    assert ultra_verdict(b, models) == (None, report.checked_tuples)

    def refused(*args):
        raise AssertionError("the verifier classified choice functions")

    monkeypatch.setattr(ultra, "_classes", refused)
    monkeypatch.setattr(ultra.Ultrafilter, "classes", refused)
    assert verify_concrete_iso(b, t2, t2r, 2) == report


def test_the_constructor_encodes_as_the_builder_does(t2):
    # the oracle's bijection from model maps, made from the built one's
    b = build_concrete_iso(t2, renamed_copy(t2), 3)
    made = bijection(b.sigs, bijection_pairs(b))
    assert (made.sizes, made.sigs, made.columns) == (b.sizes, b.sigs, b.columns)


def test_the_verifier_refuses_images_over_a_foreign_signature(t2):
    # the bijection onto the renamed copy, checked against t2 as its target
    b = build_concrete_iso(t2, renamed_copy(t2), 2)
    with pytest.raises(ValueError, match=r"^image FiniteModel\(size=1, Q=\[\], S=\[\]\) "
                                         r"is not a model of the target theory$"):
        verify_concrete_iso(b, t2, t2, 2)


def test_the_verifier_refuses_a_bijection_missing_a_model(t2):
    # the least size-2 model dropped from the built bijection's map
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    pairs = bijection_pairs(b)
    missing = next(iter(pairs[2]))
    del pairs[2][missing]
    with pytest.raises(ValueError, match=f"^bijection not defined on {re.escape(repr(missing))}$"):
        verify_concrete_iso(bijection(b.sigs, pairs), t2, t2r, 2)


def test_the_verifier_builds_no_product(t2, monkeypatch):
    # the verdict is read off the collapse, so the product kernel is never
    # called, and the report is the loop's, which builds both products
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 2)
    want = ultra_verdict(b, [m for n in (1, 2) for m in enumerate_models(t2, n)])

    def refused(*args):
        raise AssertionError("the verifier built a product")

    monkeypatch.setattr(ultra, "quotient_encoding", refused)
    monkeypatch.setattr(spectra, "quotient_encoding", refused, raising=False)
    report = verify_concrete_iso(b, t2, t2r, 2)
    assert report.ok and (None, report.checked_tuples) == want


def test_an_image_off_its_universe_counts_its_choice_functions():
    # one constant, the size-1 model's image swapped with a size-2 one's:
    # with one tuple per (index size, point), the tuple (M, M) at k = 2 has
    # 1 choice function and its images 4, which their partition counts first
    t = Theory(Signature({}, {}, ["a"]), [], name="a")
    tr = Theory(Signature({}, {}, ["b"]), [], name="b")
    pairs = bijection_pairs(build_concrete_iso(t, tr, 2))
    (m1, i1), (m2, i2) = next(iter(pairs[1].items())), next(iter(pairs[2].items()))
    pairs[1][m1], pairs[2][m2] = i2, i1
    b = bijection((t.sig, tr.sig), pairs)
    with pytest.raises(BudgetExceededError, match=r"^work budget exceeded while enumerating 4 "
                                                  r"choice functions \(limit 3\)$"):
        verify_concrete_iso(b, t, tr, 2, sample_budget=1, budget=WorkBudget(3))
    report = verify_concrete_iso(b, t, tr, 2, sample_budget=1, budget=WorkBudget(4))
    assert (report.universe_witness, report.iso_witness, report.ultra_ok,
            report.checked_tuples) == (m1, (m1, m1, (0,)), True, 3)


@pytest.fixture(scope="module")
def three():
    """Two copies of a theory whose models all have 3 elements, over other
    constants, and the bijection between them up to size 3."""
    axiom = "axiom E x. E y. E z. (!(x=y) & !(x=z) & !(y=z))\n"
    t = cli.parse_theory_text("const a\n" + axiom, name="three")
    tr = cli.parse_theory_text("const b\n" + axiom, name="three_copy")
    return t, tr, build_concrete_iso(t, tr, 3)


def test_the_ultraproduct_verdict_keeps_no_partition(three):
    # one tuple per (index size, point) up to 9 points: at k = 9 a product
    # would partition 3^9 choice functions, and a class map of them took
    # 25 MB; the verifier counts them and classifies none
    t, tr, b = three
    tracemalloc.start()
    try:
        report = verify_concrete_iso(b, t, tr, 3, index_bound=9, sample_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked_tuples == 45
    assert peak < 1_000_000


@pytest.mark.parametrize("limit, space", [(8, 9), (100, 243), (19682, 19683)])
def test_the_ultraproduct_verdict_exits_where_the_products_would(three, limit, space):
    # at the first k whose 3^k choice functions pass the limit, as the loop
    # of products meets it
    t, tr, b = three
    models = [m for n in (1, 2, 3) for m in enumerate_models(t, n)]
    with pytest.raises(BudgetExceededError) as want:
        ultra_verdict(b, models, index_bound=9, sample_budget=1, budget=WorkBudget(limit))
    with pytest.raises(BudgetExceededError) as got:
        verify_concrete_iso(b, t, tr, 3, index_bound=9, sample_budget=1,
                            budget=WorkBudget(limit))
    assert str(got.value) == str(want.value) == \
        f"work budget exceeded while enumerating {space} choice functions (limit {limit})"


@pytest.mark.parametrize("index_bound, limit", [(2, 9), (5, 243)])
def test_the_ultraproduct_verdict_passes_at_a_shapes_count(three, index_bound, limit):
    # a limit equal to the choice functions of the widest shape met, 3^k at
    # the last k, passes, as the loop of products does
    t, tr, b = three
    models = [m for n in (1, 2, 3) for m in enumerate_models(t, n)]
    want = ultra_verdict(b, models, index_bound, sample_budget=1, budget=WorkBudget(limit))
    report = verify_concrete_iso(b, t, tr, 3, index_bound=index_bound, sample_budget=1,
                                 budget=WorkBudget(limit))
    assert report.ok and want == (None, report.checked_tuples)


def test_the_verifier_builds_models_for_witnesses_only(t2, monkeypatch):
    made = []
    real = FiniteModel._from_encoding.__func__

    def counted(cls, sig, enc):
        made.append(enc)
        return real(cls, sig, enc)

    monkeypatch.setattr(FiniteModel, "_from_encoding", classmethod(counted))
    assert cli.dispatch(["build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                         "--max-size", "3", "--verify"])[0] == 0
    assert made == []
    t2r = renamed_copy(t2)
    b = build_concrete_iso(t2, t2r, 3)
    # the first two models of size 3 swap images, then a size-1 and a size-2
    # model do: an isomorphism witness, then a universe one as well
    columns = {n: (sources, list(images)) for n, (sources, images) in b.columns.items()}
    images = columns[3][1]
    images[0], images[1] = images[1], images[0]
    for swap in ((), ((1, 0), (2, 0))):
        if swap:
            (n1, i1), (n2, i2) = swap
            columns[n1][1][i1], columns[n2][1][i2] = columns[n2][1][i2], columns[n1][1][i1]
        made.clear()
        report = verify_concrete_iso(ConcreteBijection(b.sizes, b.sigs, columns), t2, t2r, 3)
        witnesses = [m for m in (report.universe_witness, *report.iso_witness[:2]) if m]
        assert len(witnesses) == 2 + bool(swap) and not report.ok
        assert made == [m.encode() for m in witnesses]


# ------------------------------------------------------------
# the census, the bijection and its listing on encodings, against the
# model-by-model oracles
# ------------------------------------------------------------

def as_text(lines):
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_build_iso_and_spec_print_what_the_oracles_give(tmp_path_factory, seed, size):
    t, candidates = random_theory(random.Random(seed), size)
    assume(candidates <= 4096)
    tr = renamed_symbols(t)
    work = tmp_path_factory.mktemp("theories")
    paths = work / "t.thy", work / "renamed.thy"
    for path, theory in zip(paths, (t, tr)):
        path.write_text(cli.theory_to_text(theory))
    build = ["build-iso", "--t1", str(paths[0]), "--t2", str(paths[1]), "--max-size", str(size)]
    expected = pairs_by_moves(t, tr, size)
    listing = listing_by_models(expected)
    assert cli.dispatch(build) == (0, as_text(listing))
    assert cli.dispatch(["spec", "--theory", str(paths[0]), "--max-size", str(size)]) == \
        (0, as_text(spectrum_lines(t, range(1, size + 1))))
    b = build_concrete_iso(t, tr, size)
    assert [list(d.items()) for d in bijection_pairs(b).values()] == \
        [list(expected[n].items()) for n in b.sizes]
    models = [m for pairs in expected.values() for m in pairs]
    if len(models) <= 20:
        # the verdicts of the scan and of the loop of two ultraproducts per tuple
        oracle = bijection((t.sig, tr.sig), expected)
        witness, checked = ultra_verdict(oracle, models)
        assert brute_force_verdicts(oracle, t, tr, size) == (None, None) and witness is None
        verdict = ("verdict universes=PASS isomorphisms=PASS ultraproducts=PASS "
                   f"checked_tuples={checked}")
        assert cli.dispatch([*build, "--verify"]) == (0, as_text([*listing, verdict]))


def test_the_ex1_t2_listing_at_size_3_is_the_oracle_listing(t2):
    code, out = cli.dispatch(["build-iso", "--t1", "ex1_t2.thy", "--t2", "ex1_t2.thy",
                              "--max-size", "3"])
    assert (code, out) == (0, as_text(listing_by_models(pairs_by_moves(t2, t2, 3))))

"""Permutation groups: composition, automorphisms, canonical keys."""

import itertools

import pytest
from oracles import conjugate, group_key

from defeq.folang import Signature
from defeq.groups import (
    PermutationGroup, automorphism_group, canonical_form, compose, group_to_text, identity,
    invert,
)
from defeq.models import FiniteModel

SIG_R = Signature({"R": 2}, {}, [])


def test_composition_convention():
    # compose(p, q) applies q first
    p, q = (1, 2, 0), (0, 2, 1)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert compose(p, invert(p)) == identity(3)
    assert compose(invert(p), p) == identity(3)


def test_group_construction_validates():
    PermutationGroup(3, [(0, 1, 2), (1, 0, 2)])
    with pytest.raises(ValueError):
        PermutationGroup(3, [(1, 0, 2)])               # no identity
    with pytest.raises(ValueError):
        PermutationGroup(3, [(0, 1, 2), (1, 2, 0)])    # not closed
    with pytest.raises(ValueError):
        PermutationGroup(2, [(0, 0)])                  # not a permutation


def test_automorphism_groups_of_small_relations():
    def aut_of(table, size=2):
        return automorphism_group(FiniteModel(SIG_R, size, {"R": table}))

    assert aut_of([(0, 1), (1, 0)]).order == 2
    assert aut_of([(0, 1)]).order == 1
    assert aut_of([], 3).order == 6
    assert aut_of([(0, 0), (1, 1), (2, 2)], 3).order == 6
    assert aut_of([(0, 1), (1, 2), (2, 0)], 3).order == 3


def test_rigid_census_on_two_points():
    # swap-invariance is the independent oracle for rigidity here
    pairs = list(itertools.product(range(2), repeat=2))
    rigid = swap_invariant = 0
    for bits in range(16):
        table = {p for j, p in enumerate(pairs) if bits >> j & 1}
        swapped = {(1 - a, 1 - b) for (a, b) in table}
        if swapped == table:
            swap_invariant += 1
        elif automorphism_group(FiniteModel(SIG_R, 2, {"R": table})).order == 1:
            rigid += 1
    assert swap_invariant == 4
    assert rigid == 12


def all_subgroups_of_s3():
    perms = list(itertools.permutations(range(3)))
    for k in range(1, 7):
        for subset in itertools.combinations(perms, k):
            elems = set(subset)
            if identity(3) in elems and \
               all(compose(p, q) in elems for p in elems for q in elems):
                yield PermutationGroup(3, elems)


def test_group_key_is_a_conjugation_invariant():
    subgroups = list(all_subgroups_of_s3())
    assert len(subgroups) == 6  # 1, three copies of order 2, order 3, S3
    for g in subgroups:
        for sigma in itertools.permutations(range(3)):
            assert group_key(conjugate(g, sigma)) == group_key(g)
    # conjugate order-2 subgroups collapse to one key, so 4 keys remain
    assert len({group_key(g) for g in subgroups}) == 4


def test_canonical_form_is_minimal_in_its_class():
    for g in all_subgroups_of_s3():
        canon = canonical_form(g)
        conjugates = {conjugate(g, s) for s in itertools.permutations(range(3))}
        assert canon == min(conjugates, key=lambda h: h.elements)
        assert canon.order == g.order


def test_group_text_form():
    g = PermutationGroup(2, [(0, 1), (1, 0)])
    assert group_to_text(g) == "[[0,1],[1,0]]"
    assert group_to_text(PermutationGroup(1, [(0,)])) == "[[0]]"

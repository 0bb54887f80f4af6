import pytest

from defeq import cli
from defeq.models import apply_permutation, find_isomorphisms
from defeq.spectra import Census, _paired_classes


def replay_images(ta, tb, n):
    """Bijection images recomputed from every carrier isomorphism.

    Yields (model, image set); a singleton image set per model is what
    makes the spectrum-driven bijection well defined.
    """
    for rep1, rep2, members in _paired_classes(Census(ta, n), Census(tb, n)):
        for m in members:
            yield m, {apply_permutation(rep2, f) for f in find_isomorphisms(rep1, m)}


@pytest.fixture(scope="session")
def t1():
    return cli.load_theory("ex1_t1.thy")


@pytest.fixture(scope="session")
def t2():
    return cli.load_theory("ex1_t2.thy")


@pytest.fixture(scope="session")
def subst():
    return cli.load_theory("glymour_subst.thy")


@pytest.fixture(scope="session")
def chain():
    return cli.load_theory("glymour_chain.thy")

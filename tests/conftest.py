import pytest

from oracles import paired_members, random_formula, restrict

from defeq import cli
from defeq.folang import And, Forall, Iff, Or, Rel, Signature, Var
from defeq.models import Theory, apply_permutation, find_isomorphisms


def random_theory(rng, size):
    """(theory, raw candidate count at size): 1-2 relations of arity <= 2,
    maybe a unary function or a constant, 1-3 random axioms.  With two
    relations, half the time the first axiom is an explicit definition
    A x1..xk. (R(x1,..,xk) <-> phi) of either relation, phi free of it."""
    rels = {name: rng.randint(1, 2) for name in rng.sample(["P", "Q"], rng.randint(1, 2))}
    extra = rng.choice(["", "f", "c"])
    sig = Signature(rels, {"f": 1} if extra == "f" else {}, ["c"] if extra == "c" else [])
    candidates = 2 ** sum(size ** a for a in rels.values())
    candidates *= size ** size if extra == "f" else size if extra == "c" else 1
    axioms = []
    if len(rels) == 2 and rng.random() < 0.5:
        defined, other = rng.sample(sorted(rels), 2)
        xs = tuple(f"x{i}" for i in range(1, rels[defined] + 1))
        phi = random_formula(restrict(sig, [other, *sig.functions, *sig.constants]), rng,
                             rng.randint(1, 3), free=xs)
        ax = Iff(Rel(defined, tuple(map(Var, xs))), phi)
        for x in reversed(xs):
            ax = Forall(x, ax)
        axioms.append(ax)
    for _ in range(rng.randint(1, 3)):
        ax = random_formula(sig, rng, rng.randint(2, 4))
        for _ in range(rng.randint(0, 3)):
            ax = rng.choice([And, Or])(ax, random_formula(sig, rng, rng.randint(2, 4)))
        axioms.append(ax)
    return Theory(sig, axioms), candidates


def replay_images(ta, tb, n):
    """Bijection images recomputed from every carrier isomorphism.

    Yields (model, image set); a singleton image set per model is what
    makes the spectrum-driven bijection well defined.
    """
    for m, rep1, rep2 in paired_members(ta, tb, n):
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

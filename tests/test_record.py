"""Records and formula nodes against frozen dataclasses as the oracle.

Every Record subclass gets a twin made by dataclasses.make_dataclass with
the same fields; converting a value field by field into twins must keep
==, hash and repr exactly as they are.
"""

import copy
import dataclasses
import itertools
import pickle
import random
import typing

import pytest
from oracles import random_formula

from defeq import cli, folang
from defeq.budget import DEFAULT_MAX_NODES, WorkBudget
from defeq.definability import Definition
from defeq.folang import And, Const, Or, Signature, Var, formula_to_text, parse_formula
from defeq.irregular import ChainStats, Pattern, irregularity_report
from defeq.models import FiniteModel
from defeq.record import Record
from defeq.spectra import SpectrumWitness, VerificationReport, aut_spec
from defeq.ultra import Ultrafilter, los_check, ultraproduct


def record_classes() -> set[type]:
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


RECORDS = record_classes()
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
         for cls in RECORDS}


def twin(value):
    """value with every record in it, through tuples, replaced by its twin."""
    if isinstance(value, Record):
        return TWINS[type(value)](*(twin(getattr(value, name)) for name in value.__slots__))
    if type(value) is tuple:
        return tuple(twin(v) for v in value)
    return value


def twin_hash(value):
    try:
        return hash(value)
    except TypeError as e:
        return type(e)


SIG = Signature({"E": 2, "P": 1}, {"s": 1}, ["c"])


def sample_formulas() -> list:
    rng = random.Random(7)
    out = [random_formula(SIG, rng, rng.randint(1, 5)) for _ in range(60)]
    # equal trees built separately, so == cannot lean on identity
    return out + [parse_formula(SIG, formula_to_text(f)) for f in out]


def sample_records() -> list:
    t1 = cli.load_theory("ex1_t1.thy")
    sig = Signature({"P": 1})
    m = FiniteModel(sig, 2, {"P": [(1,)]})
    product = ultraproduct([m, m], Ultrafilter.principal(1, 2))
    entry = next(aut_spec(t1, [2]).cells())[2]
    report = irregularity_report("s0", 2, 30)
    x_eq_x = parse_formula(sig, "x = x")
    return [
        WorkBudget(), WorkBudget(10), WorkBudget(max_nodes=3),
        Definition(("x",), x_eq_x), Definition(("x", "y"), x_eq_x),
        report, *report.entries, *report.missing, Pattern(3, frozenset({0, 2})),
        ChainStats(3, 1, False), ChainStats(3, 1, True),
        entry, SpectrumWitness(2, b"\x01", entry.group, (1, 2), (0, 0)),
        VerificationReport(True, None, False, (m, m, (0, 1)), True, 5),
        product, los_check(product, parse_formula(sig, "E x. P(x)")),
    ]


NODES = {*typing.get_args(folang.Formula), *typing.get_args(folang.Term)}


def test_every_record_class_is_covered():
    assert NODES <= RECORDS and len(RECORDS) == 23
    assert RECORDS - NODES - {type(r) for r in sample_records()} == set()


def test_formula_nodes_agree_with_their_twins():
    formulas = sample_formulas()
    nodes = [node for f in formulas for node, _ in folang._walk(f)]
    assert {type(n) for n in nodes} == NODES
    for node in nodes:
        values = tuple(getattr(node, name) for name in node.__slots__)
        assert hash(node) == hash(values) == hash(twin(node))
        assert repr(node) == repr(twin(node))
    twins = [twin(f) for f in formulas]
    for (f, tf), (g, tg) in itertools.product(zip(formulas, twins), repeat=2):
        assert (f == g) is (tf == tg)
        assert (f != g) is (tf != tg)


def test_records_agree_with_their_twins():
    records = sample_records()
    for r in records:
        assert repr(r) == repr(twin(r))
        assert twin_hash(r) == twin_hash(twin(r))
        assert r == copy.copy(r) and r != twin(r)
    for a, b in itertools.product(records, repeat=2):
        assert (a == b) is (twin(a) == twin(b))


def test_connectives_with_equal_operands_differ():
    a, b = Var("x"), Const("c")
    assert And(a, b) != Or(a, b) and twin(And(a, b)) != twin(Or(a, b))
    assert And(a, b) == And(Var("x"), Const("c"))


def test_records_are_immutable():
    for r in sample_records() + sample_formulas()[:5]:
        name = r.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert not hasattr(r, "__dict__")


def test_formulas_survive_pickling():
    for f in sample_formulas():
        assert pickle.loads(pickle.dumps(f)) == f


def test_validation_still_runs():
    with pytest.raises(ValueError):
        WorkBudget(max_nodes=0)
    with pytest.raises(ValueError):
        Pattern(0, frozenset())
    with pytest.raises(ValueError):
        Definition(("x", "x"), parse_formula(SIG, "E(x, x)"))
    assert WorkBudget() == WorkBudget(DEFAULT_MAX_NODES) != WorkBudget(3)


@pytest.mark.parametrize("cls, args, kwargs", [
    (WorkBudget, (1, 2), {}), (WorkBudget, (1,), {"max_nodes": 2}),
    (WorkBudget, (), {"limit": 2}), (ChainStats, (1, 2), {}),
])
def test_bad_arguments_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)
    with pytest.raises(TypeError):
        TWINS[cls](*args, **kwargs)

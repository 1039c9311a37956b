"""The value classes: reprs, equality, hashing and immutability.

Reprs show up in error messages (an empty fiber names both elements), so
each is pinned to the text it has always had.
"""

from fractions import Fraction as F

import pytest

from fiberdist.core import FiniteMetricSpace, PairTable, Value, set_field, validate_space
from fiberdist.extension import ElementDomainError, ExtensionResult
from fiberdist.hyperspace import Subset, SubsetCoupling
from fiberdist.power import PNorm, PowerFunctor
from fiberdist.selftest import Check, CheckReport
from fiberdist.transport import Distribution, KantorovichResult, TransportPlan
from fiberdist.words import GroupWord, PointedSpace, ProperRepresentationPair


def space():
    return validate_space(["x", "y"], [[F(0), F(1, 2)], [F(1, 2), F(0)]])


SPACE = (
    "FiniteMetricSpace(points=('x', 'y'), dist=((Fraction(0, 1), Fraction(1, 2)), "
    "(Fraction(1, 2), Fraction(0, 1))), mode='metric')"
)

# (builder of a fresh value, its repr)
CASES = [
    (space, SPACE),
    (lambda: PairTable([[F(0), 1], [F(1), 0]]), "PairTable(values=((Fraction(0, 1), 1), (Fraction(1, 1), 0)))"),
    (
        lambda: ExtensionResult(F(3, 2), (0, 1), 4),
        "ExtensionResult(value=Fraction(3, 2), witness=(0, 1), fiber_size_enumerated=4, cap_limited=False)",
    ),
    (
        lambda: ExtensionResult(F(3, 2), None, 4, True),
        "ExtensionResult(value=Fraction(3, 2), witness=None, fiber_size_enumerated=4, cap_limited=True)",
    ),
    (lambda: Subset((2, 0, 2)), "Subset(members=(0, 2))"),
    (lambda: SubsetCoupling(((1, 0), (0, 1), (1, 0))), "SubsetCoupling(pairs=((0, 1), (1, 0)))"),
    (lambda: PNorm(2), "PNorm(p=2)"),
    (PNorm.max_norm, "PNorm(p=None)"),
    (
        lambda: Distribution(((1, F(1, 2)), (0, F(1, 2)))),
        "Distribution(mass=((0, Fraction(1, 2)), (1, Fraction(1, 2))))",
    ),
    (
        lambda: TransportPlan((((1, 0), F(1, 3)), ((0, 0), F(2, 3)))),
        "TransportPlan(flow=(((0, 0), Fraction(2, 3)), ((1, 0), Fraction(1, 3))))",
    ),
    (
        lambda: KantorovichResult(F(1), TransportPlan((((0, 1), F(1)),)), {0: F(0)}, {1: F(1)}),
        "KantorovichResult(value=Fraction(1, 1), plan=TransportPlan(flow=(((0, 1), Fraction(1, 1)),)), "
        "dual_row={0: Fraction(0, 1)}, dual_col={1: Fraction(1, 1)})",
    ),
    (lambda: PointedSpace(space(), 1), f"PointedSpace(space={SPACE}, basepoint=1)"),
    (lambda: GroupWord(((1, 1), (2, -1))), "GroupWord(letters=((1, 1), (2, -1)), commutative=False)"),
    (lambda: GroupWord(((1, 1),), True), "GroupWord(letters=((1, 1),), commutative=True)"),
    (lambda: ProperRepresentationPair(((0, 1, 1), (2, 2, -1))), "ProperRepresentationPair(rows=((0, 1, 1), (2, 2, -1)))"),
    (lambda: CheckReport("r", 2, ["f"], ["n"]), "CheckReport(name='r', checked=2, failures=['f'], notes=['n'])"),
    (
        lambda: Check("c", "u", None),
        "Check(name='c', unit='u', run=None, criterion=None, budget_s=0.0, full_checks=0)",
    ),
]
IDS = [text.split("(")[0] for _build, text in CASES]
# Dict fields leave a KantorovichResult unhashable; a CheckReport is filled
# in as its harness runs, so it is mutable and unhashable.
UNHASHABLE = (KantorovichResult, CheckReport)


def twin(value):
    """A value of another class with the same field names and contents."""
    cls = type(f"Twin{type(value).__name__}", (Value,), {"__slots__": type(value).__slots__})
    other = object.__new__(cls)
    for name in cls.__slots__:
        set_field(other, name, getattr(value, name))
    return other


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_equal_fields_are_equal_values(build, text):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    if isinstance(first, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_unequal_to_tuples_and_other_classes(build, text):
    value = build()
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != fields and fields != value
    assert value != fields[0]
    assert value != twin(value) and twin(value) != value


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_assignment_raises(build, text):
    value = build()
    name = type(value).__slots__[0]
    if isinstance(value, CheckReport):
        value.checked = 3
        assert value.checked == 3
        return
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_fields_differ_values_differ():
    assert GroupWord(((1, 1),), True) != GroupWord(((1, 1),), False)
    assert Subset((0,)) != Subset((1,))
    assert ExtensionResult(F(1), None, 1) != ExtensionResult(F(1), None, 1, True)


def test_a_one_point_subset_is_no_tuple_element():
    with pytest.raises(ElementDomainError):
        PowerFunctor(1, PNorm.max_norm()).validate_element(Subset((0,)), space())


def test_constructors_normalize_and_validate():
    with pytest.raises(ValueError):
        Subset(())
    with pytest.raises(ValueError):
        SubsetCoupling(())
    with pytest.raises(ValueError):
        PointedSpace(space(), 2)
    assert PairTable([[1]]).values == ((1,),)
    assert FiniteMetricSpace(("x",), ((F(0),),)).mode == "metric"

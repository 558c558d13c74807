"""The package's immutable value types behave as frozen dataclasses did.

Each of the seven classes built on ``_value.Value`` is checked for
equality (same class required), hashing, the dataclass repr, refusal to
assign or delete, pickle and deepcopy round trips, and its constructor's
validation messages.
"""

import copy
import pickle
import re

import pytest

from bistrata._value import Value
from bistrata.coeffring import ParamPoly
from bistrata.cohring import VarSpec
from bistrata.collide import NewtonDiagram, SingularitySpec
from bistrata.degrees import ClosedForm, DegreeResult, ReferenceFormula
from bistrata.strata import StratumClass, omp_stratum

# class -> (constructor arguments, the repr a frozen dataclass gave them).
# ReferenceFormula holds builtins, which pickle; the catalog's lambdas do not.
CASES = {
    VarSpec: (((("X", 3), ("L", 3)),), "VarSpec(generators=(('X', 3), ('L', 3)))"),
    NewtonDiagram: ((((0, 4), (2, 1), (3, 0)),),
                    "NewtonDiagram(vertices=((0, 4), (2, 1), (3, 0)))"),
    SingularitySpec: (("kbranch", (2, 1)),
                      "SingularitySpec(kind='kbranch', mults=(2, 1), diagram=None)"),
    StratumClass: ((omp_stratum(1).cls, 1, 2, "complete intersection"),
                   "StratumClass(cls=<CohClass deg=3 over ('X',): F^3 + (3*d - 3)*F^2*X"
                   " + (3*d^2 - 6*d + 3)*F*X^2>, aut_order=1, valid_from_d=2,"
                   " route='complete intersection')"),
    DegreeResult: ((ParamPoly([60, -60, 15]), 1, 3, "complete intersection"),
                   "DegreeResult(degree=ParamPoly([60, -60, 15]), aut_applied=1,"
                   " valid_from_d=3, route='complete intersection')"),
    ClosedForm: ((1, ((0, 0, 3), (0, 0, 12)), 6),
                 "ClosedForm(p_base=1, grid=((0, 0, 3), (0, 0, 12)), holdout=6)"),
    ReferenceFormula: (("t", max, 1, True, min),
                       "ReferenceFormula(key='t', evaluate=<built-in function max>, p_min=1,"
                       " uses_q=True, validity=<built-in function min>)"),
}
CLASSES = list(CASES)


def make(cls):
    return cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_needs_the_same_class(cls):
    a, b = make(cls), make(cls)
    assert a == b and not a != b and a is not b
    twin = type("Twin", (cls,), {"__slots__": ()})(*CASES[cls][0])
    assert twin._values() == a._values()
    assert a != twin and twin != a
    assert a != a._values()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_hash_equal(cls):
    a, b = make(cls), make(cls)
    assert hash(a) == hash(b)
    # a class's own fast equality and hash agree with the generic ones
    assert hash(a) == Value.__hash__(a) and Value.__eq__(a, b) is True


def test_singularity_spec_with_a_diagram():
    nd = NewtonDiagram(((0, 4), (3, 0)))
    a = SingularitySpec.from_diagram(nd)
    b = SingularitySpec.from_diagram(NewtonDiagram(nd.vertices))
    assert a == b and hash(a) == hash(b)
    assert a != SingularitySpec.from_diagram(nd.mirrored())
    assert repr(a) == ("SingularitySpec(kind='diagram', mults=(), "
                       "diagram=NewtonDiagram(vertices=((0, 4), (3, 0))))")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(make(cls)) == CASES[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    value = make(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    value = make(cls)
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
        assert type(restored) is cls and restored == value
        assert repr(restored) == repr(value)


def test_restored_var_spec_rebuilds_its_layout():
    ambient = VarSpec.projective(("X", "Y", "L"))
    restored = pickle.loads(pickle.dumps(ambient))
    assert restored._layout == ambient._layout
    assert restored.truncations == (3, 3, 3) and restored.index("L") == 2


@pytest.mark.parametrize("generators, message", [
    ((("X", 3), ("X", 3)), "generator names must be unique: ['X', 'X']"),
    ((("X", 0),), "truncation of X must be >= 1, got 0"),
    ((("X", True),), "truncation of X must be an integer, got True"),
    ((("X", 2.0),), "truncation of X must be an integer, got 2.0"),
    (((3, 3),), "generator name must be a string, got 3"),
])
def test_var_spec_validation_messages(generators, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VarSpec(generators)


@pytest.mark.parametrize("vertices, message", [
    ((), "a diagram needs at least one vertex"),
    (((0, -1), (2, -3)), "vertex (0, -1) leaves the positive quadrant"),
    (((0, 3), (1, 3)), "vertices must descend strictly: ((0, 3), (1, 3))"),
    (((0, 4), (2, 3), (3, 1)),
     "non-convex vertex chain: slopes [Fraction(-1, 2), Fraction(-2, 1)]"),
])
def test_newton_diagram_validation_messages(vertices, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NewtonDiagram(vertices)

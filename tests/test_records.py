"""The contract of the package's fourteen record types.

Each prints as `Name(field=value, ...)`, compares and hashes by its field
values (a `ComplexHyperplane` by its projective class), allows no
attribute to be assigned, canonicalises and validates what it is given
(also through `_replace` and `_make`), and survives a pickle round trip.  `ExpSum` and `ExpAffineCurve` are
arithmetic values, not sequences: they have no length, no order and no
repetition by an integer.
"""

import math
import pickle
from fractions import Fraction

import pytest

from curveavoid.arrangement import CollapsedRealForm, RealSubspace, TripleRank, Verdict
from curveavoid.curves import ExpAffineCurve, ExpPoly, ExpSum, exp_sum, exp_term, poly
from curveavoid.diagonals import DiagonalLine, Partition
from curveavoid.exact_linalg import gq
from curveavoid.projective import ComplexHyperplane, ProjPoint
from curveavoid.scene import Scene, parse_scene
from curveavoid.verifier import SamplingPlan, SetResult, VerificationReport

F = Fraction


def R(re, im=0):
    """The repr of the Gaussian rational re + im*i, both integers."""
    return f"GaussianRational(re=Fraction({re}, 1), im=Fraction({im}, 1))"


ONE = exp_term(1)
E_Z = exp_term(1, [0, 1])
E_Z_TEXT = f"ExpPoly(coeff={R(1)}, exponent=({R(0)}, {R(1)}))"
CURVE = ExpAffineCurve((ONE, exp_term(0), E_Z))
CURVE_TEXT = (
    f"ExpAffineCurve(components=(ExpSum(terms=(ExpPoly(coeff={R(1)}, exponent=()),)),"
    f" ExpSum(terms=()), ExpSum(terms=({E_Z_TEXT},))))"
)
AVOIDED_H = SetResult("H", "exact", "avoided", None, None)
AVOIDED_H_TEXT = (
    "SetResult(set='H', method='exact', verdict='avoided', min_margin=None, violation_sample=None)"
)
PLAN_TEXT = "SamplingPlan(disk_radius=10.0, grid_points=101, random_points=10000, seed=0, tolerance=1e-09)"

# name: (value, an equal value built another way, a different value, the value's repr, its fields)
CASES = {
    "RealSubspace": (
        RealSubspace(((2, 0, 0, 0, 0, 0),)),
        RealSubspace(forms=((F(1, 2), 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0))),
        RealSubspace(((0, 1, 0, 0, 0, 0),)),
        "RealSubspace(forms=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1),"
        " Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)),))",
        ("forms",),
    ),
    "TripleRank": (
        TripleRank((1, 2), 6),
        TripleRank(pair=(1, 2), rank=6),
        TripleRank((1, 2), 4),
        "TripleRank(pair=(1, 2), rank=6)",
        ("pair", "rank"),
    ),
    "Verdict": (
        Verdict("AllCurvesConstant", None, (TripleRank((1, 2), 6),)),
        Verdict(tag="AllCurvesConstant", witness=None, evidence=(TripleRank((1, 2), 6),)),
        Verdict("WitnessExists", CURVE, (TripleRank((1, 2), 4),)),
        "Verdict(tag='AllCurvesConstant', witness=None, evidence=(TripleRank(pair=(1, 2), rank=6),))",
        ("tag", "witness", "evidence"),
    ),
    "CollapsedRealForm": (
        CollapsedRealForm(F(1, 2), F(-3)),
        CollapsedRealForm(a=F(2, 4), b=F(-6, 2)),
        CollapsedRealForm(F(1, 2), F(3)),
        "CollapsedRealForm(a=Fraction(1, 2), b=Fraction(-3, 1))",
        ("a", "b"),
    ),
    "ExpSum": (
        exp_sum([(1, [0, 1]), (2, [])]),
        ExpSum(terms=(ExpPoly(gq(1), poly([0, 1])), ExpPoly(gq(1), ()), ExpPoly(gq(1), ()))),
        E_Z,
        f"ExpSum(terms=(ExpPoly(coeff={R(2)}, exponent=()), {E_Z_TEXT}))",
        ("terms",),
    ),
    "ExpAffineCurve": (
        CURVE,
        ExpAffineCurve(components=(exp_sum([(1, [])]), ExpSum(()), E_Z)),
        ExpAffineCurve((ONE, ONE, E_Z)),
        CURVE_TEXT,
        ("components",),
    ),
    "Partition": (
        Partition((1, 2), (3, 4)),
        Partition(left=(4, 3), right=(2, 1)),
        Partition((1, 3), (2, 4)),
        "Partition(left=(1, 2), right=(3, 4))",
        ("left", "right"),
    ),
    "DiagonalLine": (
        DiagonalLine(Partition((1,), (2,)), ProjPoint((1, 0)), ProjPoint((0, 1)), None),
        DiagonalLine(partition=Partition((2,), (1,)), p=ProjPoint((3, 0)), q=ProjPoint((0, 5)), form=None),
        DiagonalLine(Partition((1,), (2,)), ProjPoint((1, 0)), ProjPoint((1, 1)), None),
        f"DiagonalLine(partition=Partition(left=(1,), right=(2,)), p=ProjPoint(coords=({R(1)}, {R(0)})),"
        f" q=ProjPoint(coords=({R(0)}, {R(1)})), form=None)",
        ("partition", "p", "q", "form"),
    ),
    "ProjPoint": (
        ProjPoint((1, 2, 0)),
        ProjPoint(coords=(gq(0, 2), gq(0, 4), 0)),
        ProjPoint((0, 1, 0)),
        f"ProjPoint(coords=({R(1)}, {R(2)}, {R(0)}))",
        ("coords",),
    ),
    "ComplexHyperplane": (
        ComplexHyperplane((1, 2, 0)),
        ComplexHyperplane(coefficients=(gq(0, 2), gq(0, 4), 0)),
        ComplexHyperplane((0, 1, 0)),
        f"ComplexHyperplane(coefficients=({R(1)}, {R(2)}, {R(0)}))",
        ("coefficients",),
    ),
    "Scene": (
        Scene({"H": ComplexHyperplane((1, 0, 0))}, {}, {}, (("hyperplane", "H"),)),
        parse_scene("hyperplane H: z1 = 0\n"),
        Scene(),
        f"Scene(hyperplanes={{'H': ComplexHyperplane(coefficients=({R(1)}, {R(0)}, {R(0)}))}},"
        " reals={}, curves={}, order=(('hyperplane', 'H'),))",
        ("hyperplanes", "reals", "curves", "order"),
    ),
    "SamplingPlan": (
        SamplingPlan(),
        SamplingPlan(disk_radius=10.0, grid_points=101, random_points=10_000, seed=0, tolerance=1e-9),
        SamplingPlan(seed=1),
        PLAN_TEXT,
        ("disk_radius", "grid_points", "random_points", "seed", "tolerance"),
    ),
    "SetResult": (
        AVOIDED_H,
        SetResult(set="H", method="exact", verdict="avoided", min_margin=None, violation_sample=None),
        SetResult("H", "exact", "violated", None, (1.0, -2.0)),
        AVOIDED_H_TEXT,
        ("set", "method", "verdict", "min_margin", "violation_sample"),
    ),
    "VerificationReport": (
        VerificationReport("f", (AVOIDED_H,), True, (((1.0, 0.0), (0.0, 0.0)),), SamplingPlan()),
        VerificationReport(
            curve="f",
            results=(AVOIDED_H,),
            projection_constant=True,
            projection_values=(((1.0, 0.0), (0.0, 0.0)),),
            plan=SamplingPlan(seed=0),
        ),
        VerificationReport("f", (AVOIDED_H,), False, (((1.0, 0.0), (0.0, 0.0)),), SamplingPlan()),
        f"VerificationReport(curve='f', results=({AVOIDED_H_TEXT},), projection_constant=True,"
        f" projection_values=(((1.0, 0.0), (0.0, 0.0)),), plan={PLAN_TEXT})",
        ("curve", "results", "projection_constant", "projection_values", "plan"),
    ),
}
NAMES = sorted(CASES)


def test_every_record_type_is_covered():
    assert len(CASES) == 14
    assert all(type(CASES[name][0]).__name__ == name for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_each_field(name):
    value, same, _, text, _ = CASES[name]
    assert repr(value) == text
    if name != "ComplexHyperplane":  # keeps its coefficients as given
        assert repr(same) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_by_value(name):
    value, same, other, _, _ = CASES[name]
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != object()


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_that_of_the_fields(name):
    value, same, _, _, fields = CASES[name]
    if name == "Scene":  # its tables are dicts
        with pytest.raises(TypeError):
            hash(value)
        return
    fields = tuple(getattr(value, f) for f in fields)
    hashed = value.canonical() if name == "ComplexHyperplane" else fields
    assert hash(value) == hash(same) == hash(hashed)


@pytest.mark.parametrize("name", NAMES)
def test_no_attribute_can_be_assigned(name):
    value, _, other, text, fields = CASES[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
    with pytest.raises((AttributeError, TypeError)):  # nor can a name that is not a field
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    value = CASES[name][0]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert (copy, repr(copy)) == (value, repr(value))


def test_scene_tables_are_not_shared():
    first, second = Scene(), Scene(reals={"S": CASES["RealSubspace"][0]})
    assert (first.hyperplanes, second.hyperplanes, second.curves, second.order) == ({}, {}, {}, ())
    assert first.hyperplanes is not second.hyperplanes
    assert first.reals is not Scene().reals


@pytest.mark.parametrize("name", ["ExpSum", "ExpAffineCurve"])
@pytest.mark.parametrize(
    "operation",
    [lambda v: 2 * v, len, lambda v: v < v, lambda v: v <= v, iter],
    ids=["times-int", "len", "lt", "le", "iter"],
)
def test_arithmetic_values_are_not_sequences(name, operation):
    with pytest.raises(TypeError):
        operation(CASES[name][0])


PLAN_BOUNDS = "at most 1001 grid points per axis and 1000000 random points"

INVALID = [
    (lambda: RealSubspace(()), "a real subspace needs at least one defining form"),
    (lambda: RealSubspace(((1, 0, 0),)), "defining forms have 6 coefficients"),
    (lambda: RealSubspace(((0,) * 6, (0,) * 6)), "zero form does not cut out a proper subspace"),
    (lambda: ExpAffineCurve((ONE, ONE)), "curves here have exactly 3 components"),
    (lambda: ExpAffineCurve((ExpSum(()),) * 3), "the zero curve has no projective image"),
    (lambda: ExpAffineCurve.from_terms((1, ()), (1, ())), "three components expected"),
    (lambda: Partition((1, 2), (3,)), "blocks must have equal size"),
    (lambda: Partition((1, 2), (3, 5)), "blocks must partition 1..4"),
    (lambda: Partition((1, 1), (2, 3)), "blocks must partition 1..4"),
    (
        lambda: DiagonalLine(Partition((1,), (2,)), ProjPoint((1, 0)), ProjPoint((2, 0)), None),
        "a diagonal needs two distinct points",
    ),
    (lambda: ProjPoint((1,)), "point needs at least 2 homogeneous coordinates"),
    (lambda: ProjPoint((0, 0, 0)), "zero vector does not determine a point"),
    (lambda: ComplexHyperplane((1,)), "a hyperplane needs at least 2 coefficients"),
    (lambda: ComplexHyperplane((0, gq(0), 0)), "zero form does not define a hyperplane"),
    (lambda: SamplingPlan(disk_radius=math.nan), "disk radius and tolerance must be positive and finite"),
    (lambda: SamplingPlan(disk_radius=math.inf), "disk radius and tolerance must be positive and finite"),
    (lambda: SamplingPlan(tolerance=0.0), "disk radius and tolerance must be positive and finite"),
    (lambda: SamplingPlan(grid_points=0), "sample counts must be positive"),
    (lambda: SamplingPlan(random_points=-1), "sample counts must be positive"),
    (lambda: SamplingPlan(grid_points=1002), PLAN_BOUNDS),
    (lambda: SamplingPlan(random_points=1_000_001), PLAN_BOUNDS),
    (
        lambda: SamplingPlan(grid_points=2, random_points=0),
        "a grid of fewer than 3 points per axis puts no sample in the disk; random points are needed",
    ),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[m for _, m in INVALID])
def test_invalid_input_names_its_fault(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# name: (a value, field changes its constructor rejects or canonicalises, fields its constructor canonicalises)
REBUILT = {
    "RealSubspace": (CASES["RealSubspace"][0], {"forms": ((1, 2),)}, (((2, 0, 0, 0, 0, 0), (4, 0, 0, 0, 0, 2)),)),
    "ProjPoint": (CASES["ProjPoint"][0], {"coords": (0, 0)}, ((gq(0, 2), 4),)),
    "ComplexHyperplane": (CASES["ComplexHyperplane"][0], {"coefficients": (0, gq(0))}, ((1, 2, 0),)),
    "Partition": (CASES["Partition"][0], {"right": (3,)}, ((3, 4), (1, 2))),
    "DiagonalLine": (
        CASES["DiagonalLine"][0],
        {"q": ProjPoint((2, 0))},
        (Partition((2,), (1,)), ProjPoint((3, 0)), ProjPoint((0, 5)), None),
    ),
    "Scene": (CASES["Scene"][0], {"hyperplanes": None}, (None, None, None, ())),
    "SamplingPlan": (SamplingPlan(), {"disk_radius": math.nan, "grid_points": 0}, (5, 41, 200, 3, 1e-6)),
}


@pytest.mark.parametrize("name", sorted(REBUILT))
def test_replace_and_make_build_through_the_constructor(name):
    value, changes, fields = REBUILT[name]
    cls = type(value)
    if name == "Scene":  # the constructor takes None for a table and makes it a new dict
        assert value._replace(**changes) == cls(**(value._asdict() | changes)) == Scene(order=value.order)
    else:
        with pytest.raises(ValueError) as rejected:
            cls(**(value._asdict() | changes))
        with pytest.raises(ValueError) as info:
            value._replace(**changes)
        assert str(info.value) == str(rejected.value)
    made = cls._make(fields)
    assert type(made) is cls and repr(made) == repr(cls(*fields))

"""The contract of the immutable record classes (``troplane.record.Record``).

Each of the 19 result classes keeps what it had as a frozen dataclass: its
field order, positional and keyword construction, a ``Name(field=value)``
repr (pinned here as the dataclass printed it), field-wise ``==`` that is
never true for another class, ``hash`` of the tuple of fields,
``AttributeError`` on assignment, and ``copy``/``pickle`` support.  Their
``__init__`` is the one ``Record`` compiles from ``__slots__``.
``TropMatrix3`` and ``ProjPoint`` are records with their own validating
constructors; they and the results holding them copy and pickle too.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import troplane
from troplane.arrangement import (AntennaCell, Arrangement, Cell,
                                  CellSignature, StrictIneq)
from troplane.mapping import CellBehavior, PiecewiseReport, piecewise_report
from troplane.matrices import IDENTITY, DetResult, MonomialMatrix, TropMatrix3
from troplane.normalform import (CanonicalParams, CanonicalResult,
                                 Normalization, canonical_form, make_F,
                                 normalize, params)
from troplane.projective import AffinePoint, ProjPoint, TropLine, point
from troplane.record import Record
from troplane.scalars import TropScalar
from troplane.svgfig import Viewport
from troplane.triangle import Antenna, HRep, TriangleReport, analyze

SIG = CellSignature(frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3}))
SIG_R = ("CellSignature(s1=frozenset({1}), s2=frozenset({2, 3}), "
         "s3=frozenset({1, 2, 3}))")
PT = AffinePoint(F(1, 2), F(-3))
PT_R = "AffinePoint(x=Fraction(1, 2), y=Fraction(-3, 1))"
CELL = Cell(SIG, 2, False, PT, ((1, 0), (1, 1)))
CELL_R = (f"Cell(signature={SIG_R}, dim=2, bounded=False, witness={PT_R}, "
          "recession_dirs=((1, 0), (1, 1)))")
MM = MonomialMatrix((1, 2, 0), (F(0), F(-1), F(5, 3)))
MM_R = ("MonomialMatrix(perm=(1, 2, 0), "
        "offsets=(Fraction(0, 1), Fraction(-1, 1), Fraction(5, 3)))")
ID_R = "TropMatrix3([0 -inf -inf; -inf 0 -inf; -inf -inf 0])"
PARAMS = CanonicalParams(F(1), (F(0), F(2), F(1, 2)), (F(0), F(1), F(0)), F(3))
PARAMS_R = ("CanonicalParams(d=Fraction(1, 1), dv=(Fraction(0, 1), "
            "Fraction(2, 1), Fraction(1, 2)), h=(Fraction(0, 1), "
            "Fraction(1, 1), Fraction(0, 1)), g=Fraction(3, 1))")
RESULT = CanonicalResult(PARAMS, MM, MM, IDENTITY)
RESULT_R = f"CanonicalResult(params={PARAMS_R}, P={MM_R}, Q={MM_R}, F={ID_R})"
ANT = Antenna(point(0, -1, 0), "W", F(3, 2))
ANT_R = ("Antenna(base=ProjPoint([0, -1, 0]), direction='W', "
         "length=Fraction(3, 2))")
INEQ = StrictIneq(F(1), F(-1), F(0))
INEQ_R = "StrictIneq(cx=Fraction(1, 1), cy=Fraction(-1, 1), rhs=Fraction(0, 1))"

CASES = [
    (SIG, SIG_R),
    (PT, PT_R),
    (CELL, CELL_R),
    (MM, MM_R),
    (PARAMS, PARAMS_R),
    (RESULT, RESULT_R),
    (ANT, ANT_R),
    (INEQ, INEQ_R),
    (Arrangement((CELL,)), f"Arrangement(cells=({CELL_R},))"),
    (AntennaCell("h2", (INEQ,), CELL),
     f"AntennaCell(which='h2', inequalities=({INEQ_R},), cell={CELL_R})"),
    (CellBehavior(CELL, "collapse-to-antenna", PT, ((0, -1),), (PT,)),
     f"CellBehavior(cell={CELL_R}, behavior='collapse-to-antenna', "
     f"target={PT_R}, directions=((0, -1),), samples=({PT_R},))"),
    (PiecewiseReport(IDENTITY, ()),
     f"PiecewiseReport(matrix={ID_R}, entries=())"),
    (DetResult(None, False), "DetResult(value=None, regular=False)"),
    (Normalization(IDENTITY, MM, MonomialMatrix.identity()),
     f"Normalization(N={ID_R}, P={MM_R}, Q=MonomialMatrix(perm=(0, 1, 2), "
     "offsets=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))))"),
    (TropLine(point(0, None, -1)), "TropLine(coeffs=ProjPoint([0, -inf, -1]))"),
    (TropScalar(F(-5, 4)), "TropScalar(-5/4)"),
    (Viewport(F(-20), F(20), F(-1, 3), F(1, 3)),
     "Viewport(x_min=Fraction(-20, 1), x_max=Fraction(20, 1), "
     "y_min=Fraction(-1, 3), y_max=Fraction(1, 3))"),
    (TriangleReport(True, PARAMS, 1, (ANT,), False, True, (PT,), RESULT),
     f"TriangleReport(good=True, params={PARAMS_R}, soma_dim=1, "
     f"antennas=({ANT_R},), pinwheel=False, convex=True, "
     f"soma_vertices_chart=({PT_R},), canonical={RESULT_R})"),
    (HRep(F(0), F(1), F(-2), F(2), F(-1, 2), F(3)),
     "HRep(x_min=Fraction(0, 1), x_max=Fraction(1, 1), y_min=Fraction(-2, 1), "
     "y_max=Fraction(2, 1), diff_min=Fraction(-1, 2), diff_max=Fraction(3, 1))"),
]
IDS = [type(x).__name__ for x, _ in CASES]


def _twin(cls):
    """Another record class with cls's name and fields."""
    return type(cls.__name__, (Record,), {"__slots__": cls.__slots__})


def test_every_record_class_is_covered():
    for info in pkgutil.iter_modules(troplane.__path__):
        importlib.import_module(f"troplane.{info.name}")
    found = {cls for cls in Record.__subclasses__()
             if cls.__module__.startswith("troplane.")}
    assert found == {type(x) for x, _ in CASES} | {TropMatrix3, ProjPoint}
    assert len(set(IDS)) == len(IDS)


def test_generated_init_names_its_class():
    assert list(inspect.signature(Cell).parameters) == list(Cell.__slots__)
    with pytest.raises(TypeError, match=r"^Cell\.__init__\(\) missing 3 "):
        Cell(1, 2)


@pytest.mark.parametrize("x, pinned", CASES, ids=IDS)
def test_record_contract(x, pinned):
    cls = type(x)
    names = cls.__slots__
    values = tuple(getattr(x, n) for n in names)
    assert repr(x) == pinned
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x
    assert not cls(*values) != x
    twin = _twin(cls)(*values)
    assert x != twin and not x == twin
    assert x != values and not x == values
    assert x.__eq__(twin) is NotImplemented
    assert hash(x) == hash(values) == hash(cls(*values))
    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    with pytest.raises(AttributeError):
        x.extra = 1
    assert copy.copy(x) == x


def test_records_pickle():
    for x in (PARAMS, CELL, MM):  # fields that pickle themselves
        assert pickle.loads(pickle.dumps(x)) == x


A = TropMatrix3.of([[0, 3, -1], [2, 0, 1], [-2, 4, 0]])
HELD = {
    "IDENTITY": IDENTITY,
    "point": point(1, None, 0),
    "normalize": normalize(A),
    "canonical_form": canonical_form(A),
    "analyze": analyze(A),
    "piecewise_report": piecewise_report(
        make_F(params(0, (0, 6, 1), (0, 1, 0), 4))),
}


@pytest.mark.parametrize("x", HELD.values(), ids=HELD)
def test_matrix_and_point_holders_copy_and_pickle(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)


@pytest.mark.parametrize("x", [IDENTITY, point(1, None, 0)],
                         ids=["TropMatrix3", "ProjPoint"])
def test_matrix_and_point_are_immutable(x):
    with pytest.raises(AttributeError):
        x.values = x.values
    with pytest.raises(AttributeError):
        del x.values
    with pytest.raises(AttributeError):
        x.extra = 1

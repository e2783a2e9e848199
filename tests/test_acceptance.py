"""The thirteen acceptance checks, one test each, at full trial counts.

Each test prints a single PASS/FAIL line (visible even under captured
output).  All comparisons are exact.
"""

import random
import time
from fractions import Fraction

from troplane import verify
from troplane.mapping import apply, project
from troplane.matrices import TropMatrix3, power
from troplane.normalform import canonical_form, make_F, make_L, params
from troplane.projective import cross, point
from troplane.scalars import plane_norm, trop_distance
from troplane.triangle import analyze, is_pinwheel, soma_dimension
from troplane.arrangement import bounded_complex, enumerate_cells

PINWHEEL_A = TropMatrix3.of([[0, 1, 3], [0, 3, 4], [0, 0, 0]])
TWO_ANTENNA = TropMatrix3.of([[0, -5, 0], [-7, 0, 0], [-6, -1, 0]])


def _report(capsys, n, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {n:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance check {n} ({label}) failed"


def _suite_ok(name, trials, seed="acceptance"):
    fn = dict(verify.SUITES)[name]
    failures = fn(random.Random(f"{seed}:{name}"), trials)
    return not failures, failures


def test_01_worked_pipeline(capsys):
    start = time.perf_counter()
    result = canonical_form(PINWHEEL_A)
    elapsed = time.perf_counter() - start
    expect_p = params(Fraction(1, 3), (0, 0, 1), (0, 1, 1), 0)
    expect_f = TropMatrix3.of([
        [0, Fraction(-1, 3), Fraction(-8, 3)],
        [Fraction(-2, 3), 0, Fraction(-4, 3)],
        [Fraction(-1, 3), Fraction(-5, 3), 0],
    ])
    ok = (result.params == expect_p and make_F(result.params) == expect_f
          and elapsed < 0.1)
    _report(capsys, 1, "canonical pipeline", ok)


def test_02_two_antenna_example(capsys):
    result = canonical_form(TWO_ANTENNA)
    rep = analyze(TWO_ANTENNA)
    ants = sorted((a.direction, a.length) for a in rep.antennas)
    ok = (result.params == params(0, (0, 6, 1), (0, 1, 0), 4)
          and not is_pinwheel(TWO_ANTENNA)
          and ants == [("S", Fraction(1)), ("W", Fraction(4))])
    _report(capsys, 2, "antenna parameters", ok)


def test_03_apply_project_values(capsys):
    l = make_L(3, (9, 2, 4))
    p = point(-12, 0, 0)
    ok = (apply(l, p) == point(-5, 0, 0)
          and project(l, p) == point(-10, -5, 0))
    _report(capsys, 3, "map vs projector values", ok)


def test_04_norm_values(capsys):
    ok = (plane_norm(-5, -2) == 5 and plane_norm(-3, 5) == 8
          and trop_distance((-2, -2), (0, 0)) == 2)
    _report(capsys, 4, "norm and distance", ok)


def test_05_cross_values(capsys):
    first = cross(point(3, 4, 6), point(-2, 0, 8))
    second = cross(point(-2, 0, 8), point(1, 1, 0))
    third = cross(first, second)
    ok = (first == point(12, 11, 3) and second == point(9, 9, 1)
          and third == point(-1, 0, 8) and third != point(-2, 0, 8))
    _report(capsys, 5, "cross products", ok)


def test_06_power_chain(capsys):
    ok, _ = _suite_ok("power-chain", 10_000)
    _report(capsys, 6, "power/adjoint chain 10^4", ok)


def test_07_square_root_law(capsys):
    ok1, _ = _suite_ok("sqrt-law", 1_000)
    ok2, _ = _suite_ok("sqrt-negative-control", 100)
    _report(capsys, 7, "square-root law 10^3 + control 10^2", ok1 and ok2)


def test_08_canonical_invariance(capsys):
    ok, fails = _suite_ok("canonical-invariance", 1_000)
    _report(capsys, 8, "canonical invariance 10^3", ok)


def test_09_origin_vs_normality(capsys):
    ok, fails = _suite_ok("origin-vs-normality", 1_000)
    if not ok:
        with capsys.disabled():
            print(f"  ({len(fails)} mismatches; first: {fails[0]})")
    _report(capsys, 9,
            "normal => origin in soma <=> distinct-row column maxima 10^3", ok)


def test_10_census(capsys):
    ok, _ = _suite_ok("arrangement-census", 500)
    zero = enumerate_cells(TropMatrix3.of([[0] * 3] * 3))
    ok = ok and len(zero.cells) == 7 and zero.counts() == (1, 3, 3)
    _report(capsys, 10, "arrangement census 500", ok)


def test_11_piecewise_behavior(capsys):
    ok, _ = _suite_ok("piecewise-behavior", 100)
    _report(capsys, 11, "piecewise behavior 100", ok)


def test_12_soma_dimension_corrections(capsys):
    seg = make_L(0, (0, 0, 1))
    cell, _ = bounded_complex(seg)
    ok = soma_dimension(params(0, (0, 0, 1))) == 1 and cell is None
    ok2, _ = _suite_ok("bounded-vs-soma", 1_000)
    _report(capsys, 12, "soma-dimension corrections 10^3", ok and ok2)


def test_13_collinearity(capsys):
    ok, _ = _suite_ok("collinearity", 1_000)
    _report(capsys, 13, "collinearity preservation 10^3", ok)

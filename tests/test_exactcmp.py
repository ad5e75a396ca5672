import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cmp_scaled_sqrt, sqrt_approx

from hampack.exactcmp import cmp_sqrt

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
nonneg = st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=40)


def _sign(x: float) -> int:
    return (x > 1e-12) - (x < -1e-12)


@settings(max_examples=400, deadline=None)
@given(rationals, nonneg)
def test_cmp_sqrt_matches_float(q, a):
    expect = _sign(float(q) - math.sqrt(float(a)))
    got = cmp_sqrt(q, a)
    if expect != 0:
        assert got == expect


@settings(max_examples=400, deadline=None)
@given(rationals, nonneg, rationals)
def test_cmp_scaled_sqrt_matches_float(c, x, d):
    expect = _sign(float(c) * math.sqrt(float(x)) - float(d))
    if expect != 0:
        assert cmp_scaled_sqrt(c, x, d) == expect


def test_exact_boundaries():
    assert cmp_sqrt(Fraction(2), 4) == 0
    assert cmp_sqrt(Fraction(-1), 0) == -1
    assert cmp_sqrt(Fraction(0), 0) == 0
    assert cmp_scaled_sqrt(0, 7, 0) == 0
    assert cmp_scaled_sqrt(-2, 4, -4) == 0
    assert cmp_scaled_sqrt(3, 0, 0) == 0


@settings(max_examples=200, deadline=None)
@given(nonneg)
def test_sqrt_approx_precision(a):
    approx = sqrt_approx(a, 9)
    true = math.sqrt(float(a))
    assert abs(float(approx) - true) < 2e-9

"""Exact comparisons between rationals and square-root expressions.

All extremality and bound checks compare integers/rationals against
quantities of the form c + sqrt(a) or c*sqrt(a) with a rational.
Comparing on squared forms keeps every verdict exact; floats only ever
appear in *display* values, never in decisions.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

Rat = Fraction | int


def as_fraction(x: Rat | float) -> Fraction:
    """x as a Fraction, a float read as the decimal it prints as: 0.1
    is 1/10, not the binary double just above it."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def _sign(q: Rational) -> int:
    return (q > 0) - (q < 0)


def cmp_sqrt(q: Rat, a: Rat) -> int:
    """Sign of q - sqrt(a) for rational q and rational a >= 0."""
    if a < 0:
        raise ValueError(f"sqrt of negative rational {a}")
    if q < 0:
        return -1
    return _sign(Fraction(q) * q - a)


def cmp_scaled_sqrt(c: Rat, x: Rat, d: Rat) -> int:
    """Sign of c*sqrt(x) - d for rational c, d and rational x >= 0."""
    if x < 0:
        raise ValueError(f"sqrt of negative rational {x}")
    lhs_sign = _sign(c) if x > 0 else 0
    if lhs_sign == 0:
        return _sign(-d)
    if lhs_sign > 0:
        if d < 0:
            return 1
        return _sign(Fraction(c) * c * x - Fraction(d) * d)
    # c*sqrt(x) < 0
    if d >= 0:
        return -1
    return _sign(Fraction(d) * d - Fraction(c) * c * x)


def sqrt_approx(a: Rat, digits: int = 9) -> Fraction:
    """Rational approximation of sqrt(a) accurate to 10**-digits."""
    if a < 0:
        raise ValueError(f"sqrt of negative rational {a}")
    a = Fraction(a)
    scale = 10 ** digits
    # isqrt(a * scale^2) / scale underestimates by < 1/scale
    from math import isqrt

    val = isqrt((a.numerator * scale * scale) // a.denominator)
    return Fraction(val, scale)

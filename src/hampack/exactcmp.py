"""Exact comparisons between rationals and square-root expressions.

The extremality checks compare rationals against square roots of
rationals.  Comparing on squared forms keeps every verdict exact;
floats only ever appear in *display* values, never in decisions.
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

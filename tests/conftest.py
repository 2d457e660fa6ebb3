"""Shared helpers for the test suite.

Most golden values here are either worked out by hand (small resultants,
Sturm chains) or frozen from an independent computation noted next to the
value; proportionality up to a nonzero rational factor is the right notion of
equality for resultant-derived polynomials, so `proportional` is used
throughout instead of `==` where a scalar factor is immaterial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import settings

from algprog.polycore import MultiPoly
from algprog.radicals import Interval
from algprog.uni import trim

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p == c * q for some nonzero rational c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    m = next(iter(p.terms))
    c = Fraction(p.terms[m]) / q.terms[m]
    if c == 0:
        return False
    return all(cp == c * q.terms[mm] for mm, cp in p.terms.items())


def is_canonical(c) -> bool:
    """A `MultiPoly` coefficient in canonical form: an int, or a Fraction
    that is not integral; never zero, never a float."""
    return (type(c) is int or type(c) is Fraction and c.denominator > 1) and c != 0


def divides(d: MultiPoly, p: MultiPoly) -> bool:
    """True when d divides p exactly."""
    from algprog.polycore import try_divexact

    return try_divexact(p, d) is not None


def strip_factor(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Divide out every copy of d from p."""
    from algprog.polycore import try_divexact

    while True:
        q = try_divexact(p, d)
        if q is None:
            return p
        p = q


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)


def integral(c) -> list[int]:
    """A rational coefficient list (index = power) times the lcm of its
    denominators, trimmed: the integer list of `algprog.uni`."""
    den = lcm(*(Fraction(x).denominator for x in c))
    return trim([int(x * den) for x in c])


def uni_eval(c, x: Fraction) -> Fraction:
    """The value of a coefficient list at x, by Horner in Fractions: the
    reference for the integer sign kernel."""
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


class RefInterval(Interval):
    """`Interval` with Fraction arithmetic: the oracle that the integer
    kernel of `algprog.radicals` must reproduce endpoint for endpoint."""

    def __add__(self, other: Interval) -> RefInterval:
        return RefInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: Interval) -> RefInterval:
        return RefInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: Interval) -> RefInterval:
        a, b = (other, self) if other.lo == other.hi else (self, other)
        if a.lo == a.hi:
            # a point scales the other operand: two products ordered by its
            # sign give the same endpoints as all four
            c = a.lo
            if c >= 0:
                return RefInterval(b.lo * c, b.hi * c)
            return RefInterval(b.hi * c, b.lo * c)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RefInterval(min(products), max(products))

    def __neg__(self) -> RefInterval:
        return RefInterval(-self.hi, -self.lo)

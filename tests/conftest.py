"""Shared helpers for the test suite.

Most golden values here are either worked out by hand (small resultants,
Sturm chains) or frozen from an independent computation noted next to the
value; proportionality up to a nonzero rational factor is the right notion of
equality for resultant-derived polynomials, so `proportional` is used
throughout instead of `==` where a scalar factor is immaterial.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import settings

from algprog.polycore import MultiPoly, PolyError, VarId
from algprog.radicals import Interval, SamplingError
from algprog.uni import trim
from algprog.verify import condition_holds

settings.register_profile("suite", deadline=None, max_examples=60)
# a deeper property run, chosen with --hypothesis-profile=deep
settings.register_profile("deep", deadline=None, max_examples=500)
settings.load_profile("suite")

# Hypothesis prints a falsifying example through `libcst` where that is
# installed, and `libcst` imports `typing_inspect`, which warns on import
# that `mypy_extensions.TypedDict` is deprecated.  Under `-W error` that one
# warning turns a failing property into an INTERNALERROR without its
# example.  A mark on each test outranks `-W`, an ini `filterwarnings` entry
# does not; every other warning still errors.
_TYPED_DICT_WARNING = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_TYPED_DICT_WARNING)


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


def resultant_degree_bound(p: MultiPoly, q: MultiPoly, v: VarId, w: VarId) -> int:
    """Degree bound in `w` for res_v(p, q):  d_p,w * d_q,v + d_p,v * d_q,w;
    the reference bound that resultants are checked against."""
    if p.is_zero() or q.is_zero():
        raise PolyError("degree bound of a zero polynomial")
    return max(p.degree_in(w), 0) * max(q.degree_in(v), 0) + max(
        p.degree_in(v), 0
    ) * max(q.degree_in(w), 0)


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

    @classmethod
    def point(cls, c: Fraction) -> RefInterval:
        return cls(c, c)

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


def reference_sample_in_component(component, rng: random.Random, max_tries: int = 500):
    """Rejection sampling in the anchor box as it stood before the walk kept
    a memo: every draw builds its point and tests every condition.  The
    oracle that `algprog.verify.sample_in_component` must reproduce draw for
    draw."""
    anchor = dict(component.sample)
    for shrink in range(4 + 1):
        box = Fraction(1, 16**shrink)
        for _ in range(max_tries):
            point = {
                v: a + box * Fraction(rng.randint(-40, 40), 40)
                for v, a in anchor.items()
            }
            if all(condition_holds(c, point) for c in component.conditions):
                return point
    raise SamplingError(
        f"rejection sampling exhausted near {component.label or 'component'}"
    )


def reference_component_points(component, rng: random.Random, limit: int):
    """The sample walk without a memo: the component's sample, then
    `reference_sample_in_component` draws, `limit` points in all."""
    for n in range(limit):
        yield (
            dict(component.sample)
            if n == 0
            else reference_sample_in_component(component, rng)
        )


def reference_tally_points(points, check, limit: int):
    """`algprog.verify.tally_points` without its memo: every point is
    checked, repeats included."""
    used = 0
    for n, point in enumerate(points):
        counts, failure = check(n, point)
        used += counts
        if failure:
            return used, failure
        if counts and used == limit:
            break
    return used, None


def use_walk_without_memo(monkeypatch) -> None:
    """Make the verifier's sample walks run as before they kept a memo."""
    import algprog.verify as verify_module

    monkeypatch.setattr(verify_module, "component_points", reference_component_points)
    monkeypatch.setattr(verify_module, "tally_points", reference_tally_points)

"""Dense univariate polynomials with integer coefficients.

A polynomial is a list of ints, index = power, with no zero top
coefficient, defined up to a positive factor: scaling by a positive
rational changes no sign and no root, so lists are kept primitive wherever
that keeps the numbers small.  Every function here takes and returns such
lists; only interval endpoints are `Fraction`s.

The sign of c at a rational a/b is read off b^n * c(a/b), computed by
homogeneous integer Horner.  Real roots are isolated with Sturm chains
(integer pseudo-remainders, each made primitive); the counts at the ends of
the Cauchy bound, beyond every root, are read from the chain's leading
coefficients and degrees, not evaluated.  A `Bracket` holds one
isolating interval as integers over a doubling denominator and halves it in
place; `refine_root` and `sign_at_root` both bisect through it, and a caller
that passes one bracket to several `sign_at_root` calls refines the root
once, each call going on from where the last one stopped.  The sign of q at
the root of p in a bracket is decided in this order: integer interval Horner
on the bracket, then a few halvings with the same test, and only if q's
sign is still undecided gcd(p, q) with a Sturm count, which settles zero
exactly; halving then continues until the interval test certifies the sign,
which terminates because the root is simple.  A degree-0 gcd of c and c' modulo
`IMAGE_PRIME` usually proves c square-free; otherwise a primitive remainder
sequence gives the gcd, by which c is divided exactly (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2 and 10).

`isolate_product_roots` cuts the line at the roots of several factors over
their square-free basis, not over their product: each factor is made
square-free and coprime to the earlier ones (the same image proof first,
then an exact gcd), isolated with its own Sturm chain, and the product's
bisection is replayed with counts read from those roots, so its square-free
part and intervals are the ones `isolate_roots` gives for the product.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence


def trim(c: list[int]) -> list[int]:
    """Drop the zero top coefficients of `c` in place; return `c`."""
    while c and not c[-1]:
        c.pop()
    return c


def primitive(c: Sequence[int]) -> Sequence[int]:
    """`c` divided by its (positive) content, which changes no sign."""
    g = math.gcd(*c)
    return [n // g for n in c] if g > 1 else c


def multiply(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b for nonzero `a` and `b`."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def derivative(c: Sequence[int]) -> list[int]:
    return trim([c[e] * e for e in range(1, len(c))])


def sign_at(c: Sequence[int], a: int, b: int) -> int:
    """Sign of `c` at x = a/b (b > 0), read off b^n * c(a/b)."""
    acc = 0
    scale = 1
    for coeff in reversed(c):
        acc = acc * a + coeff * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def interval_sign(c: Sequence[int], a: int, b: int, d: int) -> int:
    """Sign of `c` on [a/d, b/d] (d > 0) when interval Horner proves it,
    else 0.  The enclosure is of d^n * c on the interval, all in integers."""
    low = high = 0
    scale = 1
    for coeff in reversed(c):
        products = (low * a, low * b, high * a, high * b)
        term = coeff * scale
        low, high = min(products) + term, max(products) + term
        scale *= d
    return 1 if low > 0 else -1 if high < 0 else 0


# ---------------------------------------------------------------------------
# Remainders, gcds and square-free parts.
# ---------------------------------------------------------------------------


def negated_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """-(a mod b), primitive: integer pseudo-division that multiplies by
    |lc(b)|, so no sign is lost."""
    rem = list(a)
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(rem) >= len(b):
        factor = rem[-1] * sign
        shift = len(rem) - len(b)
        if lead != 1:
            rem = [lead * r for r in rem]
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        rem.pop()
        trim(rem)
    return primitive([-r for r in rem])


def gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """A greatest common divisor of `a` and `b`, up to a rational factor."""
    while b:
        a, b = b, negated_remainder(a, b)
    return a


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for a primitive divisor b of a; by Gauss's lemma the quotient
    has integer coefficients."""
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(quo))):
        factor = rem[shift + len(b) - 1] // b[-1]
        quo[shift] = factor
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
    return quo


def square_free(c: list[int]) -> list[int]:
    """The square-free part of `c`, primitive, with the sign of its leading
    coefficient."""
    dc = derivative(c)
    # When lc(c) survives mod the prime, so does the leading coefficient of
    # any integer divisor of c, and a degree-0 image gcd of c and c' proves
    # c square-free without a gcd over the integers.
    if not (c and c[-1] % IMAGE_PRIME and gcd_degree_mod(c, dc) == 0):
        # The gcd can be c' itself, which need not be primitive.
        g = primitive(gcd(c, dc))
        if len(g) > 1:
            # lc(g) > 0 keeps the sign of c's leading coefficient
            c = exact_quotient(c, g if g[-1] > 0 else [-n for n in g])
    return primitive(c)


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation.
# ---------------------------------------------------------------------------


def sturm_chain(c: Sequence[int]) -> list[Sequence[int]]:
    """Sturm chain of `c`, every element primitive."""
    first = primitive(c)
    chain = [first, primitive(derivative(first))]
    while chain[-1]:
        rem = negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (sign_at(c, x.numerator, x.denominator) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def variations_at_infinity(chain: Sequence[Sequence[int]], side: int) -> int:
    """Sign variations of the chain beyond all roots of its first element,
    toward +infinity (`side` 1) or -infinity (`side` -1): each element has
    the sign of its leading coefficient there, times `side` to its degree.
    A Sturm chain's variations change only at roots of its first element,
    so this is also the count at any point beyond them, such as +/- the
    Cauchy bound."""
    signs = [c[-1] * side ** (len(c) - 1) > 0 for c in chain]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    Endpoints must not be roots of the chain's first element.
    """
    return variations(chain, lo) - variations(chain, hi)


def cauchy_root_bound(c: Sequence[int]) -> Fraction:
    """Strict bound: every real root r of the polynomial has |r| < bound."""
    if len(c) <= 1:
        return Fraction(1)
    lead = abs(c[-1])
    return Fraction(1) + max(Fraction(abs(coeff), lead) for coeff in c[:-1])


_SPLIT_OFFSETS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), Fraction(1, 7),
    Fraction(3, 7), Fraction(5, 7), Fraction(6, 7), Fraction(1, 11),
]


def split_point(c: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of `c`: the fixed
    offsets first, then 1/12, 1/13, ... of the way, of which only finitely
    many can be roots."""
    for t in itertools.chain(_SPLIT_OFFSETS, (Fraction(1, k) for k in itertools.count(12))):
        m = lo + (hi - lo) * t
        if sign_at(c, m.numerator, m.denominator):
            return m


def isolate_roots(sf: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, in increasing order, each holding exactly one
    real root of the square-free `sf`; no endpoint is a root."""
    if len(sf) <= 1:
        return []
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []
    # Each work item carries the sign variations at both of its ends, so a
    # split point's count is computed once and serves both halves.
    work = [
        (-bound, variations_at_infinity(chain, -1), bound, variations_at_infinity(chain, 1))
    ]
    while work:
        lo, var_lo, hi, var_hi = work.pop()
        n = var_lo - var_hi
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        m = split_point(chain[0], lo, hi)
        var_m = variations(chain, m)
        work.append((lo, var_lo, m, var_m))
        work.append((m, var_m, hi, var_hi))
    out.sort()
    return out


def isolate_product_roots(
    factors: Sequence[Sequence[int]],
) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    """The square-free part of the product of nonzero `factors`, primitive
    with a positive leading coefficient, and the intervals `isolate_roots`
    gives for it, found without forming or isolating that product.

    Each factor is made square-free and rid of the roots it shares with the
    earlier ones, so the factors left are pairwise coprime and their product
    is that part.  Each is isolated with its own Sturm chain; the product's
    bisection is then replayed step for step (its Cauchy bound, its split
    points, the same work order), each count read from the factors' roots
    in the work interval.  A root whose interval straddles a split point m
    lies left of m when its factor changes sign between the interval's
    lower end and m; that lower-end sign alternates from the right, since
    the roots are simple, so one sign test per factor at m decides it.
    """
    basis: list[Sequence[int]] = []
    for c in factors:
        c = square_free(c)
        for b in basis:
            # A degree-0 image gcd proves coprimality, as in `square_free`.
            if len(c) > 1 and not (c[-1] % IMAGE_PRIME and gcd_degree_mod(c, b) == 0):
                g = primitive(gcd(c, b))
                if len(g) > 1:
                    c = exact_quotient(c, g if g[-1] > 0 else [-n for n in g])
        if len(c) > 1:
            basis.append(c if c[-1] > 0 else [-n for n in c])
    if len(basis) <= 1:
        sf = basis[0] if basis else [1]
        return sf, isolate_roots(sf)
    sf = basis[0]
    for b in basis[1:]:
        sf = multiply(sf, b)
    # A root: its factor's index, its isolating interval, and the factor's
    # sign at the interval's lower end.
    roots = []
    for i, b in enumerate(basis):
        ivs = isolate_roots(b)
        for j, (lo, hi) in enumerate(ivs):
            roots.append((i, lo, hi, (-1) ** (len(ivs) - j)))
    bound = cauchy_root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []
    work = [(-bound, bound, roots)]
    while work:
        lo, hi, inside = work.pop()
        if len(inside) <= 1:
            if inside:
                out.append((lo, hi))
            continue
        m = split_point(sf, lo, hi)
        signs: dict[int, int] = {}
        left, right = [], []
        for root in inside:
            i, a, b, s_a = root
            if b <= m:
                left.append(root)
            elif a >= m:
                right.append(root)
            else:
                if i not in signs:
                    signs[i] = sign_at(basis[i], m.numerator, m.denominator)
                if signs[i] == s_a:
                    right.append((i, m, b, s_a))
                else:
                    left.append((i, a, m, s_a))
        work.append((lo, m, left))
        work.append((m, hi, right))
    out.sort()
    return sf, out


class Bracket:
    """An isolating interval [a/d, b/d] (d > 0) of the simple root of `c`
    inside it, narrowed in place.

    `halve` keeps the half that holds the root.  Its midpoint is
    (a + b)/2d, so the numerators are kept over a doubling d and b - a never
    changes; `s_lo`, the sign of c at the lower end, stays the same.  A
    midpoint that is a root of c collapses the bracket to a point, a = b.
    """

    __slots__ = ("c", "a", "b", "d", "s_lo")

    def __init__(self, c: Sequence[int], lo: Fraction, hi: Fraction) -> None:
        d = math.lcm(lo.denominator, hi.denominator)
        self.c = c
        self.a = lo.numerator * (d // lo.denominator)
        self.b = hi.numerator * (d // hi.denominator)
        self.d = d
        self.s_lo = sign_at(c, self.a, d)

    def halve(self) -> None:
        m = self.a + self.b
        self.d *= 2
        s_m = sign_at(self.c, m, self.d)
        if s_m == 0:
            self.a = self.b = m
        elif s_m == self.s_lo:
            self.a, self.b = m, 2 * self.b
        else:
            self.a, self.b = 2 * self.a, m

    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.a, self.d), Fraction(self.b, self.d)


def refine_root(
    c: Sequence[int], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a simple root below `width` by bisection.

    A rational root discovered at a midpoint collapses the interval to a point.
    """
    br = Bracket(c, lo, hi)
    while (br.b - br.a) * width.denominator > width.numerator * br.d:
        br.halve()
    return br.interval()


#: bisection steps sign_at_root tries, per call, before it pays for gcd(p, q)
_BISECTIONS_BEFORE_GCD = 4


def sign_at_root(q: Sequence[int], bracket: Bracket) -> int:
    """Exact sign of q at the root of square-free p = `bracket.c` that the
    bracket isolates; the bracket is left as far as this narrowed it.

    The decisions come in this order.  Integer interval Horner bounds q on
    the bracket, and a bound that excludes zero gives the sign.  Otherwise
    the bracket is halved a few steps, retrying the bound after each; a
    midpoint that is a root of p gives the exact sign of q there.  Only if
    the sign is still undecided is gcd(p, q) computed: any common root inside
    the bracket must be the root, so a Sturm count of the gcd decides zero
    exactly.  If q does not vanish there, halving goes on until the bound
    excludes zero, which terminates because the root is simple.
    """
    if not q:
        return 0
    br = bracket
    for steps in itertools.count():
        if br.a == br.b:  # lo = hi, or a midpoint root of p
            return sign_at(q, br.a, br.d)
        s = interval_sign(q, br.a, br.b, br.d)
        if s:
            return s
        if steps == _BISECTIONS_BEFORE_GCD:
            # Endpoints are non-roots of p (a midpoint root ends the walk),
            # hence of the gcd.
            g = gcd(br.c, q)
            if len(g) > 1 and sturm_count(sturm_chain(g), *br.interval()):
                return 0
        br.halve()


# ---------------------------------------------------------------------------
# Modular images.
# ---------------------------------------------------------------------------

#: the prime of the modular images that prove coprimality
IMAGE_PRIME = 2**61 - 1


def gcd_degree_mod(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree of gcd(a, b) in GF(IMAGE_PRIME)[x], -1 when both vanish."""
    a = trim([x % IMAGE_PRIME for x in a])
    b = trim([x % IMAGE_PRIME for x in b])
    while b:
        a, b = b, _rem_mod(a, b)
    return len(a) - 1


def _rem_mod(a: list[int], b: list[int]) -> list[int]:
    # Remainder of a by b over GF(IMAGE_PRIME); b is trimmed and nonzero.
    rem = list(a)
    inv = pow(b[-1], -1, IMAGE_PRIME)
    while len(rem) >= len(b):
        factor = rem[-1] * inv % IMAGE_PRIME
        shift = len(rem) - len(b)
        for i, coeff in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * coeff) % IMAGE_PRIME
        rem.pop()
        trim(rem)
    return rem

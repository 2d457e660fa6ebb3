"""Sylvester matrices and resultant computation.

The resultant of two polynomials in a chosen variable v is the determinant
of their Sylvester matrix, whose entries live in the remaining variables.
`resultant` tries two exact closed forms first:

- a side linear in v, a = c1*v + c0, against b of degree e:
  res(a, b) = sum_k b_k (-c0)^k c1^(e-k), by Horner, with
  res(b, a) = (-1)^e res(a, b) (Collins 1971);
- a side b whose leading coefficient is a constant c, against a of no
  smaller degree: with r = a mod b (dividing by c is exact),
  res(a, b) = (-1)^(deg a deg b) c^(deg a - deg r) res(b, r), which is 0
  for r = 0 and r^(deg b) for r of degree 0, and otherwise continues on
  (b, r) (Euclid's step; Brown & Traub 1971).

Everything else is the determinant, computed by Bareiss' fraction-free
elimination over the integers: every division along the way is exact, so no
rational-function arithmetic, and no `Fraction`, is needed until the result.
A resultant is unique, so every path gives the same polynomial; the
determinant stays the oracle the tests check the closed forms against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polycore import IntTerms, MultiPoly, PolyError, VarId, int_cross, int_divexact, int_terms


def sylvester_matrix(p: MultiPoly, q: MultiPoly, v: VarId) -> list[list[MultiPoly]]:
    """Sylvester matrix of p (degree d) and q (degree e) in v: (d+e) square.

    The first e rows carry the coefficients of p, each shifted right by one
    column; the next d rows carry those of q.
    """
    d, e = p.degree_in(v), q.degree_in(v)
    if d < 1 or e < 1:
        raise PolyError("sylvester matrix needs positive degrees in the main variable")
    reg = p.registry
    zero = MultiPoly.zero(reg)
    pc = p.coeffs_in(v)
    qc = q.coeffs_in(v)
    n = d + e
    rows: list[list[MultiPoly]] = []
    for i in range(e):
        row = [zero] * n
        for k in range(d + 1):
            row[i + k] = pc.get(d - k, zero)
        rows.append(row)
    for i in range(d):
        row = [zero] * n
        for k in range(e + 1):
            row[i + k] = qc.get(e - k, zero)
        rows.append(row)
    return rows


def det_bareiss(m: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant of a matrix given as its list of rows;
    pivots chosen with the fewest terms.

    Elimination runs over the integers: each row is first scaled by the lcm
    of its coefficient denominators, which scales every minor by the product
    of its rows' scales and so changes no term count, pivot or sign.  Every
    entry is then a minor of an integer matrix, so every division is exact,
    and the product of the scales is divided out once at the end.
    """
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise PolyError("determinant needs a nonempty square matrix")
    first = m[0][0]
    for row in m:
        for entry in row:
            first._check(entry)
    scales = [
        math.lcm(*(c.denominator for entry in row for c in entry.terms.values()))
        for row in m
    ]
    a = [[int_terms(entry, s) for entry in row] for row, s in zip(m, scales)]
    sign = 1
    prev: IntTerms = {(): 1}
    for k in range(n - 1):
        # pick the sparsest nonzero pivot in column k to slow coefficient swell
        pivot_row = -1
        best = None
        for i in range(k, n):
            if a[i][k]:
                tc = len(a[i][k])
                if best is None or tc < best:
                    best, pivot_row = tc, i
        if pivot_row < 0:
            return MultiPoly.zero(first.registry)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = int_divexact(int_cross(pivot, a[i][j], a[i][k], a[k][j]), prev)
        prev = pivot
    den = math.prod(scales)
    return MultiPoly(
        first.registry,
        {m: sign * c if den == 1 else Fraction(sign * c, den) for m, c in a[n - 1][n - 1].items()},
    )


def resultant(p: MultiPoly, q: MultiPoly, v: VarId) -> MultiPoly:
    """Resultant of p and q with respect to v (both of positive degree):
    a closed form when a side is linear, Euclid's steps while a side of no
    greater degree has a constant leading coefficient, else the Sylvester
    determinant of what is left, times the steps' factors."""
    a, b = _dense(p, v), _dense(q, v)
    if len(a) < 2 or len(b) < 2:
        raise PolyError("resultant needs positive degrees; callers handle constants")
    # the answer is scale * res(a, b), and p, q are a, b as polynomials
    scale: Fraction | int = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da == 1:
            return _linear_resultant(a, b) * scale
        if db == 1:
            return _linear_resultant(b, a) * (-scale if da % 2 else scale)
        # Euclid's step divides by a side of no greater degree whose
        # leading coefficient is a constant: b, after a swap if need be
        if da < db or not b[-1].is_constant():
            if db < da or not a[-1].is_constant():
                return det_bareiss(sylvester_matrix(p, q, v)) * scale
            a, b, da, db, p, q = b, a, db, da, q, p
            if da * db % 2:
                scale = -scale
        c = b[-1].constant_value()
        r = _remainder(a, b, c)
        if not r:
            return MultiPoly.zero(p.registry)
        dr = len(r) - 1
        scale = scale * c ** (da - dr) * (-1 if da * db % 2 else 1)
        if dr == 0:
            return r[0] ** db * scale
        a, b = b, r
        p, q = q, MultiPoly.from_coeffs(p.registry, v, dict(enumerate(r)))


def _dense(p: MultiPoly, v: VarId) -> list[MultiPoly]:
    """The coefficients of p in v, constant term first, up to its degree
    (one zero for the zero polynomial)."""
    coeffs = p.coeffs_in(v)
    zero = MultiPoly.zero(p.registry)
    return [coeffs.get(k, zero) for k in range(max(coeffs, default=0) + 1)]


def _linear_resultant(a: list[MultiPoly], b: list[MultiPoly]) -> MultiPoly:
    """res(c1*v + c0, b) = sum_k b_k (-c0)^k c1^(e-k), by Horner in -c0;
    `a` = [c0, c1] and `b` are dense coefficient lists."""
    c0, c1 = a
    step = -c0
    c1 = c1.constant_value() if c1.is_constant() else c1
    acc, power = b[-1], 1
    for bk in reversed(b[:-1]):
        power = c1 * power
        acc = acc * step + bk * power
    return acc


def _remainder(a: list[MultiPoly], b: list[MultiPoly], c: Fraction | int) -> list[MultiPoly]:
    """a mod b as a dense coefficient list without leading zeros (empty for
    zero); c is b's leading coefficient, a nonzero number."""
    db = len(b) - 1
    inv = 1 / Fraction(c)
    r = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        quo = r[i] * inv
        if quo:
            for j, bj in enumerate(b[:-1]):
                if bj:
                    r[i - db + j] = r[i - db + j] - quo * bj
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return r


def resultant_with_constant(p: MultiPoly, q: MultiPoly, v: VarId) -> MultiPoly:
    """Resultant extended by the usual convention res(p, c) = c^deg(p).

    Used where one side may legitimately degenerate to degree 0 in `v`
    (leading-coefficient rows of critical resultants, collapsed factors).
    Both sides degenerate is an error.
    """
    dp, dq = p.degree_in(v), q.degree_in(v)
    if dp < 1 and dq < 1:
        raise PolyError("resultant of two polynomials constant in the variable")
    if dq < 1:
        return q ** dp
    if dp < 1:
        return p ** dq
    return resultant(p, q, v)


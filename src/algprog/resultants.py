"""Sylvester matrices and fraction-free resultant computation.

The resultant of two polynomials in a chosen variable is the determinant of
their Sylvester matrix, whose entries live in the remaining variables.  The
determinant is computed by Bareiss' fraction-free elimination over the
integers: every division along the way is exact, so no rational-function
arithmetic, and no `Fraction`, is needed until the result.
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
        first.registry, {mono: Fraction(sign * c, den) for mono, c in a[n - 1][n - 1].items()}
    )


def resultant(p: MultiPoly, q: MultiPoly, v: VarId) -> MultiPoly:
    """Resultant of p and q with respect to v (both of positive degree)."""
    if p.degree_in(v) < 1 or q.degree_in(v) < 1:
        raise PolyError("resultant needs positive degrees; callers handle constants")
    return det_bareiss(sylvester_matrix(p, q, v))


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


def resultant_degree_bound(p: MultiPoly, q: MultiPoly, v: VarId, w: VarId) -> int:
    """Degree bound in `w` for res_v(p, q):  d_p,w * d_q,v + d_p,v * d_q,w."""
    if p.is_zero() or q.is_zero():
        raise PolyError("degree bound of a zero polynomial")
    return max(p.degree_in(w), 0) * max(q.degree_in(v), 0) + max(
        p.degree_in(v), 0
    ) * max(q.degree_in(w), 0)

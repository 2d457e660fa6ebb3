"""Independent auditing layer: Sturm isolation, sign-at-root queries, and the
certificate re-checks.  Everything here runs in exact rational arithmetic."""

import ast
import dataclasses
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import algprog.verify as verify_module
from algprog.defpoly import defining_polynomial
from algprog.isolation import (
    ComponentDescription,
    IsolateConfig,
    SignCondition,
    certificate_from_json,
    isolate,
    merge_components,
)
from algprog.polycore import (
    MultiPoly,
    PolyError,
    VarRegistry,
    integer_normalize,
    square_free_part,
)
from algprog.radicals import (
    Interval,
    SamplingError,
    eval_numeric,
    normalize,
    parse,
    polynomial_from_text,
)
from algprog.uni import (
    Bracket,
    cauchy_root_bound,
    derivative,
    isolate_product_roots,
    isolate_roots,
    multiply,
    primitive,
    refine_root,
    sign_at,
    sign_at_root,
    split_point,
    square_free,
    sturm_chain,
    sturm_count,
    trim,
    variations,
    variations_at_infinity,
)
from algprog.verify import (
    ENDPOINT_BITS,
    RELATIONS,
    RootSelection,
    _endpoint_text,
    _sign,
    audit_degrees,
    forced_sign,
    isolate_real_roots,
    lone_root,
    relation_certain,
    relation_holds,
    relation_possible,
    root_selection,
    sample_in_component,
    selection_matches_f,
    uni_from_poly,
    verify_certificate,
    verify_defining,
)
from conftest import (
    integral,
    reference_component_points,
    reference_tally_points,
    uni_eval,
    use_walk_without_memo,
)
from test_isolation import ROUND_TRIP, domain_for

REG = VarRegistry(["x"])
X = MultiPoly.var(REG, 0)
XID = REG.id_of("x")


def uni(*coeffs):
    return [Fraction(c) for c in coeffs]


# -- univariate scaffolding -----------------------------------------------------


def uni_divmod(a, b):
    """Quotient and remainder of a by b over the rationals; zero top
    coefficients are ignored.  The reference for the integer kernel."""
    rem, b = trim(list(a)), trim(list(b))
    if not b:
        raise PolyError("univariate division by zero")
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quo[shift] = factor
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        rem.pop()
        trim(rem)
    return trim(quo), rem


def uni_to_poly(c, v, registry):
    """The MultiPoly in `v` with coefficient list c."""
    x = MultiPoly.var(registry, v)
    acc = MultiPoly.zero(registry)
    for e, coeff in enumerate(c):
        if coeff:
            acc = acc + x**e * MultiPoly.const(registry, coeff)
    return acc


def uni_gcd(a, b):
    """Monic Euclidean gcd over the rationals: the reference for the integer
    gcds (constant 1 for coprime inputs)."""
    x, y = trim(list(a)), trim(list(b))
    while y:
        x, y = y, uni_divmod(x, y)[1]
    return [coeff / x[-1] for coeff in x] if x else []


def test_uni_round_trip_and_eval():
    p = X**3 - 2 * X + 1
    c = uni_from_poly(p, XID, {})
    assert c == uni(1, -2, 0, 1)
    assert uni_eval(c, Fraction(2)) == p.eval({XID: Fraction(2)})
    assert derivative(c) == uni(-2, 0, 3)


def test_uni_from_poly_sets_the_other_variables_from_the_point():
    reg = VarRegistry(["x", "y"])
    xid, yid = reg.id_of("x"), reg.id_of("y")
    x, y = MultiPoly.var(reg, xid), MultiPoly.var(reg, yid)
    p = y * x**2 - y + 3
    assert uni_from_poly(p, xid, {yid: Fraction(2)}) == uni(1, 0, 2)
    with pytest.raises(PolyError):
        uni_from_poly(p, xid, {})


def test_uni_gcd():
    # (x-1)(x-2) and (x-1)(x-3) share exactly (x-1)
    a = uni(2, -3, 1)
    b = uni(3, -4, 1)
    g = uni_gcd(a, b)
    assert len(g) == 2
    assert uni_eval(g, Fraction(1)) == 0


def test_uni_divmod_ignores_zero_top_coefficients():
    # x = 0 * (x^2 - 2) + x; the untrimmed [0, 1, 0] once gave quotient 1
    assert uni_divmod(uni(0, 1, 0), uni(-2, 0, 1)) == ([], uni(0, 1))
    assert uni_divmod(uni(-2, 0, 1), uni(0, 1, 0)) == (uni(0, 1), uni(-2))
    assert uni_divmod(uni(1, 0), uni(0, 1)) == ([], uni(1))
    with pytest.raises(PolyError):
        uni_divmod(uni(1, 2), uni(0, 0))
    # the case that made the bisection oracle below disagree with sign_at_root
    p, q = uni(-2, 0, 1), uni(0, 1, 0)
    lo, hi = Fraction(-3), Fraction(0)
    assert sign_at_root(integral(q), Bracket(integral(p), lo, hi)) == oracle_sign(q, p, lo, hi) == -1


def test_sturm_chain_golden():
    # p, p', then negated remainders, each scaled to primitive integers
    assert sturm_chain(integral(uni(-2, 0, 1))) == [[-2, 0, 1], [0, 1], [1]]
    assert sturm_chain(integral(uni(0, -1, 0, 1))) == [[0, -1, 0, 1], [-1, 0, 3], [0, 1], [1]]
    assert sturm_chain(integral(uni(Fraction(-1, 2), 0, Fraction(3, 2)))) == [
        [-1, 0, 3],
        [0, 1],
        [1],
    ]


def test_sturm_count_on_intervals():
    chain = sturm_chain(integral(uni(0, -1, 0, 1)))
    assert sturm_count(chain, Fraction(-2), Fraction(2)) == 3
    assert sturm_count(chain, Fraction(1, 2), Fraction(2)) == 1
    assert sturm_count(chain, Fraction(5), Fraction(9)) == 0


def test_cauchy_root_bound():
    c = uni(-6, 11, -6, 1)  # roots 1, 2, 3
    b = cauchy_root_bound(integral(c))
    assert b >= 3


# -- real root isolation ----------------------------------------------------------


def check_isolation(p, roots):
    iso = isolate_real_roots(p)
    assert len(iso.intervals) == len(roots)
    sf = uni_from_poly(iso.poly, XID, {})
    for (lo, hi), r in zip(iso.intervals, sorted(roots)):
        assert lo <= r <= hi
        if lo != hi:
            assert uni_eval(sf, lo) * uni_eval(sf, hi) < 0


def test_isolate_simple_quadratic():
    iso = isolate_real_roots(X**2 - 2)
    assert len(iso.intervals) == 2
    lo0, hi0 = iso.intervals[0]
    lo1, hi1 = iso.intervals[1]
    assert hi0 <= lo1  # disjoint and ordered
    assert lo0**2 <= 2 or hi0**2 <= 2  # brackets -sqrt(2)


def test_isolate_no_real_roots():
    assert isolate_real_roots(X**2 + 1).intervals == ()


def test_isolate_rational_roots():
    check_isolation(X**3 - X, [Fraction(-1), Fraction(0), Fraction(1)])


def test_isolate_handles_multiplicity():
    check_isolation((X - 1) ** 2 * (X + 2), [Fraction(1), Fraction(-2)])


def test_isolate_clustered_roots():
    p = (X - 1) * (X - Fraction(1001, 1000))
    check_isolation(p, [Fraction(1), Fraction(1001, 1000)])


def test_refine_root():
    c = uni(-2, 0, 1)
    lo, hi = refine_root(integral(c), Fraction(1), Fraction(2), Fraction(1, 2**40))
    assert hi - lo <= Fraction(1, 2**40)
    assert lo**2 <= 2 <= hi**2
    # rational root collapses to a point
    lo, hi = refine_root(integral(uni(-1, 0, 1)), Fraction(0), Fraction(2), Fraction(1, 8))
    assert lo == hi == 1


def reference_refine(c, lo, hi, width):
    """Bisection with Fraction midpoints, the integer kernel's oracle."""
    s_lo = _sign(uni_eval(c, lo))
    while hi - lo > width:
        m = (lo + hi) / 2
        s_m = _sign(uni_eval(c, m))
        if s_m == 0:
            return m, m
        if s_m == s_lo:
            lo = m
        else:
            hi = m
    return lo, hi


dyadic_roots = st.builds(
    lambda n, k: Fraction(n, 2**k), st.integers(-24, 24), st.integers(0, 4)
)


@given(
    st.lists(dyadic_roots, min_size=1, max_size=4, unique=True),
    st.booleans(),
    st.integers(0, 70),
    st.integers(1, 5),
)
def test_refine_root_matches_fraction_bisection(roots, irrational, k, m):
    c = uni(1)
    for r in roots:  # dyadic roots are hit exactly by some midpoints
        c = _poly_mul(c, uni(-r, 1))
    if irrational:
        c = _poly_mul(c, uni(-3, 0, 1))
    width = Fraction(1, 2**k * m)
    for lo, hi in isolate_roots(integral(c)):
        got = refine_root(integral(c), lo, hi, width)
        assert got == reference_refine(c, lo, hi, width)
        assert got[1] - got[0] <= width


def test_refine_root_midpoint_root():
    # 2x - 3 over (1, 2): the first midpoint is the root
    assert refine_root(integral(uni(-3, 2)), Fraction(1), Fraction(2), Fraction(1, 8)) == (
        Fraction(3, 2),
        Fraction(3, 2),
    )
    # over (1/3, 2), with unequal denominators, the second midpoint is 4x - 3's root
    assert refine_root(integral(uni(-3, 4)), Fraction(1, 3), Fraction(2), Fraction(1, 99)) == (
        Fraction(3, 4),
        Fraction(3, 4),
    )


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_sign_at_root():
    sf = [-2, 0, 1]  # sqrt(2) lives in (1, 2)
    lo, hi = Fraction(1), Fraction(2)
    assert sign_at_root([-1, 1], Bracket(sf, lo, hi)) == 1  # x - 1 > 0 at sqrt 2
    assert sign_at_root([-2, 1], Bracket(sf, lo, hi)) == -1  # x - 2 < 0
    assert sign_at_root([-2, 0, 1], Bracket(sf, lo, hi)) == 0  # vanishes there
    assert sign_at_root([-2, 0, 3], Bracket(sf, lo, hi)) == 1  # 3x^2 - 2 > 0


# -- the integer sign kernel against plain Fraction arithmetic ----------------------


def uni_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


small_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@given(
    st.lists(small_fractions, max_size=8),
    st.fractions(min_value=-20, max_value=20, max_denominator=64),
    st.booleans(),
)
def test_integer_sign_matches_fraction_horner(c, x, vanish):
    if vanish:  # make x a root, so the zero sign is exercised too
        c = uni_mul(c or [Fraction(1)], [-x, Fraction(1)])
    assert sign_at(integral(c), x.numerator, x.denominator) == _sign(uni_eval(c, x))


#: rational roots are drawn from the grid n/12, |n| <= 24; the interval of
#: half-width H around one of them holds no other grid point and none of
#: +-sqrt(k), k in (2, 3, 5, 7) (the closest is 17/12, about 0.0025 from
#: sqrt(2)), so it isolates that root, and its midpoint is the root itself
H = Fraction(1, 512)


def oracle_sign(q, minimal, lo, hi):
    """Sign of q at the root of the irreducible `minimal` in (lo, hi).

    q vanishes there exactly when `minimal` divides q.  Otherwise bisect with
    Fraction arithmetic until |q(mid)| exceeds a Lipschitz bound of q times the
    distance from the midpoint to the root, or a midpoint is the root.
    """
    if not uni_divmod(q, minimal)[1]:
        return 0
    bound = max(abs(lo), abs(hi))
    lip = sum(e * abs(coeff) * bound ** (e - 1) for e, coeff in enumerate(q) if e)
    s_lo = _sign(uni_eval(minimal, lo))
    while True:
        m = (lo + hi) / 2
        value = uni_eval(q, m)
        s_m = _sign(uni_eval(minimal, m))
        if s_m == 0 or abs(value) > lip * (hi - lo) / 2:
            return _sign(value)
        if s_m == s_lo:
            lo = m
        else:
            hi = m


@st.composite
def root_problems(draw):
    """Square-free p with rational and quadratic irrational roots, and a q
    that shares one of p's factors (so its sign is 0 at those roots) or none."""
    roots = [Fraction(n, 12) for n in draw(st.lists(st.integers(-24, 24), unique=True, max_size=3))]
    k = draw(st.sampled_from([None, 2, 3, 5, 7]))
    assume(roots or k)
    factors = [[-r, Fraction(1)] for r in roots]
    if k:
        factors.append([Fraction(-k), Fraction(0), Fraction(1)])
    p = [draw(small_fractions.filter(bool))]
    for f in factors:
        p = uni_mul(p, f)
    cofactor = draw(st.lists(small_fractions, min_size=1, max_size=4).filter(any))
    shared = draw(st.sampled_from([None, *factors]))
    q = cofactor if shared is None else uni_mul(cofactor, shared)
    return p, factors, roots, q


@given(root_problems())
def test_sign_at_root_matches_bisection_oracle(problem):
    p, factors, roots, q = problem
    intervals = isolate_roots(square_free(integral(p)))
    assert len(intervals) == len(roots) + 2 * (len(factors) > len(roots))
    for lo, hi in intervals + [(r - H, r + H) for r in roots]:
        (minimal,) = [
            f for f in factors if _sign(uni_eval(f, lo)) * _sign(uni_eval(f, hi)) < 0
        ]
        got = sign_at_root(integral(q), Bracket(integral(p), lo, hi))
        assert got == oracle_sign(q, minimal, lo, hi)


def _minimal_factor(factors, lo, hi):
    (minimal,) = [f for f in factors if _sign(uni_eval(f, lo)) * _sign(uni_eval(f, hi)) < 0]
    return minimal


@st.composite
def several_conditions(draw):
    """A problem of `root_problems` with two to five q's, in a random order."""
    p, factors, roots, q = draw(root_problems())
    qs = [q]
    for _ in range(draw(st.integers(1, 4))):
        cofactor = draw(st.lists(small_fractions, min_size=1, max_size=4).filter(any))
        shared = draw(st.sampled_from([None, *factors]))
        qs.append(cofactor if shared is None else uni_mul(cofactor, shared))
    return p, factors, draw(st.permutations(qs))


@given(several_conditions())
def test_shared_bracket_signs_match_fresh_ones(problem):
    # root_selection's walk: every q continues from the bracket the last one
    # narrowed, which still isolates the root
    p, factors, qs = problem
    sf = square_free(integral(p))
    for lo, hi in isolate_roots(sf):
        minimal = _minimal_factor(factors, lo, hi)
        bracket = Bracket(sf, lo, hi)
        for q in qs:
            got = sign_at_root(integral(q), bracket)
            assert got == sign_at_root(integral(q), Bracket(sf, lo, hi))
            assert got == oracle_sign(q, minimal, lo, hi)
        a, b = bracket.interval()
        assert lo <= a <= b <= hi
        if a == b:
            assert uni_eval(minimal, a) == 0
        else:
            assert _sign(uni_eval(minimal, a)) * _sign(uni_eval(minimal, b)) < 0


@given(
    root_problems(),
    st.integers(1, 40),
    st.integers(0, 8),
    st.integers(-64, 64),
    st.integers(0, 64),
)
def test_exact_f_match_agrees_with_refine_and_overlap(problem, k, shift, offset, width):
    # refined to width 2^-k, the root overlaps the enclosure exactly when it
    # lies inside, provided both ends of the enclosure are further than 2^-k
    # from the root
    p, _, _, _ = problem
    sf = square_free(integral(p))
    intervals = tuple(isolate_roots(sf))
    tol = Fraction(1, 2**k)
    unit = tol / 2**shift
    for idx, (lo, hi) in enumerate(intervals):
        near_lo, near_hi = refine_root(sf, lo, hi, unit / 2**16)
        value = Interval(near_lo + offset * unit, near_lo + (offset + width) * unit)
        if any(near_lo - tol <= e <= near_hi + tol for e in (value.lo, value.hi)):
            continue
        selection = RootSelection(tuple(sf), intervals, (idx,))
        r_lo, r_hi = refine_root(sf, lo, hi, tol)
        assert selection_matches_f(value, selection) == (r_lo <= value.hi and value.lo <= r_hi)


def reference_isolation(sf):
    """Sturm bisection that counts sign variations at both ends of every
    interval, split points included twice."""
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    out, work = [], [(-bound, bound)]
    while work:
        lo, hi = work.pop()
        n = variations(chain, lo) - variations(chain, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            m = split_point(chain[0], lo, hi)
            work += [(lo, m), (m, hi)]
    return sorted(out)


@given(
    st.lists(small_fractions, max_size=5),
    st.lists(small_fractions.filter(bool), max_size=3),
)
def test_square_free_and_isolation_match_references(c, roots):
    # repeated roots exercise the gcd path, square-free inputs the image test
    for r in roots:
        c = uni_mul(c or [Fraction(1)], uni_mul([-r, Fraction(1)], [-r, Fraction(1)]))
    trimmed = list(c)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    g = uni_gcd(trimmed, [e * a for e, a in enumerate(trimmed)][1:])
    sf = uni_divmod(trimmed, g)[0] if len(g) > 1 else trimmed
    assert square_free(integral(c)) == primitive(integral(sf))
    if not trimmed:
        return
    p = uni_to_poly(trimmed, XID, REG)
    iso = isolate_real_roots(p)
    assert iso.poly == (
        square_free_part(p, XID) if len(trimmed) > 1 else integer_normalize(p)
    )
    assert list(iso.intervals) == reference_isolation(uni_from_poly(iso.poly, XID, {}))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
def test_variations_beyond_the_cauchy_bound_are_read_off_the_leading_terms(c):
    sf = square_free(trim(c))
    assume(len(sf) > 1)
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    assert variations_at_infinity(chain, 1) == variations(chain, bound)
    assert variations_at_infinity(chain, -1) == variations(chain, -bound)


@pytest.mark.parametrize(
    "c, sf",
    [
        (uni(1, -2, 1), uni(-1, 1)),  # (x - 1)^2
        (uni(0, 0, 0, 1), uni(0, 1)),  # x^3
        (uni(1, -4, 4), uni(-1, 2)),  # (2x - 1)^2
        (uni(-1, 4, -4), uni(1, -2)),  # -(2x - 1)^2 keeps its negative lead
    ],
)
def test_square_free_when_the_gcd_is_the_derivative(c, sf):
    # c' divides c, so the integer remainder sequence ends at c' itself, whose
    # content must go before the exact division
    assert square_free(integral(c)) == sf


#: building blocks of factor families: linear factors a*x - b (0 among their
#: roots, the first split point of the symmetric bound), quadratics
#: c*x^2 + a*x + b with two, one double or no real root, and constants
family_blocks = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(lambda t: [-t[0], t[1]]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 2)).map(list),
    st.integers(-3, 3).filter(bool).map(lambda n: [n]),
)


@st.composite
def factor_families(draw):
    """Up to four factors, each a product of blocks from one small pool, so
    roots are shared and repeated; a factor may be an earlier one times a
    further product, so that the earlier one divides it."""
    pool = draw(st.lists(family_blocks, min_size=1, max_size=4))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        c = [1]
        for block in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
            c = multiply(c, block)
        if factors and draw(st.booleans()):
            c = multiply(draw(st.sampled_from(factors)), c)
        c = c if draw(st.booleans()) else [-n for n in c]
        factors.append(c)
    return factors


def product_of(factors):
    c = [1]
    for f in factors:
        c = multiply(c, f)
    return c


@given(factor_families())
@example([[0, 1], [-2, 0, 1], [0, 1], [-1, 1, 1]])  # root 0, shared and repeated
@example([[-1, 1], [1, -2, 1], [-2, 1, -2, 1]])  # x - 1 divides the others
@example([[3], [1, 0, 1], [5, 2, 1]])  # a constant; no real root at all
@example([[-4, -3, 1], [1, 0, 2]])  # the first one's Cauchy bound, 5, exceeds the product's
@example([[-4, -3, 1], [-4, -3, 1], [0, 1]])
def test_isolate_product_roots_matches_the_product(factors):
    sf, intervals = isolate_product_roots(factors)
    want = square_free(product_of(factors))
    assert sf == (want if want[-1] > 0 else [-n for n in want])
    assert intervals == isolate_roots(want)


@given(factor_families())
@example([[-4, -3, 1], [1, 0, 2]])
def test_isolate_real_roots_of_factors_matches_their_product(factors):
    polys = [uni_to_poly(f, XID, REG) for f in factors]
    product = polys[0]
    for p in polys[1:]:
        product = product * p
    got = isolate_real_roots(*polys)
    want = isolate_real_roots(product)
    assert got.poly == want.poly and got.intervals == want.intervals
    assert isolate_real_roots(*polys, v=XID) == want


def test_isolate_real_roots_rejects_a_zero_factor():
    with pytest.raises(PolyError):
        isolate_real_roots(X - 1, MultiPoly.zero(REG), X**2 - 2)


def interval_compatible(iv, rel):
    """The per-relation enclosure test relation_possible replaced."""
    return {
        ">": iv.hi > 0,
        ">=": iv.hi >= 0,
        "<": iv.lo < 0,
        "<=": iv.lo <= 0,
        "=": iv.lo <= 0 <= iv.hi,
        "!=": not (iv.lo == 0 == iv.hi),
    }[rel]


endpoints = st.one_of(
    st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(0), Fraction(1, 2)]),
    small_fractions,
)


@given(endpoints, endpoints, st.booleans(), st.sampled_from(sorted(RELATIONS)))
def test_relation_possible_matches_the_old_table(a, b, point, rel):
    lo, hi = (a, a) if point else sorted((a, b))
    iv = Interval(lo, hi)
    assert relation_possible(iv, rel) == interval_compatible(iv, rel)


@given(endpoints, endpoints, st.booleans(), st.sampled_from(sorted(RELATIONS)))
def test_relation_certain_holds_at_every_sign_in_the_interval(a, b, point, rel):
    lo, hi = (a, a) if point else sorted((a, b))
    values = {lo, hi} | ({Fraction(0)} if lo < 0 < hi else set())
    want = all(relation_holds(v, rel) for v in values)
    assert relation_certain(Interval(lo, hi), rel) == want


def test_relation_holds():
    assert relation_holds(Fraction(1), ">")
    assert not relation_holds(Fraction(0), ">")
    assert relation_holds(Fraction(0), ">=")
    assert relation_holds(Fraction(0), "=")
    assert relation_holds(Fraction(-3), "<")
    assert not relation_holds(Fraction(-3), ">=")


# -- defining-polynomial audits ------------------------------------------------------


def test_verify_defining_passes_and_reports_interval():
    dp = defining_polynomial("sqrt(1 + x^2)")
    report = verify_defining("sqrt(1 + x^2)", dp, samples=32)
    assert report.passed
    line = report.checks[0]
    assert line.samples_used == 32
    assert line.widest_interval is not None


def test_verify_defining_rejects_corruption():
    dp = defining_polynomial("sqrt(x)")
    bad = dataclasses.replace(dp, poly=dp.poly + 1)
    report = verify_defining("sqrt(x)", bad, samples=16)
    assert not report.passed
    assert report.checks[0].witness is not None


def _bounded_value(text: str) -> Fraction:
    m, e = text.split("*2^")
    return Fraction(int(m)) * Fraction(2) ** int(e)


@pytest.mark.parametrize("sign", [1, -1])
def test_endpoint_text_bounds_an_endpoint_too_long_to_print(sign):
    x = sign * Fraction(10**5000 + 1, 3**9000)  # 5,001 digits over 4,295
    lo, hi = _endpoint_text(x, up=False), _endpoint_text(x, up=True)
    assert _bounded_value(lo) <= x <= _bounded_value(hi)
    for text in (lo, hi):
        assert _bounded_value(text) * sign > 0
        assert abs(int(text.split("*")[0])).bit_length() <= ENDPOINT_BITS + 1
    assert _bounded_value(hi) - _bounded_value(lo) <= abs(x) / 2 ** (ENDPOINT_BITS - 2)


def test_audit_degrees_pass_and_fail():
    dp = defining_polynomial("x^(1/2) + x^(1/3)")
    assert audit_degrees(dp).passed
    z = MultiPoly.var(dp.poly.registry, dp.z)
    inflated = dataclasses.replace(dp, poly=dp.poly * z)
    assert not audit_degrees(inflated).passed


# -- certificate re-checking -----------------------------------------------------------


def test_verify_certificate_sqrt():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    report = verify_certificate("sqrt(x)", cert, samples_per_component=12)
    assert report.passed


def test_verify_certificate_rejects_flipped_condition():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    entry = cert.entries[0]
    flipped = tuple(
        SignCondition(c.poly, "<") if c.rel == ">" else c
        for c in entry.root_conditions
    )
    bad = dataclasses.replace(
        cert, entries=(dataclasses.replace(entry, root_conditions=flipped),)
    )
    report = verify_certificate("sqrt(x)", bad, samples_per_component=6)
    assert not report.passed


def test_verify_certificate_rejects_wrong_defining():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    bad = dataclasses.replace(cert, defining=cert.defining + 1)
    report = verify_certificate("sqrt(x)", bad, samples_per_component=6)
    assert not report.passed


def _with_component(cert, comp):
    return dataclasses.replace(
        cert, entries=(dataclasses.replace(cert.entries[0], component=comp),)
    )


def test_verify_certificate_fails_where_f_is_not_real_at_the_sample():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    bad = _with_component(cert, ComponentDescription((), {XID: Fraction(-1)}))
    report = verify_certificate("sqrt(x)", bad, samples_per_component=6)
    assert not report.passed
    (line,) = report.checks
    assert line.witness == "f is not real at the component sample (x=-1)"
    assert line.samples_used == 0


def test_verify_certificate_redraws_points_where_f_is_not_real(monkeypatch):
    # without conditions a third of the draws around 1/3 fall below 0
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    wide = _with_component(cert, ComponentDescription((), {XID: Fraction(1, 3)}))
    draws = []

    def drawing(component, rng, max_tries=500, *, seen=None):
        draws.append(sample_in_component(component, rng, max_tries, seen=seen))
        return draws[-1]

    monkeypatch.setattr(verify_module, "sample_in_component", drawing)
    report = verify_certificate("sqrt(x)", wide, samples_per_component=8)
    assert report.passed and report.checks[0].samples_used == 8
    assert any(d[XID] < 0 for d in draws)
    assert len(draws) == 7 + sum(d[XID] < 0 for d in draws)


# -- root selection at a point -----------------------------------------------------------


def test_root_selection_picks_positive_branch():
    dp = defining_polynomial("sqrt(x)")
    reg = dp.poly.registry
    conds = (SignCondition(polynomial_from_text("z", reg), ">"),)
    sel = root_selection(dp.poly, dp.z, conds, {reg.id_of("x"): Fraction(4)})
    assert len(sel.passing) == 1
    lo, hi = sel.intervals[sel.passing[0]]
    assert lo <= 2 <= hi


def test_selection_matches_f():
    dp = defining_polynomial("sqrt(x)")
    reg = dp.poly.registry
    conds = (SignCondition(polynomial_from_text("z", reg), ">"),)
    point = {reg.id_of("x"): Fraction(9, 4)}
    sel = root_selection(dp.poly, dp.z, conds, point)
    f = normalize(parse("sqrt(x)"))
    value = eval_numeric(f, {"x": Fraction(9, 4)}, 64)
    assert selection_matches_f(value, sel)
    assert not selection_matches_f(Interval.point(Fraction(-3, 2)), sel)


def test_selection_matches_f_is_exact():
    # sqrt(2) is the passing root of z^2 - 2 at x = 2.  An enclosure wholly
    # above it by less than 2^-64 is a mismatch, which refining the root to
    # 2^-64 and testing overlap would accept
    dp = defining_polynomial("sqrt(x)")
    reg = dp.poly.registry
    conds = (SignCondition(polynomial_from_text("z", reg), ">"),)
    sel = root_selection(dp.poly, dp.z, conds, {reg.id_of("x"): Fraction(2)})
    eps = Fraction(1, 2**70)
    above = (math.isqrt(2 * 4**70) + 1) * eps  # sqrt(2) < above < sqrt(2) + eps
    value = Interval(above, above + eps)
    lo, hi = refine_root([-2, 0, 1], Fraction(1), Fraction(2), Fraction(1, 2**64))
    assert lo <= value.hi and value.lo <= hi
    assert not selection_matches_f(value, sel)
    assert selection_matches_f(Interval(above - eps, above), sel)
    assert not selection_matches_f(Interval(above - 2 * eps, above - eps), sel)


def test_root_selection_refines_each_root_once(monkeypatch):
    # conditions decided at different depths: with one bracket per root, a
    # root costs the halvings of its deepest condition, not their sum
    made = []

    class CountingBracket(Bracket):
        __slots__ = ("halvings",)

        def __init__(self, *args):
            super().__init__(*args)
            self.halvings = 0
            made.append(self)

        def halve(self):
            self.halvings += 1
            super().halve()

    monkeypatch.setattr(verify_module, "Bracket", CountingBracket)
    reg = VarRegistry(["z"])
    z = reg.id_of("z")
    p = polynomial_from_text("(z^2 - 2)*(z^2 - 3)", reg)
    conds = [
        SignCondition(polynomial_from_text(text, reg), rel)
        for text, rel in [("10*z - 14", ">"), ("1000*z - 1414", ">"), ("z - 5", "<")]
    ]
    sel = root_selection(p, z, conds, {})
    assert len(sel.passing) == 2  # sqrt(2) and sqrt(3)
    shared = [b.halvings for b in made]
    sf = square_free(uni_from_poly(p, z, {}))
    qs = [uni_from_poly(c.poly, z, {}) for c in conds]
    alone = []
    for lo, hi in isolate_roots(sf):
        made.clear()
        for q in qs:
            sign_at_root(q, CountingBracket(sf, lo, hi))
        alone.append([b.halvings for b in made])
    assert len(shared) == len(alone) == 4
    for got, each in zip(shared, alone):
        assert got <= max(each)
    assert any(got < sum(each) for got, each in zip(shared, alone))


def test_verify_certificate_evaluates_f_once_per_sample(monkeypatch):
    dp = defining_polynomial("sqrt(x - 1) + x")
    cert = isolate("sqrt(x - 1) + x", dp, cfg=IsolateConfig(samples=8))
    calls = []

    def counting(*args):
        calls.append(args)
        return eval_numeric(*args)

    monkeypatch.setattr(verify_module, "eval_numeric", counting)
    report = verify_certificate("sqrt(x - 1) + x", cert, samples_per_component=6)
    assert report.passed
    assert len(calls) == sum(line.samples_used for line in report.checks)
    assert len(calls) == 6 * len(cert.entries) + len(cert.skipped)


def test_sample_in_component():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    comp = cert.entries[0].component
    rng = random.Random(0)
    for _ in range(20):
        pt = sample_in_component(comp, rng)
        for cond in comp.conditions:
            assert relation_holds(cond.poly.eval(pt), cond.rel)


def test_sample_in_component_narrow_component():
    # only the anchor itself lies inside the first box (radius 1); one miss
    # per box size forces the shrinking boxes
    comp = ComponentDescription(
        conditions=(SignCondition(X, ">"), SignCondition(100 * X - 1, "<")),
        sample={XID: Fraction(1, 200)},
    )
    for seed in range(20):
        pt = sample_in_component(comp, random.Random(seed), max_tries=1)
        assert 0 < pt[XID] < Fraction(1, 100)


# -- the sample walk's memo ----------------------------------------------------------

REG2 = VarRegistry(["x", "y"])


@st.composite
def walk_components(draw):
    """A component in one or two variables around a rational anchor: wide
    (half-planes well clear of the anchor), narrow (a strip around a line
    through the anchor, the line itself excluded, so only shrunk boxes hit)
    or exhausted (the strip too thin for the smallest box, or a condition
    no draw meets)."""
    ids = [REG2.id_of(n) for n in ("x", "y")[: draw(st.integers(1, 2))]]
    anchor = {
        v: draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        for v in ids
    }
    coeffs = {v: draw(st.integers(-3, 3).filter(bool)) for v in ids}
    # l vanishes at the anchor and is an integer combination of the offsets
    line = sum(
        (c * (MultiPoly.var(REG2, v) - anchor[v]) for v, c in coeffs.items()),
        MultiPoly.zero(REG2),
    )
    kind = draw(st.sampled_from(["wide", "narrow", "exhausted"]))
    if kind == "wide":
        t = draw(st.sampled_from([1, 2, 5]))
        conditions = [SignCondition(line + t, draw(st.sampled_from([">", ">="])))]
    elif kind == "narrow":
        eps = Fraction(1, draw(st.sampled_from([100, 3000, 50000, 10**7])))
        conditions = [
            SignCondition(line + eps, ">"),
            SignCondition(line - eps, "<"),
            SignCondition(line, "!="),
        ]
    else:
        reach = sum(abs(c) for c in coeffs.values()) + 1
        conditions = [SignCondition(line - reach, ">")]
    return ComponentDescription(tuple(draw(st.permutations(conditions))), anchor, kind)


def _walk(points, component, seed, limit):
    """Every point of a walk, its SamplingError if it ends in one, and the
    rng state after it."""
    rng = random.Random(seed)
    out = []
    try:
        out.extend(points(component, rng, limit))
    except SamplingError as exc:
        out.append(str(exc))
    return out, rng.getstate()


@given(walk_components(), st.integers(0, 2**16), st.integers(1, 6))
def test_component_points_match_the_walk_without_memo(component, seed, limit):
    got = _walk(verify_module.component_points, component, seed, limit)
    assert got == _walk(reference_component_points, component, seed, limit)


def test_walk_components_cover_shrinks_and_exhaustion():
    narrow = ComponentDescription(
        (SignCondition(X + Fraction(1, 3000), ">"),
         SignCondition(X - Fraction(1, 3000), "<"),
         SignCondition(X, "!=")),
        {XID: Fraction(0)},
    )
    points, _ = _walk(verify_module.component_points, narrow, 0, 3)
    # offsets step by 1/40, 1/640, 1/10240, ...: only the third box and
    # smaller hold a hit
    assert all(0 < abs(p[XID]) < Fraction(1, 3000) for p in points[1:])
    thin = dataclasses.replace(
        narrow,
        conditions=(SignCondition(X + Fraction(1, 10**7), ">"),
                    SignCondition(X - Fraction(1, 10**7), "<"),
                    SignCondition(X, "!=")),
    )
    points, _ = _walk(verify_module.component_points, thin, 0, 3)
    assert points[1] == "rejection sampling exhausted near component"


class CountingRandom(random.Random):
    """A Random that counts its `randint` calls."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


def test_sample_walk_tests_each_draw_once(monkeypatch):
    # only the anchor lies inside the first box, so nearly every draw misses
    anchor = Fraction(1, 200)
    comp = ComponentDescription(
        conditions=(SignCondition(X, ">"), SignCondition(100 * X - 1, "<")),
        sample={XID: anchor},
    )
    calls = Counter()
    holds = verify_module.condition_holds

    def counting(cond, point):
        calls[cond, point[XID]] += 1
        return holds(cond, point)

    monkeypatch.setattr(verify_module, "condition_holds", counting)
    rng, seen = CountingRandom(0), {}
    for _ in range(24):
        assert sample_in_component(comp, rng, seen=seen) == {XID: anchor}
    # (shrink, offset) keys can meet in one point: offset 0 is the anchor
    # in every box
    keys_at = Counter(anchor + Fraction(r, 40 * 16**shrink) for shrink, r in seen)
    assert calls and all(n <= keys_at[x] for (_, x), n in calls.items())
    assert sum(n for (cond, _), n in calls.items() if cond.rel == ">") == len(seen)
    assert rng.draws > 10 * len(seen)


@pytest.mark.parametrize("tamper", [False, True])
def test_verify_certificate_report_matches_the_walk_without_memo(monkeypatch, tamper):
    # most entries of this certificate are narrow: their walks come back to
    # the anchor again and again
    f = "x^(1/2) - x^(1/3)"
    cert = isolate(f, defining_polynomial(f), cfg=IsolateConfig(samples=8))
    if tamper:  # flip the sign of z in a later entry
        entry = cert.entries[4]
        *rest, cond = entry.root_conditions
        flipped = SignCondition(cond.poly, RELATIONS[cond.rel].flip)
        entry = dataclasses.replace(entry, root_conditions=(*rest, flipped))
        cert = dataclasses.replace(
            cert, entries=(*cert.entries[:4], entry, *cert.entries[5:])
        )

    def reports():
        return [verify_certificate(f, cert, 8, seed=s).to_json() for s in range(3)]

    memo = reports()
    use_walk_without_memo(monkeypatch)
    assert memo == reports()
    assert ('"passed": false' in memo[0]) == tamper


@given(
    st.lists(st.integers(0, 5), max_size=40),
    st.dictionaries(st.integers(0, 5), st.sampled_from(["count", "skip", "fail"])),
    st.booleans(),
    st.integers(1, 8),
)
def test_tally_points_matches_checking_every_point(walk, verdicts, first_fails, limit):
    def check(n, point):
        verdict = verdicts.get(point["p"], "count")
        if n == 0 and first_fails:
            verdict = "fail"
        return verdict != "skip", f"fails at {point}" if verdict == "fail" else None

    points = [{"p": p} for p in walk]
    got = verify_module.tally_points(points, check, limit)
    assert got == reference_tally_points(points, check, limit)


# -- one proof per sample: the root in f's enclosure, and Thom's lemma --------------

GOLDEN = Path(__file__).resolve().parent / "golden"

def _golden_certificates() -> dict[str, str]:
    out = {}
    for path in sorted(GOLDEN.glob("isolate-*.txt")):
        _, found, doc = path.read_text().partition("--- file cert.json\n")
        if found:
            out[path.stem] = doc
    return out


def _tampered(doc: str, entries):
    """`doc` cut down to one of the given entries with one edit: each
    single root condition deleted, each relation flipped, and each condition
    other than an equation set to `!=`; then the whole `doc` with
    `defining + 1`."""
    obj = json.loads(doc)
    for i in entries:
        conds = obj["entries"][i]["root_conditions"]
        for j, cond in enumerate(conds):
            edits = [conds[:j] + conds[j + 1:]]
            if cond["rel"] != "=":
                for rel in (RELATIONS[cond["rel"]].flip, "!="):
                    edits.append([*conds[:j], {**cond, "rel": rel}, *conds[j + 1:]])
            for edit in edits:
                entry = {**obj["entries"][i], "root_conditions": edit}
                yield json.dumps({**obj, "entries": [entry]})
    yield json.dumps({**obj, "defining": obj["defining"] + " + 1"})


def _with_and_without_the_proof(run):
    """`run()` as it is, and with no derivative ever covered, which makes
    every selection isolate every root; also how often a root was proved
    alone in f's enclosure."""
    proved = []

    def counting(sf, value):
        found = lone_root(sf, value)
        proved.append(found is not None)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "lone_root", counting)
        on = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "forced_sign", lambda d, conditions: 0)
        off = run()
    return on, off, sum(proved)


def _verify_text(doc: str, seed: int) -> str:
    cert = certificate_from_json(doc)
    return verify_certificate(cert.source, cert, 8, seed=seed).to_json()


@pytest.mark.parametrize("name", sorted(_golden_certificates()))
def test_proof_per_sample_keeps_every_report_of_a_golden_certificate(name):
    doc = _golden_certificates()[name]
    n = len(json.loads(doc)["entries"])
    # the narrow certificate's entries are slow to sample: its first and last
    tampered = list(_tampered(doc, {0, n - 1} if name == "isolate-narrow" else range(n)))

    def run():
        return [_verify_text(doc, seed) for seed in range(3)] + [
            _verify_text(d, 0) for d in tampered
        ]

    on, off, proved = _with_and_without_the_proof(run)
    assert on == off
    assert '"passed": true' in on[0] and proved
    assert '"passed": false' in on[-1]  # defining + 1


def test_proof_per_sample_keeps_every_report_of_the_certify_corpus():
    built = [
        (text, strategy, cfg, defining_polynomial(text), dom)
        for text, strategy, cfg, dom in ROUND_TRIP
    ]

    def run():
        out = []
        for seed in range(10):
            for text, strategy, cfg, dp, dom in built:
                cfg = dataclasses.replace(cfg, samples=4, seed=seed)
                domain = None if dom is None else domain_for(dp, *dom)
                cert = merge_components(isolate(text, dp, strategy, cfg, domain), cfg)
                report = verify_certificate(cert.source, cert, 4, seed=seed)
                out += [cert.to_json(), report.to_json()]
        return out

    on, off, proved = _with_and_without_the_proof(run)
    assert on == off and proved


def test_lone_root_only_on_a_proved_single_root():
    sf = [-6, 11, -6, 1]  # (z - 1)(z - 2)(z - 3)

    def alone(lo, hi):
        bracket = lone_root(sf, Interval(Fraction(lo), Fraction(hi)))
        return bracket and bracket.interval()

    near3 = Fraction(29, 10), Fraction(31, 10)
    assert alone(*near3) == near3
    assert alone(3, 3) == (3, 3)  # a point J is a root
    # opposite signs at the ends, but three roots inside: nothing is proved
    assert alone(0, 4) is None
    # one root, but p' vanishes at 2 + 1/sqrt(3) inside
    assert alone(Fraction(5, 2), 4) is None
    assert alone(3, 4) is None  # an end is a root
    assert alone(Fraction(7, 2), 4) is None  # no root in J
    assert alone(Fraction(5, 2), Fraction(5, 2)) is None


def test_root_selection_alone_in_selects_only_a_proved_passing_root():
    reg = VarRegistry(["z"])
    z = reg.id_of("z")
    p = polynomial_from_text("(z - 1)*(z - 2)*(z - 3)", reg)

    def select(j, *conds, alone=True):
        conditions = [SignCondition(polynomial_from_text(t, reg), r) for t, r in conds]
        j = Interval(Fraction(j[0]), Fraction(j[1]))
        return root_selection(p, z, conditions, {}, alone_in=j if alone else None)

    near3 = Fraction(29, 10), Fraction(31, 10)
    selection = select(near3, ("2*z - 5", ">"))
    assert len(selection.intervals) == 1 and selection.passing == (0,)
    assert selection_matches_f(Interval(*near3), selection)
    assert select((3, 3), ("2*z - 5", ">"), ("z - 3", "=")).intervals == ((3, 3),)
    # the root in J fails a condition, or is not proved alone: every root
    for j, cond in [
        (near3, ("2*z - 5", "<")),
        ((0, 4), ("z", ">")),
        ((Fraction(5, 2), 4), ("2*z - 5", ">")),
        ((3, 4), ("2*z - 5", ">")),
    ]:
        full = select(j, cond, alone=False)
        assert select(j, cond) == full and len(full.intervals) == 3
    with pytest.raises(PolyError, match="degenerates"):
        root_selection(
            polynomial_from_text("7", reg), z, [], {},
            alone_in=Interval(Fraction(0), Fraction(1)),
        )


def test_forced_sign_covers_the_relaxed_goldstein_price_child():
    # the domain certificate's root conditions z^2 - s >= 0 and z >= 0, s
    # standing for x + y - 2, and a quartic of the same tower
    reg = VarRegistry(["s", "z"])
    z = reg.id_of("z")
    conds = [
        SignCondition(polynomial_from_text("z^2 - s", reg), ">="),
        SignCondition(polynomial_from_text("z", reg), ">="),
    ]
    p = polynomial_from_text("(z^2 - s)^2 - 4*s", reg)
    d1, d2, d3 = verify_module.derivatives_in(p, z)
    assert d1 == polynomial_from_text("4*z*(z^2 - s)", reg)  # rule (2)
    assert d2 == polynomial_from_text("4*(z^2 - s) + 8*z^2", reg)  # rule (1)
    assert d3 == polynomial_from_text("24*z", reg)  # rule (1), no gap
    assert [forced_sign(d, conds) for d in (d1, d2, d3)] == [1, 1, 1]
    assert [forced_sign(-d, conds) for d in (d1, d2, d3)] == [-1, -1, -1]
    flipped = [SignCondition(conds[0].poly, "<="), conds[1]]
    assert [forced_sign(d, flipped) for d in (d1, d3)] == [-1, 1]


@pytest.mark.parametrize("d, conditions", [
    # a derivative with no condition of its own: 24z without z >= 0
    ("24*z", [("z^2 - s", ">=")]),
    ("4*z*(z^2 - s)", [("z^2 - s", ">=")]),
    # the gap 8z has an odd exponent, and -8z^2 has the wrong sign
    ("4*(z^2 - s) + 8*z", [("z^2 - s", ">="), ("z", ">=")]),
    ("4*(z^2 - s) - 8*z^2", [("z^2 - s", ">="), ("z", ">=")]),
    # `!=` and `=` give no sign
    ("24*z", [("z", "!=")]),
    ("24*z", [("z", "=")]),
    ("4*z*(z^2 - s)", [("z^2 - s", "!="), ("z", ">=")]),
])
def test_forced_sign_finds_no_cover(d, conditions):
    reg = VarRegistry(["s", "z"])
    conds = [SignCondition(polynomial_from_text(t, reg), rel) for t, rel in conditions]
    assert forced_sign(polynomial_from_text(d, reg), conds) == 0


XZ = VarRegistry(["x", "z"])


@st.composite
def xz_polys(draw, max_terms=3, even=False, sign=0):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        ex, ez = (draw(st.integers(0, 2)) for _ in range(2))
        if even:
            ex, ez = 2 * ex, 2 * ez
        c = draw(st.integers(1, 3)) * (sign or draw(st.sampled_from([1, -1])))
        mono = tuple((v, e) for v, e in ((0, ex), (1, ez)) if e)
        terms[mono] = terms.get(mono, 0) + c
    return MultiPoly(XZ, terms)


@st.composite
def covers(draw):
    """Conditions and a d that is often, not always, covered by them."""
    conds = [
        SignCondition(draw(xz_polys()), draw(st.sampled_from(sorted(RELATIONS))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    q1, q2 = (draw(st.sampled_from(conds)).poly for _ in range(2))
    c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    rule = draw(st.sampled_from("abcr"))
    if rule == "a":
        d = q1 * c
    elif rule == "b":
        d = q1 * q2 * c
    elif rule == "c":
        d = q1 * c + draw(xz_polys(even=True, sign=draw(st.sampled_from([1, -1]))))
    else:
        d = draw(xz_polys(max_terms=4))
    return d, conds


@given(covers(), st.integers(0, 2**16))
def test_forced_sign_holds_where_the_conditions_do(problem, seed):
    d, conds = problem
    s = forced_sign(d, conds)
    assume(s)
    rng = random.Random(seed)
    for _ in range(200):
        point = {
            v: Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for v in (0, 1)
        }
        if all(verify_module.condition_holds(c, point) for c in conds):
            assert s * d.sign_at(point) >= 0


# -- independence from the audited code ---------------------------------------------


def _algprog_imports(source: str) -> dict[str, set[str]]:
    """{algprog module: names imported from it}; "*" marks a whole-module
    import, which hands over every name."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "algprog":
                    continue
                module = module.partition(".")[2]
            if module:
                out.setdefault(module, set()).update(a.name for a in node.names)
            else:
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, module = alias.name.partition(".")
                if top == "algprog":
                    out.setdefault(module or "algprog", set()).add("*")
    return out


#: the modules of src/algprog in layer order: each imports only earlier ones
LAYERS = [
    "uni", "polycore", "radicals", "resultants", "defpoly", "verify",
    "isolation", "program", "cli",
]


def test_modules_import_only_earlier_layers():
    src = Path(verify_module.__file__).parent
    imports = {m: _algprog_imports((src / f"{m}.py").read_text()) for m in LAYERS}
    for i, module in enumerate(LAYERS):
        assert imports[module].keys() <= set(LAYERS[:i]), module
    assert not imports["uni"]
    # what the README claims: verify audits certificates without importing
    # the code that builds them
    audited = {"defpoly", "isolation", "program", "resultants", "cli"}
    assert not imports["verify"].keys() & audited


def test_import_scanner_sees_every_form():
    source = (
        "import json\nfrom . import radicals\nfrom .defpoly import degree_bounds\n"
        "from algprog.isolation import isolate\nimport algprog.program\n"
        "from algprog import cli\ndef f():\n    from .resultants import resultant\n"
    )
    assert _algprog_imports(source) == {
        "radicals": {"*"},
        "defpoly": {"degree_bounds"},
        "isolation": {"isolate"},
        "program": {"*"},
        "cli": {"*"},
        "resultants": {"resultant"},
    }

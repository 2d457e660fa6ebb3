"""Ring laws, canonical text, and exact division for sparse polynomials."""

import contextlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algprog import polycore
from algprog.polycore import (
    IMAGE_PRIME,
    InexactDivision,
    MultiPoly,
    PolyError,
    VarRegistry,
    content_in,
    divexact,
    gcd_in_main_var,
    grlex_leading,
    homogenize_in_quotient,
    integer_normalize,
    poly_gcd,
    primitive_part_in,
    square_free_part,
    subresultant_prs,
    try_divexact,
)
from conftest import is_canonical

REG = VarRegistry(["x", "y", "z"])
X, Y, Z = (MultiPoly.var(REG, REG.id_of(n)) for n in ("x", "y", "z"))


# -- hypothesis strategies --------------------------------------------------

coeffs = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda c: c != 0)


@st.composite
def polys(draw, max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mono = []
        for vid in range(3):
            e = draw(st.integers(0, max_exp))
            if e:
                mono.append((vid, e))
        terms[tuple(mono)] = draw(coeffs)
    return MultiPoly(REG, terms)


@st.composite
def points(draw):
    return {
        vid: draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
        for vid in range(3)
    }


# -- ring laws ---------------------------------------------------------------


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero(REG) == p
    assert p * MultiPoly.const(REG, 1) == p
    assert p - p == MultiPoly.zero(REG)


@given(polys(), polys(), points())
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p + q).eval(a) == p.eval(a) + q.eval(a)
    assert (p * q).eval(a) == p.eval(a) * q.eval(a)
    assert (p - q).eval(a) == p.eval(a) - q.eval(a)


def term_by_term(p, point):
    total = Fraction(0)
    for m, c in p.terms.items():
        acc = c
        for v, e in m:
            acc *= Fraction(point[v]) ** e
        total += acc
    return total


coordinates = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@given(polys(max_exp=4), st.lists(coordinates, min_size=3, max_size=3))
def test_eval_matches_term_by_term_oracle(p, coords):
    point = dict(enumerate(coords))
    got = p.eval(point)
    assert isinstance(got, Fraction)
    assert got == term_by_term(p, point)


@given(polys(max_exp=6), st.lists(coordinates, min_size=3, max_size=3))
def test_point_powers_rows(p, coords):
    point = dict(enumerate(coords))
    powers = p.point_powers(point)
    for v, c in point.items():
        top = p.degree_in(v)
        if top <= 0:  # D = 0 (or the zero polynomial): no row
            assert v not in powers
            continue
        n, d = Fraction(c).numerator, Fraction(c).denominator
        assert powers[v] == [n**e * d ** (top - e) for e in range(top + 1)]


def test_eval_rejects_a_missing_variable():
    p = X * Y + Fraction(1, 3)
    with pytest.raises(PolyError, match="no value for variable 'y'"):
        p.eval({REG.id_of("x"): Fraction(2)})
    # and so it does once a plan exists
    assert p.eval({REG.id_of("x"): 2, REG.id_of("y"): 3}) == Fraction(19, 3)
    with pytest.raises(PolyError, match="no value for variable 'y'"):
        p.eval({REG.id_of("x"): Fraction(2)})
    # a variable the polynomial does not mention needs no value
    assert (X + 1).eval({REG.id_of("x"): 2}) == 3


class Interrupted(Exception):
    """Stands for the signal-raised exception of a time limit."""


def test_interrupted_eval_plan_is_not_kept():
    p = X**2 * Y + Fraction(1, 3) * Z
    point = {REG.id_of("x"): Fraction(1, 2), REG.id_of("y"): 3, REG.id_of("z"): -1}
    with mock.patch.object(polycore.math, "lcm", side_effect=Interrupted):
        with pytest.raises(Interrupted):
            p.eval(point)
    assert p._plan is None
    assert p.eval(point) == term_by_term(p, point) == Fraction(5, 12)


def test_interrupted_split_is_not_kept():
    p = X * Y * Z + Y + Z
    vs = frozenset((REG.id_of("y"), REG.id_of("z")))
    real, calls = MultiPoly.coeffs_in, []

    def flaky(self, v):
        # the second split is the nested one, inside the first's coefficient
        calls.append(v)
        if len(calls) == 2:
            raise Interrupted
        return real(self, v)

    with mock.patch.object(MultiPoly, "coeffs_in", flaky):
        with pytest.raises(Interrupted):
            p.split(vs)
    assert not p._plan.splits
    assert p.split(vs) == MultiPoly(REG, p.terms).split(vs)


@given(polys(max_exp=2), st.integers(0, 7))
def test_power_matches_repeated_product(p, k):
    # one-term and univariate bases take repeated squaring, the rest the chain
    expected = MultiPoly.const(REG, 1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@given(polys())
def test_product_with_one_is_the_polynomial_itself(p):
    assert p * 1 is p
    assert 1 * p is p
    assert p * Fraction(1) is p


@given(polys(max_terms=6, max_exp=2), st.randoms(use_true_random=False))
def test_content_does_not_depend_on_term_order(p, rng):
    items = list(p.terms.items())
    rng.shuffle(items)
    shuffled = MultiPoly(REG, dict(items))
    for v in range(3):
        assert content_in(shuffled, v) == content_in(p, v)


@given(polys(), polys(), st.randoms(use_true_random=False))
def test_equal_polynomials_hash_alike(p, q, rng):
    items = list(p.terms.items())
    rng.shuffle(items)
    shuffled = MultiPoly(REG, dict(items))
    cancelled = (p + q) - q  # built through a sum whose q terms cancel
    other = VarRegistry(REG.names())  # the hash ignores the registry
    for same in (shuffled, cancelled, MultiPoly(other, p.terms)):
        assert hash(same) == hash(p)
    assert shuffled == p and cancelled == p
    assert len({p, shuffled, cancelled}) == 1


@given(polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=1))
def test_square_free_part_is_coprime_to_its_derivative(p, q):
    v = REG.id_of("z")
    p = p * q**2
    if p.degree_in(v) < 1:
        return
    sf = square_free_part(p, v)
    assert gcd_in_main_var(sf, sf.derivative(v), v) == MultiPoly.const(REG, 1)


@given(polys(), polys())
def test_results_hold_only_canonical_coefficients(p, q):
    """The constructor alone drops zero coefficients and turns integral
    Fractions into ints: each operation below, several built to cancel terms
    or to come out integral from Fraction arithmetic, leaves that to it."""
    x = REG.id_of("x")
    n = integer_normalize(p)
    results = [
        p + q,
        p - q,
        p - p,
        (p + q) - q,
        p * q,
        (p + q) * (p - q),
        p * 0,
        p * Fraction(1, 2),
        p.derivative(x),
        MultiPoly.from_coeffs(REG, x, {1: p, 0: -(p * X)}),
        (p - p.substitute(x, Y)).substitute(x, Y),
        p.substitute(x, q),
        p * Fraction(1, 2) * 2,
    ]
    assert results[-1] == p
    # each of these is n, reached through Fractions that cancel
    integral = [
        n,
        integer_normalize(p * Fraction(2, 3)),
        divexact(n * Fraction(1, 3), MultiPoly.const(REG, Fraction(1, 3))),
        n.substitute(x, 2 * X).substitute(x, X * Fraction(1, 2)),
    ]
    assert all(r == n for r in integral)
    assert all(type(c) is int for r in integral for c in r.terms.values())
    if q:
        results.append(divexact(p * q, q))
    for r in results + integral:
        assert all(is_canonical(c) for c in r.terms.values())


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    v = REG.id_of("x")
    lhs = (p * q).derivative(v)
    assert lhs == p.derivative(v) * q + p * q.derivative(v)


@given(polys())
def test_substitute_agrees_with_eval(p):
    v = REG.id_of("y")
    a = Fraction(3, 2)
    point = {REG.id_of("x"): Fraction(1), v: a, REG.id_of("z"): Fraction(-2)}
    assert p.substitute(v, a).eval(point) == p.eval(point)


@given(polys())
def test_coeffs_round_trip(p):
    v = REG.id_of("z")
    assert MultiPoly.from_coeffs(REG, v, p.coeffs_in(v)) == p


# -- canonical text -----------------------------------------------------------


def test_to_text_grlex_order():
    p = (Z**2 - X) * (Z**2 - X) * (Z**2 + 2 * X * Z - X)  # arbitrary product
    # grlex: highest total degree first, stable and re-parseable
    from algprog.radicals import polynomial_from_text

    text = p.to_text()
    assert polynomial_from_text(text, REG) == p


def test_to_text_golden():
    p = Z**6 - 3 * X * Z**4 - 2 * X * Z**3 + 3 * X**2 * Z**2 - 6 * X**2 * Z - X**3 + X**2
    assert p.to_text() == "z^6 - 3*x*z^4 - 2*x*z^3 + 3*x^2*z^2 - 6*x^2*z - x^3 + x^2"
    assert MultiPoly.zero(REG).to_text() == "0"
    assert (X - X).to_text() == "0"
    assert MultiPoly.const(REG, Fraction(-3, 4)).to_text() == "-3/4"
    assert (X * Y - 1).to_text() == "x*y - 1"


def test_registry_mismatch_rejected():
    other = VarRegistry(["x"])
    with pytest.raises(PolyError):
        X + MultiPoly.var(other, 0)


def test_registry_fresh_names():
    reg = VarRegistry(["x", "z"])
    assert reg.fresh("z") == "z2"
    reg.add("z2")
    assert reg.fresh("z") == "z3"


# -- division, gcd, square-free ----------------------------------------------


@given(polys(), polys())
def test_divexact_inverts_product(p, q):
    if q.is_zero():
        return
    assert divexact(p * q, q) == p


def reference_divexact(p, q):
    """Long division over the rationals in grlex order, the reference for
    the integer quotient of `divexact`."""
    if q.is_constant():
        return p * (1 / Fraction(q.constant_value()))
    rem = dict(p.terms)
    lead_q = grlex_leading(q.terms)
    cq = q.terms[lead_q]
    out = {}
    while rem:
        lead_r = grlex_leading(rem)
        if not polycore._mono_divides(lead_q, lead_r):
            raise InexactDivision("division is not exact")
        m = polycore._mono_div(lead_r, lead_q)
        c = Fraction(rem[lead_r]) / cq
        out[m] = out.get(m, Fraction(0)) + c
        for mq, kq in q.terms.items():
            mm = polycore._mono_mul(m, mq)
            s = rem.get(mm, Fraction(0)) - c * kq
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return MultiPoly(p.registry, out)


@given(polys(), polys(max_terms=4), polys(max_terms=2), st.booleans())
def test_divexact_matches_rational_long_division(a, q, r, divisible):
    # p = a*q is divisible by q; p = a*q + r usually is not
    if q.is_zero():
        return
    p = a * q if divisible else a * q + r
    try:
        want = reference_divexact(p, q)
    except InexactDivision:
        with pytest.raises(InexactDivision):
            divexact(p, q)
        return
    got = divexact(p, q)
    assert got == want
    assert all(is_canonical(c) for c in got.terms.values())


def test_divexact_rejects_inexact():
    with pytest.raises(InexactDivision):
        divexact(X * Y + 1, X)
    assert try_divexact(X * Y + 1, X) is None
    assert try_divexact(X * Y + X, X) == Y + 1


@given(polys())
def test_integer_normalize_is_proportional(p):
    if p.is_zero():
        return
    q = integer_normalize(p)
    from conftest import proportional

    assert proportional(p, q)
    assert q.terms[grlex_leading(q.terms)] > 0
    # integer coefficients with gcd 1
    cs = [c for c in q.terms.values()]
    assert all(c.denominator == 1 for c in cs)


@given(polys(), polys(), polys())
def test_gcd_common_factor(p, q, r):
    if p.is_zero() or q.is_zero() or r.is_zero():
        return
    g = poly_gcd(p * r, q * r)
    assert try_divexact(g, r) is not None or try_divexact(r, g) is not None
    assert try_divexact(p * r, g) is not None
    assert try_divexact(q * r, g) is not None


def test_gcd_in_main_var_golden():
    v = REG.id_of("x")
    g = gcd_in_main_var((X - Y) * (X + 1), (X - Y) * (X - 1), v)
    from conftest import proportional

    assert proportional(g, X - Y)


def test_square_free_part_strips_multiplicity():
    v = REG.id_of("x")
    p = (X - 1) ** 2 * (X - 2) * (X + Y) ** 3
    sf = square_free_part(p, v)
    from conftest import proportional

    assert proportional(sf, (X - 1) * (X - 2) * (X + Y))


def test_primitive_part_in_main_var():
    v = REG.id_of("z")
    p = (Y**2) * Z**2 - (Y**2) * X
    from conftest import proportional

    assert proportional(primitive_part_in(p, v), Z**2 - X)


# -- the coprimality pre-test against the PRS ---------------------------------


@contextlib.contextmanager
def prs_only():
    """Every gcd on the subresultant PRS: neither the pre-test, nor the
    proofs of content 1, nor the heuristic gcd decides anything."""
    with (
        mock.patch.object(polycore, "_coprime_by_image", lambda p, q, v: False),
        mock.patch.object(polycore, "_has_constant_coeff", lambda p, v: False),
        mock.patch.object(polycore, "_heuristic_gcd", lambda a, b: None),
    ):
        yield


def prs_gcd_in_main_var(p, q, v):
    with prs_only():
        last = subresultant_prs(p, q, v)[-1]
        if last.degree_in(v) == 0:
            return MultiPoly.const(REG, 1)
        return primitive_part_in(last, v)


def prs_poly_gcd(p, q):
    with prs_only():
        return poly_gcd(p, q)


def prs_content_in(p, v):
    with prs_only():
        return content_in(p, v)


@st.composite
def gcd_problems(draw, contents=False):
    """Bivariate or trivariate operands, some with a planted common factor;
    coefficients have denominators up to 4.  With `contents`, each operand
    is also multiplied by a monomial (x^3*... and the like) and an integer."""
    nvars = draw(st.sampled_from([2, 3]))
    small = (
        polys(max_terms=3, max_exp=2)
        .map(
            lambda p: MultiPoly(
                REG, {m: c for m, c in p.terms.items() if all(v < nvars for v, _ in m)}
            )
        )
        .filter(bool)
    )
    p, q = draw(small), draw(small)
    if draw(st.booleans()):
        common = draw(small)
        p, q = p * common, q * common
    if contents:
        monomials = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(
            lambda es: MultiPoly(REG, {tuple((v, e) for v, e in enumerate(es) if e): 1})
        )
        p = p * draw(monomials) * draw(st.integers(1, 12))
        q = q * draw(monomials) * draw(st.integers(1, 12))
    return p, q, draw(st.integers(0, nvars - 1))


@given(gcd_problems())
def test_gcds_match_prs_oracle(problem):
    p, q, v = problem
    assert gcd_in_main_var(p, q, v) == prs_gcd_in_main_var(p, q, v)
    assert poly_gcd(p, q) == prs_poly_gcd(p, q)


def image_value(name):
    return polycore._image_value(REG.id_of(name))


def check_pretest(p, q, v, proves, gcd):
    assert polycore._coprime_by_image(p, q, v) is proves
    assert gcd_in_main_var(p, q, v) == prs_gcd_in_main_var(p, q, v) == gcd
    assert poly_gcd(p, q) == prs_poly_gcd(p, q)


def test_pretest_proves_coprime():
    check_pretest(X**2 - Y, X * Z + 1, REG.id_of("x"), True, MultiPoly.const(REG, 1))


def test_pretest_falls_back_when_leading_coefficient_vanishes():
    # lc in x is y - a, and y maps to a
    p = (Y - image_value("y")) * X**2 + 1
    check_pretest(p, X - 2, REG.id_of("x"), False, MultiPoly.const(REG, 1))


def test_pretest_falls_back_on_denominator_divisible_by_prime():
    p = X**2 + Y + Fraction(1, IMAGE_PRIME)
    check_pretest(p, X + 1, REG.id_of("x"), False, MultiPoly.const(REG, 1))


def test_pretest_falls_back_on_unlucky_image():
    # coprime, but both images are x - a
    p, q = X - Y, X - image_value("y")
    check_pretest(p, q, REG.id_of("x"), False, MultiPoly.const(REG, 1))


def test_pretest_falls_back_on_nontrivial_gcd():
    p, q = (X - Y) * (X + 1), (X - Y) * (X - Z)
    check_pretest(p, q, REG.id_of("x"), False, integer_normalize(X - Y))


# -- the heuristic gcd and the proofs of content 1 against the PRS ------------


def no_prs():
    """The PRS, and so `poly_gcd`'s own path, raise when reached."""
    return mock.patch.object(
        polycore, "subresultant_prs", side_effect=AssertionError("PRS reached")
    )


@given(gcd_problems(contents=True))
def test_heuristic_gcd_matches_prs_oracle(problem):
    p, q, v = problem
    want = prs_poly_gcd(p, q)
    assert polycore._heuristic_poly_gcd(p, q) == want
    with mock.patch.object(polycore, "_coprime_by_image", lambda p, q, v: False):
        assert gcd_in_main_var(p, q, v) == prs_gcd_in_main_var(p, q, v)
    assert content_in(p, v) == prs_content_in(p, v)


def test_heuristic_carries_the_content_through_every_level():
    # x^3 is y's integer content once x is evaluated: it must come back
    with no_prs():
        assert polycore._heuristic_poly_gcd(X**3 * Y, X**3 * Y**2) == X**3 * Y
        assert poly_gcd(X**3 * Y, X**3 * Y**2) == X**3 * Y
        assert poly_gcd(6 * X**3 * Y, 4 * X**3 * Y**2 * Z) == X**3 * Y


def test_prs_answers_when_the_heuristic_gives_up():
    p, q, v = (X - Y) * (X + 1), (X - Y) * (X - Z), REG.id_of("x")
    prs = mock.Mock(wraps=subresultant_prs)
    with (
        mock.patch.object(polycore, "_heuristic_gcd", lambda a, b: None),
        mock.patch.object(polycore, "subresultant_prs", prs),
    ):
        assert gcd_in_main_var(p, q, v) == integer_normalize(X - Y)
    assert prs.called


def test_content_one_by_a_constant_coefficient():
    p, v = X**2 * (Y + Z) + X * Y * Z + 5, REG.id_of("x")
    assert polycore._has_constant_coeff(p, v)
    assert not polycore._has_constant_coeff(p + Y, v)  # x^0's coefficient is 5 + y
    with (
        mock.patch.object(MultiPoly, "coeffs_in", side_effect=AssertionError),
        mock.patch.object(polycore, "_heuristic_gcd", side_effect=AssertionError),
    ):
        assert content_in(p, v) == MultiPoly.const(REG, 1)


def test_content_one_by_images():
    # no coefficient is constant; the two smallest, y + z and y^2 + 1, have
    # coprime images in y and in z
    p, v = X**2 * (Y**2 + 1) + X * (Y + Z) + X**3 * (Y * Z + Y + 2), REG.id_of("x")
    assert not polycore._has_constant_coeff(p, v)
    with mock.patch.object(polycore, "_heuristic_gcd", side_effect=AssertionError):
        assert content_in(p, v) == MultiPoly.const(REG, 1)
    assert prs_content_in(p, v) == MultiPoly.const(REG, 1)


def test_square_free_part_with_the_content_inside_needs_no_prs():
    # p defines x^(1/2) + x^(1/3); the PRS with (y + 1)*6 inside took seconds
    p = MultiPoly.from_text(
        REG, "z^6 - 3*x*z^4 - 2*x*z^3 + 3*x^2*z^2 - 6*x^2*z - x^3 + x^2", 6
    )
    z, line = REG.id_of("z"), Z - X - 7
    with no_prs():
        got = square_free_part((Y + 1) * 6 * p * line**2, z)
    assert got == primitive_part_in(p * line, z)


# -- homogenization in the quotient variable ----------------------------------


def test_homogenize_in_quotient():
    v, t = REG.id_of("z"), REG.id_of("x")
    p = Z**2 + Z + 1
    h = homogenize_in_quotient(p, v, t, 2)
    assert h == Z**2 + Z * X + X**2
    with pytest.raises(PolyError):
        homogenize_in_quotient(p, v, t, 3)  # wrong degree
    with pytest.raises(PolyError):
        homogenize_in_quotient(Z + X, v, t, 1)  # t occurs already


@given(polys())
def test_homogenize_evaluates_as_quotient(p):
    v, t = REG.id_of("z"), REG.id_of("y")
    q = MultiPoly.from_coeffs(
        REG, v, {e: c.substitute(REG.id_of("y"), 1) for e, c in p.coeffs_in(v).items()}
    )
    if q.degree_in(v) < 1:
        return
    d = q.degree_in(v)
    h = homogenize_in_quotient(q, v, t, d)
    a, b = Fraction(5, 3), Fraction(7, 2)  # z = a/b with t = b
    point = {REG.id_of("x"): Fraction(2), v: a, t: b}
    lhs = h.eval(point)
    rhs = (b**d) * q.eval({REG.id_of("x"): Fraction(2), v: a / b, t: Fraction(0)})
    assert lhs == rhs

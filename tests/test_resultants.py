"""Sylvester resultants: known values, vanishing law, degree bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algprog.polycore import MultiPoly, PolyError, VarRegistry, poly_gcd
from algprog.resultants import (
    det_bareiss,
    resultant,
    resultant_with_constant,
    sylvester_matrix,
)
from conftest import is_canonical, proportional, resultant_degree_bound

REG = VarRegistry(["x", "y", "z"])
X, Y, Z = (MultiPoly.var(REG, REG.id_of(n)) for n in ("x", "y", "z"))
ZID = REG.id_of("z")


def uni(coeff_list, var=None):
    """Dense rational coefficients (low to high) as a MultiPoly in one var."""
    v = var if var is not None else Z
    out = MultiPoly.zero(REG)
    for e, c in enumerate(coeff_list):
        out = out + v**e * Fraction(c)
    return out


# -- known values --------------------------------------------------------------


def test_resultant_linear_factor_is_evaluation():
    # res_z(p, z - a) = p(a) for monic linear second argument (up to sign)
    p = Z**2 - X
    r = resultant(p, Z - 3, ZID)
    assert proportional(r, MultiPoly.const(REG, 9) - X)


def test_resultant_classic_discriminant():
    # res_z(z^2 + bz + c, 2z + b) = -(b^2 - 4c) for b, c treated as variables
    p = Z**2 + X * Z + Y
    r = resultant(p, p.derivative(ZID), ZID)
    assert proportional(r, X**2 - 4 * Y)


def test_resultant_eliminates_variable():
    r = resultant(Z**2 - X, Z**3 - Y, ZID)
    assert ZID not in r.vars_present()
    assert proportional(r, X**3 - Y**2)


def test_resultant_with_constant():
    p = Z**3 - X
    assert resultant_with_constant(p, MultiPoly.const(REG, 5), ZID) == MultiPoly.const(
        REG, 125
    )
    assert resultant_with_constant(MultiPoly.const(REG, 5), p, ZID) == MultiPoly.const(
        REG, 125
    )
    assert resultant_with_constant(p, Z - 1, ZID) == resultant(p, Z - 1, ZID)
    with pytest.raises(PolyError):
        resultant_with_constant(X + 1, MultiPoly.const(REG, 2), ZID)
    with pytest.raises(PolyError):
        resultant(p, MultiPoly.const(REG, 5), ZID)


def det_cofactor(rows):
    """Cofactor-expansion determinant: the reference for Bareiss."""
    if len(rows) == 1:
        return rows[0][0]
    total = MultiPoly.zero(REG)
    for j, head in enumerate(rows[0]):
        term = head * det_cofactor([r[:j] + r[j + 1 :] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def test_sylvester_shape_and_determinants_agree():
    p = 2 * Z**3 + X * Z - 1
    q = Z**2 - Y
    m = sylvester_matrix(p, q, ZID)
    assert [len(row) for row in m] == [5] * 5
    assert det_bareiss(m) == det_cofactor(m)


@st.composite
def xy_matrices(draw):
    """1x1 to 4x4 matrices of small x, y polynomials with rational
    coefficients, each row over its own denominators, some with a zero
    column or a repeated row."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=1, max_size=2))
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(draw(st.integers(0, 3))):
                ex, ey = draw(st.integers(0, 2)), draw(st.integers(0, 2))
                mono = tuple((v, e) for v, e in ((REG.id_of("x"), ex), (REG.id_of("y"), ey)) if e)
                terms[mono] = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from(dens)))
            row.append(MultiPoly(REG, terms))
        rows.append(row)
    singular = n > 1 and draw(st.sampled_from(["zero column", "repeated row", None]))
    if singular == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = MultiPoly.zero(REG)
    elif singular == "repeated row":
        i, k = draw(st.permutations(range(n)))[:2]
        rows[k] = list(rows[i])
    return rows, bool(singular)


@given(xy_matrices())
def test_det_bareiss_matches_cofactor_expansion(drawn):
    rows, singular = drawn
    got = det_bareiss(rows)
    assert got == det_cofactor(rows)
    assert all(is_canonical(c) for c in got.terms.values())
    if singular:
        assert got.is_zero()


@pytest.mark.parametrize("rows", [[], [[X, Y]], [[X, Y], [Y]]])
def test_det_bareiss_needs_a_nonempty_square_matrix(rows):
    with pytest.raises(PolyError):
        det_bareiss(rows)


# -- the vanishing law ----------------------------------------------------------


def test_common_root_forces_zero_resultant():
    rng = random.Random(11)
    for _ in range(120):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        p = (Z - a) * uni([rng.randint(-5, 5) for _ in range(3)] + [1])
        q = (Z - a) * uni([rng.randint(-5, 5) for _ in range(2)] + [1])
        assert resultant(p, q, ZID).is_zero()


def test_coprime_pairs_have_nonzero_resultant():
    rng = random.Random(12)
    checked = 0
    while checked < 120:
        p = uni([rng.randint(-5, 5) for _ in range(3)] + [1])
        q = uni([rng.randint(-5, 5) for _ in range(2)] + [1])
        if poly_gcd(p, q).total_degree() > 0:
            continue
        checked += 1
        assert not resultant(p, q, ZID).is_zero()


# -- degree bounds ---------------------------------------------------------------


@st.composite
def bivariate(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        ez = draw(st.integers(0, max_exp))
        ex = draw(st.integers(0, max_exp))
        mono = tuple(
            (v, e) for v, e in ((REG.id_of("x"), ex), (ZID, ez)) if e
        )
        terms[mono] = Fraction(draw(st.integers(-4, 4)) or 1)
    return MultiPoly(REG, terms)


@given(bivariate(), bivariate())
def test_degree_bound_holds(p, q):
    if p.degree_in(ZID) < 1 or q.degree_in(ZID) < 1:
        return
    x = REG.id_of("x")
    r = resultant(p, q, ZID)
    bound = resultant_degree_bound(p, q, ZID, x)
    assert r.degree_in(x) <= bound
    assert bound == p.degree_in(ZID) * q.degree_in(x) + q.degree_in(ZID) * p.degree_in(
        x
    )


@given(bivariate(), bivariate())
def test_resultant_of_fraction_operands_is_canonical(p, q):
    # res(p/2, 2q) = 2^(deg p - deg q) res(p, q): integral when deg p >= deg q,
    # although the Sylvester rows of p/2 carry denominators
    dp, dq = p.degree_in(ZID), q.degree_in(ZID)
    if dp < 1 or dq < 1:
        return
    got = resultant(p * Fraction(1, 2), q * 2, ZID)
    assert got == resultant(p, q, ZID) * Fraction(2) ** (dp - dq)
    assert all(is_canonical(c) for c in got.terms.values())
    if dp >= dq:
        assert all(type(c) is int for c in got.terms.values())


# -- closed forms against the determinant -----------------------------------------


@st.composite
def xy_coeff(draw, constant=False):
    """A nonzero x, y polynomial of degree <= 1 with `Fraction` coefficients;
    with `constant`, a nonzero number, often a non-unit or a `Fraction`."""
    frac = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))
    if constant:
        return MultiPoly.const(REG, draw(frac.filter(bool)))
    c = draw(frac) + draw(frac) * X + draw(frac) * Y
    return c or MultiPoly.const(REG, 1)


@st.composite
def z_poly(draw, degree, lead=None):
    """Degree `degree` in z over `xy_coeff`, with leading coefficient `lead`
    (drawn when None); lower coefficients may be zero."""
    out = (lead if lead is not None else draw(xy_coeff())) * Z**degree
    for k in range(degree):
        if draw(st.booleans()):
            out = out + draw(xy_coeff()) * Z**k
    return out


PATHS = ["linear", "constant lead", "common factor", "constant remainder", "determinant"]


@st.composite
def closed_form_pairs(draw, path):
    """(p, q) taking `path` through `resultant` when p comes first."""
    nonconstant = xy_coeff().filter(lambda c: not c.is_constant())
    if path == "linear":
        # c1 non-constant or a Fraction, c0 possibly zero
        c0 = draw(st.one_of(st.just(MultiPoly.zero(REG)), xy_coeff()))
        p = draw(st.one_of(nonconstant, xy_coeff(constant=True))) * Z + c0
        return p, draw(z_poly(draw(st.integers(1, 4))))
    if path == "determinant":  # both leading coefficients non-constant
        p = draw(z_poly(draw(st.integers(2, 3)), draw(nonconstant)))
        return p, draw(z_poly(draw(st.integers(2, 3)), draw(nonconstant)))
    # the rest divide by q, whose leading coefficient is a constant
    q = draw(z_poly(draw(st.integers(2, 3)), draw(xy_coeff(constant=True))))
    if path == "constant lead":
        return draw(z_poly(draw(st.integers(q.degree_in(ZID), 4)))), q
    if path == "common factor":  # a zero remainder
        return q * draw(z_poly(draw(st.integers(0, 2)))), q * draw(xy_coeff(constant=True))
    # a remainder of degree 0 in z
    return q * draw(z_poly(draw(st.integers(0, 2)))) + draw(xy_coeff()), q


@pytest.mark.parametrize("swap", [False, True], ids=["p-first", "q-first"])
@pytest.mark.parametrize("path", PATHS)
@given(data=st.data())
def test_resultant_equals_the_sylvester_determinant(path, swap, data):
    # exactly, sign included: the closed forms and Euclid's steps change no term
    p, q = data.draw(closed_form_pairs(path))
    if swap:
        p, q = q, p
    got = resultant(p, q, ZID)
    assert got == det_bareiss(sylvester_matrix(p, q, ZID))
    assert all(is_canonical(c) for c in got.terms.values())


def test_a_linear_side_builds_no_sylvester_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("Sylvester matrix built")

    p = (X + 2) * Z**3 - Y * Z + Fraction(1, 3)
    linear = (X - Y) * Z + Fraction(2, 5)
    want = det_bareiss(sylvester_matrix(p, linear, ZID))
    monkeypatch.setattr("algprog.resultants.sylvester_matrix", refuse)
    assert resultant(p, linear, ZID) == want
    assert resultant(linear, p, ZID) == -want  # (-1)^(3 * 1)
    with pytest.raises(AssertionError, match="Sylvester matrix built"):
        resultant(p, (X + 1) * Z**2 + Y, ZID)

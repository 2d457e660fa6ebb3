"""Parsing, normal form, and certified interval evaluation of radical
expressions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algprog import radicals
from algprog.polycore import MultiPoly, VarRegistry
from algprog.radicals import (
    NOT_REAL,
    Add,
    Const,
    Div,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    Interval,
    MAX_NESTING,
    Mul,
    NotPolynomial,
    Root,
    Sub,
    Var,
    distinct_radicals,
    eval_numeric,
    is_polynomial,
    normalize,
    parse,
    poly_enclosure,
    polynomial_from_text,
    rat_root_enclosure,
    structural_key,
    substitute_expr,
    to_polynomial,
    to_text,
    variables_of,
)


# -- parser ---------------------------------------------------------------------


def test_parse_precedence_and_shape():
    e = parse("x + y*z^2")
    assert isinstance(e, Add)
    assert isinstance(e.right, Mul)
    # semantics survive normalization even though the tree is reshaped
    point = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(3)}
    v = eval_numeric(normalize(e), point)
    assert v.lo == v.hi == Fraction(19)


def test_sqrt_and_rational_exponent_agree():
    a = normalize(parse("sqrt(x)"))
    b = normalize(parse("x^(1/2)"))
    assert structural_key(a) == structural_key(b)
    assert isinstance(a, Root) and a.index == 2


def test_nested_roots_parse():
    e = normalize(parse("sqrt(x^2 + sqrt(y^2 + 1))"))
    rads = distinct_radicals(e)
    assert len(rads) == 2
    assert variables_of(e) == {"x", "y"}


def test_negative_exponent_rejected():
    # exponents are positive rationals; reciprocals are spelled with division
    with pytest.raises(ExprSyntaxError):
        parse("x^(-2)")
    e = normalize(parse("1/x^2"))
    v = eval_numeric(e, {"x": Fraction(2)})
    assert v.lo == v.hi == Fraction(1, 4)


@pytest.mark.parametrize(
    "bad",
    ["x +", "(x", "x^y", "sqrt", "sin(x)", "", "1..2", "x**2", "x ^ (1/0)"],
)
def test_syntax_errors(bad):
    with pytest.raises(ExprSyntaxError):
        parse(bad)


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(deep) == Var("x")
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(" + deep + ")")
    assert exc.value.position == MAX_NESTING + 1
    with pytest.raises(ExprSyntaxError):
        parse("-" * 3000 + "x")
    with pytest.raises(ExprSyntaxError):
        parse("sqrt(" * 3000 + "x" + ")" * 3000)


@pytest.mark.parametrize(
    "text",
    [
        "x + y",
        "x - y*z",
        "sqrt(x) + x^(1/3)",
        "(x + 1)/(y - 2)",
        "sqrt(1 + x^2) + x/y",
        "2/3*x^4 - 7",
        "sqrt(sqrt(x) + 1)",
    ],
)
def test_to_text_parse_round_trip(text):
    e = normalize(parse(text))
    again = normalize(parse(to_text(e)))
    assert structural_key(again) == structural_key(e)


def test_normalize_idempotent():
    for text in ["x^(2/3) + 1", "sqrt(x)*sqrt(x)", "x/(y/z)", "x^3"]:
        e = normalize(parse(text))
        assert structural_key(normalize(e)) == structural_key(e)


# -- polynomial bridge ------------------------------------------------------------


def test_polynomial_from_text_golden():
    reg = VarRegistry(["x", "y"])
    p = polynomial_from_text("(x + y)^2 - 4*x*y", reg)
    q = polynomial_from_text("x^2 - 2*x*y + y^2", reg)
    assert p == q


def test_is_polynomial():
    assert is_polynomial(normalize(parse("x^2 + 3*y - 1/2")))
    assert not is_polynomial(normalize(parse("sqrt(x) + 1")))
    assert not is_polynomial(normalize(parse("x/y")))
    assert is_polynomial(normalize(parse("x/2")))


def test_to_polynomial_rejects_radicals():
    reg = VarRegistry(["x"])
    with pytest.raises(NotPolynomial):
        to_polynomial(normalize(parse("sqrt(x)")), reg)


# -- radical bookkeeping ------------------------------------------------------------


def test_distinct_radicals_deduplicates():
    e = normalize(parse("sqrt(x) + sqrt(x)*sqrt(y)"))
    rads = distinct_radicals(e)
    keys = {structural_key(r) for r in rads}
    assert len(rads) == len(keys) == 2


def test_distinct_radicals_outermost_first():
    e = normalize(parse("sqrt(sqrt(x) + 1)"))
    rads = distinct_radicals(e)
    assert structural_key(rads[0]) == structural_key(e)
    assert len(rads) == 2


def test_substitute_expr_replaces_subtree():
    e = normalize(parse("sqrt(x) + y"))
    target = distinct_radicals(e)[0]
    out = substitute_expr(e, {target: Var("w")})
    assert structural_key(out) == structural_key(normalize(parse("w + y")))


# -- certified evaluation -------------------------------------------------------------


def test_eval_numeric_encloses_sqrt2():
    v = eval_numeric(normalize(parse("sqrt(x)")), {"x": Fraction(2)}, precision=80)
    assert isinstance(v, Interval)
    assert v.lo**2 <= 2 <= v.hi**2
    assert v.width() <= Fraction(1, 2**80)


def test_eval_numeric_exact_arithmetic():
    v = eval_numeric(normalize(parse("(x + 1)/(x - 1)")), {"x": Fraction(3)})
    assert v.lo == v.hi == Fraction(2)


def test_eval_numeric_odd_root_of_negative():
    v = eval_numeric(normalize(parse("x^(1/3)")), {"x": Fraction(-8)})
    assert v.lo <= -2 <= v.hi


def test_eval_numeric_not_real():
    assert eval_numeric(normalize(parse("sqrt(x)")), {"x": Fraction(-1)}) is NOT_REAL
    # not-real propagates through arithmetic
    assert (
        eval_numeric(normalize(parse("sqrt(x) + 100")), {"x": Fraction(-1)}) is NOT_REAL
    )


def test_eval_numeric_division_by_zero():
    with pytest.raises(EvalDomainError):
        eval_numeric(normalize(parse("1/x")), {"x": Fraction(0)})


def test_eval_numeric_missing_variable():
    from algprog.radicals import ExprError

    with pytest.raises(ExprError):
        eval_numeric(normalize(parse("x + y")), {"x": Fraction(1)})


@given(
    st.fractions(min_value=0, max_value=50, max_denominator=8),
    st.integers(2, 5),
)
def test_rat_root_enclosure_contains_root(a, r):
    iv = rat_root_enclosure(a, r, 64)
    assert iv.lo**r <= a <= iv.hi**r
    assert iv.width() <= Fraction(1, 2**64)


@given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
def test_eval_matches_rational_identity(x):
    # (sqrt(x^2+1))^2 == x^2 + 1 holds for every rational x
    e = normalize(parse("sqrt(x^2 + 1)*sqrt(x^2 + 1)"))
    v = eval_numeric(e, {"x": x})
    assert v.lo <= x**2 + 1 <= v.hi


# -- interval kernel ---------------------------------------------------------------

KREG = VarRegistry(["x", "y", "z"])

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def kernel_polys(draw, nvars):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple(
            (v, e) for v in range(nvars) if (e := draw(st.integers(0, 3)))
        )
        terms[mono] = draw(small_fractions.filter(lambda c: c != 0))
    return MultiPoly(KREG, terms)


@st.composite
def intervals(draw):
    a, b = draw(small_fractions), draw(small_fractions)
    return Interval(min(a, b), max(a, b))


def mul4(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def reference_horner(q, z, point, ziv):
    """Interval Horner in one variable with four-product multiplication."""
    coeffs = q.coeffs_in(z)
    acc = Interval.point(Fraction(0))
    for e in range(max(coeffs, default=0), -1, -1):
        acc = mul4(acc, ziv)
        if e in coeffs:
            acc = acc + Interval.point(coeffs[e].eval(point))
    return acc


@given(st.data(), st.integers(2, 3))
def test_poly_enclosure_contains_exact_values(data, nvars):
    p = data.draw(kernel_polys(nvars))
    nbox = data.draw(st.integers(1, min(2, nvars)))
    box_vars = data.draw(st.permutations(range(nvars)))[:nbox]
    box = {v: data.draw(intervals()) for v in box_vars}
    point = {
        v: data.draw(small_fractions) for v in range(nvars) if v not in box
    }
    enclosure = poly_enclosure(p, point, box)
    for corner in itertools.product(*((iv.lo, iv.hi) for iv in box.values())):
        full = {**point, **dict(zip(box, corner))}
        assert enclosure.lo <= p.eval(full) <= enclosure.hi
    inside = dict(point)
    for v, iv in box.items():
        t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
        inside[v] = iv.lo + t * iv.width()
    assert enclosure.lo <= p.eval(inside) <= enclosure.hi


@given(st.data(), st.integers(2, 3))
def test_poly_enclosure_in_one_variable_is_horner(data, nvars):
    p = data.draw(kernel_polys(nvars))
    z = data.draw(st.integers(0, nvars - 1))
    ziv = data.draw(intervals())
    point = {v: data.draw(small_fractions) for v in range(nvars) if v != z}
    got = poly_enclosure(p, point, {z: ziv})
    want = reference_horner(p, z, point, ziv)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def reference_enclosure(p, point, box):
    """The recursive enclosure that splits p afresh at every call."""
    present = p.vars_present()
    inner = sorted(v for v in box if v in present)
    if not inner:
        return Interval.point(p.eval(point))
    iv = box[inner[0]]
    coeffs = p.coeffs_in(inner[0])
    top = max(coeffs)
    acc = reference_enclosure(coeffs[top], point, box)
    for e in range(top - 1, -1, -1):
        acc = acc * iv
        if e in coeffs:
            acc = acc + reference_enclosure(coeffs[e], point, box)
    return acc


@given(st.data())
def test_poly_enclosure_in_two_variables_matches_recursive_reference(data):
    p = data.draw(kernel_polys(3))
    box = {1: data.draw(intervals()), 2: data.draw(intervals())}
    point = {0: data.draw(small_fractions)}
    got = poly_enclosure(p, point, box)
    want = reference_enclosure(p, point, box)
    assert (got.lo, got.hi) == (want.lo, want.hi)


@given(kernel_polys(3), st.lists(st.tuples(small_fractions, intervals(), intervals()), min_size=2, max_size=3))
def test_plans_do_not_go_stale(p, draws):
    """One object enclosed and evaluated at several points over the boxes
    {z1}, {z1, z2} and {z2} in turn gives what a fresh copy gives."""
    for x, iv1, iv2 in draws:
        for box in ({1: iv1}, {1: iv1, 2: iv2}, {2: iv2}):
            point = {0: x, 1: iv1.lo, 2: iv2.hi}
            point = {v: a for v, a in point.items() if v not in box}
            fresh = MultiPoly(KREG, p.terms)
            got, want = poly_enclosure(p, point, box), poly_enclosure(fresh, point, box)
            assert (got.lo, got.hi) == (want.lo, want.hi)
            full = {0: x, 1: iv1.hi, 2: iv2.lo}
            assert p.eval(full) == fresh.eval(full)


point_intervals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-2), Fraction(1, 3)]), small_fractions
).map(Interval.point)


@given(point_intervals, st.one_of(intervals(), point_intervals))
def test_point_product_matches_four_products(pt, other):
    want = mul4(pt, other)
    for got in (pt * other, other * pt):
        assert (got.lo, got.hi) == (want.lo, want.hi)


# -- exact-first evaluation ------------------------------------------------------


def reference_eval(e, point, precision):
    """Every node an interval: the evaluation the exact-first kernel must
    reproduce enclosure for enclosure."""

    def root(iv, r, bits):
        if r % 2 == 0:
            if iv.hi < 0:
                return NOT_REAL
            if iv.lo < 0:
                raise radicals._NeedsPrecision("even root of an interval straddling zero")
            lo = rat_root_enclosure(iv.lo, r, bits)
            hi = rat_root_enclosure(iv.hi, r, bits)
            return Interval(lo.lo, hi.hi)

        def one(a):
            if a >= 0:
                return rat_root_enclosure(a, r, bits)
            return -rat_root_enclosure(-a, r, bits)

        return Interval(one(iv.lo).lo, one(iv.hi).hi)

    def walk(e, bits):
        if isinstance(e, Const):
            return Interval.point(e.value)
        if isinstance(e, Var):
            if e.name not in point:
                raise ExprError(f"no value given for variable {e.name!r}")
            return Interval.point(Fraction(point[e.name]))
        if isinstance(e, (Add, Sub, Mul, Div)):
            l = walk(e.left, bits)
            r = walk(e.right, bits)
            if l is NOT_REAL or r is NOT_REAL:
                return NOT_REAL
            if isinstance(e, Add):
                return l + r
            if isinstance(e, Sub):
                return l - r
            if isinstance(e, Mul):
                return l * r
            if r.contains_zero():
                if r.lo == r.hi:
                    raise EvalDomainError("division by zero")
                raise radicals._NeedsPrecision("denominator interval straddles zero")
            inverses = (1 / r.lo, 1 / r.hi)
            return l * Interval(min(inverses), max(inverses))
        inner = walk(e.radicand, bits)
        if inner is NOT_REAL:
            return NOT_REAL
        return root(inner, e.index, bits)

    bits = precision + 1
    for _ in range(radicals.MAX_PRECISION_DOUBLINGS):
        try:
            return walk(e, bits)
        except radicals._NeedsPrecision:
            bits *= 2
    raise EvalDomainError(
        "refinement budget exhausted: a denominator or even-root radicand is "
        "numerically indistinguishable from zero"
    )


def outcome(evaluate):
    try:
        value = evaluate()
    except ExprError as exc:
        return type(exc), str(exc)
    return value if value is NOT_REAL else (value.lo, value.hi)


SQRT2 = Root(2, Const(Fraction(2)))
eval_leaves = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=4).map(Const),
    st.sampled_from([Var("x"), Var("y"), Var("x"), Var("y"), Var("w")]),
    st.sampled_from(
        [
            # zero, but no enclosure excludes zero: exhausts the budget as
            # a divisor or an even radicand
            Sub(Mul(SQRT2, SQRT2), Const(Fraction(2))),
            # about 2^-41.5: settled only after the precision doubles
            Sub(Root(2, Const(2 + Fraction(1, 2**40))), SQRT2),
        ]
    ),
)
eval_exprs = st.recursive(
    eval_leaves,
    lambda children: st.one_of(
        st.builds(
            lambda op, l, r: op(l, r), st.sampled_from([Add, Sub, Mul, Div]),
            children, children,
        ),
        st.builds(Root, st.integers(2, 4), children),
    ),
    max_leaves=8,
)
eval_points = st.fixed_dictionaries(
    {
        "x": st.fractions(min_value=-4, max_value=4, max_denominator=6),
        "y": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    }
)


@given(eval_exprs, eval_points, st.integers(1, 32))
def test_exact_first_eval_matches_all_interval_eval(e, point, precision):
    # A small doubling budget keeps radicands that are exactly zero but not
    # rational (sqrt(2)*sqrt(2) - 2 as a divisor) from refining for ever,
    # and makes budget exhaustion one of the outcomes compared.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("algprog.radicals.MAX_PRECISION_DOUBLINGS", 4)
        got = outcome(lambda: eval_numeric(e, point, precision))
        want = outcome(lambda: reference_eval(e, point, precision))
    assert got == want


@pytest.mark.parametrize(
    "text, point, want",
    [
        ("1/(x - x)", {"x": Fraction(3)}, (EvalDomainError, "division by zero")),
        ("sqrt(x - 5)/(x - 3)", {"x": Fraction(3)}, NOT_REAL),
        ("root(3, x - 5) + 1", {"x": Fraction(-3)}, (Fraction(-1), Fraction(-1))),
        (
            "1/(sqrt(x) - 3/2)",
            {"x": Fraction(9, 4) + Fraction(1, 2**80)},
            "doubling",
        ),
    ],
)
def test_exact_first_eval_cases(text, point, want):
    e = normalize(parse(text))
    got = outcome(lambda: eval_numeric(e, point))
    assert got == outcome(lambda: reference_eval(e, point, 64))
    if want != "doubling":
        assert got == want
    else:
        # the divisor straddles zero at 65 bits, so the precision doubles
        lo, hi = got
        assert lo > 0 and hi > 0

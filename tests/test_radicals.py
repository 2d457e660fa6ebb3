"""Parsing, normal form, and certified interval evaluation of radical
expressions."""

import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from algprog import radicals
from algprog.defpoly import defining_polynomial
from algprog.polycore import MultiPoly, PolyError, VarRegistry
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
    MAX_POWER,
    Mul,
    NotPolynomial,
    Pow,
    PowerBudgetError,
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
from conftest import RefInterval, is_canonical


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


def test_unary_minus_binds_looser_than_a_power():
    assert parse("-x^2") == Sub(Const(Fraction(0)), Pow(Var("x"), Fraction(2)))
    assert eval_numeric(normalize(parse("-2^2")), {}).lo == -4
    assert parse("2*-x^2") == Mul(Const(Fraction(2)), parse("-x^2"))
    for text in ("-x^2^2", "x^2^2"):
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            parse(text)
    # -x^2 + sqrt(x) read as (-x)^2 + sqrt(x) had x^2's defining polynomial
    got = defining_polynomial("-x^2 + sqrt(x)").poly.to_text()
    assert got == defining_polynomial("0 - x^2 + sqrt(x)").poly.to_text()
    assert got == "x^4 + 2*x^2*z + z^2 - x"


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


@pytest.mark.parametrize("name", ["x", "_a", "a1", "x_2", "é", "x²", "²"])
def test_every_registered_name_parses_back_as_itself(name):
    reg = VarRegistry([name])
    poly = MultiPoly.var(reg, 0) ** 2 - MultiPoly.var(reg, 0)
    assert parse(name) == Var(name)
    assert polynomial_from_text(poly.to_text(), reg) == poly


@pytest.mark.parametrize("name", ["", "a-b", "a b", "1a", "x.y", "a'", "sqrt", "root"])
def test_a_name_the_parser_cannot_read_back_is_refused(name):
    with pytest.raises(PolyError, match="invalid variable name"):
        VarRegistry([name])


def test_a_digit_that_is_no_decimal_reads_as_a_name():
    # "²" is a digit to str.isdigit but no decimal, so int() refuses it
    assert parse("x + ²") == Add(Var("x"), Var("²"))
    with pytest.raises(ExprSyntaxError, match="trailing input"):
        parse("2²")


# -- polynomial bridge ------------------------------------------------------------


def test_polynomial_from_text_golden():
    reg = VarRegistry(["x", "y"])
    p = polynomial_from_text("(x + y)^2 - 4*x*y", reg)
    q = polynomial_from_text("x^2 - 2*x*y + y^2", reg)
    assert p == q


def recursive_to_polynomial(e, reg):
    """The converter as it was before sums were added up along their spine:
    one MultiPoly per binary node, for normalized (Pow-free) trees."""
    if isinstance(e, Const):
        return MultiPoly.const(reg, e.value)
    if isinstance(e, Var):
        return MultiPoly.var(reg, reg.id_of(e.name))
    if isinstance(e, Root):
        raise NotPolynomial("expression contains a root")
    if isinstance(e, Div):
        den = recursive_to_polynomial(e.right, reg).constant_value()
        return recursive_to_polynomial(e.left, reg) * (1 / Fraction(den))
    left, right = recursive_to_polynomial(e.left, reg), recursive_to_polynomial(e.right, reg)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    return left * right


text_leaves = st.sampled_from(["x", "y", "0", "1", "2", "3"])
text_ops = st.sampled_from(["+", "-", "*"])
power_bases = st.one_of(
    text_leaves, st.builds("{} {} {}".format, text_leaves, text_ops, text_leaves)
)
poly_texts = st.recursive(
    st.one_of(
        text_leaves,
        st.builds("{}^{}".format, text_leaves, st.integers(1, 6)),
        st.builds("({})^{}".format, power_bases, st.integers(1, 6)),
    ),
    lambda children: st.one_of(
        st.builds("{} {} {}".format, children, text_ops, children),
        children.map("({})".format),
        children.map("-({})".format),
        st.builds("({})/{}".format, children, st.integers(1, 4)),
    ),
    max_leaves=8,
)


@given(poly_texts)
def test_reading_text_matches_normalizing_first(text):
    reg = VarRegistry(["x", "y"])
    want = to_polynomial(normalize(parse(text)), reg)
    assert polynomial_from_text(text, reg) == want


@given(poly_texts)
@example("x - x + y + x")  # x cancels, then comes back after y
def test_normalized_trees_keep_their_term_order(text):
    # defpoly converts normalized trees; its gcd work follows the term order
    reg = VarRegistry(["x", "y"])
    tree = normalize(parse(text))
    want = list(recursive_to_polynomial(tree, reg).terms.items())
    assert list(to_polynomial(tree, reg).terms.items()) == want
    assert parse(to_text(tree)) == tree
    assert list(polynomial_from_text(to_text(tree), reg).terms.items()) == want


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("sqrt(x)", NotPolynomial, "expression contains a root"),
        ("w", PolyError, "unknown variable 'w'"),
        ("x/z", NotPolynomial, "non-constant denominator"),
        ("0^0", ExprError, "0^0 is undefined"),
        ("x^(1/2)", NotPolynomial, "expression contains a root"),
        ("1/0", EvalDomainError, "division by the zero constant"),
        ("x^-1", NotPolynomial, "non-constant denominator"),
        ("0^-1", EvalDomainError, "division by the zero constant"),
        ("4^(1/2)", NotPolynomial, "expression contains a root"),
        ("2^(-2)*x", ExprSyntaxError, "expected '/' (at position 5)"),
        ("x^(-1/2)", NotPolynomial, "expression contains a root"),
        ("(x - x)^-1", EvalDomainError, "division by the zero constant"),
        # a root is refused before its radicand is read
        ("sqrt(w)", NotPolynomial, "expression contains a root"),
        ("w^(1/2)", NotPolynomial, "expression contains a root"),
        # the normalizing reader took both for 1, never reading the base
        ("(x - x)^0", ExprError, "0^0 is undefined"),
        ("w^0", PolyError, "unknown variable 'w'"),
    ],
)
def test_polynomial_from_text_single_faults(text, error, message):
    with pytest.raises(error) as exc:
        polynomial_from_text(text, VarRegistry(["x", "z"]))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "text, want", [("root(1, x)", "x"), ("2^-2*x", "1/4*x"), ("(x + 1)^0", "1")]
)
def test_polynomial_from_text_reads_powers_and_trivial_roots(text, want):
    reg = VarRegistry(["x"])
    assert polynomial_from_text(text, reg) == polynomial_from_text(want, reg)


@pytest.mark.parametrize(
    "text, want",
    [("x/3", Fraction(1, 3)), ("3^-1*x", Fraction(1, 3)), ("x*(4/2 + 1)^-2", Fraction(1, 9)),
     ("6*x/2", 3), ("x*(1/3)^-1", 3)],
)
def test_division_by_an_integer_constant_is_exact(text, want):
    # the constant is an int coefficient: a float quotient would show here
    got = polynomial_from_text(text, VarRegistry(["x"])).terms
    assert got == {((0, 1),): want} and type(got[((0, 1),)]) is type(want)


def test_long_polynomial_text_reads_in_one_pass():
    reg = VarRegistry(["x", "z"])
    text = " + ".join(f"{k}*x^{k - 1}*z" for k in range(1, 801))
    start = time.perf_counter()
    p = polynomial_from_text(text, reg)
    # the quadratic normalizing reader took minutes on this text
    assert time.perf_counter() - start < 10.0
    assert p.term_count() == 800
    assert polynomial_from_text(p.to_text(), reg) == p
    many = " + ".join(f"x^{k % MAX_POWER}*z" for k in range(5000))
    assert polynomial_from_text(many, reg).term_count() == MAX_POWER


@pytest.mark.parametrize(
    "text",
    [
        "z^1001 - x",
        "(x^100)^11",
        "2^1001",
        "x^-1001",
        "z^1000*z - x",
        "z^1000*z^1000 - x",
        "*".join(["x^100"] * 11),
        "(x + 1)^2*x^999",
        # 10,660 monomials; without the term cap it reads in seconds, where
        # (x + y + z + w)^1000 would not finish
        "(x + y + z + w)^38",
    ],
)
def test_products_and_powers_above_the_caps_are_refused(text):
    reg = VarRegistry(["x", "y", "z", "w"])
    with pytest.raises(PowerBudgetError):
        polynomial_from_text(text, reg)


def test_products_and_powers_up_to_the_caps_read():
    reg = VarRegistry(["x", "y", "z", "w"])
    assert polynomial_from_text(f"z^{MAX_POWER} - x", reg).degree_in(2) == MAX_POWER
    assert polynomial_from_text("z^500*z^500*x^1000", reg).degree_in(2) == MAX_POWER
    assert polynomial_from_text("(x + y + z + w)^4", reg).term_count() == 35
    # both caps look at the base as read, after its sum has cancelled
    assert polynomial_from_text("(x + y - y)^1000", reg).term_count() == 1
    with pytest.raises(PowerBudgetError):
        polynomial_from_text("(x - x)^1001", reg)


# -- the printed form, read without the parser ------------------------------------


@st.composite
def printed_polys(draw):
    """Polynomials in 1-3 variables with unit, integer and rational
    coefficients, so that `to_text` leads with a -1 times a power often."""
    reg = VarRegistry(["x", "y", "z"][: draw(st.integers(1, 3))])
    monomials = st.lists(st.integers(0, 4), min_size=len(reg), max_size=len(reg)).map(
        lambda es: tuple((v, e) for v, e in enumerate(es) if e)
    )
    coefficients = st.one_of(
        st.sampled_from([-1, 1]),
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    return MultiPoly(reg, draw(st.dictionaries(monomials, coefficients, max_size=6)))


@given(printed_polys())
@example(MultiPoly(VarRegistry(["x"]), {((0, 2),): -1, (): 1}))  # -x^2 + 1
@example(MultiPoly(VarRegistry(["x", "y"]), {((0, 1), (1, 3)): Fraction(-3, 4)}))
def test_printed_text_reads_back(p):
    text = p.to_text()
    got = polynomial_from_text(text, p.registry)
    assert got == p and all(is_canonical(c) for c in got.terms.values())
    assert MultiPoly.from_text(p.registry, text, MAX_POWER) is not None


#: printed terms, and a few pieces outside the printed form, which the
#: parse path reads (or refuses)
printed_coefficients = st.sampled_from(["", "", "1", "2", "3/4", "6/4", "2/2", "0"])
printed_products = st.sampled_from(
    ["x", "y", "x^2", "x*y", "y*x", "x^3*y^2", f"y^{MAX_POWER}", ""]
)
off_form_pieces = st.sampled_from(
    [f"x^{MAX_POWER + 1}", "w", "x*x", "x^0", "3/0*x", "sqrt(x)", "(x + y)^2", "x/2", "-", "2*3"]
)


@st.composite
def perturbed_printed_texts(draw):
    """A printed-form text with repeated and cancelling monomials, perhaps
    with ` + 1` appended (certify's tampered defining polynomial) or one
    piece from outside the printed form, in one of several spacings;
    returns the text and whether it stays in the printed form."""
    terms = st.tuples(printed_coefficients, printed_products)
    bodies = [
        c + "*" + m if c and m else c or m or "0"
        for c, m in draw(st.lists(terms, min_size=1, max_size=6))
    ]
    bodies += draw(st.lists(st.sampled_from(bodies), max_size=3))  # repeats
    bodies = draw(st.permutations(bodies))
    text = draw(st.sampled_from(["", "-"])) + bodies[0]
    for body in bodies[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + body
    if draw(st.booleans()):
        text += " + 1"
    in_form = draw(st.integers(0, 3)) > 0
    if not in_form:
        text += " + " + draw(off_form_pieces)
    gap = draw(st.sampled_from(["", " ", "  ", "\t"]))
    around = draw(st.sampled_from(["", " ", "\n"]))
    text = re.sub(r"([*^/])", rf"{around}\1{around}", text.replace(" ", gap))
    return text, in_form


def reading(read):
    """A reading's terms in order with their types, or its error's type."""
    try:
        p = read()
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return [(m, c, type(c)) for m, c in p.terms.items()]


@given(perturbed_printed_texts())
@example(("x - x + y + x", True))  # x cancels, then comes back after y
@example(("0", True))
@example(("-x^2*y + 3/4*x", True))
def test_printed_form_reads_as_its_parse_tree_does(case):
    text, in_form = case
    reg = VarRegistry(["x", "y"])
    direct = MultiPoly.from_text(reg, text, MAX_POWER)
    assert (direct is not None) == in_form
    want = reading(lambda: to_polynomial(parse(text), reg, capped=True))
    assert reading(lambda: polynomial_from_text(text, reg)) == want


@pytest.mark.parametrize(
    "text, error",
    [
        (f"x^{MAX_POWER + 1}", PowerBudgetError),
        (f"z^{MAX_POWER} - x^{MAX_POWER + 1}", PowerBudgetError),
        ("w", PolyError),
        ("2*x*w^2", PolyError),
        ("3/0*x", EvalDomainError),
        ("sqrt(x)", NotPolynomial),
        ("x - sqrt", ExprSyntaxError),
        ("x +", ExprSyntaxError),
        ("", ExprSyntaxError),
    ],
)
def test_text_outside_the_printed_form_fails_as_its_parse_tree_does(text, error):
    reg = VarRegistry(["x", "z"])
    assert MultiPoly.from_text(reg, text, MAX_POWER) is None
    with pytest.raises(error) as direct:
        polynomial_from_text(text, reg)
    with pytest.raises(error) as parsed:
        to_polynomial(parse(text), reg, capped=True)
    assert type(direct.value) is type(parsed.value) is error
    assert str(direct.value) == str(parsed.value)


def test_reader_caps_do_not_reach_other_conversions():
    # construct converts normalized trees, whose products may pass the cap
    reg = VarRegistry(["x"])
    p = to_polynomial(normalize(parse("x^600*x^600")), reg)
    assert p.degree_in(0) == 1200


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
    return RefInterval(min(products), max(products))


def reference_horner(q, z, point, ziv):
    """Interval Horner in one variable with four-product multiplication."""
    coeffs = q.coeffs_in(z)
    acc = RefInterval.point(Fraction(0))
    for e in range(max(coeffs, default=0), -1, -1):
        acc = mul4(acc, ziv)
        if e in coeffs:
            acc = acc + RefInterval.point(coeffs[e].eval(point))
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
        return RefInterval.point(p.eval(point))
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
    # x*y over a box encloses by one product of the two intervals, the
    # point one scaling the other whichever variable it is
    want = mul4(pt, other)
    xy = MultiPoly(KREG, {((0, 1), (1, 1)): Fraction(1)})
    for box in ({0: pt, 1: other}, {0: other, 1: pt}):
        got = poly_enclosure(xy, {}, box)
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
            return RefInterval(lo.lo, hi.hi)

        def one(a):
            if a >= 0:
                return rat_root_enclosure(a, r, bits)
            neg = rat_root_enclosure(-a, r, bits)
            return -RefInterval(neg.lo, neg.hi)

        return RefInterval(one(iv.lo).lo, one(iv.hi).hi)

    def walk(e, bits):
        if isinstance(e, Const):
            return RefInterval.point(e.value)
        if isinstance(e, Var):
            if e.name not in point:
                raise ExprError(f"no value given for variable {e.name!r}")
            return RefInterval.point(Fraction(point[e.name]))
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
            return l * RefInterval(min(inverses), max(inverses))
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


# -- hazards of the integer kernel ------------------------------------------------


@pytest.mark.parametrize(
    "text, point, want",
    [
        # perfect powers reached through pairs no gcd has reduced
        ("sqrt(x + x)", {"x": Fraction(2)}, (Fraction(2), Fraction(2))),
        ("sqrt(x + x)", {"x": Fraction(1, 2)}, (Fraction(1), Fraction(1))),
        ("sqrt(8/2)", {}, (Fraction(2), Fraction(2))),
        (
            "sqrt((x*x)/(y*y))",
            {"x": Fraction(3, 2), "y": Fraction(-5, 7)},
            (Fraction(21, 10), Fraction(21, 10)),
        ),
        ("root(3, -8*x/x)", {"x": Fraction(5, 3)}, (Fraction(-2), Fraction(-2))),
        # divisor intervals wholly below zero
        ("1/(sqrt(x) - 3)", {"x": Fraction(2)}, None),
        ("(y + sqrt(x))/(sqrt(x) - 3)", {"x": Fraction(7, 3), "y": Fraction(-2)}, None),
        # an odd root of an interval that straddles zero
        ("root(3, sqrt(x)*sqrt(x) - x)", {"x": Fraction(2)}, None),
        # exact zero divisors, as a pair and as a point interval
        ("sqrt(x)/(x*x - 4)", {"x": Fraction(2)}, (EvalDomainError, "division by zero")),
        ("1/(sqrt(x) - 2)", {"x": Fraction(4)}, (EvalDomainError, "division by zero")),
        # NOT_REAL on the left wins over a division error to its right ...
        ("(sqrt(-x) + 1)/(x - x)", {"x": Fraction(2)}, NOT_REAL),
        ("(sqrt(-x) + sqrt(x))/(sqrt(x)*sqrt(x) - x)", {"x": Fraction(2)}, NOT_REAL),
        # ... and an error on the left wins over NOT_REAL to its right
        (
            "1/(x - x) + sqrt(-x)",
            {"x": Fraction(2)},
            (EvalDomainError, "division by zero"),
        ),
    ],
)
def test_integer_kernel_hazards_match_the_reference(text, point, want):
    e = normalize(parse(text))
    got = outcome(lambda: eval_numeric(e, point))
    assert got == outcome(lambda: reference_eval(e, point, 64))
    if want is not None:
        assert got == want


def test_integer_kernel_hazards_have_the_expected_shape():
    # the intervals the cases above compare are what they claim to be
    x = {"x": Fraction(2)}
    below = eval_numeric(normalize(parse("sqrt(x) - 3")), x)
    assert below.hi < 0
    straddling = eval_numeric(normalize(parse("sqrt(x)*sqrt(x) - x")), x)
    assert straddling.lo < 0 < straddling.hi
    root = eval_numeric(normalize(parse("root(3, sqrt(x)*sqrt(x) - x)")), x)
    assert root.lo < 0 < root.hi


@given(kernel_polys(3), small_fractions, point_intervals, intervals())
def test_poly_enclosure_with_a_point_in_a_two_variable_box(p, x, pt, iv):
    for box in ({1: pt, 2: iv}, {1: iv, 2: pt}):
        got = poly_enclosure(p, {0: x}, box)
        want = reference_enclosure(p, {0: x}, box)
        assert (got.lo, got.hi) == (want.lo, want.hi)


def test_long_exact_sum_keeps_the_reference_enclosure():
    # Exact pairs are not reduced per operation, so the denominator of a sum
    # of x/k over 200 distinct k grows; the value, and a root of it, must
    # still be the reference's.
    total = Div(Var("x"), Const(Fraction(1)))
    for k in range(2, 201):
        total = Add(total, Div(Var("x"), Const(Fraction(k))))
    point = {"x": Fraction(3, 7)}
    start = time.perf_counter()
    got = eval_numeric(total, point)
    assert time.perf_counter() - start < 1.0
    want = Fraction(3, 7) * sum(Fraction(1, k) for k in range(1, 201))
    assert got.lo == got.hi == want
    for e in (total, Root(2, total), Root(3, Sub(Const(Fraction(0)), total))):
        assert outcome(lambda: eval_numeric(e, point)) == outcome(
            lambda: reference_eval(e, point, 64)
        )

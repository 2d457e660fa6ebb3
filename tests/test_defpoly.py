"""Defining polynomials: golden values, degree bookkeeping, reduction.

The golden polynomials below were cross-checked independently by substituting
the radical expression for z at a handful of rational points and certifying
the result is zero to 64 bits (`verify_defining` re-runs that check here).

`tests/golden/defpoly-draws.txt` pins the bytes of the reduction on criterion
6's random draws.  After an intended change to them, regenerate it with

    PYTHONPATH=src python3 tests/test_defpoly.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from algprog.defpoly import (
    DefiningError,
    ReduceConfig,
    SamplingError,
    _certified_zero_at,
    defining_polynomial,
    degree_bounds,
    probabilistic_zero_test,
    reduce_defining,
    root_index_product,
)
from algprog.polycore import MultiPoly, VarRegistry, primitive_part_in
from algprog.radicals import (
    ExprError,
    Interval,
    distinct_radicals,
    normalize,
    parse,
    polynomial_from_text,
    to_text,
)
from algprog.verify import verify_defining
from conftest import proportional
from test_acceptance import random_expr

DRAWS = Path(__file__).resolve().parent / "golden" / "defpoly-draws.txt"


def golden(expr_text: str, poly_text: str) -> None:
    dp = defining_polynomial(expr_text)
    want = polynomial_from_text(poly_text, dp.poly.registry)
    assert proportional(dp.poly, want), dp.poly.to_text()
    assert verify_defining(expr_text, dp, samples=16).passed


# -- golden defining polynomials ---------------------------------------------------


def test_sqrt_x():
    golden("sqrt(x)", "z^2 - x")


def test_sum_of_square_and_cube_root():
    golden(
        "x^(1/2) + x^(1/3)",
        "x^2 - x^3 - 6*x^2*z + 3*x^2*z^2 - 2*x*z^3 - 3*x*z^4 + z^6",
    )


def test_difference_of_square_and_cube_root():
    golden(
        "x^(1/2) - x^(1/3)",
        "x^2 - x^3 + 6*x^2*z + 3*x^2*z^2 + 2*x*z^3 - 3*x*z^4 + z^6",
    )


def test_sqrt_of_one_plus_square():
    golden("sqrt(1 + x^2)", "z^2 - 1 - x^2")


def test_sqrt_plus_quotient():
    golden("sqrt(1 + x^2) + x/y", "x^2 - y^2 - x^2*y^2 - 2*x*y*z + y^2*z^2")


def test_sum_of_shifted_roots():
    golden(
        "sqrt(x - 1) + sqrt(y - 1)",
        "x^2 - 2*x*y + y^2 + 4*z^2 - 2*x*z^2 - 2*y*z^2 + z^4",
    )


def test_nested_root_of_sum():
    golden("sqrt(x^2 + sqrt(y^2 + 1))", "z^4 - 2*x^2*z^2 - y^2 + x^4 - 1")


def test_doubly_nested_square_root():
    golden("sqrt(sqrt(x) + 1)", "z^4 - 2*z^2 - x + 1")


# -- degree bookkeeping ---------------------------------------------------------------


def test_z_degree_equals_index_product_when_minimal():
    for text, deg in [
        ("x^(1/2) + x^(1/3)", 6),
        ("sqrt(sqrt(x) + 1)", 4),
        ("sqrt(x)", 2),
        ("sqrt(x - 1) + sqrt(y - 1)", 4),
    ]:
        dp = defining_polynomial(text)
        assert dp.poly.degree_in(dp.z) == deg
        assert dp.predicted_z_degree_bound == deg
        assert root_index_product(normalize(parse(text))) == deg


def test_degree_bounds_cover_observed():
    for text in [
        "sqrt(x) + x^(1/3)",
        "sqrt(1 + x^2) + x/y",
        "sqrt(x)*sqrt(x)",
        "sqrt(sqrt(x) + 1) - x",
    ]:
        dp = defining_polynomial(text)
        b = degree_bounds(text)
        assert dp.poly.degree_in(dp.z) <= b.z_degree
        reg = dp.poly.registry
        for name, bound in b.var_degrees.items():
            assert dp.poly.degree_in(reg.id_of(name)) <= bound


def test_reduction_strips_extraneous_factor():
    dp = defining_polynomial("sqrt(x)*sqrt(x)")
    reg = dp.poly.registry
    want = polynomial_from_text("z^2 - x^2", reg)
    assert proportional(dp.poly, want)
    assert dp.poly.degree_in(dp.z) == 2 < dp.predicted_z_degree_bound == 4
    assert len(dp.reduction_log) >= 1
    assert dp.reduced


@pytest.mark.parametrize(
    "text",
    ["sqrt(x)*sqrt(x)", "x^(1/2) + x^(1/3)", "sqrt(2)*sqrt(x) - sqrt(2*x)"],
)
def test_reduction_equals_reduction_of_the_primitive_part(text):
    dp = defining_polynomial(text)
    reg, z = dp.poly.registry, dp.z
    x = MultiPoly.var(reg, reg.id_of("x"))
    zp = MultiPoly.var(reg, z)
    # a content in z and a repeated factor
    p = (x + 1) * 6 * dp.poly * (zp - x) ** 2
    got_log, want_log = [], []
    got = reduce_defining(p, dp.source, reg, z, log=got_log)
    want = reduce_defining(primitive_part_in(p, z), dp.source, reg, z, log=want_log)
    assert got == want and got.to_text() == want.to_text()
    assert got_log == want_log


def test_polynomial_input_gives_linear_z():
    dp = defining_polynomial("x^2 - 3*x + 1")
    reg = dp.poly.registry
    assert proportional(
        dp.poly, polynomial_from_text("z - x^2 + 3*x - 1", reg)
    )


# -- error handling and configuration ---------------------------------------------------


@pytest.mark.parametrize(
    "text, poly",
    [
        ("sqrt(x - x)/(y/y + sqrt(1))", "z"),
        ("(sqrt(1) - 1)/(sqrt(1) + 1)", "z^2 + z"),
        ("(sqrt(x^2) - x)/(sqrt(x^2) + x)", "z^2 + z"),
    ],
)
def test_quotient_whose_denominator_polynomial_has_the_root_zero(text, poly):
    dp = defining_polynomial(text)
    assert dp.poly.to_text() == poly
    assert verify_defining(text, dp, samples=16).passed


@pytest.mark.parametrize("text", ["sqrt(x)/(sqrt(x) - sqrt(x))", "1/sqrt(x - x)"])
def test_denominator_identically_zero_rejected(text):
    with pytest.raises(DefiningError, match="is a denominator identically zero"):
        defining_polynomial(text)


def test_z_name_collision_rejected():
    with pytest.raises(DefiningError):
        defining_polynomial("sqrt(z) + 1")
    dp = defining_polynomial("sqrt(z) + 1", z_name="w")
    assert dp.poly.registry.name_of(dp.z) == "w"


def test_explicit_registry_is_extended():
    reg = VarRegistry(["x", "pad"])
    dp = defining_polynomial("sqrt(x + 1)", registry=reg)
    assert dp.poly.registry is reg
    assert "z" in reg
    assert reg.id_of("x") == 0


def test_reduce_config_determinism():
    a = defining_polynomial("sqrt(x) + sqrt(y)", cfg=ReduceConfig(seed=5))
    b = defining_polynomial("sqrt(x) + sqrt(y)", cfg=ReduceConfig(seed=5))
    assert a.poly.to_text() == b.poly.to_text()
    assert a.reduction_log == b.reduction_log


# -- the probabilistic zero test ----------------------------------------------------------


def test_probabilistic_zero_test_accepts_true_defining():
    dp = defining_polynomial("sqrt(x)")
    f = normalize(parse("sqrt(x)"))
    assert probabilistic_zero_test(dp.poly, f, dp.poly.registry, dp.z)


def test_probabilistic_zero_test_rejects_wrong_poly():
    dp = defining_polynomial("sqrt(x)")
    reg = dp.poly.registry
    wrong = dp.poly + MultiPoly.const(reg, Fraction(1))
    f = normalize(parse("sqrt(x)"))
    assert not probabilistic_zero_test(wrong, f, reg, dp.z)


def _zero_at(monkeypatch, enclosures):
    """`_certified_zero_at` for q = z, the enclosures of f served in turn;
    returns the answer and the precisions asked for."""
    calls = []

    def fake_eval(f, point, precision):
        calls.append(precision)
        return enclosures(len(calls))

    monkeypatch.setattr("algprog.defpoly.eval_numeric", fake_eval)
    reg = VarRegistry(["x", "z"])
    q = polynomial_from_text("z", reg)
    f = normalize(parse("sqrt(x)"))
    got = _certified_zero_at(q, f, reg, reg.id_of("z"), {"x": Fraction(2)}, 8)
    return got, calls


def test_certified_zero_is_reconfirmed_at_two_more_doublings(monkeypatch):
    tiny = Interval(Fraction(-1, 2**10), Fraction(1, 2**10))
    got, calls = _zero_at(monkeypatch, lambda n: tiny)
    assert got and calls == [8, 16, 32]


def test_certified_zero_refuted_during_reconfirmation(monkeypatch):
    tiny = Interval(Fraction(-1, 2**10), Fraction(1, 2**10))
    got, calls = _zero_at(
        monkeypatch, lambda n: tiny if n == 1 else Interval.point(Fraction(1))
    )
    assert not got and calls == [8, 16]


def test_certified_zero_refuted_once_the_budget_runs_out(monkeypatch):
    # an enclosure that never narrows below the tolerance
    got, calls = _zero_at(monkeypatch, lambda n: Interval(Fraction(-1), Fraction(1)))
    assert not got
    assert calls == [8 * 2**k for k in range(len(calls))] and len(calls) >= 24


# -- golden bytes of the reduction ---------------------------------------------------------


def criterion_6_draws(count: int = 500):
    """The first `count` draws of criterion 6 (`random.Random(2024)`, its
    caps applied): each normalized expression with its defining polynomial,
    or with the error that raises."""
    rng = random.Random(2024)
    drawn = 0
    while drawn < count:
        try:
            e = normalize(random_expr(rng, 3))
            if not 1 < root_index_product(e) <= 9 or len(distinct_radicals(e)) > 3:
                continue
        except (DefiningError, ExprError, ZeroDivisionError):
            continue
        try:
            dp = defining_polynomial(e)
        except (DefiningError, SamplingError, ExprError, ZeroDivisionError) as exc:
            dp = exc
        drawn += 1
        yield e, dp


def draws_transcript(count: int = 500) -> str:
    """Each of criterion 6's first `count` draws: the expression's text, then
    its defining polynomial and reduction log, or the error it raises."""
    out = []
    for e, dp in criterion_6_draws(count):
        if isinstance(dp, Exception):
            body = [f"error {type(dp).__name__}: {dp}"]
        else:
            body = [dp.poly.to_text(), *(f"log {line}" for line in dp.reduction_log)]
        out.append("\n".join([f"expr {to_text(e)}", *body]))
    return "\n\n".join(out) + "\n"


def test_reduction_of_random_draws_is_golden():
    assert draws_transcript() == DRAWS.read_text()


if __name__ == "__main__":
    DRAWS.write_text(draws_transcript())
    print(f"wrote {DRAWS}", file=sys.stderr)

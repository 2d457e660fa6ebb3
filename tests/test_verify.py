"""Independent auditing layer: Sturm isolation, sign-at-root queries, and the
certificate re-checks.  Everything here runs in exact rational arithmetic."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from algprog.defpoly import defining_polynomial
from algprog.isolation import (
    ComponentDescription,
    IsolateConfig,
    SignCondition,
    isolate,
)
from algprog.polycore import (
    MultiPoly,
    PolyError,
    VarRegistry,
    integer_normalize,
    square_free_part,
)
from algprog.radicals import normalize, parse, polynomial_from_text
from algprog.verify import (
    _integral,
    _primitive,
    _sign,
    _sign_at,
    _split_point,
    _square_free_uni,
    _sturm_chain,
    _variations,
    audit_degrees,
    cauchy_root_bound,
    isolate_real_roots,
    isolate_real_roots_uni,
    refine_root,
    relation_holds,
    root_selection,
    sample_in_component,
    selection_matches_f,
    sign_at_root,
    sturm_count,
    sturm_sequence,
    uni_derivative,
    uni_divmod,
    uni_eval,
    uni_from_poly,
    uni_gcd,
    uni_to_poly,
    verify_certificate,
    verify_defining,
)

REG = VarRegistry(["x"])
X = MultiPoly.var(REG, 0)
XID = REG.id_of("x")


def uni(*coeffs):
    return [Fraction(c) for c in coeffs]


# -- univariate scaffolding -----------------------------------------------------


def test_uni_round_trip_and_eval():
    p = X**3 - 2 * X + 1
    c = uni_from_poly(p, XID)
    assert c == uni(1, -2, 0, 1)
    assert uni_eval(c, Fraction(2)) == p.eval({XID: Fraction(2)})
    assert uni_derivative(c) == uni(-2, 0, 3)


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
    assert sign_at_root(q, p, lo, hi) == oracle_sign(q, p, lo, hi) == -1


def test_sturm_sequence_golden():
    p = X**2 - 2
    chain = sturm_sequence(p)
    assert len(chain) == 3
    assert chain[0] == p
    from conftest import proportional

    assert proportional(chain[1], 2 * X)
    assert chain[2].is_constant() and chain[2].constant_value() > 0


def test_sturm_count_on_intervals():
    chain = [uni_from_poly(q, XID) for q in sturm_sequence(X**3 - X)]
    assert sturm_count(chain, Fraction(-2), Fraction(2)) == 3
    assert sturm_count(chain, Fraction(1, 2), Fraction(2)) == 1
    assert sturm_count(chain, Fraction(5), Fraction(9)) == 0


def test_cauchy_root_bound():
    c = uni(-6, 11, -6, 1)  # roots 1, 2, 3
    b = cauchy_root_bound(c)
    assert b >= 3


# -- real root isolation ----------------------------------------------------------


def check_isolation(p, roots):
    iso = isolate_real_roots(p)
    assert len(iso.intervals) == len(roots)
    sf = uni_from_poly(iso.poly, XID)
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


def test_isolate_real_roots_uni_agrees():
    got = isolate_real_roots_uni(uni(-2, 0, 1))
    assert len(got) == 2


def test_refine_root():
    c = uni(-2, 0, 1)
    lo, hi = refine_root(c, Fraction(1), Fraction(2), Fraction(1, 2**40))
    assert hi - lo <= Fraction(1, 2**40)
    assert lo**2 <= 2 <= hi**2
    # rational root collapses to a point
    lo, hi = refine_root(uni(-1, 0, 1), Fraction(0), Fraction(2), Fraction(1, 8))
    assert lo == hi == 1


def test_sign_at_root():
    sf = uni(-2, 0, 1)  # sqrt(2) lives in (1, 2)
    lo, hi = Fraction(1), Fraction(2)
    assert sign_at_root(uni(-1, 1), sf, lo, hi) == 1  # x - 1 > 0 at sqrt 2
    assert sign_at_root(uni(-2, 1), sf, lo, hi) == -1  # x - 2 < 0
    assert sign_at_root(uni(-2, 0, 1), sf, lo, hi) == 0  # vanishes there
    assert sign_at_root(uni(-2, 0, 3), sf, lo, hi) == 1  # 3x^2 - 2 > 0


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
    assert _sign_at(_integral(c), x) == _sign(uni_eval(c, x))


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
    intervals = isolate_real_roots_uni(p)
    assert len(intervals) == len(roots) + 2 * (len(factors) > len(roots))
    for lo, hi in intervals + [(r - H, r + H) for r in roots]:
        (minimal,) = [
            f for f in factors if _sign(uni_eval(f, lo)) * _sign(uni_eval(f, hi)) < 0
        ]
        assert sign_at_root(q, p, lo, hi) == oracle_sign(q, minimal, lo, hi)


def reference_isolation(sf):
    """Sturm bisection that counts sign variations at both ends of every
    interval, split points included twice."""
    chain = _sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    out, work = [], [(-bound, bound)]
    while work:
        lo, hi = work.pop()
        n = _variations(chain, lo) - _variations(chain, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            m = _split_point(chain[0], lo, hi)
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
    g = uni_gcd(trimmed, uni_derivative(trimmed))
    sf = uni_divmod(trimmed, g)[0] if len(g) > 1 else trimmed
    assert _square_free_uni(c) == [Fraction(n) for n in _primitive(_integral(sf))]
    if not trimmed:
        return
    p = uni_to_poly(trimmed, XID, REG)
    iso = isolate_real_roots(p)
    assert iso.poly == (
        square_free_part(p, XID) if len(trimmed) > 1 else integer_normalize(p)
    )
    assert list(iso.intervals) == reference_isolation(uni_from_poly(iso.poly, XID))


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
    assert selection_matches_f(f, sel, {"x": Fraction(9, 4)}, 64)


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
    # only the anchor itself lies inside at the default radius; one miss per
    # box size forces the shrinking boxes
    comp = ComponentDescription(
        conditions=(SignCondition(X, ">"), SignCondition(100 * X - 1, "<")),
        sample={XID: Fraction(1, 200)},
    )
    for seed in range(20):
        pt = sample_in_component(comp, random.Random(seed), max_tries=1)
        assert 0 < pt[XID] < Fraction(1, 100)

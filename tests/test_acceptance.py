"""Release acceptance gates, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -s`, and mirrored by the test's own outcome under `pytest -v`) and
enforces its stated time budget.  Values marked as golden are frozen
reference results; everything else is checked against an independent oracle
computed inside the test.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from algprog.defpoly import (
    DefiningError,
    SamplingError,
    defining_polynomial,
    degree_bounds,
    root_index_product,
)
from algprog.isolation import (
    DomainSpec,
    IsolateConfig,
    SignCondition,
    critical_resultants,
    isolate,
    merge_components,
)
from algprog.polycore import MultiPoly, VarRegistry
from algprog.radicals import (
    Add,
    Const,
    Div,
    ExprError,
    Mul,
    Root,
    Sub,
    Var,
    distinct_radicals,
    normalize,
    polynomial_from_text,
)
from algprog.resultants import resultant
from algprog.uni import Bracket, sign_at_root
from algprog.verify import (
    audit_degrees,
    isolate_real_roots,
    relation_holds,
    root_selection,
    uni_from_poly,
    verify_certificate,
    verify_defining,
)
from conftest import (
    integral,
    proportional,
    resultant_degree_bound,
    strip_factor,
    uni_eval,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- criterion 1: golden defining polynomials -----------------------------------


GOLDEN_DEFINING = [
    ("sqrt(x)", "z^2 - x"),
    ("x^(1/2) + x^(1/3)", "x^2 - x^3 - 6*x^2*z + 3*x^2*z^2 - 2*x*z^3 - 3*x*z^4 + z^6"),
    ("x^(1/2) - x^(1/3)", "x^2 - x^3 + 6*x^2*z + 3*x^2*z^2 + 2*x*z^3 - 3*x*z^4 + z^6"),
    ("sqrt(1 + x^2)", "-1 - x^2 + z^2"),
    ("sqrt(1 + x^2) + x/y", "x^2 - y^2 - x^2*y^2 - 2*x*y*z + y^2*z^2"),
    (
        "sqrt(x - 1) + sqrt(y - 1)",
        "x^2 - 2*x*y + y^2 + 4*z^2 - 2*x*z^2 - 2*y*z^2 + z^4",
    ),
    ("sqrt(x^2 + sqrt(y^2 + 1))", "z^4 - 2*x^2*z^2 - y^2 + x^4 - 1"),
]


def test_criterion_1_golden_defining_polynomials():
    slowest = 0.0
    for text, want_text in GOLDEN_DEFINING:
        t0 = time.monotonic()
        dp = defining_polynomial(text)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        want = polynomial_from_text(want_text, dp.poly.registry)
        ok = proportional(dp.poly, want) and elapsed < 5.0
        if not ok:
            report(1, False, f"{text!r} gave {dp.poly.to_text()} in {elapsed:.2f}s")
    report(
        1,
        True,
        f"{len(GOLDEN_DEFINING)} golden polynomials exact, slowest {slowest:.2f}s < 5s",
    )


# -- criterion 2: critical resultant zero sets ------------------------------------


def zero_set_equals(resultants, factor_texts, registry) -> bool:
    product = MultiPoly.const(registry, 1)
    for r in resultants:
        if r.is_zero():
            return False
        if not r.is_constant():
            product = product * r
    hit_all = True
    for t in factor_texts:
        f = polynomial_from_text(t, registry)
        reduced = strip_factor(product, f)
        hit_all &= reduced is not product
        product = reduced
    return hit_all and product.is_constant() and product.constant_value() != 0


def test_criterion_2_critical_resultant_zero_sets():
    t0 = time.monotonic()
    dp1 = defining_polynomial("sqrt(x)")
    ok1 = zero_set_equals(
        critical_resultants(dp1.poly, dp1.z), ["x"], dp1.poly.registry
    )
    dp2 = defining_polynomial("sqrt(x) + sqrt(y)")
    ok2 = zero_set_equals(
        critical_resultants(dp2.poly, dp2.z),
        ["x", "y", "x - y", "x^2 - 7*x*y + y^2"],
        dp2.poly.registry,
    )
    elapsed = time.monotonic() - t0
    report(
        2,
        ok1 and ok2 and elapsed < 5.0,
        f"zero sets {{x}} and {{x, y, x-y, x^2-7xy+y^2}} confirmed in {elapsed:.2f}s < 5s",
    )


# -- criterion 3: isolation golden tests --------------------------------------------


def test_criterion_3_isolation_certificates():
    t0 = time.monotonic()

    # golden certificate for the square root branch
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    sqrt_ok = (
        len(cert.entries) == 1
        and [c.text() for c in cert.entries[0].root_conditions]
        == ["z^2 - x = 0", "z > 0"]
        and [c.text() for c in cert.entries[0].component.conditions] == ["x > 0"]
        and len(cert.skipped) == 1
        and [c.text() for c in cert.skipped[0].conditions] == ["x < 0"]
    )
    if not sqrt_ok:
        report(3, False, "square-root certificate differs from the golden form")

    # semantic equivalence for the two-variable sum of roots: the merged
    # conditions must select the same root as the reference condition set
    # {z > 0, z^3 > (x+y) z, x + y < 3 z^2} at every sample point
    dp2 = defining_polynomial("sqrt(x) + sqrt(y)")
    reg = dp2.poly.registry
    cfg = IsolateConfig(
        samples=8,
        grid_min=Fraction(1, 4),
        grid_max=Fraction(4),
        grid_resolution=6,
        seed=3,
    )
    merged = merge_components(isolate("sqrt(x) + sqrt(y)", dp2, "grid", cfg), cfg)
    if len(merged.entries) != 1:
        report(3, False, f"expected one merged entry, got {len(merged.entries)}")
    entry = merged.entries[0]
    x, y, z = reg.id_of("x"), reg.id_of("y"), reg.id_of("z")
    reference = [
        SignCondition(polynomial_from_text("z", reg), ">"),
        SignCondition(polynomial_from_text("z^3 - (x + y)*z", reg), ">"),
        SignCondition(polynomial_from_text("3*z^2 - (x + y)", reg), ">"),
    ]

    def substituted(poly, point):
        coeffs = poly.coeffs_in(z)
        out = [Fraction(0)] * (max(coeffs) + 1)
        for e, q in coeffs.items():
            out[e] = q.eval(point)
        while out and not out[-1]:
            out.pop()
        return out

    rng = random.Random(7)
    points = 10_000
    disagreements = 0
    for _ in range(points):
        point = {
            x: Fraction(rng.randint(1, 16), rng.randint(1, 4)),
            y: Fraction(rng.randint(1, 16), rng.randint(1, 4)),
        }
        sel = root_selection(merged.defining, merged.z, entry.root_conditions, point)
        sf = list(sel.square_free)
        ref_pass = tuple(
            idx
            for idx, (lo, hi) in enumerate(sel.intervals)
            if all(
                relation_holds(
                    Fraction(
                        sign_at_root(integral(substituted(c.poly, point)), Bracket(sf, lo, hi))
                    ),
                    c.rel,
                )
                for c in reference
            )
        )
        if len(sel.passing) != 1 or ref_pass != sel.passing:
            disagreements += 1
    elapsed = time.monotonic() - t0
    report(
        3,
        disagreements == 0 and elapsed < 60.0,
        f"golden sqrt certificate exact; {points} sample points, "
        f"{disagreements} disagreements, {elapsed:.1f}s < 60s",
    )


# -- criterion 4: end-to-end reformulations -------------------------------------------


def load_problem(name):
    from algprog.program import load_program

    return load_program((PROBLEMS / name).read_text())


def domain_from_file(prog, name):
    raw = json.loads((PROBLEMS / name).read_text())
    conds = tuple(
        SignCondition.normalized(
            polynomial_from_text(c["poly"], prog.variables), c["rel"]
        )
        for c in raw["conditions"]
    )
    point = {
        prog.variables.id_of(k): Fraction(v) for k, v in raw["interior_point"].items()
    }
    return DomainSpec(conds, point)


EXPECTED_CHILDREN = {
    "goldstein_price": [
        "z^4 - 2*y*z^2 - 2*x*z^2 + 4*z^2 + y^2 - 2*x*y + x^2 = 0",
        "z^2 - y - x + 2 >= 0",
        "z >= 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
    ],
    "rosenbrock": [
        "z^4 - 2*x^2*z^2 + x^4 - y^2 - 1 = 0",
        "z^2 - x^2 >= 0",
        "z >= 0",
    ],
}

EXPECTED_BASELINES = {
    "goldstein_price": [
        "u^2 - x + 1 = 0",
        "v^2 - y + 1 = 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
        "u >= 0",
        "v >= 0",
    ],
    "rosenbrock": [
        "u^2 - x^2 - v = 0",
        "v^2 - y^2 - 1 = 0",
        "u >= 0",
        "v >= 0",
    ],
}


def test_criterion_4_end_to_end_reformulations():
    from algprog.program import ReformulateConfig, baseline_reformulate, reformulate

    cfg = ReformulateConfig(isolate=IsolateConfig(allow_boundary=True), merge=True)
    slowest = 0.0
    for stem in ("goldstein_price", "rosenbrock"):
        t0 = time.monotonic()
        prog = load_problem(f"{stem}.json")
        dom = domain_from_file(prog, f"{stem}.domain.json")
        res = reformulate(prog, strategy="domain", cfg=cfg, domain=dom)
        base = baseline_reformulate(prog)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        child_texts = [
            f"{p.to_text()} {rel} 0" for p, rel in res.children[0].constraints
        ]
        base_texts = [f"{p.to_text()} {rel} 0" for p, rel in base.constraints]
        ok = (
            len(res.children) == 1
            and child_texts == EXPECTED_CHILDREN[stem]
            and base_texts == EXPECTED_BASELINES[stem]
            and (res.aux_count_ours, res.aux_count_baseline) == (1, 2)
            and elapsed < 30.0
        )
        if not ok:
            report(4, False, f"{stem}: child {child_texts}, baseline {base_texts}")
    report(
        4,
        True,
        f"both worked problems reproduce the displayed children and baselines, "
        f"aux counts 1 vs 2, slowest {slowest:.2f}s < 30s",
    )


# -- criterion 5: oracle suite ----------------------------------------------------------


UNIVARIATE_CORPUS = [
    "sqrt(x)",
    "x^(1/2) + x^(1/3)",
    "x^(1/2) - x^(1/3)",
    "sqrt(1 + x^2)",
    "sqrt(sqrt(x) + 1)",
]

GRID_CORPUS = {
    "sqrt(x) + sqrt(y)": IsolateConfig(
        samples=16, grid_min=Fraction(1, 4), grid_max=Fraction(4), grid_resolution=6
    ),
    "sqrt(1 + x^2) + x/y": IsolateConfig(samples=16, grid_resolution=6),
}

DOMAIN_CORPUS = [
    ("sqrt(x - 1) + sqrt(y - 1)", [("x - 1", ">="), ("y - 1", ">=")], {"x": 3, "y": 2}),
    ("sqrt(x^2 + sqrt(y^2 + 1))", [], {"x": 0, "y": 0}),
]


def test_criterion_5_oracle_suite():
    t0 = time.monotonic()
    checked = 0

    def run_item(text, cert):
        nonlocal checked
        if not verify_defining(text, defining_polynomial(text), 128).passed:
            report(5, False, f"verify_defining rejected {text!r}")
        if not verify_certificate(text, cert, samples_per_component=128).passed:
            report(5, False, f"verify_certificate rejected {text!r}")
        checked += 1

    for text in UNIVARIATE_CORPUS:
        dp = defining_polynomial(text)
        cfg = IsolateConfig(samples=16)
        run_item(text, merge_components(isolate(text, dp, cfg=cfg), cfg))
    for text, cfg in GRID_CORPUS.items():
        dp = defining_polynomial(text)
        run_item(text, merge_components(isolate(text, dp, "grid", cfg), cfg))
    for text, conds, pt in DOMAIN_CORPUS:
        dp = defining_polynomial(text)
        reg = dp.poly.registry
        dom = DomainSpec(
            tuple(
                SignCondition.normalized(polynomial_from_text(t, reg), r)
                for t, r in conds
            ),
            {reg.id_of(k): Fraction(v) for k, v in pt.items()},
        )
        cfg = IsolateConfig(samples=16, allow_boundary=True)
        run_item(text, merge_components(isolate(text, dp, "domain", cfg, dom), cfg))

    # negative controls: corrupted artifacts must be rejected
    import dataclasses

    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    controls = []
    controls.append(
        not verify_defining(
            "sqrt(x)", dataclasses.replace(dp, poly=dp.poly + 1), 128
        ).passed
    )
    entry = cert.entries[0]
    flipped = tuple(
        SignCondition(c.poly, "<") if c.rel == ">" else c
        for c in entry.root_conditions
    )
    controls.append(
        not verify_certificate(
            "sqrt(x)",
            dataclasses.replace(
                cert, entries=(dataclasses.replace(entry, root_conditions=flipped),)
            ),
            samples_per_component=8,
        ).passed
    )
    controls.append(
        not verify_certificate(
            "sqrt(x)",
            dataclasses.replace(cert, defining=cert.defining + 1),
            samples_per_component=8,
        ).passed
    )
    z = MultiPoly.var(dp.poly.registry, dp.z)
    controls.append(not audit_degrees(dataclasses.replace(dp, poly=dp.poly * z)).passed)

    elapsed = time.monotonic() - t0
    report(
        5,
        all(controls) and elapsed < 300.0,
        f"{checked} corpus items re-verified at 128 samples, "
        f"{len(controls)} corrupted controls rejected, {elapsed:.1f}s < 5min",
    )


# -- criterion 6: degree audits ------------------------------------------------------------


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var("x"), Var("y"), Const(Fraction(rng.randint(1, 4)))])
    if rng.random() < 0.45:
        return Root(rng.choice((2, 3)), random_expr(rng, depth - 1))
    op = rng.choice([Add, Sub, Mul, Div])
    return op(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def test_criterion_6_degree_audits():
    t0 = time.monotonic()
    for text, want in [("x^(1/2) + x^(1/3)", 6), ("sqrt(sqrt(x) + 1)", 4)]:
        dp = defining_polynomial(text)
        if dp.poly.degree_in(dp.z) != want:
            report(6, False, f"{text!r}: z-degree {dp.poly.degree_in(dp.z)} != {want}")

    # 200 random expressions, depth <= 3, root indices in {2, 3}; the radical
    # index product is capped at 9 to keep single items under the budget
    rng = random.Random(2024)
    audited = 0
    violations = 0
    while audited < 200:
        try:
            e = normalize(random_expr(rng, 3))
            if not 1 < root_index_product(e) <= 9 or len(distinct_radicals(e)) > 3:
                continue
            dp = defining_polynomial(e)
            b = degree_bounds(e)
            reg = dp.poly.registry
            if dp.poly.degree_in(dp.z) > b.z_degree:
                violations += 1
            for name, bound in b.var_degrees.items():
                if dp.poly.degree_in(reg.id_of(name)) > bound:
                    violations += 1
            audited += 1
        except (DefiningError, SamplingError, ExprError, ZeroDivisionError):
            continue
    elapsed = time.monotonic() - t0
    report(
        6,
        violations == 0 and elapsed < 300.0,
        f"predicted degrees 6 and 4 observed; {audited} random expressions, "
        f"{violations} bound violations, {elapsed:.1f}s < 5min",
    )


# -- criterion 7: property suites -------------------------------------------------------------


def random_uni(rng, reg, v, degree):
    out = MultiPoly.var(reg, v) ** degree
    for e in range(degree):
        out = out + MultiPoly.var(reg, v) ** e * Fraction(rng.randint(-5, 5))
    return out


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    reg = VarRegistry(["x", "w"])
    xv, wv = reg.id_of("x"), reg.id_of("w")
    X = MultiPoly.var(reg, xv)
    rng = random.Random(99)
    violations = []

    # resultant common-root law, 500 pairs: shared root forces zero, and a
    # nonzero resultant certifies coprimality
    from algprog.polycore import poly_gcd

    for i in range(250):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        p = (X - a) * random_uni(rng, reg, xv, 2)
        q = (X - a) * random_uni(rng, reg, xv, 1)
        if not resultant(p, q, xv).is_zero():
            violations.append(f"shared-root pair {i} had nonzero resultant")
    coprime_checked = 0
    while coprime_checked < 250:
        p = random_uni(rng, reg, xv, 3)
        q = random_uni(rng, reg, xv, 2)
        if poly_gcd(p, q).total_degree() > 0:
            continue
        coprime_checked += 1
        if resultant(p, q, xv).is_zero():
            violations.append("coprime pair had zero resultant")

    # degree inequality for bivariate resultants, 200 pairs
    def random_bi(rng, dx, dw):
        out = MultiPoly.zero(reg)
        for ex in range(dx + 1):
            for ew in range(dw + 1):
                c = rng.randint(-3, 3)
                if c:
                    out = out + (X**ex) * MultiPoly.var(reg, wv) ** ew * Fraction(c)
        return out

    degree_checked = 0
    while degree_checked < 200:
        p = random_bi(rng, rng.randint(1, 2), rng.randint(0, 2))
        q = random_bi(rng, rng.randint(1, 2), rng.randint(0, 2))
        if p.degree_in(xv) < 1 or q.degree_in(xv) < 1:
            continue
        degree_checked += 1
        r = resultant(p, q, xv)
        if r.degree_in(wv) > resultant_degree_bound(p, q, xv, wv):
            violations.append("resultant degree bound exceeded")

    # Thom property, 200 polynomials with known distinct roots: derivative
    # sign vectors at the roots are pairwise distinct
    for i in range(200):
        k = rng.randint(2, 4)
        roots = set()
        while len(roots) < k:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        p = MultiPoly.const(reg, 1)
        for r in roots:
            p = p * (X - r)
        iso = isolate_real_roots(p)
        if len(iso.intervals) != k:
            violations.append(f"Thom case {i}: expected {k} roots")
            continue
        sf = uni_from_poly(iso.poly, xv, {})
        derivatives = []
        q = p
        for _ in range(p.degree_in(xv)):
            q = q.derivative(xv)
            derivatives.append(uni_from_poly(q, xv, {}))
        vectors = [
            tuple(sign_at_root(d, Bracket(sf, lo, hi)) for d in derivatives)
            for lo, hi in iso.intervals
        ]
        if len(set(vectors)) != k:
            violations.append(f"Thom case {i}: sign vectors collide: {vectors}")

    # Sturm isolation on constructed-root polynomials, multiplicities allowed
    for i in range(200):
        k = rng.randint(1, 4)
        roots = sorted(
            {Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(k)}
        )
        p = MultiPoly.const(reg, 1)
        for r in roots:
            p = p * (X - r) ** rng.randint(1, 2)
        iso = isolate_real_roots(p)
        if len(iso.intervals) != len(roots):
            violations.append(f"Sturm case {i}: interval count")
            continue
        sf = uni_from_poly(iso.poly, xv, {})
        for (lo, hi), r in zip(iso.intervals, roots):
            inside = lo <= r <= hi
            bracketed = lo == hi or uni_eval(sf, lo) * uni_eval(sf, hi) < 0
            if not (inside and bracketed):
                violations.append(f"Sturm case {i}: root {r} not isolated")

    elapsed = time.monotonic() - t0
    report(
        7,
        not violations,
        f"500 resultant pairs, 200 degree bounds, 200 Thom cases, 200 Sturm "
        f"cases, {len(violations)} violations, {elapsed:.1f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# -- criterion 8: desk-scale limits ------------------------------------------------------------


def test_criterion_8_out_of_scope_documented():
    # solver-backed experiment tables (SDP sizes, solve times, bounds) need an
    # external SOS/SDP stack and machine-specific timing; the structural
    # equality of the emitted programs (criterion 4) stands in for them here
    substitute_exists = all(
        (PROBLEMS / name).exists()
        for name in ("goldstein_price.json", "rosenbrock.json")
    )
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = readme.exists() and "out of scope" in readme.read_text().lower()
    report(
        8,
        substitute_exists and documented,
        "solver-backed tables documented as out of scope; structural "
        "equality of emitted programs stands in (criterion 4)",
    )

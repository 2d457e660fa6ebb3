"""Branch isolation certificates: critical resultants, component strategies,
merging, and the JSON form.

`tests/golden/isolate-draws.txt` pins the cut of the line at the critical
resultants' roots on criterion 6's univariate draws.  After an intended
change to it, regenerate it with

    PYTHONPATH=src python3 tests/test_isolation.py
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algprog.verify as verify_module
from algprog.defpoly import SamplingError, defining_polynomial
from algprog.isolation import (
    ComponentDescription,
    DomainSpec,
    IsolateConfig,
    IsolationError,
    PrecisionError,
    SignCondition,
    _certified_tower_signs,
    _simplify_relaxed,
    certificate_from_json,
    critical_resultants,
    derivative_tower,
    isolate,
    merge_components,
)
from algprog.polycore import MultiPoly, PolyError, VarRegistry
from algprog.radicals import (
    eval_numeric,
    normalize,
    parse,
    polynomial_from_text,
    to_text,
    variables_of,
)
from algprog.verify import isolate_real_roots, verify_certificate
from conftest import strip_factor
from test_acceptance import DOMAIN_CORPUS, GRID_CORPUS, UNIVARIATE_CORPUS
from test_defpoly import criterion_6_draws

ISOLATE_DRAWS = Path(__file__).resolve().parent / "golden" / "isolate-draws.txt"


def zero_set_factors(resultants, factors, registry):
    """Check the union of the resultants' zero sets is cut out by `factors`.

    Multiplicities and rational scalars are immaterial, so divide the product
    of all non-constant resultants by the given factors until nothing is
    left but a nonzero constant.
    """
    product = MultiPoly.const(registry, 1)
    for r in resultants:
        assert not r.is_zero()
        if not r.is_constant():
            product = product * r
    seen = []
    for f in factors:
        before = product
        product = strip_factor(product, f)
        seen.append(before is not product)
    assert product.is_constant() and product.constant_value() != 0, (
        "leftover factor: " + product.to_text()
    )
    assert all(seen), "some stated factor never divided the product"


# -- critical resultants --------------------------------------------------------


def test_critical_resultants_sqrt_x():
    dp = defining_polynomial("sqrt(x)")
    reg = dp.poly.registry
    rs = critical_resultants(dp.poly, dp.z)
    assert len(rs) == 2  # one per derivative order
    zero_set_factors(rs, [polynomial_from_text("x", reg)], reg)


def test_critical_resultants_sum_of_roots():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    reg = dp.poly.registry
    rs = critical_resultants(dp.poly, dp.z)
    factors = [
        polynomial_from_text(t, reg)
        for t in ("x", "y", "x - y", "x^2 - 7*x*y + y^2")
    ]
    zero_set_factors(rs, factors, reg)


def test_derivative_tower_shape():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    tower = derivative_tower(dp.poly, dp.z)
    assert len(tower) == 4
    assert tower[0] == dp.poly.derivative(dp.z)
    assert tower[-1].degree_in(dp.z) == 0


# -- univariate strategy -----------------------------------------------------------


def test_univariate_certificate_sqrt():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, strategy="univariate", cfg=IsolateConfig(samples=8))
    assert cert.strategy_used == "univariate"
    assert len(cert.entries) == 1
    assert len(cert.skipped) == 1
    entry = cert.entries[0]
    assert [c.text() for c in entry.component.conditions] == ["x > 0"]
    assert [c.text() for c in entry.root_conditions] == ["z^2 - x = 0", "z > 0"]
    assert [c.text() for c in cert.skipped[0].conditions] == ["x < 0"]


def test_univariate_rejects_multivariate_input():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    with pytest.raises(IsolationError):
        isolate("sqrt(x) + sqrt(y)", dp, strategy="univariate")


def test_unknown_strategy_rejected():
    dp = defining_polynomial("sqrt(x)")
    with pytest.raises(IsolationError):
        isolate("sqrt(x)", dp, strategy="mystery")


# -- grid strategy and merging -------------------------------------------------------


GRID_CFG = IsolateConfig(
    samples=8, grid_min=Fraction(1, 4), grid_max=Fraction(4), grid_resolution=6, seed=3
)


def test_grid_certificate_merges_to_reference_conditions():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    cert = isolate("sqrt(x) + sqrt(y)", dp, strategy="grid", cfg=GRID_CFG)
    assert len(cert.entries) >= 2  # square resultants split the quadrant
    merged = merge_components(cert, GRID_CFG)
    assert len(merged.entries) == 1
    got = sorted(c.text() for c in merged.entries[0].root_conditions)
    assert got == [
        "3*z^2 - y - x > 0",
        "z > 0",
        "z^3 - y*z - x*z > 0",
        "z^4 - 2*y*z^2 - 2*x*z^2 + y^2 - 2*x*y + x^2 = 0",
    ]
    assert verify_certificate(
        "sqrt(x) + sqrt(y)", merged, samples_per_component=8
    ).passed


def test_merge_keeps_shared_conditions_in_the_first_members_order():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    cert = isolate("sqrt(x) + sqrt(y)", dp, strategy="grid", cfg=GRID_CFG)
    assert len({e.sign_vector for e in cert.entries}) == 1 < len(cert.entries)
    reg = dp.poly.registry
    x_pos, y_pos = (SignCondition(polynomial_from_text(t, reg), ">") for t in "xy")
    entries = []
    for i, e in enumerate(cert.entries):
        # each member lists the shared two in turn, around one of its own
        own = SignCondition(polynomial_from_text(f"x + {i + 1}", reg), ">")
        first, second = (y_pos, x_pos) if i % 2 == 0 else (x_pos, y_pos)
        component = dataclasses.replace(e.component, conditions=(first, own, second))
        entries.append(dataclasses.replace(e, component=component))
    merged = merge_components(dataclasses.replace(cert, entries=tuple(entries)), GRID_CFG)
    assert merged.warnings == cert.warnings
    assert [e.component.conditions for e in merged.entries] == [(y_pos, x_pos)]


def test_merge_preserves_singleton():
    dp = defining_polynomial("sqrt(x)")
    cert = isolate("sqrt(x)", dp, cfg=IsolateConfig(samples=8))
    merged = merge_components(cert, IsolateConfig(samples=8))
    assert len(merged.entries) == 1
    assert {c.text() for c in merged.entries[0].root_conditions} == {
        "z^2 - x = 0",
        "z > 0",
    }


def test_merge_aborts_with_the_verify_witness():
    # the relaxed merged conditions admit no root at a drawn point, so merge
    # keeps the certificate as it was and names verify_certificate's witness
    dp = defining_polynomial("root(4, x) - sqrt(x)")
    cfg = IsolateConfig(samples=8, allow_boundary=True)
    cert = isolate("root(4, x) - sqrt(x)", dp, strategy="univariate", cfg=cfg)
    merged = merge_components(cert, cfg)
    assert len(cert.entries) == 15
    assert merged.entries == cert.entries
    assert merged.warnings[:-1] == cert.warnings
    assert merged.warnings[-1].startswith(
        "merge aborted: 0 roots satisfy the conditions at (x="
    )


def test_merge_aborts_when_sampling_fails(monkeypatch):
    dp = defining_polynomial("sqrt(x)")
    cfg = IsolateConfig(samples=8, allow_boundary=True)
    cert = isolate("sqrt(x)", dp, cfg=cfg)

    def exhausted(component, rng, max_tries=500):
        raise SamplingError("rejection sampling exhausted near the branch")

    monkeypatch.setattr(verify_module, "sample_in_component", exhausted)
    merged = merge_components(cert, cfg)
    assert merged.entries == cert.entries
    assert merged.warnings == cert.warnings + (
        "merge aborted: rejection sampling exhausted near the branch; "
        "returning unmerged certificate",
    )


# -- certified tower signs ---------------------------------------------------------


def _tower_signs(texts, x):
    reg = VarRegistry(["x", "z"])
    tower = [polynomial_from_text(t, reg) for t in texts]
    comp = ComponentDescription((), {reg.id_of("x"): x}, "at the sample")
    f = normalize(parse("sqrt(x)"))
    cfg = IsolateConfig()
    value = eval_numeric(f, {"x": x}, cfg.precision)
    return _certified_tower_signs(tower, reg.id_of("z"), comp, f, {"x": x}, cfg, value)


def test_tower_signs_refuse_an_exact_zero():
    # sqrt(0) is exact, so 2*z encloses exactly 0 and no doubling can help
    with pytest.raises(PrecisionError, match="resultant zero set"):
        _tower_signs(["2*z"], Fraction(0))


def test_tower_signs_refuse_once_the_budget_runs_out(monkeypatch):
    # z^2 - 2 vanishes at the irrational sqrt(2): every enclosure straddles 0
    monkeypatch.setattr("algprog.radicals.MAX_PRECISION_DOUBLINGS", 4)
    with pytest.raises(PrecisionError, match="resultant zero set"):
        _tower_signs(["z^2 - 2"], Fraction(2))


# -- domain strategy ---------------------------------------------------------------


def domain_for(dp, conds, point):
    reg = dp.poly.registry
    return DomainSpec(
        tuple(
            SignCondition.normalized(polynomial_from_text(t, reg), rel)
            for t, rel in conds
        ),
        {reg.id_of(n): Fraction(v) for n, v in point.items()},
    )


def test_domain_strategy_uses_asserted_component():
    dp = defining_polynomial("sqrt(x - 1) + sqrt(y - 1)")
    dom = domain_for(dp, [("x - 1", ">="), ("y - 1", ">=")], {"x": 3, "y": 2})
    cert = isolate(
        "sqrt(x - 1) + sqrt(y - 1)",
        dp,
        strategy="domain",
        cfg=IsolateConfig(samples=8, allow_boundary=True),
        domain=dom,
    )
    assert len(cert.entries) == 1
    comp = cert.entries[0].component
    assert {c.text() for c in comp.conditions} == {"x - 1 >= 0", "y - 1 >= 0"}


def test_domain_strategy_requires_domain_argument():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    with pytest.raises(IsolationError):
        isolate("sqrt(x) + sqrt(y)", dp, strategy="domain")


def test_domain_point_on_critical_locus_rejected():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    dom = domain_for(dp, [("x", ">"), ("y", ">")], {"x": 1, "y": 1})  # x = y
    with pytest.raises(IsolationError):
        isolate("sqrt(x) + sqrt(y)", dp, strategy="domain", domain=dom)


# -- serialization --------------------------------------------------------------------


def test_certificate_json_round_trip():
    dp = defining_polynomial("sqrt(x) + sqrt(y)")
    cert = isolate("sqrt(x) + sqrt(y)", dp, strategy="grid", cfg=GRID_CFG)
    merged = merge_components(cert, GRID_CFG)
    again = certificate_from_json(merged.to_json())
    reg_a, reg_b = merged.defining.registry, again.defining.registry
    assert reg_b.names() == reg_a.names()
    assert again.defining.to_text() == merged.defining.to_text()
    assert reg_b.name_of(again.z) == reg_a.name_of(merged.z)
    assert len(again.entries) == len(merged.entries)
    for ea, eb in zip(merged.entries, again.entries):
        assert [c.text() for c in eb.root_conditions] == [
            c.text() for c in ea.root_conditions
        ]
        assert eb.sign_vector == ea.sign_vector
        assert eb.component.sample.keys() == ea.component.sample.keys()
    assert again.to_json() == merged.to_json()


#: the acceptance corpora, with the two univariate expressions that complete
#: the certify benchmark's corpus: certificates of every strategy, with many
#: entries sharing condition texts
ROUND_TRIP = (
    [(t, "univariate", IsolateConfig(), None) for t in UNIVARIATE_CORPUS]
    + [
        (t, "univariate", IsolateConfig(), None)
        for t in ("sqrt(x) + root(3, x + 1)", "sqrt(x) - sqrt(2 - x)")
    ]
    + [(t, "grid", cfg, None) for t, cfg in GRID_CORPUS.items()]
    + [
        (t, "domain", IsolateConfig(allow_boundary=True), (conds, pt))
        for t, conds, pt in DOMAIN_CORPUS
    ]
)


@pytest.mark.parametrize(
    "text, strategy, cfg, dom", ROUND_TRIP, ids=[c[0] for c in ROUND_TRIP]
)
def test_certificate_text_reads_back_byte_for_byte(text, strategy, cfg, dom):
    cfg = dataclasses.replace(cfg, samples=4, seed=0)
    dp = defining_polynomial(text)
    domain = None if dom is None else domain_for(dp, *dom)
    cert = merge_components(isolate(text, dp, strategy, cfg, domain), cfg)
    doc = cert.to_json()
    assert certificate_from_json(doc).to_json() == doc


def test_equal_condition_texts_share_one_polynomial():
    dp = defining_polynomial("x^(1/2) - x^(1/3)")
    cert = isolate("x^(1/2) - x^(1/3)", dp, cfg=IsolateConfig(samples=4))
    again = certificate_from_json(cert.to_json())
    polys = [again.defining] + [
        c.poly
        for e in again.entries
        for c in e.component.conditions + e.root_conditions
    ]
    by_text = {}
    for p in polys:
        assert by_text.setdefault(p.to_text(), p) is p
    assert len(by_text) < len(polys)


def test_sign_condition_normalization():
    reg = VarRegistry(["x"])
    p = polynomial_from_text("-2*x + 4", reg)
    c = SignCondition.normalized(p, ">")
    assert c.text() == "x - 2 < 0"
    assert SignCondition.normalized(p, ">") == c


def test_simplify_relaxed_cancels_z_and_drops_implied_conditions():
    reg = VarRegistry(["x", "z"])
    x, z = (MultiPoly.var(reg, reg.id_of(n)) for n in ("x", "z"))
    conditions = [
        SignCondition.normalized(z, ">="),
        SignCondition.normalized(z * x, ">="),  # z >= 0 cancels it to x >= 0
        SignCondition.normalized(x, ">="),  # a duplicate of that, dropped
        SignCondition.normalized(x + 1, ">="),  # implied by x >= 0, dropped
        SignCondition.normalized(x + 2, ">"),  # strict, kept as it is
    ]
    kept = _simplify_relaxed(conditions, reg.id_of("z"), reg)
    assert [c.text() for c in kept] == ["z >= 0", "x >= 0", "x + 2 > 0"]


def test_simplify_relaxed_needs_z_nonneg_to_cancel():
    reg = VarRegistry(["x", "z"])
    x, z = (MultiPoly.var(reg, reg.id_of(n)) for n in ("x", "z"))
    conditions = [
        SignCondition.normalized(z * x, ">="),
        SignCondition.normalized(x + 1, ">="),
    ]
    kept = _simplify_relaxed(conditions, reg.id_of("z"), reg)
    assert [c.text() for c in kept] == ["x*z >= 0", "x + 1 >= 0"]


# -- golden bytes of the univariate cut ---------------------------------------------------


def isolate_draws_transcript(count: int = 500) -> str:
    """The draws in one variable among criterion 6's first `count` that have
    a defining polynomial: each expression's text, then the square-free part
    of the product of its critical resultants and that part's isolating
    intervals (the cut the univariate strategy takes its samples from), or
    the error the cut raises."""
    out = []
    for e, dp in criterion_6_draws(count):
        names = variables_of(e)
        if isinstance(dp, Exception) or len(names) != 1:
            continue
        v = dp.poly.registry.id_of(next(iter(names)))
        try:
            iso = isolate_real_roots(*critical_resultants(dp.poly, dp.z), v=v)
        except PolyError as exc:
            body = [f"error {type(exc).__name__}: {exc}"]
        else:
            body = [
                f"square-free {iso.poly.to_text()}",
                *(f"root ({lo}, {hi})" for lo, hi in iso.intervals),
            ]
        out.append("\n".join([f"expr {to_text(e)}", *body]))
    return "\n\n".join(out) + "\n"


def test_cut_of_random_draws_is_golden():
    assert isolate_draws_transcript() == ISOLATE_DRAWS.read_text()


if __name__ == "__main__":
    ISOLATE_DRAWS.write_text(isolate_draws_transcript())
    print(f"wrote {ISOLATE_DRAWS}", file=sys.stderr)

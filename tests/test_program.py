"""Program-level reformulation: part extraction, child construction, the
straightforward baseline, and the three emission formats.

The worked problems in problems/ are the reference inputs; their expected
children and baselines are frozen here as exact constraint strings.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from algprog.isolation import DomainSpec, IsolateConfig, SignCondition
from algprog.program import (
    PolynomialProgram,
    ReformulateConfig,
    ResourceError,
    StructuralError,
    baseline_reformulate,
    check_substitution,
    emit,
    extract_algebraic_parts,
    load_program,
    program_from_json,
    reformulate,
    result_from_json,
)
from algprog.polycore import MultiPoly, VarRegistry
from algprog.radicals import polynomial_from_text, structural_key, to_text
from conftest import use_walk_without_memo

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def load(name):
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
        prog.variables.id_of(k): Fraction(v)
        for k, v in raw["interior_point"].items()
    }
    return DomainSpec(conds, point)


def constraint_texts(child):
    return [f"{p.to_text()} {rel} 0" for p, rel in child.constraints]


MERGE_CFG = ReformulateConfig(isolate=IsolateConfig(allow_boundary=True), merge=True)


# -- part extraction ---------------------------------------------------------------


def mini(objective, constraints=(), groups=(), variables=("x", "y")):
    return load_program(
        json.dumps(
            {
                "variables": list(variables),
                "objective": {"sense": "min", "expr": objective},
                "constraints": [
                    {"expr": e, "rel": rel} for e, rel in constraints
                ],
                "groups": list(groups),
            }
        )
    )


def test_default_parts_are_outermost_roots():
    prog = mini("sqrt(x) + sqrt(y) + x*y")
    parts = extract_algebraic_parts(prog)
    assert [to_text(p) for p, _ in parts] == ["sqrt(x)", "sqrt(y)"]
    assert parts[0][1] == ("objective",)


def test_nested_roots_count_once():
    prog = mini("sqrt(sqrt(x) + 1)")
    parts = extract_algebraic_parts(prog)
    assert len(parts) == 1
    assert structural_key(parts[0][0]) == structural_key(prog.objective[1])


def test_group_hint_overrides_default():
    prog = mini("sqrt(x) + sqrt(y)", groups=["sqrt(x) + sqrt(y)"])
    parts = extract_algebraic_parts(prog)
    assert len(parts) == 1
    assert structural_key(parts[0][0]) == structural_key(
        prog.objective[1]
    )


def test_duplicate_occurrences_recorded():
    prog = mini("sqrt(x)", constraints=[("sqrt(x) - 2", "<=")])
    parts = extract_algebraic_parts(prog)
    assert len(parts) == 1
    assert parts[0][1] == ("objective", "constraints[0]")


def test_unmatched_group_rejected():
    prog = mini("sqrt(x) + 1", groups=["sqrt(y) + 1"])
    with pytest.raises(StructuralError):
        extract_algebraic_parts(prog)


def test_polynomial_group_rejected():
    prog = mini("sqrt(x) + y^2", groups=["y^2"])
    with pytest.raises(StructuralError):
        extract_algebraic_parts(prog)


def test_non_polynomial_residual_rejected():
    # replacing sqrt(x) leaves 1/part, which no polynomial program can hold
    prog = mini("1/sqrt(x)")
    with pytest.raises(StructuralError) as err:
        reformulate(prog)
    assert "group" in str(err.value)


def test_grouping_the_quotient_fixes_it():
    prog = mini("1/sqrt(x)", groups=["1/sqrt(x)"])
    parts = extract_algebraic_parts(prog)
    assert len(parts) == 1


# -- program loading ------------------------------------------------------------------


def test_load_program_rejects_bad_sense():
    with pytest.raises(StructuralError):
        load_program(
            json.dumps(
                {
                    "variables": ["x"],
                    "objective": {"sense": "argmin", "expr": "x"},
                    "constraints": [],
                }
            )
        )


def test_load_program_rejects_bad_relation():
    with pytest.raises(StructuralError):
        mini("x", constraints=[("x", "!<")])


def test_load_program_rejects_unknown_variable():
    with pytest.raises(StructuralError):
        mini("x + q")


def test_load_program_rejects_malformed_json():
    with pytest.raises(StructuralError):
        load_program("{not json")


# -- end-to-end worked problems ----------------------------------------------------------


def test_goldstein_price_child_matches_reference():
    prog = load("goldstein_price.json")
    dom = domain_from_file(prog, "goldstein_price.domain.json")
    res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
    assert len(res.children) == 1
    child = res.children[0]
    assert constraint_texts(child) == [
        "z^4 - 2*y*z^2 - 2*x*z^2 + 4*z^2 + y^2 - 2*x*y + x^2 = 0",
        "z^2 - y - x + 2 >= 0",
        "z >= 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
    ]
    assert res.aux_count_ours == 1
    assert res.aux_count_baseline == 2
    assert res.density_note == "asserted_by_user"
    assert child.objective[0] == "min"
    # the substituted objective is polynomial in x, y, z with z linear
    assert child.objective[1].degree_in(child.variables.id_of("z")) == 1


def test_goldstein_price_baseline_matches_reference():
    base = baseline_reformulate(load("goldstein_price.json"))
    assert constraint_texts(base) == [
        "u^2 - x + 1 = 0",
        "v^2 - y + 1 = 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
        "u >= 0",
        "v >= 0",
    ]


def test_rosenbrock_child_matches_reference():
    prog = load("rosenbrock.json")
    dom = domain_from_file(prog, "rosenbrock.domain.json")
    res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
    child = res.children[0]
    assert constraint_texts(child) == [
        "z^4 - 2*x^2*z^2 + x^4 - y^2 - 1 = 0",
        "z^2 - x^2 >= 0",
        "z >= 0",
    ]
    assert child.objective[1].to_text() == (
        "100*x^4 - 200*x^2*y + 100*y^2 + x^2 + z - 2*x + 1"
    )
    assert res.density_note == "open_dense_case"
    assert (res.aux_count_ours, res.aux_count_baseline) == (1, 2)


def test_rosenbrock_baseline_matches_reference():
    base = baseline_reformulate(load("rosenbrock.json"))
    assert constraint_texts(base) == [
        "u^2 - x^2 - v = 0",
        "v^2 - y^2 - 1 = 0",
        "u >= 0",
        "v >= 0",
    ]
    assert base.objective[1].to_text() == (
        "100*x^4 - 200*x^2*y + 100*y^2 + x^2 + u - 2*x + 1"
    )


def test_already_polynomial_program_passes_through():
    prog = mini("x^2 + y^2", constraints=[("x + y - 1", ">=")])
    res = reformulate(prog)
    assert len(res.children) == 1
    assert res.aux_count_ours == 0
    assert constraint_texts(res.children[0]) == ["y + x - 1 >= 0"]


def test_reformulate_is_repeatable():
    prog = load("rosenbrock.json")
    dom = domain_from_file(prog, "rosenbrock.domain.json")
    a = emit(reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom))
    b = emit(reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom))
    assert a == b


def test_max_children_budget():
    prog = mini("sqrt(x^2 - 1)", variables=("x",))
    cfg = ReformulateConfig(max_children=1)
    with pytest.raises(ResourceError):
        reformulate(prog, cfg=cfg)


# -- baseline details ------------------------------------------------------------------


def test_baseline_one_aux_per_distinct_radical():
    prog = mini("sqrt(x) + sqrt(y) + sqrt(x)")
    base = baseline_reformulate(prog)
    texts = constraint_texts(base)
    assert texts == [
        "u^2 - x = 0",
        "v^2 - y = 0",
        "u >= 0",
        "x >= 0",
        "v >= 0",
        "y >= 0",
    ]


def test_baseline_division_cleared():
    prog = mini(
        "x", constraints=[("sqrt(x)/y - 1", ">=")], groups=()
    )
    base = baseline_reformulate(prog)
    # sqrt(x)/y >= 1 clears to (u - y) * y >= 0 over u^2 = x, y nonzero
    texts = constraint_texts(base)
    assert texts == [
        "u^2 - x = 0",
        "y*u - y^2 >= 0",
        "y != 0",
        "u >= 0",
        "x >= 0",
    ]


def test_baseline_cube_root_has_no_sign_constraint():
    prog = mini("x^(1/3)", variables=("x",))
    base = baseline_reformulate(prog)
    assert constraint_texts(base) == ["u^3 - x = 0"]


# -- emission ---------------------------------------------------------------------------


def result_fixture():
    prog = load("rosenbrock.json")
    dom = domain_from_file(prog, "rosenbrock.domain.json")
    return reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)


def test_emit_json_round_trip_is_byte_identical():
    res = result_fixture()
    blob = emit(res, format="json")
    assert blob.endswith(b"\n")
    again = result_from_json(blob.decode())
    assert emit(again, format="json") == blob


def test_a_child_objective_led_by_minus_a_power_reads_back():
    res = reformulate(mini("-x^2 + sqrt(x)", [("4 - x", ">=")], variables=("x",)))
    assert [child.objective[1].to_text() for child in res.children] == ["-x^2 + z"]
    blob = emit(res, format="json")
    again = result_from_json(blob.decode())
    assert again.children[0].objective[1].to_text() == "-x^2 + z"
    assert emit(again, format="json") == blob


def test_emit_json_schema():
    obj = json.loads(emit(result_fixture(), format="json"))
    assert sorted(obj) == [
        "aux_count_baseline",
        "aux_count_ours",
        "children",
        "density_note",
    ]
    child = obj["children"][0]
    assert sorted(child) == [
        "constraints",
        "label",
        "objective",
        "provenance",
        "variables",
    ]
    # provenance text is the normalized expression (small powers unfolded)
    assert child["provenance"] == {"z": "sqrt(x*x + sqrt(1 + y*y))"}


def test_emit_single_program_round_trip():
    base = baseline_reformulate(load("rosenbrock.json"))
    blob = emit(base, format="json")
    again = program_from_json(blob.decode())
    assert emit(again, format="json") == blob


def test_emit_smtlib_shape():
    text = emit(result_fixture(), format="smtlib").decode()
    assert "(set-logic QF_NRA)" in text
    assert "(declare-const z Real)" in text
    assert "(assert (>= (- (* z z) (* x x)) 0))" in text
    assert "(check-sat)" in text
    assert "; objective" in text


def test_emit_smtlib_writes_rational_coefficients_as_quotients():
    reg = VarRegistry(["x"])
    row = polynomial_from_text("x/2 - 1/3", reg)
    prog = PolynomialProgram(reg, ("min", MultiPoly.var(reg, 0)), ((row, ">="),), {})
    text = emit(prog, format="smtlib").decode()
    assert "(assert (>= (- (* (/ 1 2) x) (/ 1 3)) 0))" in text


def test_emit_smtlib_splits_children():
    prog = mini("sqrt(x^2 - 1)", variables=("x",))
    res = reformulate(prog)
    text = emit(res, format="smtlib").decode()
    assert text.count("(check-sat)") == len(res.children) == 2
    assert "(reset)" in text


def test_emit_human_annotates_kinds():
    text = emit(result_fixture(), format="human").decode()
    assert "minimize" in text
    assert "(defining polynomial of z)" in text
    assert "(isolating root z)" in text
    assert "where z = sqrt(x*x + sqrt(1 + y*y))" in text
    assert "auxiliary variables: 1 here, 2 in the straightforward" in text


def test_emit_smtlib_quotes_reserved_names():
    import re

    prog = mini(
        "let + and^2 + x",
        [("let - 1", ">="), ("sqrt(and) - x", "<=")],
        variables=("let", "and", "x"),
    )
    for obj in (reformulate(prog), baseline_reformulate(prog)):
        text = emit(obj, format="smtlib").decode()
        assert "(declare-const |let| Real)\n(declare-const |and| Real)\n" in text
        assert "(declare-const x Real)" in text
        assert "(assert (>= (- |let| 1) 0))" in text
        code = [line for line in text.splitlines() if not line.startswith(";")]
        symbols = {s for line in code for s in re.findall(r"[^\s()]+", line)}
        assert {"let", "and"}.isdisjoint(symbols)
        assert {"|let|", "|and|", "x"} <= symbols


def test_emit_smtlib_quotes_names_outside_the_simple_symbols():
    # SMT-LIB 2.6 simple symbols are ASCII; a parser reads "é" only quoted
    prog = mini(
        "é^2 + x", [("é - 1", ">="), ("sqrt(é) - x", "<=")], variables=("é", "x")
    )
    for obj in (reformulate(prog), baseline_reformulate(prog)):
        text = emit(obj, format="smtlib").decode()
        assert "(declare-const |é| Real)\n(declare-const x Real)\n" in text
        assert "(assert (>= (- |é| 1) 0))" in text
        code = "\n".join(l for l in text.splitlines() if not l.startswith(";"))
        assert "é" in code and code.replace("|é|", "").isascii()


def test_emit_unknown_format_rejected():
    from algprog.program import ProgramError

    with pytest.raises(ProgramError):
        emit(result_fixture(), format="yaml")


# -- substitution soundness ----------------------------------------------------------------


def test_check_substitution_accepts_worked_problems():
    for name, domain in [
        ("goldstein_price.json", "goldstein_price.domain.json"),
        ("rosenbrock.json", "rosenbrock.domain.json"),
    ]:
        prog = load(name)
        dom = domain_from_file(prog, domain)
        res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
        assert check_substitution(res, prog, samples=8).passed


def test_check_substitution_flags_tampered_child():
    import dataclasses

    prog = load("rosenbrock.json")
    dom = domain_from_file(prog, "rosenbrock.domain.json")
    res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
    child = res.children[0]
    tampered_obj = (child.objective[0], child.objective[1] + 1)
    bad_child = dataclasses.replace(child, objective=tampered_obj)
    bad = dataclasses.replace(res, children=(bad_child,))
    assert not check_substitution(bad, prog, samples=8).passed


def test_check_substitution_anchor_covers_every_part():
    # on the grid the first part's sample holds x only; y comes from the
    # second part's sample
    prog = mini("sqrt(x + 1)*x + sqrt(x + y)")
    res = reformulate(prog, strategy="grid")
    first, second = (p.certificate.entries[0].component for p in res.parts)
    assert len(first.sample) == 1 and len(second.sample) == 2
    report = check_substitution(res, prog, samples=8)
    assert report.passed
    assert [line.samples_used for line in report.checks] == [8] * len(res.children)


def test_check_substitution_with_two_parts_flags_tampered_constraint():
    import dataclasses

    prog = mini(
        "sqrt(x + 1)*x + sqrt(x + y)",
        [("sqrt(x + 1) - sqrt(x + y) + x*y - 4", "<=")],
        groups=["sqrt(x + 1)", "sqrt(x + y)"],
    )
    dom = DomainSpec(
        tuple(
            SignCondition.normalized(polynomial_from_text(t, prog.variables), ">")
            for t in ("x + 1", "x + y")
        ),
        {prog.variables.id_of(n): Fraction(1) for n in ("x", "y")},
    )
    res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
    (child,) = res.children
    assert "x*y - z2 + z - 4 <= 0" in constraint_texts(child)
    assert check_substitution(res, prog, samples=8).passed
    # shift the defining equation of z2 off its root
    constraints = [
        (p + 1, rel) if rel == "=" and "z2" in p.to_text() else (p, rel)
        for p, rel in child.constraints
    ]
    bad_child = dataclasses.replace(child, constraints=tuple(constraints))
    bad = dataclasses.replace(res, children=(bad_child,))
    report = check_substitution(bad, prog, samples=8)
    assert not report.passed
    assert "constraint" in report.checks[0].witness


def test_check_substitution_fails_a_child_it_cannot_sample():
    # child 2 carries x < 0 and x - 4 > 0: no point satisfies both, so no
    # sample checks it, and that is a failure, not a pass on 0 samples
    prog = mini("x^2 + root(3, x)", [("root(3, x - 4) + 1", ">=")], variables=("x",))
    res = reformulate(prog)
    report = check_substitution(res, prog, samples=8)
    assert len(report.checks) == len(res.children) == 4
    assert [(c.status, c.samples_used) for c in report.checks[:2]] == [("pass", 8), ("fail", 0)]
    assert report.checks[1].witness == "child 2: no drawn point satisfies its conditions"


def test_check_substitution_reports_every_child_after_a_failure():
    golden = Path(__file__).resolve().parent / "golden"
    prog = load_program((golden / "repeats.json").read_text())
    res = reformulate(prog)
    report = check_substitution(res, prog, samples=32)
    assert [c.check for c in report.checks] == [
        f"substitution soundness on child {k}" for k in range(1, len(res.children) + 1)
    ]
    assert [c.status for c in report.checks] == ["fail", "pass", "pass", "pass"]


def test_check_substitution_report_matches_the_walk_without_memo(monkeypatch):
    # each child on its own, so that the later children are checked too
    golden = Path(__file__).resolve().parent / "golden"
    prog = load_program((golden / "repeats.json").read_text())
    res = reformulate(prog)
    singles = [dataclasses.replace(res, children=(c,)) for c in res.children]

    def reports():
        return [check_substitution(r, prog, samples=128).to_json() for r in singles]

    memo = reports()
    use_walk_without_memo(monkeypatch)
    assert memo == reports()
    assert ['"passed": true' in r for r in memo] == [False, True, True, True]


def test_certificates_use_the_children_variable_ids():
    # program variables named z and t: the parts become z2, z3 and z4, and
    # each part's elimination variables come after its z
    golden = Path(__file__).resolve().parent / "golden"
    prog = load_program((golden / "names.json").read_text())
    res = reformulate(prog)
    child_vars = res.children[0].variables
    assert [p.z_name for p in res.parts] == ["z2", "z3", "z4"]
    for part in res.parts:
        cert = part.certificate
        assert cert.z == child_vars.id_of(part.z_name)
        polys = [cert.defining] + [
            cond.poly
            for entry in cert.entries
            for cond in entry.root_conditions + entry.component.conditions
        ]
        for poly in polys:
            for v in poly.vars_present():
                assert poly.registry.name_of(v) == child_vars.name_of(v)
    assert check_substitution(res, prog, samples=8).passed


def test_check_substitution_flags_a_part_not_real_at_the_anchor():
    import dataclasses

    from algprog.isolation import ComponentDescription

    prog = mini("sqrt(x) + x", variables=("x",))
    res = reformulate(prog)
    (part,) = res.parts
    entry = part.certificate.entries[0]
    outside = ComponentDescription((), {prog.variables.id_of("x"): Fraction(-1)})
    cert = dataclasses.replace(
        part.certificate,
        entries=(dataclasses.replace(entry, component=outside),),
    )
    bad = dataclasses.replace(
        res, parts=(dataclasses.replace(part, certificate=cert),)
    )
    report = check_substitution(bad, prog, samples=8)
    assert not report.passed
    assert report.checks[0].witness == (
        "child 1: a part is not real at the anchor (x=-1)"
    )
    assert report.checks[0].samples_used == 0


def test_check_substitution_flags_a_flipped_original_constraint():
    import dataclasses

    # the sqrt(x) branch is sampled around x = 2, where x - 5 >= 0 fails in
    # the child and in the original alike
    prog = mini("sqrt(x) + x", [("x - 5", ">=")], variables=("x",))
    res = reformulate(prog)
    (child,) = res.children
    report = check_substitution(res, prog, samples=8)
    assert report.passed and report.checks[0].samples_used == 8
    constraints = [
        (p, "<" if kind == "original constraint" else rel)
        for (p, rel), kind in zip(child.constraints, child.constraint_kinds)
    ]
    bad_child = dataclasses.replace(child, constraints=tuple(constraints))
    bad = dataclasses.replace(res, children=(bad_child,))
    report = check_substitution(bad, prog, samples=8)
    assert not report.passed
    assert report.checks[0].witness == (
        "child 1: constraint x - 5 >= 0 from constraints[0] is missing"
    )


def _branches():
    # two children, one per sign of x: each carries z's defining polynomial,
    # its isolating rows, its component rows and the original constraint
    prog = mini("root(3, x) + x", [("x - 5", "<=")], variables=("x",))
    res = reformulate(prog)
    assert constraint_texts(res.children[0]) == [
        "z^3 - x = 0", "z^2 > 0", "z < 0", "x^2 > 0", "x < 0", "x - 5 <= 0",
    ]
    assert "x > 0" in constraint_texts(res.children[1])
    return prog, res


def _edit_rows(child, edit):
    rows = [edit(p.to_text(), p, rel) for p, rel in child.constraints]
    kept = [(r, k) for r, k in zip(rows, child.constraint_kinds) if r is not None]
    return dataclasses.replace(
        child,
        constraints=tuple(r for r, _ in kept),
        constraint_kinds=tuple(k for _, k in kept),
    )


def _tampered(name, res):
    child, other = res.children
    sense, objective = child.objective
    if name == "objective coefficient":
        return dataclasses.replace(child, objective=(sense, objective + objective))
    if name == "objective sense":
        return dataclasses.replace(child, objective=("max", objective))
    if name == "original relation":
        return _edit_rows(child, lambda t, p, rel: (p, ">=" if t == "x - 5" else rel))
    if name == "dropped certificate row":
        return _edit_rows(child, lambda t, p, rel: None if t == "z" else (p, rel))
    if name == "component row of another entry":
        (x_positive,) = [(p, rel) for p, rel in other.constraints if p.to_text() == "x"]
        return _edit_rows(child, lambda t, p, rel: x_positive if t == "x" else (p, rel))
    if name == "added row":
        added = (polynomial_from_text("x - 7", child.variables), "<=")
        return dataclasses.replace(
            child,
            constraints=child.constraints + (added,),
            constraint_kinds=child.constraint_kinds + ("original constraint",),
        )
    assert name == "relabelled row"
    kinds = tuple(
        "original constraint" if (p.to_text(), rel) == ("x", "<") else kind
        for (p, rel), kind in zip(child.constraints, child.constraint_kinds)
    )
    return dataclasses.replace(child, constraint_kinds=kinds)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "name, witness",
    [
        ("objective coefficient", "objective 2*z + 2*x is not z + x, the program's with the parts replaced"),
        ("objective sense", "objective sense max is not the program's min"),
        ("original relation", "constraint x - 5 <= 0 from constraints[0] is missing"),
        ("dropped certificate row", "constraint z < 0 from the certificates is missing"),
        ("component row of another entry", "constraint x < 0 from the certificates is missing"),
        ("relabelled row", "constraint x < 0 is labelled original but is no program constraint"),
        ("added row", "constraint x - 7 <= 0 is from neither the program nor the certificates"),
    ],
)
def test_check_substitution_proves_the_substitution_identities(name, witness, seed):
    # every tampering leaves the sampled root rows alone, so only the
    # identity can catch it; the walk still runs, and the other child passes
    prog, res = _branches()
    honest = check_substitution(res, prog, samples=8, seed=seed)
    assert honest.passed
    bad = dataclasses.replace(res, children=(_tampered(name, res), res.children[1]))
    report = check_substitution(bad, prog, samples=8, seed=seed)
    assert [c.status for c in report.checks] == ["fail", "pass"]
    assert report.checks[0].witness == f"child 1: {witness}"
    assert [c.samples_used for c in report.checks] == [
        c.samples_used for c in honest.checks
    ]


def test_check_substitution_samples_the_root_rows_of_the_certificates():
    # the other branch, z < 0, in the certificate and the child alike: the
    # identities hold, and only the sampled root rows see that z = sqrt(x)
    # fails it
    prog = mini("sqrt(x) + x", variables=("x",))
    res = reformulate(prog)
    (part,) = res.parts
    (entry,) = part.certificate.entries
    defining, positive = entry.root_conditions
    negative = SignCondition(positive.poly, "<")
    cert = dataclasses.replace(
        part.certificate,
        entries=(dataclasses.replace(entry, root_conditions=(defining, negative)),),
    )
    (child,) = res.children
    rows = tuple(
        (p, "<" if (p.terms, rel) == (positive.poly.terms, ">") else rel)
        for p, rel in child.constraints
    )
    bad = dataclasses.replace(
        res,
        children=(dataclasses.replace(child, constraints=rows),),
        parts=(dataclasses.replace(part, certificate=cert),),
    )
    report = check_substitution(bad, prog, samples=8)
    assert not report.passed
    assert report.checks[0].witness == (
        "child 1: constraint z < 0 fails near (x=2)"
    )


def test_check_substitution_fails_a_program_that_stays_radical():
    # checked against a program whose sqrt(x) no part replaces: a failed
    # identity on every child, not a crash
    prog, res = _branches()
    other = mini("root(3, x) + sqrt(x)", [("x - 5", "<=")], variables=("x",))
    report = check_substitution(res, other, samples=8)
    assert [c.status for c in report.checks] == ["fail", "fail"]
    assert report.checks[0].witness == (
        "child 1: objective stays non-polynomial after replacing the algebraic "
        "parts; group the offending subexpression"
    )


def test_check_substitution_samples_only_parts_and_root_rows(monkeypatch):
    import algprog.program as program_module
    import algprog.radicals as radicals_module

    prog = load("goldstein_price.json")
    dom = domain_from_file(prog, "goldstein_price.domain.json")
    res = reformulate(prog, strategy="domain", cfg=MERGE_CFG, domain=dom)
    parts = {p.expr for p in res.parts}
    root_rows = {
        rc.poly.to_text()
        for p in res.parts
        for entry in p.certificate.entries
        for rc in entry.root_conditions
    }
    evaluated, enclosed = [], []
    real_eval, real_enclose = program_module.eval_numeric, radicals_module.poly_enclosure

    def eval_spy(e, point, *args):
        evaluated.append((e, tuple(sorted(point.items()))))
        return real_eval(e, point, *args)

    def enclose_spy(p, point, box):
        enclosed.append(p.to_text())
        return real_enclose(p, point, box)

    monkeypatch.setattr(program_module, "eval_numeric", eval_spy)
    monkeypatch.setattr(radicals_module, "poly_enclosure", enclose_spy)
    assert len(res.children) == 1
    report = check_substitution(res, prog, samples=16)
    assert report.passed and report.checks[0].samples_used == 16
    assert evaluated and {e for e, _ in evaluated} <= parts
    assert len(evaluated) == len(set(evaluated))  # once per part and point
    assert enclosed and set(enclosed) <= root_rows

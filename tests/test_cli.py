"""Command-line interface: exit codes, output fidelity, determinism.

Everything runs in-process through `main(argv)`; argparse usage errors
surface as SystemExit(2), all other failures as documented return codes.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from algprog.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


# -- defpoly ----------------------------------------------------------------------


def test_defpoly_prints_polynomial(capsys):
    code, out, _ = run(capsys, "defpoly", "sqrt(1 + x^2)")
    assert code == 0
    assert "z^2 - x^2 - 1" in out
    assert "observed z-degree: 2" in out
    assert "predicted z-degree bound: 2" in out


def test_defpoly_verify_flag(capsys):
    code, out, _ = run(capsys, "defpoly", "x^(1/2) + x^(1/3)", "--verify")
    assert code == 0


def test_defpoly_custom_root_name(capsys):
    code, out, _ = run(capsys, "defpoly", "sqrt(z)", "--z", "w")
    assert code == 0
    assert "w^2 - z" in out


def test_defpoly_syntax_error_is_exit_3(capsys):
    code, _, err = run(capsys, "defpoly", "sin(x)")
    assert code == 3
    assert "error:" in err


def test_defpoly_collision_is_exit_4(capsys):
    code, _, err = run(capsys, "defpoly", "sqrt(z)")
    assert code == 4


def test_defpoly_deep_nesting_is_exit_3(capsys):
    code, _, err = run(capsys, "defpoly", "(" * 3000 + "x" + ")" * 3000)
    assert code == 3
    assert "nesting deeper than" in err
    assert "at position 101" in err


# -- isolate ----------------------------------------------------------------------


def test_isolate_writes_certificate(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "isolate", "sqrt(x)", "--out", str(out_file))
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["defining"] == "z^2 - x"
    assert len(cert["entries"]) == 1
    assert cert["entries"][0]["root_conditions"] == [
        {"poly": "z^2 - x", "rel": "="},
        {"poly": "z", "rel": ">"},
    ]


def test_isolate_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "isolate", "sqrt(sqrt(x) + 1)", "--verify", "--out", str(out_file)
    )
    assert code == 0


def test_isolate_without_critical_zeros_covers_all_of_space(capsys, tmp_path):
    # every critical resultant of z^2 - 2*x*z + x^2 - 2 is constant
    out_file = tmp_path / "cert.json"
    code, _, err = run(
        capsys, "isolate", "x + sqrt(2)", "--verify", "--out", str(out_file)
    )
    assert code == 0, err
    entries = json.loads(out_file.read_text())["entries"]
    assert [e["label"] for e in entries] == ["all of space"]


def test_isolate_merge_verify_with_powers(capsys, tmp_path):
    # the expression is evaluated in normal form; the certificate keeps "^"
    out_file = tmp_path / "cert.json"
    code, _, err = run(
        capsys, "isolate", "root(3, x^2) - x", "--merge", "--verify",
        "--samples", "16", "--out", str(out_file),
    )
    assert code == 0, err
    assert json.loads(out_file.read_text())["source"] == "root(3, x^2) - x"
    code, out, _ = run(capsys, "verify", str(out_file), "--samples", "16")
    assert code == 0
    assert '"passed": true' in out


def test_isolate_and_verify_with_a_skipped_division_by_zero(capsys, tmp_path):
    # on x > 0 the denominator sqrt(x^2) - x is 0: the isolator skips that
    # component and verify must count it as not real-valued, not crash
    out_file = tmp_path / "cert.json"
    code, _, err = run(
        capsys, "isolate", "1/(sqrt(x^2) - x)", "--out", str(out_file)
    )
    assert code == 0, err
    assert len(json.loads(out_file.read_text())["skipped"]) == 1
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == 0, err
    assert '"passed": true' in out
    code, _, err = run(
        capsys, "isolate", "1/(sqrt(x^2) - x)", "--merge", "--allow-boundary",
        "--verify", "--out", str(tmp_path / "merged.json"),
    )
    assert code == 0, err


def test_isolate_verify_on_narrow_components_is_quick(capsys):
    # 28 components, most far narrower than the sampling box, verified at
    # the default 128 samples each
    start = time.monotonic()
    assert main(["isolate", "root(3, x)/(3 - 1) - root(3, 4)*x", "--verify"]) == 0
    assert time.monotonic() - start < 20.0
    assert '"passed": true' in capsys.readouterr().err


def test_isolate_domain_needs_file():
    assert run_usage_error("isolate", "sqrt(x)", "--strategy", "domain") == 2
    # and a domain file needs the domain strategy, rather than being ignored
    assert run_usage_error("isolate", "sqrt(x)", "--domain-file", RB_DOMAIN) == 2
    assert run_usage_error("reformulate", RB, "--domain-file", RB_DOMAIN) == 2


@pytest.mark.parametrize("command", ["isolate", "reformulate"])
def test_allow_boundary_needs_merge(command):
    # without --merge there are no merged conditions to relax
    target = "sqrt(x)" if command == "isolate" else RB
    assert run_usage_error(command, target, "--allow-boundary") == 2


@pytest.mark.parametrize("command", ["defpoly", "isolate"])
@pytest.mark.parametrize("name", ["a-b", "a b", "1z", "sqrt"])
def test_a_root_name_the_parser_cannot_read_is_usage_error(
    capsys, tmp_path, command, name
):
    out = tmp_path / "out.txt"
    assert run_usage_error(command, "sqrt(x)", "--z", name, "--out", str(out)) == 2
    assert f"argument --z: {name!r} is not a variable name" in capsys.readouterr().err
    assert not out.exists()


def test_isolate_unknown_flag_is_usage_error():
    assert run_usage_error("isolate", "sqrt(x)", "--wat") == 2


# -- reformulate --------------------------------------------------------------------


GP = str(PROBLEMS / "goldstein_price.json")
GP_DOMAIN = str(PROBLEMS / "goldstein_price.domain.json")
RB = str(PROBLEMS / "rosenbrock.json")
RB_DOMAIN = str(PROBLEMS / "rosenbrock.domain.json")


def reformulate_args(problem, domain, out):
    return [
        "reformulate",
        problem,
        "--strategy",
        "domain",
        "--domain-file",
        domain,
        "--merge",
        "--allow-boundary",
        "--out",
        str(out),
    ]


def test_reformulate_goldstein_price(capsys, tmp_path):
    out_file = tmp_path / "gp.json"
    code, _, err = run(capsys, *reformulate_args(GP, GP_DOMAIN, out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["aux_count_ours"] == 1
    assert obj["aux_count_baseline"] == 2
    assert obj["density_note"] == "asserted_by_user"
    texts = [
        f"{c['poly']} {c['rel']} 0" for c in obj["children"][0]["constraints"]
    ]
    assert texts[0] == "z^4 - 2*y*z^2 - 2*x*z^2 + 4*z^2 + y^2 - 2*x*y + x^2 = 0"


def test_reformulate_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *reformulate_args(RB, RB_DOMAIN, a))[0] == 0
    assert run(capsys, *reformulate_args(RB, RB_DOMAIN, b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_reformulate_baseline_sidecar(capsys, tmp_path):
    out_file = tmp_path / "rb.json"
    args = reformulate_args(RB, RB_DOMAIN, out_file) + ["--baseline"]
    code, _, _ = run(capsys, *args)
    assert code == 0
    side = tmp_path / "rb.baseline.json"
    assert side.exists()
    base = json.loads(side.read_text())
    texts = [f"{c['poly']} {c['rel']} 0" for c in base["constraints"]]
    assert texts == [
        "u^2 - x^2 - v = 0",
        "v^2 - y^2 - 1 = 0",
        "u >= 0",
        "v >= 0",
    ]


def test_reformulate_baseline_requires_out():
    assert run_usage_error("reformulate", RB, "--baseline") == 2


def test_reformulate_with_verify(capsys, tmp_path):
    out_file = tmp_path / "rb.json"
    args = reformulate_args(RB, RB_DOMAIN, out_file) + ["--verify", "--samples", "8"]
    code, _, err = run(capsys, *args)
    assert code == 0


def test_reformulate_verify_accepts_a_constraint_false_at_the_anchor(capsys, tmp_path):
    # x - 5 >= 0 fails around the branch sample x = 2; the child's row fails
    # there too, so the two agree
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variables": ["x"],
        "objective": {"sense": "min", "expr": "sqrt(x) + x"},
        "constraints": [{"expr": "x - 5", "rel": ">="}],
    }))
    code, _, err = run(capsys, "reformulate", str(prob), "--verify", "--samples", "8")
    assert code == 0
    report = json.loads(err[err.index("verify: ") + len("verify: "):])
    assert report["passed"] and report["checks"][0]["samples_used"] == 8


@pytest.mark.parametrize(
    "variables, objective, constraints",
    [
        (["x", "y"], "y + sqrt(x)", []),
        (["x", "z"], "z + sqrt(x + 1)", []),
        (["x", "y"], "sqrt(x)", [{"expr": "y - x", "rel": ">="}]),
    ],
    ids=["objective", "named-z", "constraint"],
)
def test_reformulate_verify_with_a_variable_outside_every_part(
    capsys, tmp_path, variables, objective, constraints
):
    # the variable is in no certificate's sample; it is drawn around 0
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variables": variables,
        "objective": {"sense": "min", "expr": objective},
        "constraints": constraints,
    }))
    code, _, err = run(capsys, "reformulate", str(prob), "--verify", "--samples", "8")
    assert code == 0
    report = json.loads(err[err.index("verify: ") + len("verify: "):])
    assert report["passed"] and report["checks"][0]["samples_used"] == 8


def test_reformulate_human_format(capsys, tmp_path):
    out_file = tmp_path / "rb.txt"
    args = reformulate_args(RB, RB_DOMAIN, out_file) + ["--format", "human"]
    code, _, _ = run(capsys, *args)
    assert code == 0
    assert "subject to" in out_file.read_text()


def test_domain_file_invalid_json_is_exit_3(capsys, tmp_path):
    domain = tmp_path / "domain.json"
    domain.write_text('{"conditions": [')
    code, _, err = run(capsys, *reformulate_args(RB, str(domain), tmp_path / "rb.json"))
    assert code == 3
    assert "bad domain file" in err


def test_domain_file_without_interior_point_is_exit_3(capsys, tmp_path):
    domain = tmp_path / "domain.json"
    obj = json.loads(Path(RB_DOMAIN).read_text())
    del obj["interior_point"]
    domain.write_text(json.dumps(obj))
    code, _, err = run(capsys, *reformulate_args(RB, str(domain), tmp_path / "rb.json"))
    assert code == 3
    assert "bad domain file" in err


@pytest.mark.parametrize(
    "target, point",
    [
        ("sqrt(x + y)", {"x": "2"}),
        ("sqrt(x)", {"x": "2", "z": "5"}),
        (RB, {"x": "3"}),
        (RB, {"x": "3", "y": "2", "w": "1"}),
    ],
    ids=["isolate-missing-y", "isolate-root-variable", "reformulate-missing-y",
         "reformulate-extra-w"],
)
def test_domain_point_in_other_variables_is_exit_3(capsys, tmp_path, target, point):
    # the point must assign exactly the expression's (isolate) or the
    # problem's (reformulate) variables
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({"conditions": [], "interior_point": point}))
    if target == RB:
        argv = reformulate_args(RB, str(domain), tmp_path / "rb.json")
    else:
        argv = ["isolate", target, "--strategy", "domain", "--domain-file", str(domain)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "bad domain file" in err and "interior_point must assign exactly" in err


@pytest.mark.parametrize(
    "target, condition, point, why",
    [
        ("sqrt(x)", "z - 1", {"x": "4"}, "condition z - 1 >= 0 names ['z']"),
        (RB, "w - 1", {"x": "3", "y": "2"}, "unknown variable 'w'"),
    ],
    ids=["isolate-root-variable", "reformulate-extra-w"],
)
def test_domain_condition_in_other_variables_is_exit_3(
    capsys, tmp_path, target, condition, point, why
):
    # conditions may name only the variables the point assigns; the root
    # variable z, which the expression's registry also holds, once reached
    # the verifier and exited 4 there
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({
        "conditions": [{"poly": condition, "rel": ">="}], "interior_point": point,
    }))
    if target == RB:
        argv = reformulate_args(RB, str(domain), tmp_path / "rb.json")
    else:
        argv = ["isolate", target, "--strategy", "domain", "--domain-file", str(domain),
                "--verify", "--out", str(tmp_path / "cert.json")]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "bad domain file" in err and why in err


def test_reformulate_missing_file_is_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "reformulate", str(tmp_path / "absent.json"))
    assert code == 3


def test_reformulate_bad_program_is_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ["x"], "objective": {"sense": "best"}}')
    code, _, err = run(capsys, "reformulate", str(bad))
    assert code == 3


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda obj: obj.update(variables=5), "variables"),
        (lambda obj: obj.update(variables=["x", 5]), "variables"),
        (lambda obj: obj.update(variables=["x", "x"]), "variables"),
        (lambda obj: obj.update(variables=["1x"]), "variables"),
        (lambda obj: obj.update(variables=[""]), "variables"),
        (
            lambda obj: obj.update(variables=["x y"]),
            "variables: invalid variable name 'x y'",
        ),
        (lambda obj: obj.update(objective="x"), "objective"),
        (lambda obj: obj["objective"].update(expr=5), "objective expr"),
        (lambda obj: obj.update(constraints=5), "constraints"),
        (lambda obj: obj.update(constraints=["x>=0"]), "constraints[0]"),
        (lambda obj: obj.update(constraints=[{"rel": ">="}]), "'expr'"),
        (lambda obj: obj.update(groups=5), "groups"),
    ],
    ids=[
        "variables", "variable-name", "variable-twice", "variable-1x",
        "variable-empty", "variable-space", "objective", "objective-expr",
        "constraints", "constraint-item", "constraint-expr", "groups",
    ],
)
def test_reformulate_misshapen_program_is_exit_3(capsys, tmp_path, edit, field):
    obj = {
        "variables": ["x"],
        "objective": {"sense": "min", "expr": "sqrt(x)"},
        "constraints": [{"expr": "x", "rel": ">="}],
        "groups": [],
    }
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "reformulate", str(bad))
    assert code == 3
    assert f"error: {field}" in err or f"missing {field}" in err


def test_reformulate_child_budget_is_exit_5(capsys, tmp_path):
    prob = tmp_path / "two_branches.json"
    prob.write_text(
        json.dumps(
            {
                "variables": ["x"],
                "objective": {"sense": "min", "expr": "sqrt(x^2 - 1)"},
                "constraints": [],
            }
        )
    )
    code, _, err = run(
        capsys, "reformulate", str(prob), "--max-children", "1"
    )
    assert code == 5


# -- verify -----------------------------------------------------------------------


def test_verify_accepts_good_certificate(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 0
    assert '"passed": true' in out


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    obj["entries"][0]["root_conditions"][1]["rel"] = "<"
    cert_file.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 4


def tampered_relation(capsys, tmp_path, edit):
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    edit(obj)
    cert_file.write_text(json.dumps(obj))
    return run(capsys, "verify", str(cert_file))


def test_verify_unknown_root_relation_is_exit_4(capsys, tmp_path):
    def edit(obj):
        obj["entries"][0]["root_conditions"][1]["rel"] = "~"

    code, _, err = tampered_relation(capsys, tmp_path, edit)
    assert code == 4
    assert "unknown relation '~'" in err


def test_verify_unknown_skipped_relation_is_exit_4(capsys, tmp_path):
    def edit(obj):
        obj["skipped"][0]["conditions"][0]["rel"] = "~"

    code, _, err = tampered_relation(capsys, tmp_path, edit)
    assert code == 4
    assert "unknown relation '~'" in err


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_verify_unreadable_sample_is_exit_3(capsys, tmp_path, value):
    def edit(obj):
        obj["entries"][0]["sample"]["x"] = value

    code, _, err = tampered_relation(capsys, tmp_path, edit)
    assert code == 3
    assert "unreadable certificate" in err


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        ("entries", "sample", [1], "sample must be an object"),
        ("entries", "sample", "abc", "sample must be an object"),
        ("skipped", "sample", [1], "sample must be an object"),
        ("skipped", "sample", "abc", "sample must be an object"),
        (None, "variables", "xz", "variables must list strings"),
        (None, "variables", ["x", "z", "x"], "variables must list strings, each once"),
        (None, "variables", ["x", "z", "1x"], "invalid variable name '1x'"),
        (None, "variables", ["x", "z", "a-b"], "invalid variable name 'a-b'"),
        ("entries", "sign_vector", "ab", "sign_vector must list -1s and 1s"),
        ("entries", "label", 3, "label must be a string"),
        (None, "entries", [5], "not subscriptable"),
        (None, "entries", {}, "entries must be a list"),
        (None, "skipped", {}, "skipped must be a list"),
        (None, "strategy", 5, "strategy must be a string"),
        (None, "warnings", "abc", "warnings must list strings"),
        (None, "z", 5, "z must name a variable"),
        (None, "z", "w", "z must name a variable"),
        ("entries", "root_conditions", [{"poly": "q*z", "rel": ">"}],
         "polynomials must name listed variables"),
        (None, "defining", "z^2 - q", "polynomials must name listed variables"),
        (None, "source", "sqrt(q)", "source must name listed variables"),
        ("entries", "sample", {}, "sample must assign exactly the source's variables"),
        ("entries", "sample", {"x": "1", "z": "3"}, "sample must assign exactly"),
        ("skipped", "sample", {"q": "1"}, "sample must assign exactly"),
    ],
    ids=[
        "entries-value0", "entries-abc", "skipped-value0", "skipped-abc",
        "variables-xz", "variables-x-twice", "variables-1x", "variables-a-b",
        "sign_vector-ab", "label-3", "entry-5",
        "entries-object", "skipped-object", "strategy-5", "warnings-abc",
        "z-5", "z-w", "condition-q", "defining-q", "source-q", "sample-empty",
        "sample-x-z", "skipped-sample-q",
    ],
)
def test_verify_sample_not_an_object_is_exit_3(
    capsys, tmp_path, where, key, value, message
):
    def edit(obj):
        (obj[where][0] if where else obj)[key] = value

    code, _, err = tampered_relation(capsys, tmp_path, edit)
    assert code == 3
    assert "unreadable certificate" in err
    assert message in err


def test_verify_garbage_file_is_exit_3(capsys, tmp_path):
    bad = tmp_path / "cert.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 3


# -- shared flags --------------------------------------------------------------------


def test_verbose_echoes_settings(capsys):
    code, _, err = run(capsys, "defpoly", "sqrt(x)", "--verbose")
    assert code == 0
    assert "seed=0" in err


def test_successive_calls_share_no_state(capsys, tmp_path):
    """`main` reuses one parser per process: no option, echo or usage error
    of one call carries over into the next, whose exit code and outputs
    stay those of a first call."""
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({
        "conditions": [{"poly": "x - 1", "rel": ">="}, {"poly": "y - 1", "rel": ">="}],
        "interior_point": {"x": "3", "y": "2"},
    }))
    plain = ("isolate", "sqrt(x)")
    first = run(capsys, *plain)
    assert first[0] == 0 and "settings:" not in first[2]
    code, _, _ = run(
        capsys, "isolate", "sqrt(x - 1) + sqrt(y - 1)", "--strategy", "domain",
        "--domain-file", str(domain), "--merge", "--allow-boundary",
    )
    assert code == 0
    assert run(capsys, *plain) == first  # the default strategy, no domain file
    code, _, err = run(capsys, *plain, "--verbose")
    assert code == 0 and "settings:" in err
    assert run(capsys, *plain) == first
    for _ in range(2):
        assert run_usage_error("reformulate", RB, "--baseline") == 2
        assert "--baseline needs --out" in capsys.readouterr().err
        assert run_usage_error(*plain, "--allow-boundary") == 2
        assert "--allow-boundary needs --merge" in capsys.readouterr().err
        assert run(capsys, *plain) == first


def test_no_subcommand_is_usage_error():
    assert run_usage_error() == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["isolate", "sqrt(x)", "--verify", "--samples", "0"],
        ["reformulate", RB, "--max-children", "0"],
        ["isolate", "sqrt(x)", "--strategy", "grid", "--grid-res", "0"],
    ],
    ids=["samples", "max-children", "grid-res"],
)
def test_counts_must_be_positive(argv):
    assert run_usage_error(*argv) == 2


@pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
@pytest.mark.parametrize("command", [("isolate", "sqrt(x)"), ("reformulate", RB)])
def test_grid_bound_with_a_zero_denominator_is_usage_error(capsys, command, flag):
    assert run_usage_error(*command, "--strategy", "grid", flag, "1/0") == 2
    assert "'1/0' is not a rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("defpoly", "sqrt(x)"), ("isolate", "sqrt(x)"), ("reformulate", RB),
     ("verify", "cert.json")],
    ids=lambda argv: argv[0],
)
def test_precision_bits_is_gone(capsys, argv):
    # the working precision is the one constant radicals.PRECISION
    assert run_usage_error(*argv, "--precision-bits", "64") == 2
    assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err


def test_verify_without_samples_is_usage_error(capsys, tmp_path):
    # a check that draws no sample would pass even this tampered certificate
    def edit(obj):
        obj["entries"][0]["root_conditions"][1]["rel"] = "<"

    assert tampered_relation(capsys, tmp_path, edit)[0] == 4
    cert_file = str(tmp_path / "cert.json")
    assert run_usage_error("verify", cert_file, "--samples", "0") == 2


@pytest.mark.parametrize(
    "case", ["verify-defining", "defpoly-power", "defpoly-sum", "reformulate"]
)
def test_too_deep_input_is_exit_5(capsys, tmp_path, case):
    cert_file, prog_file = tmp_path / "cert.json", tmp_path / "prog.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    cert_file.write_text(json.dumps({**obj, "defining": "z^100000 - x"}))
    objective = {"sense": "min", "expr": "x^5000 + sqrt(x^2 + 1)"}
    prog_file.write_text(
        json.dumps({"variables": ["x"], "objective": objective, "constraints": []})
    )
    argv = {
        "verify-defining": ["verify", str(cert_file)],
        "defpoly-power": ["defpoly", "x^5000 + sqrt(x)"],
        "defpoly-sum": ["defpoly", "+".join(["x"] * 5000)],
        "reformulate": ["reformulate", str(prog_file)],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 5
    if case == "defpoly-sum":  # the flat sum alone exhausts the recursion
        assert "input too deep" in err
    else:  # a power above MAX_POWER is a budget, not a depth
        assert "error: resource budget exceeded: power of degree" in err
        assert "too deep" not in err


@pytest.mark.parametrize("case", ["defpoly", "reformulate", "verify-source"])
def test_power_above_the_cap_is_exit_5_at_once(capsys, tmp_path, case):
    # normalize refuses the exponent before it unfolds 10^8 products
    cert_file, prog_file = tmp_path / "cert.json", tmp_path / "prog.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    cert_file.write_text(json.dumps({**obj, "source": "x^99999999"}))
    objective = {"sense": "min", "expr": "x^99999999 + sqrt(x)"}
    prog_file.write_text(
        json.dumps({"variables": ["x"], "objective": objective, "constraints": []})
    )
    argv = {
        "defpoly": ["defpoly", "x^99999999"],
        "reformulate": ["reformulate", str(prog_file)],
        "verify-source": ["verify", str(cert_file)],
    }[case]
    t0 = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 5
    assert "power of degree 99999999 is above the cap of 1000" in err


@pytest.mark.parametrize("defining", ["z^1000*z - x", "z^1000*z^1000 - x"])
def test_defining_product_above_the_power_cap_is_exit_5(capsys, tmp_path, defining):
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    cert_file.write_text(json.dumps({**obj, "defining": defining}))
    code, _, err = run(capsys, "verify", str(cert_file))
    assert code == 5
    assert "above the cap of 1000" in err


def test_verify_bounds_an_endpoint_too_long_to_print(capsys, tmp_path):
    # p(f(a), a) of z^250 - x is enclosed by endpoints of more than 4,300 digits
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "isolate", "sqrt(x)", "--out", str(cert_file))[0] == 0
    obj = json.loads(cert_file.read_text())
    cert_file.write_text(json.dumps({**obj, "defining": "z^250 - x"}))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 4
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness.startswith("sample 0: (x=4/7) -> [-") and "*2^-65, -" in witness


# -- numbers too long to print ----------------------------------------------------

#: the interpreter's int-to-text limit in digits; 0 where there is none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_DIGITS, reason="no int-to-text limit")

#: rationals the reader refuses: exponent notation, however short its value,
#: and a decimal whose numerator has more digits than `str` prints
HUGE_RATIONALS = {
    "exponent": "1e5000",
    "exponent-stall": "1e9999999",  # Fraction alone spends seconds on it
    "decimal": "1" * (INT_DIGITS // 2 + 1) + "." + "1" * (INT_DIGITS // 2 + 1),
}


@needs_int_limit
def test_integer_literal_too_long_to_read_is_exit_3(capsys):
    code, _, err = run(capsys, "defpoly", "x + 1" + "0" * INT_DIGITS)
    assert code == 3
    assert "integer with too many digits (at position 4)" in err


@needs_int_limit
@pytest.mark.parametrize("value", HUGE_RATIONALS.values(), ids=HUGE_RATIONALS.keys())
def test_grid_bound_too_long_to_print_is_usage_error(capsys, value):
    t0 = time.monotonic()
    code = run_usage_error("isolate", "sqrt(x)", "--strategy", "grid", "--grid-min", value)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert "is not a rational" in capsys.readouterr().err


@needs_int_limit
@pytest.mark.parametrize("value", HUGE_RATIONALS.values(), ids=HUGE_RATIONALS.keys())
def test_domain_point_too_long_to_print_is_exit_3(capsys, tmp_path, value):
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({"conditions": [], "interior_point": {"x": value}}))
    t0 = time.monotonic()
    code, _, err = run(
        capsys, "isolate", "sqrt(x)", "--strategy", "domain", "--domain-file", str(domain)
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    assert "bad domain file" in err


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    import runpy

    monkeypatch.setattr("sys.argv", ["algprog", "defpoly", "sqrt(x)"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("algprog", run_name="__main__")
    assert exc.value.code == 0
    assert "z^2 - x" in capsys.readouterr().out

"""Command-line interface: exit codes, output fidelity, determinism.

Everything runs in-process through `main(argv)`; argparse usage errors
surface as SystemExit(2), all other failures as documented return codes.
"""

import json
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


def test_isolate_domain_needs_file():
    assert run_usage_error("isolate", "sqrt(x)", "--strategy", "domain") == 2


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


def test_reformulate_missing_file_is_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "reformulate", str(tmp_path / "absent.json"))
    assert code == 3


def test_reformulate_bad_program_is_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ["x"], "objective": {"sense": "best"}}')
    code, _, err = run(capsys, "reformulate", str(bad))
    assert code == 3


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


def test_no_subcommand_is_usage_error():
    assert run_usage_error() == 2

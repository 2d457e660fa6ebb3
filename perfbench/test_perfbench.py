"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import algprog  # noqa: E402
import algprog.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: the boundaries each workload is named as exercising, as per-layer spans
EXERCISED = {
    "construct": [
        "polycore.gcd_in_main_var", "polycore.square_free_part",
        "resultants.resultant", "resultants.resultant_with_constant",
        "defpoly.defining_polynomial", "defpoly.reduce_defining",
        "defpoly.probabilistic_zero_test", "radicals.eval_numeric.from_defpoly",
    ],
    "certify": [
        "isolation.critical_resultants", "isolation.components.univariate",
        "isolation.components.grid", "isolation.components.domain",
        "isolation.isolate", "isolation.merge_components",
        "isolation.certificate_from_json", "verify.root_selection",
        "verify.sign_at_root", "verify.isolate_real_roots",
        "verify.selection_matches_f", "verify.sample_in_component",
        "verify.verify_certificate", "verify.verify_defining",
        "radicals.eval_numeric.from_isolation", "radicals.eval_numeric.from_verify",
    ],
    "reformulate": [
        "cli.main", "program.load_program", "program.reformulate",
        "program.check_substitution", "program.baseline_reformulate",
        "program.emit", "isolation.components.domain", "isolation.isolate",
        "isolation.merge_components", "verify.root_selection",
        "verify.sign_at_root", "verify.selection_matches_f",
        "verify.sample_in_component", "radicals.eval_numeric.from_program",
        "radicals.eval_numeric.from_isolation",
    ],
}

#: (seed, items) per workload in the traced check: the first whole pass of
#: certify and reformulate; construct's zero tests are rare (a few per
#: thousand items), and the first 120 items of seed 11 include some
TRACED = {"construct": (11, 120), "certify": (0, 27), "reformulate": (0, 22)}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        seed, items = TRACED[name]
        built = cls(algprog, seed, tmp_path_factory.mktemp(name))
        tracer = Tracer()
        tracer.install(algprog)
        try:
            measured = run.measure(built, algprog, 0, max_items=items, tracer=tracer)
        finally:
            tracer.uninstall()
        out[name] = (tracer.metrics(), measured)
    return out


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_boundary_wrappers_fire(traced_runs, workload):
    metrics, _ = traced_runs[workload]
    silent = [s for s in EXERCISED[workload] if not metrics.get(f"{s}.calls")]
    assert not silent, f"{workload}: no calls recorded on {silent}"


def test_tracer_restores_every_binding(traced_runs):
    assert algprog.defpoly.gcd_in_main_var is algprog.polycore.gcd_in_main_var
    assert not hasattr(algprog.cli.main, "__wrapped__")
    assert not hasattr(algprog.isolation.resultant, "__wrapped__")


def test_per_layer_names_are_all_produced(traced_runs):
    produced = set()
    for metrics, _ in traced_runs.values():
        produced |= set(metrics)
    produced |= {"trace.items", "trace.item_s", "trace.uncovered_share", "trace.overhead_share",
                 "trace.time_limit_hits"}
    missing = [e["name"] for e in run.SPEC["per_layer"] if e["name"] not in produced]
    assert not missing


def test_traced_items_pass_their_checks(traced_runs):
    for name, (_, measured) in traced_runs.items():
        wrong = [r["detail"] for r in measured["records"] if r["status"] == workloads.INCORRECT]
        assert not wrong, f"{name}: {wrong}"


def test_tail_percentile_has_ten_samples_beyond():
    assert run.percentile_tail([float(i) for i in range(100)]) == (90, 89.0)
    assert run.percentile_tail([float(i) for i in range(1000)]) == (99, 989.0)
    q, value = run.percentile_tail([float(i) for i in range(57)])
    beyond = sum(1 for v in range(57) if v > value)
    assert beyond >= 10 and q == 82
    # ties at the top push the percentile down until ten values exceed it
    q, value = run.percentile_tail([1.0] * 80 + [2.0] * 20)
    assert (q, value) == (80, 1.0)
    assert run.percentile_tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_construct_inputs_are_deterministic_per_seed():
    first = workloads.construct_inputs(algprog, 7)
    again = workloads.construct_inputs(algprog, 7)
    other = workloads.construct_inputs(algprog, 8)
    a = [next(first) for _ in range(200)]
    assert a == [next(again) for _ in range(200)]
    assert a != [next(other) for _ in range(200)]
    for text in a:
        e = algprog.radicals.normalize(algprog.radicals.parse(text))
        assert 1 < algprog.defpoly.root_index_product(e) <= 9
        assert len(algprog.radicals.distinct_radicals(e)) <= 3


def test_reformulate_cases_are_deterministic_per_seed():
    root = HERE.parent
    strip = lambda cases: [(c["name"], c["problem"], c["domain"]) for c in cases]  # noqa: E731
    assert strip(workloads.reformulate_cases(3, root)) == strip(workloads.reformulate_cases(3, root))
    names = {c["name"] for seed in range(20) for c in workloads.reformulate_cases(seed, root)}
    assert len(names) > 10


@pytest.mark.parametrize("seed", range(12))
def test_variant_interior_points_avoid_critical_resultants(seed):
    iso = algprog.isolation
    for case in workloads.reformulate_cases(seed, HERE.parent)[2:]:
        dp = algprog.defining_polynomial(case["z"])
        reg = dp.poly.registry
        point = {reg.id_of(n): Fraction(v) for n, v in case["domain"]["interior_point"].items()}
        for r in iso.critical_resultants(dp.poly, dp.z):
            assert r.eval(point) != 0, (case["name"], point, r.to_text())


def test_generators_keep_interior_points_off_the_zero_sets():
    # a = 2, b = 3 with interior point (4, 5) gives u = v = 2: exit 4
    assert not workloads.sum_off_zero_set(2, 2)
    assert not workloads.nested_off_zero_set(1, 1, 1, 0)  # c^2 x^4 = y^2 + d
    for seed in range(50):
        for case in workloads.reformulate_cases(seed, HERE.parent)[2:]:
            pt = {n: int(v) for n, v in case["domain"]["interior_point"].items()}
            k = case["params"]
            if "a" in k:
                assert workloads.sum_off_zero_set(pt["x"] - k["a"], pt["y"] - k["b"])
            else:
                assert workloads.nested_off_zero_set(k["c"], k["d"], pt["x"], pt["y"])


def test_oracle_catches_a_wrong_child(tmp_path):
    built = workloads.Reformulate(algprog, 0, tmp_path)
    case = built.cases[1]
    out = tmp_path / "probe.json"
    code, err = built.run(built.argv(case, "json", out))
    assert built.check(case, "json", out, code, err)[0] == workloads.OK
    wrong = dict(case, child=case["child"][:1] + ["z^2 - 2*x^2 >= 0"] + case["child"][2:])
    built.first_bytes.clear()
    assert built.check(wrong, "json", out, code, err)[0] == workloads.INCORRECT


def test_every_family_parameter_passes_the_oracle(tmp_path):
    built = workloads.Reformulate(algprog, 0, tmp_path)
    cases = [workloads.sum_case(a, b, 1, 2) for a in workloads.SHIFTS for b in workloads.SHIFTS]
    cases += [workloads.nested_case(c, d, 1, 1) for c in range(1, 5) for d in (1, 5)]
    for case in cases:
        for name in ("problem", "domain"):
            suffix = ".json" if name == "problem" else ".domain.json"
            (tmp_path / f"{case['name']}{suffix}").write_text(json.dumps(case[name]))
        out = tmp_path / f"{case['name']}.out.json"
        code, err = built.run(built.argv(case, "json", out))
        assert built.check(case, "json", out, code, err)[0] == workloads.OK, case["name"]


def test_formats_parse_to_the_same_program(tmp_path):
    built = workloads.Reformulate(algprog, 0, tmp_path)
    case = built.cases[0]
    parsed = []
    for fmt in workloads.FORMATS:
        out = tmp_path / f"probe.{fmt}"
        code, _ = built.run(built.argv(case, fmt, out))
        assert code == 0
        parsed.append(oracle.parse_output(out.read_text(), fmt))
    assert parsed[0] == parsed[1] == parsed[2]


def test_tampered_certificates_are_expected_to_fail():
    text = '{"entries": [{"root_conditions": [{"poly": "z", "rel": ">"}]}], "defining": "z^2 - x"}'
    flipped = workloads.tamper(text, "flip")
    assert '"<"' in flipped
    assert '"z^2 - x + 1"' in workloads.tamper(text, "defining+1")
    assert workloads.check_verdict(True, "flip")[0] == workloads.INCORRECT
    assert workloads.check_verdict(False, "flip")[0] == workloads.OK
    assert workloads.check_verdict(False, None)[0] == workloads.FAILED


def test_known_failure_runs_in_the_first_pass_only(tmp_path):
    built = workloads.Certify(algprog, 0, tmp_path)
    items = built.items()
    labels, passes = [], 0
    while passes < 3:
        item = next(items)
        labels.append(item.label)
        passes += item.ends_pass
    known = [lab for lab in labels if workloads.KNOWN_FAILURE in lab]
    assert len(known) == 1 and known[0].endswith("seed 0")


def test_time_limit_cuts_are_counted_apart_from_failures():
    def record(status, seconds):
        return {"status": status, "seconds": seconds, "cpu_seconds": seconds,
                "wall_seconds": seconds, "completed": status == workloads.OK, "terms": None}
    recs = [record(workloads.OK, 0.01)] * 8 + [record(workloads.CUT, 0.45),
                                               record(workloads.FAILED, 0.02)]
    m = run.end_to_end({"records": recs, "wall": 1.0})
    assert (m["failed"], m["cut"], m["attempted"]) == (1, 1, 10)
    assert m["failed_share"] == 0.2
    assert m["items_per_s"] == 8 / (8 * 0.01 + 0.45 + 0.02)


def test_time_limit_counts_cpu_time():
    with pytest.raises(workloads.TimeLimit):
        with workloads.time_limit(0.05):
            while True:
                pass
    with workloads.time_limit(0.05):
        time.sleep(0.1)  # sleeping uses no CPU time

"""The benchmark's workloads: inputs, timed calls and output checks.

Each workload is built from an imported algprog package and a seed, and
yields items forever.  An item's `call` is the timed region; its `check`
runs after the measured loop and returns (status, terms, detail), where
status is OK, FAILED (the program reported failure or gave up) or INCORRECT
(it reported success with a wrong output); the runner marks an item the
benchmark stopped at its time limit CUT.  Every call resolves the library
function through its module at call time, so wrappers installed by the tracer
are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

OK, FAILED, INCORRECT, CUT = "ok", "failed", "incorrect", "cut"


class TimeLimit(Exception):
    pass


def _expired(signum, frame):
    raise TimeLimit()


@contextlib.contextmanager
def time_limit(seconds: float | None):
    """Raise TimeLimit in the block once it has used `seconds` of CPU time
    (an interval timer of this process on its user plus system time, the
    clock the items are timed by; the block must not sleep)."""
    if not seconds:
        yield
        return
    previous = signal.signal(signal.SIGPROF, _expired)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@dataclass
class Item:
    label: str
    call: Callable
    check: Callable
    ends_pass: bool = True
    time_limit: float | None = None


# -- construct ------------------------------------------------------------------

#: per-item time limit in reference seconds (see calibrate.py).  Some draws
#: run for seconds or minutes (the gcd and PRS work in defpoly's reduction
#: blows up); they stay in the draw, are cut here and cost the limit.  Item
#: times spread continuously up to any limit, so a few draws near it flip
#: between runs.  A higher limit gives the rare heavy draws more weight, and
#: how many of them a seed draws then sets a run's throughput: over ten
#: seeds, items per second spread by 18 % with 0.45 s, 15 % with 0.2 s and
#: 9 % with 0.1 s
CONSTRUCT_TIME_LIMIT = 0.1
CONSTRUCT_POOL = 2000
ORACLE_TIME_LIMIT = 2.0


def random_expr(R, rng: random.Random, depth: int):
    """Acceptance criterion 6's distribution: depth <= 3, root indices 2, 3."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([R.Var("x"), R.Var("y"), R.Const(Fraction(rng.randint(1, 4)))])
    if rng.random() < 0.45:
        return R.Root(rng.choice((2, 3)), random_expr(R, rng, depth - 1))
    op = rng.choice([R.Add, R.Sub, R.Mul, R.Div])
    return op(random_expr(R, rng, depth - 1), random_expr(R, rng, depth - 1))


def real_point(tree, rng: random.Random, names, tries: int = 40):
    """A random point (and f's value there) where f is real, or None."""
    for _ in range(tries):
        point = {v: rng.randint(-20, 20) / rng.randint(1, 8) for v in names}
        try:
            value = oracle.eval_float(tree, point)
        except (ZeroDivisionError, OverflowError):
            continue
        if value is not None:
            return point, value
    return None


def construct_inputs(ap, seed: int):
    """Endless stream of expression texts: criterion 6's caps (root-index
    product <= 9, at most 3 distinct radicals), heavy items kept.  Drawn
    expressions with no real value at any probe point (a denominator that
    is identically zero, a constant even root of a negative number) are
    skipped: an error is their only correct output."""
    R, D = ap.radicals, ap.defpoly
    rng = random.Random(seed)
    probe = random.Random(seed + 1)
    while True:
        try:
            e = R.normalize(random_expr(R, rng, 3))
            if not 1 < D.root_index_product(e) <= 9 or len(R.distinct_radicals(e)) > 3:
                continue
        except (R.ExprError, D.DefiningError, ZeroDivisionError):
            continue
        text = R.to_text(e)
        if real_point(oracle.parse_expr(text), probe, ("x", "y")) is not None:
            yield text


class Construct:
    """`algprog defpoly`: one defining_polynomial call per item."""

    def __init__(self, ap, seed: int, workdir: Path):
        self.ap = ap
        self.seed = seed
        stream = construct_inputs(ap, seed)
        self.pool = [next(stream) for _ in range(CONSTRUCT_POOL)]
        self.stream = stream

    def items(self):
        for i in range(10**9):
            if i == len(self.pool):
                self.pool.append(next(self.stream))
            text = self.pool[i]
            yield Item(
                label=text,
                call=lambda text=text: self.ap.defpoly.defining_polynomial(text),
                check=lambda dp, text=text: self.check(text, dp),
                time_limit=CONSTRUCT_TIME_LIMIT,
            )

    def check(self, text: str, dp):
        D, V = self.ap.defpoly, self.ap.verify
        registry = dp.poly.registry
        bounds = D.degree_bounds(dp.source)
        if dp.poly.degree_in(dp.z) > bounds.z_degree or any(
            dp.poly.degree_in(registry.id_of(n)) > b
            for n, b in bounds.var_degrees.items() if n in registry
        ):
            return INCORRECT, None, "degree bound exceeded"
        note = ""
        try:
            with time_limit(ORACLE_TIME_LIMIT):
                verdict = V.verify_defining(dp.source, dp, samples=1, seed=self.seed)
            if not verdict.passed:
                return INCORRECT, None, "verify_defining rejected the output"
        except TimeLimit:
            # e.g. sqrt(sqrt(x) - sqrt(x)): refining a radicand that is
            # identically zero never settles; the float check still runs
            note = f"verify_defining gave no verdict within {ORACLE_TIME_LIMIT} s"
        p = oracle.poly(dp.poly.to_text())
        found = real_point(oracle.parse_expr(text), random.Random(self.seed), ("x", "y"))
        if found is not None:
            point, value = found
            if not oracle.vanishes(p, {**point, "z": value}, 1e-6):
                return INCORRECT, None, f"p(f(a), a) != 0 at {point}"
        return OK, len(p), note


# -- certify ----------------------------------------------------------------------

CERTIFY_SAMPLES = 4

#: (expression, strategy, IsolateConfig fields, domain); together they cover
#: many univariate components, several critical resultants in one variable,
#: the grid and domain strategies in two variables and a bounded real domain
CERTIFY_CORPUS = [
    ("sqrt(x)", "univariate", {}, None),
    ("x^(1/2) + x^(1/3)", "univariate", {}, None),
    ("x^(1/2) - x^(1/3)", "univariate", {}, None),
    ("sqrt(1 + x^2)", "univariate", {}, None),
    ("sqrt(sqrt(x) + 1)", "univariate", {}, None),
    ("sqrt(x) + root(3, x + 1)", "univariate", {}, None),
    ("sqrt(x) - sqrt(2 - x)", "univariate", {}, None),
    ("sqrt(x) + sqrt(y)", "grid",
     {"grid_min": Fraction(1, 4), "grid_max": Fraction(4), "grid_resolution": 6}, None),
    ("sqrt(1 + x^2) + x/y", "grid", {"grid_resolution": 6}, None),
    ("sqrt(x - 1) + sqrt(y - 1)", "domain", {"allow_boundary": True},
     ([("x - 1", ">="), ("y - 1", ">=")], {"x": "3", "y": "2"})),
    ("sqrt(x^2 + sqrt(y^2 + 1))", "domain", {"allow_boundary": True},
     ([], {"x": "0", "y": "0"})),
]

#: fails its own verify_certificate at every seed: its univariate component
#: conditions are only resultant signs, identical on all six branches, so
#: samples drawn for one branch land in another where no root passes.  It
#: runs in the first pass only, so every run counts it exactly once, however
#: many passes fit in the run
KNOWN_FAILURE = "sqrt(x) - sqrt(2 - x)"

#: stored certificates re-checked alone (the `algprog verify` path); the
#: source of each is built in set-up from the corpus entry of that expression
STORED = [
    ("sqrt(x)", None),
    ("x^(1/2) + x^(1/3)", None),
    ("x^(1/2) - x^(1/3)", None),
    ("sqrt(x) + sqrt(y)", None),
    ("sqrt(x - 1) + sqrt(y - 1)", None),
    ("sqrt(x^2 + sqrt(y^2 + 1))", None),
    # each of them tampered every way that changes it (the domain
    # certificates' root conditions are not strict, so "flip" leaves them
    # as they are); the known verdict of each is reject.  Acceptance
    # criterion 5 names the two sqrt(x) ones
    ("sqrt(x)", "flip"),
    ("x^(1/2) + x^(1/3)", "flip"),
    ("x^(1/2) - x^(1/3)", "flip"),
    ("sqrt(x) + sqrt(y)", "flip"),
    ("sqrt(x)", "defining+1"),
    ("x^(1/2) + x^(1/3)", "defining+1"),
    ("x^(1/2) - x^(1/3)", "defining+1"),
    ("sqrt(x) + sqrt(y)", "defining+1"),
    ("sqrt(x - 1) + sqrt(y - 1)", "defining+1"),
    ("sqrt(x^2 + sqrt(y^2 + 1))", "defining+1"),
]


def tamper(text: str, how: str) -> str:
    """Edit a certificate the way a corrupted file would differ.

    "flip" reverses every strict root condition: f's root satisfied the
    originals strictly, so it fails every flipped one and no accepted
    selection can be f.  "defining+1" shifts the defining polynomial off f.
    """
    obj = json.loads(text)
    if how == "flip":
        for entry in obj["entries"]:
            for cond in entry["root_conditions"]:
                cond["rel"] = {">": "<", "<": ">"}.get(cond["rel"], cond["rel"])
    elif how == "defining+1":
        obj["defining"] += " + 1"
    else:
        raise ValueError(how)
    return json.dumps(obj, indent=2) + "\n"


class Certify:
    """`algprog isolate --merge --verify` on a corpus and `algprog verify`
    on stored certificates; pass k over the corpus uses seed + k, and only
    the first pass isolates the known failure."""

    def __init__(self, ap, seed: int, workdir: Path):
        self.ap = ap
        self.seed = seed
        corpus = {text: (strategy, fields, dom) for text, strategy, fields, dom in CERTIFY_CORPUS}
        self.stored = []
        built: dict[str, str] = {}
        for text, how in STORED:
            if text not in built:
                cert, _ = self.isolate_and_verify(text, *corpus[text], seed, verify=False)
                built[text] = cert.to_json()
            doc = built[text] if how is None else tamper(built[text], how)
            self.stored.append((text, how, doc))

    def isolate_and_verify(self, text, strategy, fields, dom, seed, verify=True):
        ap = self.ap
        cfg = ap.isolation.IsolateConfig(samples=CERTIFY_SAMPLES, seed=seed, **fields)
        dp = ap.defpoly.defining_polynomial(text)
        domain = None
        if dom is not None:
            reg = dp.poly.registry
            conds, point = dom
            domain = ap.isolation.DomainSpec(
                tuple(
                    ap.isolation.SignCondition(ap.radicals.polynomial_from_text(p, reg), rel)
                    for p, rel in conds
                ),
                {reg.id_of(n): Fraction(v) for n, v in point.items()},
            )
        cert = ap.isolation.isolate(text, dp, strategy, cfg, domain)
        cert = ap.isolation.merge_components(cert, cfg)
        if not verify:
            return cert, None
        report = ap.verify.verify_certificate(
            cert.source, cert, samples_per_component=CERTIFY_SAMPLES, seed=seed
        )
        return cert, report

    def verify_stored(self, doc: str, seed: int) -> bool:
        ap = self.ap
        cert = ap.isolation.certificate_from_json(doc)
        dp = ap.defpoly.DefiningPolynomial(
            poly=cert.defining,
            z=cert.z,
            source=cert.source,
            reduced=True,
            predicted_z_degree_bound=ap.defpoly.root_index_product(cert.source),
        )
        first = ap.verify.verify_defining(cert.source, dp, samples=CERTIFY_SAMPLES, seed=seed)
        second = ap.verify.verify_certificate(
            cert.source, cert, samples_per_component=CERTIFY_SAMPLES, seed=seed
        )
        return first.passed and second.passed

    def items(self):
        for k in range(10**9):
            seed = self.seed + k
            for text, strategy, fields, dom in CERTIFY_CORPUS:
                if k and text == KNOWN_FAILURE:
                    continue
                yield Item(
                    label=f"isolate {text} [{strategy}] seed {seed}",
                    call=lambda a=(text, strategy, fields, dom, seed): self.isolate_and_verify(*a),
                    check=lambda out, text=text: self.check_isolated(text, *out),
                    ends_pass=False,
                )
            for i, (text, how, doc) in enumerate(self.stored):
                yield Item(
                    label=f"verify {text} ({how or 'as built'}) seed {seed}",
                    call=lambda doc=doc, seed=seed: self.verify_stored(doc, seed),
                    check=lambda accepted, how=how: check_verdict(accepted, how),
                    ends_pass=i == len(self.stored) - 1,
                )

    def check_isolated(self, text: str, cert, report):
        doc = json.loads(cert.to_json())
        terms = len(oracle.poly(doc["defining"])) + sum(
            len(oracle.poly(c["poly"]))
            for e in doc["entries"]
            for c in e["root_conditions"] + e["component_conditions"]
        )
        if not report.passed:
            known = " (known failure)" if text == KNOWN_FAILURE else ""
            return FAILED, terms, f"verify_certificate rejected {text}{known}"
        problem = check_certificate_floats(text, doc)
        if problem:
            return INCORRECT, terms, problem
        return OK, terms, ""


def check_verdict(accepted: bool, how):
    if how is None:
        return (OK, None, "") if accepted else (FAILED, None, "valid certificate rejected")
    return (INCORRECT, None, f"tampered certificate ({how}) accepted") if accepted else (OK, None, "")


def check_certificate_floats(text: str, doc: dict) -> str:
    """At every entry's own sample: f is real, p(f(a), a) vanishes and f
    satisfies each root and component condition."""
    tree = oracle.parse_expr(text)
    p = oracle.poly(doc["defining"])
    z = doc["z"]
    for entry in doc["entries"]:
        point = {n: float(Fraction(v)) for n, v in entry["sample"].items()}
        value = oracle.eval_float(tree, point)
        if value is None:
            return f"f is not real at the sample of {entry['label']}"
        full = {**point, z: value}
        if not oracle.vanishes(p, full, 1e-6):
            return f"p(f(a), a) != 0 at the sample of {entry['label']}"
        for cond in entry["root_conditions"] + entry["component_conditions"]:
            if oracle.holds(oracle.poly(cond["poly"]), cond["rel"], full, 1e-9) is False:
                return f"{cond['poly']} {cond['rel']} 0 fails at the sample of {entry['label']}"
    return ""


# -- reformulate --------------------------------------------------------------------

REFORMULATE_SAMPLES = 16
FORMATS = ("json", "smtlib", "human")
#: seeded variants of each family in one pass; the two worked problems run
#: in every format, each variant in one, so a pass holds many distinct
#: variants and a run's figures depend little on which ones the seed drew.
#: Nested variants and Rosenbrock are the cheap items, sum variants and
#: Goldstein-Price the dear ones; with more dear items than cheap ones the
#: median item falls inside the dear group, not in the gap between them
SUM_VARIANTS = 12
NESTED_VARIANTS = 4

GOLDSTEIN_PRICE = (
    "(1 + (x + y + 1)^2*(19 - 14*x + 3*x^2 - 14*y + 6*x*y + 3*y^2))"
    "*(30 + (2*x - 3*y)^2*(18 - 32*x + 12*x^2 + 48*y - 36*x*y + 27*y^2))"
)
ROSENBROCK = "(1 - x)^2 + 100*(y - x^2)^2"


def shifted(var: str, a: int) -> str:
    return f"{var} - {a}" if a >= 0 else f"{var} + {-a}"


def sum_off_zero_set(u: int, v: int) -> bool:
    """The critical resultants of sqrt(u) + sqrt(v) vanish on u = 0, v = 0,
    u = v and u^2 - 7uv + v^2 = 0 (acceptance criterion 2)."""
    return u > 0 and v > 0 and u != v and u * u - 7 * u * v + v * v != 0


SHIFTS = (-2, -1, 1, 2, 3)


def sum_variant(rng: random.Random) -> dict:
    """sqrt(x - a) + sqrt(y - b) with an interior point (a + u, b + v) where
    u = x - a, v = y - b are off the critical resultant zero set."""
    a, b = rng.choice(SHIFTS), rng.choice(SHIFTS)
    while True:
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        if sum_off_zero_set(u, v):
            return sum_case(a, b, u, v)


def sum_case(a: int, b: int, u: int, v: int) -> dict:
    radical = f"sqrt({shifted('x', a)}) + sqrt({shifted('y', b)})"
    keys = {"a": a, "b": b}
    texts = [t.format(**keys) for t in oracle.SUM_FAMILY_BASELINE]
    return {
        "name": f"sum_a{a}_b{b}",
        "params": {"a": a, "b": b},
        "problem": {
            "variables": ["x", "y"],
            "objective": {"sense": "min", "expr": f"{GOLDSTEIN_PRICE} - ({radical})"},
            "constraints": [
                {"expr": shifted("x", a), "rel": ">="},
                {"expr": shifted("y", b), "rel": ">="},
            ],
            "groups": [radical],
        },
        "domain": {
            "conditions": [
                {"poly": shifted("x", a), "rel": ">="},
                {"poly": shifted("y", b), "rel": ">="},
            ],
            "interior_point": {"x": str(a + u), "y": str(b + v)},
        },
        "child": [t.format(**keys) for t in oracle.SUM_FAMILY_CHILD],
        # the baseline names the radicals in the order normalization leaves
        # them, which depends on a and b
        "baselines": [
            (texts, {"u": f"sqrt({shifted('x', a)})", "v": f"sqrt({shifted('y', b)})"}),
            ([t.translate(str.maketrans("uv", "vu")) for t in texts],
             {"v": f"sqrt({shifted('x', a)})", "u": f"sqrt({shifted('y', b)})"}),
        ],
        "z": radical,
        "point": lambda r: {"x": a + r.uniform(0.1, 4), "y": b + r.uniform(0.1, 4)},
    }


def nested_off_zero_set(c: int, d: int, x: int, y: int) -> bool:
    """(z^2 - c x^2)^2 = y^2 + d has a double root iff y^2 + d = 0 or
    c^2 x^4 = y^2 + d; p'' meets p iff 4 c^2 x^4 = 9 (y^2 + d)."""
    s = y * y + d
    return s != 0 and c * c * x**4 != s and 4 * c * c * x**4 != 9 * s


def nested_variant(rng: random.Random, c: int) -> dict:
    """sqrt(c*x^2 + sqrt(y^2 + d)), c, d > 0, with an interior point off the
    critical resultant zero set."""
    d = rng.randint(1, 5)
    while True:
        x, y = rng.randint(-2, 2), rng.randint(-2, 2)
        if nested_off_zero_set(c, d, x, y):
            return nested_case(c, d, x, y)


def nested_case(c: int, d: int, x: int, y: int) -> dict:
    radical = f"sqrt({c}*x^2 + sqrt(y^2 + {d}))"
    keys = {"c": c, "d": d}
    return {
        "name": f"nested_c{c}_d{d}",
        "params": {"c": c, "d": d},
        "problem": {
            "variables": ["x", "y"],
            "objective": {"sense": "min", "expr": f"{ROSENBROCK} + {radical}"},
            "constraints": [],
        },
        "domain": {"conditions": [], "interior_point": {"x": str(x), "y": str(y)}},
        "child": [t.format(**keys) for t in oracle.NESTED_FAMILY_CHILD],
        "baselines": [(
            [t.format(**keys) for t in oracle.NESTED_FAMILY_BASELINE],
            {"v": f"sqrt(y^2 + {d})", "u": f"sqrt({c}*x^2 + sqrt(y^2 + {d}))"},
        )],
        "z": radical,
        "point": lambda r: {"x": r.uniform(-3, 3), "y": r.uniform(-3, 3)},
    }


def worked_problem(stem: str, root: Path) -> dict:
    problem = json.loads((root / "problems" / f"{stem}.json").read_text())
    domain = json.loads((root / "problems" / f"{stem}.domain.json").read_text())
    if stem == "goldstein_price":
        z = "sqrt(x - 1) + sqrt(y - 1)"
        aux = {"u": "sqrt(x - 1)", "v": "sqrt(y - 1)"}
        point = lambda r: {"x": 1 + r.uniform(0.1, 4), "y": 1 + r.uniform(0.1, 4)}
    else:
        z = "sqrt(x^2 + sqrt(y^2 + 1))"
        aux = {"v": "sqrt(y^2 + 1)", "u": "sqrt(x^2 + sqrt(y^2 + 1))"}
        point = lambda r: {"x": r.uniform(-3, 3), "y": r.uniform(-3, 3)}
    return {
        "name": stem, "problem": problem, "domain": domain, "ordered": True,
        "child": oracle.EXPECTED_CHILDREN[stem],
        "baselines": [(oracle.EXPECTED_BASELINES[stem], aux)],
        "z": z, "point": point,
    }


def reformulate_cases(seed: int, root: Path) -> list[dict]:
    rng = random.Random(seed)
    cases = [worked_problem(s, root) for s in ("goldstein_price", "rosenbrock")]
    cases += [sum_variant(rng) for _ in range(SUM_VARIANTS)]
    # c sets most of a nested variant's cost: each value of 1..4 equally often
    cases += [nested_variant(rng, 1 + i % 4) for i in range(NESTED_VARIANTS)]
    for i, case in enumerate(cases[2:]):  # two draws may share parameters
        case["name"] += f"_{i}"
    return cases


class Reformulate:
    """`algprog reformulate --strategy domain --merge --allow-boundary
    --verify --baseline` in-process, every case in every format."""

    def __init__(self, ap, seed: int, workdir: Path):
        self.ap = ap
        self.seed = seed
        self.workdir = workdir
        root = Path(__file__).resolve().parent.parent
        self.cases = reformulate_cases(seed, root)
        for case in self.cases:
            (workdir / f"{case['name']}.json").write_text(json.dumps(case["problem"]))
            (workdir / f"{case['name']}.domain.json").write_text(json.dumps(case["domain"]))
        self.first_bytes: dict[tuple, bytes] = {}

    def argv(self, case: dict, fmt: str, out: Path) -> list[str]:
        base = self.workdir / case["name"]
        return [
            "reformulate", f"{base}.json", "--strategy", "domain",
            "--domain-file", f"{base}.domain.json", "--merge", "--allow-boundary",
            "--verify", "--format", fmt, "--samples", str(REFORMULATE_SAMPLES),
            "--seed", str(self.seed), "--baseline", "--out", str(out),
        ]

    def run(self, argv: list[str]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.ap.cli.main(argv)
        return code, err.getvalue()

    def items(self):
        n = 0
        for k in range(10**9):
            for ci, case in enumerate(self.cases):
                formats = FORMATS if ci < 2 else [FORMATS[ci % len(FORMATS)]]
                for fi, fmt in enumerate(formats):
                    n += 1
                    out = self.workdir / f"out{n}.{fmt}"
                    yield Item(
                        label=f"reformulate {case['name']} --format {fmt}",
                        call=lambda a=self.argv(case, fmt, out): self.run(a),
                        check=lambda res, case=case, fmt=fmt, out=out: self.check(case, fmt, out, *res),
                        ends_pass=ci == len(self.cases) - 1 and fi == len(formats) - 1,
                    )

    def check(self, case: dict, fmt: str, out: Path, code: int, stderr: str):
        if code != 0:
            return FAILED, None, f"exit {code}: {stderr.strip().splitlines()[-1:]}"
        main_bytes = out.read_bytes()
        base_bytes = out.with_name(f"{out.stem}.baseline{out.suffix}").read_bytes()
        key = (case["name"], fmt)
        first = self.first_bytes.setdefault(key, main_bytes + b"\0" + base_bytes)
        if first != main_bytes + b"\0" + base_bytes:
            return INCORRECT, None, "output bytes differ from an identical earlier invocation"
        ours, theirs = oracle.EXPECTED_AUX
        if f"aux variables: ours {ours}, baseline {theirs}" not in stderr:
            return INCORRECT, None, "auxiliary variable counts differ from (1, 2)"
        children = oracle.parse_output(main_bytes.decode(), fmt)
        baseline = oracle.parse_output(base_bytes.decode(), fmt)
        ordered = case.get("ordered", False)
        if len(children) != 1 or not oracle.conditions_match(
            children[0]["constraints"], case["child"], ordered
        ):
            return INCORRECT, None, "child constraints differ from the expected ones"
        aux = next(
            (aux for texts, aux in case["baselines"]
             if len(baseline) == 1 and oracle.conditions_match(baseline[0]["constraints"], texts, ordered)),
            None,
        )
        if aux is None:
            return INCORRECT, None, "baseline constraints differ from the expected ones"
        problem = objective_mismatch(case, aux, children[0], baseline[0], random.Random(self.seed))
        if problem:
            return INCORRECT, None, problem
        child = children[0]
        terms = len(child["objective"]) + sum(
            len(p) for p, _ in child["constraints"]
        )
        return OK, terms, ""


def objective_mismatch(case: dict, aux: dict, child: dict, baseline: dict, rng: random.Random,
                       points: int = 3) -> str:
    """Both emitted objectives must equal the original one once every
    auxiliary variable is set to the radical it stands for."""
    original = oracle.parse_expr(case["problem"]["objective"]["expr"])
    z_tree = oracle.parse_expr(case["z"])
    aux = {name: oracle.parse_expr(t) for name, t in aux.items()}
    for _ in range(points):
        point = case["point"](rng)
        want = oracle.eval_float(original, point)
        values = {
            "child": {**point, "z": oracle.eval_float(z_tree, point)},
            "baseline": {**point, **{n: oracle.eval_float(t, point) for n, t in aux.items()}},
        }
        for which, program in (("child", child), ("baseline", baseline)):
            got, scale = oracle.eval_poly(program["objective"], values[which])
            if abs(got - want) > 1e-9 * max(scale, abs(want), 1.0):
                return f"{which} objective differs from the original at {point}"
    return ""


WORKLOADS = {"construct": Construct, "certify": Certify, "reformulate": Reformulate}

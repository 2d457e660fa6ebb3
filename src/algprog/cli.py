"""Command-line surface for the reformulation pipeline.

Subcommands mirror the library layers: `defpoly` builds a defining
polynomial, `isolate` adds a root-isolation certificate, `reformulate` runs
the full problem pipeline, and `verify` re-checks a stored certificate from
scratch.  All randomized steps take `--seed`, so identical invocations
produce byte-identical output.

Exit codes: 0 success, 2 usage, 3 parse/input, 4 validation or verification
failure, 5 resource budget exceeded.  Primary output goes to stdout (or
`--out`); verification reports and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .defpoly import (
    DefiningError,
    DefiningPolynomial,
    ReduceConfig,
    SamplingError,
    defining_polynomial,
    degree_bounds,
    root_index_product,
)
from .isolation import (
    DomainSpec,
    IsolateConfig,
    IsolationError,
    PrecisionError,
    ValidationError,
    certificate_from_json,
    condition_from_record,
    isolate,
    merge_components,
)
from .polycore import PolyError, VarRegistry
from .program import (
    ReformulateConfig,
    ResourceError,
    StructuralError,
    baseline_reformulate,
    check_substitution,
    emit,
    load_program,
    reformulate,
)
from .radicals import (
    ExprError,
    ExprSyntaxError,
    parse,
)
from .verify import VerifyReport, audit_degrees, verify_certificate, verify_defining

_FORMATS = ("json", "smtlib", "human")
_STRATEGIES = ("univariate", "grid", "domain")


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument(
        "--precision-bits",
        type=int,
        default=64,
        metavar="B",
        help="interval refinement target 2^-B (default 64)",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=128,
        metavar="N",
        help="sample count for randomized checks (default 128)",
    )
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="echo the effective settings to stderr",
    )


def _add_isolation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=_STRATEGIES, default="univariate")
    p.add_argument(
        "--merge",
        action="store_true",
        help="merge components with equal sign vectors",
    )
    p.add_argument(
        "--allow-boundary",
        action="store_true",
        help="relax merged conditions to cover resultant zeros",
    )
    p.add_argument(
        "--domain-file",
        metavar="PATH",
        help="JSON domain {conditions: [{poly, rel}], interior_point: {var: q}}",
    )
    p.add_argument("--grid-min", type=Fraction, default=Fraction(-4), metavar="Q")
    p.add_argument("--grid-max", type=Fraction, default=Fraction(4), metavar="Q")
    p.add_argument("--grid-res", type=int, default=8, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algprog",
        description="Reformulate optimization over radical expressions into "
        "polynomial programs with root-isolation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_def = sub.add_parser(
        "defpoly", help="defining polynomial of a radical expression"
    )
    p_def.add_argument("expr", help="expression, e.g. 'sqrt(1 + x^2)'")
    p_def.add_argument("--z", default="z", help="name of the root variable")
    p_def.add_argument(
        "--verify",
        action="store_true",
        help="certify p(f(a), a) = 0 at sample points and audit degree bounds",
    )
    _add_shared(p_def)
    p_def.set_defaults(func=cmd_defpoly)

    p_iso = sub.add_parser(
        "isolate", help="root-isolation certificate for an expression"
    )
    p_iso.add_argument("expr")
    p_iso.add_argument("--z", default="z", help="name of the root variable")
    p_iso.add_argument(
        "--verify", action="store_true", help="re-check the certificate exactly"
    )
    _add_isolation_flags(p_iso)
    _add_shared(p_iso)
    p_iso.set_defaults(func=cmd_isolate)

    p_ref = sub.add_parser(
        "reformulate", help="reformulate a problem file into polynomial children"
    )
    p_ref.add_argument("problem", help="problem JSON file")
    p_ref.add_argument("--format", choices=_FORMATS, default="json")
    p_ref.add_argument(
        "--max-children",
        type=int,
        default=64,
        metavar="N",
        help="budget on component combinations (default 64)",
    )
    p_ref.add_argument(
        "--baseline",
        action="store_true",
        help="also write the straightforward reformulation (requires --out)",
    )
    p_ref.add_argument(
        "--verify",
        action="store_true",
        help="run substitution-soundness checks on the children",
    )
    _add_isolation_flags(p_ref)
    _add_shared(p_ref)
    p_ref.set_defaults(func=cmd_reformulate)

    p_ver = sub.add_parser(
        "verify", help="re-check a stored certificate JSON from scratch"
    )
    p_ver.add_argument("certificate", help="certificate JSON file")
    _add_shared(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _echo_settings(args: argparse.Namespace) -> None:
    skip = {"func", "verbose", "command"}
    pairs = [
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip
    ]
    print(f"settings: {' '.join(pairs)}", file=sys.stderr)


def _write(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def _report_to_stderr(name: str, report: VerifyReport) -> None:
    print(f"{name}: {report.to_json()}", file=sys.stderr)


class InputFileError(Exception):
    """An input file that does not have the documented form (exit 3)."""


def _load_domain(path: str, registry: VarRegistry) -> DomainSpec:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
        conditions = tuple(
            condition_from_record(c, registry) for c in obj["conditions"]
        )
        point = {
            registry.id_of(name): Fraction(str(value))
            for name, value in obj["interior_point"].items()
        }
    except (
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        ZeroDivisionError,
        PolyError,
        ExprError,
        ValidationError,
    ) as exc:
        raise InputFileError(f"bad domain file {path}: {exc!r}") from None
    return DomainSpec(conditions=conditions, interior_point=point)


def _isolate_config(args: argparse.Namespace) -> IsolateConfig:
    return IsolateConfig(
        samples=args.samples,
        precision=args.precision_bits,
        seed=args.seed,
        allow_boundary=args.allow_boundary,
        grid_min=args.grid_min,
        grid_max=args.grid_max,
        grid_resolution=args.grid_res,
    )


def cmd_defpoly(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    expr = parse(args.expr)
    dp = defining_polynomial(
        expr,
        z_name=args.z,
        cfg=ReduceConfig(precision=args.precision_bits, seed=args.seed),
    )
    bounds = degree_bounds(dp.source)
    registry = dp.poly.registry
    lines = [dp.poly.to_text()]
    lines.append(f"predicted z-degree bound: {dp.predicted_z_degree_bound}")
    lines.append(f"observed z-degree: {dp.poly.degree_in(dp.z)}")
    for name in sorted(bounds.var_degrees):
        observed = dp.poly.degree_in(registry.id_of(name))
        lines.append(
            f"degree in {name}: {observed} (bound {bounds.var_degrees[name]})"
        )
    lines.append("reduction log:")
    if dp.reduction_log:
        lines.extend(f"  {entry}" for entry in dp.reduction_log)
    else:
        lines.append("  (none)")
    _write(("\n".join(lines) + "\n").encode(), args.out)

    if args.verify:
        report = verify_defining(
            dp.source,
            dp,
            samples=args.samples,
            precision=args.precision_bits,
            seed=args.seed,
        )
        for line in audit_degrees(dp).checks:
            report.add(line)
        _report_to_stderr("verify", report)
        if not report.passed:
            return 4
    return 0


def cmd_isolate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.strategy == "domain" and not args.domain_file:
        parser.error("--strategy domain requires --domain-file")
    expr = parse(args.expr)
    cfg = _isolate_config(args)
    dp = defining_polynomial(
        expr,
        z_name=args.z,
        cfg=ReduceConfig(precision=args.precision_bits, seed=args.seed),
    )
    domain = (
        _load_domain(args.domain_file, dp.poly.registry)
        if args.domain_file
        else None
    )
    cert = isolate(expr, dp, strategy=args.strategy, cfg=cfg, domain=domain)
    if args.merge:
        cert = merge_components(cert, cfg)
    _write(cert.to_json().encode(), args.out)

    if args.verify:
        report = verify_certificate(
            cert.source,
            cert,
            samples_per_component=args.samples,
            tol_bits=args.precision_bits,
            seed=args.seed,
        )
        _report_to_stderr("verify", report)
        if not report.passed:
            return 4
    return 0


def cmd_reformulate(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    if args.strategy == "domain" and not args.domain_file:
        parser.error("--strategy domain requires --domain-file")
    if args.baseline and not args.out:
        parser.error("--baseline needs --out to keep the two outputs apart")
    try:
        prog = load_program(Path(args.problem).read_text())
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    domain = (
        _load_domain(args.domain_file, prog.variables)
        if args.domain_file
        else None
    )
    cfg = ReformulateConfig(
        isolate=_isolate_config(args),
        merge=args.merge,
        max_children=args.max_children,
    )
    result = reformulate(prog, strategy=args.strategy, cfg=cfg, domain=domain)
    _write(emit(result, args.format), args.out)
    if args.baseline:
        base = baseline_reformulate(prog)
        path = Path(args.out)
        baseline_path = path.with_name(f"{path.stem}.baseline{path.suffix}")
        baseline_path.write_bytes(emit(base, args.format))
        print(f"baseline written to {baseline_path}", file=sys.stderr)
    print(
        f"aux variables: ours {result.aux_count_ours}, "
        f"baseline {result.aux_count_baseline}",
        file=sys.stderr,
    )
    print(f"density note: {result.density_note}", file=sys.stderr)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.verify:
        report = check_substitution(
            result,
            prog,
            samples=args.samples,
            precision=args.precision_bits,
            seed=args.seed,
        )
        _report_to_stderr("verify", report)
        if not report.passed:
            return 4
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        cert = certificate_from_json(Path(args.certificate).read_text())
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: unreadable certificate: {exc!r}", file=sys.stderr)
        return 3
    dp = DefiningPolynomial(
        poly=cert.defining,
        z=cert.z,
        source=cert.source,
        reduced=True,
        predicted_z_degree_bound=root_index_product(cert.source),
    )
    report = verify_defining(
        cert.source,
        dp,
        samples=args.samples,
        precision=args.precision_bits,
        seed=args.seed,
    )
    for line in verify_certificate(
        cert.source,
        cert,
        samples_per_component=args.samples,
        tol_bits=args.precision_bits,
        seed=args.seed,
    ).checks:
        report.add(line)
    _write((report.to_json() + "\n").encode(), args.out)
    return 0 if report.passed else 4


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        _echo_settings(args)
    try:
        return args.func(args, parser)
    except (ExprSyntaxError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ResourceError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        StructuralError,
        IsolationError,
        DefiningError,
        SamplingError,
        PolyError,
        ExprError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

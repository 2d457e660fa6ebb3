"""Command-line surface for the reformulation pipeline.

Subcommands mirror the library layers: `defpoly` builds a defining
polynomial, `isolate` adds a root-isolation certificate, `reformulate` runs
the full problem pipeline, and `verify` re-checks a stored certificate from
scratch.  All randomized steps take `--seed`, so identical invocations
produce byte-identical output.

Exit codes: 0 success, 2 usage, 3 parse/input, 4 validation or verification
failure, 5 resource budget exceeded or input too deep.  Primary output goes to
stdout (or `--out`); verification reports and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Collection, Sequence

from .defpoly import (
    DefiningError,
    DefiningPolynomial,
    defining_polynomial,
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
from .polycore import PolyError, VarRegistry, is_variable_name
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
    PowerBudgetError,
    SamplingError,
    degree_bounds,
    parse,
    polynomial_from_text,
    variables_of,
)
from .verify import VerifyReport, audit_degrees, verify_certificate, verify_defining

_FORMATS = ("json", "smtlib", "human")
_STRATEGIES = ("univariate", "grid", "domain")


def positive_int(text: str) -> int:
    """argparse type of the counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _read_rational(text: str) -> Fraction:
    """`text` as a rational such as `-4`, `1/3` or `0.25`; ValueError for
    exponent notation, which `Fraction` would spend seconds expanding
    (`1e9999999`), and for a value with more digits than `str` prints."""
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}")
    value = Fraction(text)
    str(value)  # ValueError past the interpreter's int-to-text limit
    return value


def rational(text: str) -> Fraction:
    """argparse type of the grid bounds: a rational such as `-4` or `1/3`."""
    try:
        return _read_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None


def variable_name(text: str) -> str:
    """argparse type of `--z`: a name the expression parser reads back."""
    if not is_variable_name(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a variable name")
    return text


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument(
        "--samples",
        type=positive_int,
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
        help="relax merged conditions to cover resultant zeros (needs --merge)",
    )
    p.add_argument(
        "--domain-file",
        metavar="PATH",
        help="JSON domain {conditions: [{poly, rel}], interior_point: {var: q}}",
    )
    p.add_argument("--grid-min", type=rational, default=Fraction(-4), metavar="Q")
    p.add_argument("--grid-max", type=rational, default=Fraction(4), metavar="Q")
    p.add_argument("--grid-res", type=positive_int, default=8, metavar="N")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged (each call gets a fresh namespace, and every default
    is immutable), so successive `main` calls share it."""
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
    p_def.add_argument(
        "--z", type=variable_name, default="z", help="name of the root variable"
    )
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
    p_iso.add_argument(
        "--z", type=variable_name, default="z", help="name of the root variable"
    )
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
        type=positive_int,
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


def _verdict(report: VerifyReport) -> int:
    """Print a `--verify` report to stderr; return its exit code, 0 or 4."""
    print(f"verify: {report.to_json()}", file=sys.stderr)
    return 0 if report.passed else 4


class InputFileError(Exception):
    """An input file that does not have the documented form (exit 3)."""


def _load_domain(
    path: str | None, registry: VarRegistry, names: Collection[str]
) -> DomainSpec | None:
    """The domain file at `path`, its interior point assigning exactly the
    variables `names` and its conditions naming no others."""
    # `main` has checked that a path comes with `--strategy domain` only
    if path is None:
        return None
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
        conditions = tuple(
            condition_from_record(c, lambda t: polynomial_from_text(t, registry))
            for c in obj["conditions"]
        )
        for cond in conditions:
            outside = {registry.name_of(v) for v in cond.poly.vars_present()}
            outside -= set(names)
            if outside:
                raise ValueError(
                    f"condition {cond.text()} names {sorted(outside)}, "
                    f"not among {sorted(names)}"
                )
        values = obj["interior_point"]
        if set(values) != set(names):
            raise ValueError(f"interior_point must assign exactly {sorted(names)}")
        point = {
            registry.id_of(name): _read_rational(str(value))
            for name, value in values.items()
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
        seed=args.seed,
        allow_boundary=args.allow_boundary,
        grid_min=args.grid_min,
        grid_max=args.grid_max,
        grid_resolution=args.grid_res,
    )


def cmd_defpoly(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    dp = defining_polynomial(parse(args.expr), z_name=args.z, seed=args.seed)
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
            seed=args.seed,
        )
        for line in audit_degrees(dp).checks:
            report.add(line)
        return _verdict(report)
    return 0


def cmd_isolate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    expr = parse(args.expr)
    cfg = _isolate_config(args)
    dp = defining_polynomial(expr, z_name=args.z, seed=args.seed)
    domain = _load_domain(args.domain_file, dp.poly.registry, variables_of(dp.source))
    cert = isolate(expr, dp, strategy=args.strategy, cfg=cfg, domain=domain)
    if args.merge:
        cert = merge_components(cert, cfg)
    _write(cert.to_json().encode(), args.out)

    if args.verify:
        report = verify_certificate(
            cert.source,
            cert,
            samples_per_component=args.samples,
            seed=args.seed,
        )
        return _verdict(report)
    return 0


def cmd_reformulate(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    if args.baseline and not args.out:
        parser.error("--baseline needs --out to keep the two outputs apart")
    try:
        prog = load_program(Path(args.problem).read_text())
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    domain = _load_domain(args.domain_file, prog.variables, prog.variables.names())
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
            seed=args.seed,
        )
        return _verdict(report)
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        cert = certificate_from_json(Path(args.certificate).read_text())
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        # ValueError covers invalid JSON and sample values Fraction rejects
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
        seed=args.seed,
    )
    for line in verify_certificate(
        cert.source,
        cert,
        samples_per_component=args.samples,
        seed=args.seed,
    ).checks:
        report.add(line)
    _write((report.to_json() + "\n").encode(), args.out)
    return 0 if report.passed else 4


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "domain_file" in args and (args.strategy == "domain") != bool(args.domain_file):
        parser.error("--strategy domain and --domain-file go together")
    if "merge" in args and args.allow_boundary and not args.merge:
        parser.error("--allow-boundary needs --merge")
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
    except PowerBudgetError as exc:
        print(f"error: resource budget exceeded: {exc}", file=sys.stderr)
        return 5
    except RecursionError as exc:
        msg = "input too deep for the recursive expression layer"
        print(f"error: {msg}{': ' + str(exc) if str(exc) else ''}", file=sys.stderr)
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

"""Algebraic programs and their polynomial reformulations.

An algebraic program optimizes a radical expression subject to constraints
`g_i rel 0` whose left-hand sides may themselves contain radicals.  Two
reformulations into polynomial programs are provided:

* `reformulate` — one fresh variable per *radical expression*: each maximal
  radical part f gets its defining polynomial p(z, x) and a root-isolation
  certificate; every occurrence of f is replaced by z, and the certificate's
  conditions pin z to the branch that equals f.  One child program is emitted
  per combination of certificate components across the parts.

* `baseline_reformulate` — the straightforward scheme with one fresh variable
  per *radical*: every r-th root w = root(r, g) becomes `w^r = g` plus, for
  even r, `w >= 0` and `g >= 0` (the radicand condition is dropped when g is
  provably nonnegative).  Divisions are cleared by cross-multiplication.

The two schemes introduce the same number of variables exactly when every
radical expression is a bare radical; on nested or grouped expressions the
first needs strictly fewer, which is the point of the whole construction.

Granularity of "radical expression" is a user decision the default cannot
always guess: the parts found by default are the outermost Root subtrees, and
a problem file may list `groups` — subexpressions to be treated as single
parts wherever they occur verbatim.  After all parts are replaced by fresh
variables, every program expression must be polynomial; leftover structure
(say an unreplaced denominator) is a structural error, fixed by grouping.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import radicals
from . import verify as _verify
from .defpoly import DefiningPolynomial, defining_polynomial
from .isolation import (
    DomainSpec,
    IsolateConfig,
    IsolationCertificate,
    SignCondition,
    isolate,
    merge_components,
)
from .polycore import (
    MultiPoly,
    PolyError,
    VarId,
    VarRegistry,
    grlex_key,
    provably_nonneg,
)
from .radicals import (
    NOT_REAL,
    Add,
    Const,
    Div,
    EvalDomainError,
    Expr,
    Interval,
    Mul,
    NotPolynomial,
    Root,
    Sub,
    Var,
    eval_numeric,
    is_polynomial,
    normalize,
    parse,
    polynomial_from_text,
    substitute_expr,
    to_polynomial,
    to_text,
    variables_of,
)


class ProgramError(Exception):
    pass


class StructuralError(ProgramError):
    """A program expression cannot be brought to polynomial form."""


class ResourceError(ProgramError):
    """The reformulation would exceed a configured budget."""


#: relations allowed on input constraints (`expr rel 0`)
PROGRAM_RELATIONS = ("=", ">", ">=", "<", "<=")

_SENSES = ("min", "max")

_DENSITY_NOTES = ("asserted_by_user", "open_dense_case", "unchecked")


# ---------------------------------------------------------------------------
# Problem models.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicProgram:
    """Optimization problem whose expressions may contain radicals.

    Constraints read `expr rel 0`.  `groups` are optional subexpressions to be
    extracted as single algebraic parts wherever they occur as subtrees.
    """

    variables: VarRegistry
    objective: tuple[str, Expr]
    constraints: tuple[tuple[Expr, str], ...] = ()
    groups: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class PolynomialProgram:
    """Radical-free child problem.

    `provenance` records which radical expression each auxiliary variable
    stands for.  `constraint_kinds` annotates constraints for display (one
    entry per constraint, e.g. "defining polynomial"); it is in-memory only
    and absent on programs parsed back from JSON.
    """

    variables: VarRegistry
    objective: tuple[str, MultiPoly]
    constraints: tuple[tuple[MultiPoly, str], ...]
    provenance: Mapping[VarId, Expr]
    component_label: str = ""
    constraint_kinds: tuple[str, ...] = ()
    entry_choice: tuple[int, ...] = ()


@dataclass(frozen=True)
class PartReformulation:
    """In-memory record of one algebraic part's pipeline run."""

    expr: Expr
    occurrences: tuple[str, ...]
    z_name: str
    defining: DefiningPolynomial
    certificate: IsolationCertificate


@dataclass(frozen=True)
class ReformulationResult:
    children: tuple[PolynomialProgram, ...]
    aux_count_ours: int
    aux_count_baseline: int
    density_note: str
    parts: tuple[PartReformulation, ...] = ()
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Problem files.
# ---------------------------------------------------------------------------


def load_program(text: str) -> AlgebraicProgram:
    """Parse a problem JSON document.

    Schema: {"variables": ["x", ...], "objective": {"sense": "min"|"max",
    "expr": "..."}, "constraints": [{"expr": "...", "rel": ">="}, ...],
    "groups": ["...", ...]}; constraints and groups are optional.  Every
    variable used by an expression must be listed.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise StructuralError("problem file must be a JSON object")
    names = _field(obj, "variables", list, "a list of names")
    if not all(isinstance(n, str) for n in names):
        raise StructuralError(f"variables must be a list of names, got {names!r}")
    goal = _field(obj, "objective", dict, 'an object with "sense" and "expr"')
    sense = _field(goal, "sense", str, '"min" or "max"', "objective sense")
    objective_text = _field(goal, "expr", str, "an expression", "objective expr")
    records = obj.get("constraints", [])
    if not isinstance(records, list):
        raise StructuralError(f"constraints must be a list, got {records!r}")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise StructuralError(
                f'constraints[{i}] must be an object with "expr" and "rel", '
                f"got {rec!r}"
            )
        _field(rec, "expr", str, "an expression", f"constraints[{i}] expr")
    texts = obj.get("groups", [])
    if not isinstance(texts, list) or not all(isinstance(g, str) for g in texts):
        raise StructuralError(
            f"groups must be a list of expression strings, got {texts!r}"
        )
    if sense not in _SENSES:
        raise StructuralError(f"objective sense must be min or max, got {sense!r}")
    try:
        registry = VarRegistry(names)
    except PolyError as exc:  # a repeated or invalid name
        raise StructuralError(f"variables: {exc}") from None

    def read_expr(text: str, where: str) -> Expr:
        e = normalize(parse(text))
        unknown = variables_of(e) - set(registry.names())
        if unknown:
            raise StructuralError(
                f"{where} uses unregistered variable(s) {sorted(unknown)}"
            )
        return e

    objective = (sense, read_expr(objective_text, "objective"))
    constraints = []
    for i, rec in enumerate(records):
        rel = rec.get("rel")
        if rel not in PROGRAM_RELATIONS:
            raise StructuralError(
                f"constraints[{i}] relation must be one of "
                f"{'/'.join(PROGRAM_RELATIONS)}, got {rel!r}"
            )
        constraints.append((read_expr(rec["expr"], f"constraints[{i}]"), rel))
    groups = tuple(
        read_expr(g, f"groups[{i}]") for i, g in enumerate(texts)
    )
    return AlgebraicProgram(
        variables=registry,
        objective=objective,
        constraints=tuple(constraints),
        groups=groups,
    )


def _field(obj: dict, key: str, kind: type, shape: str, name: str = ""):
    # obj[key] when it has the documented type; StructuralError otherwise.
    if key not in obj:
        raise StructuralError(f"problem file is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise StructuralError(f"{name or key} must be {shape}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Extraction of algebraic parts.
# ---------------------------------------------------------------------------


def extract_algebraic_parts(
    prog: AlgebraicProgram,
) -> list[tuple[Expr, tuple[str, ...]]]:
    """Distinct algebraic parts with their occurrence positions.

    A part is either a group subexpression (matched verbatim, outermost
    first) or an outermost Root subtree.  Parts are returned in first
    occurrence order, objective before constraints.
    """
    groups = list(prog.groups)
    matched: set[int] = set()
    parts: dict[Expr, list[str]] = {}

    def note(e: Expr, where: str) -> None:
        parts.setdefault(e, []).append(where)

    def scan(e: Expr, where: str) -> None:
        for j, g in enumerate(groups):
            if e == g:
                matched.add(j)
                note(e, where)
                return
        if isinstance(e, Root):
            note(e, where)
            return
        if isinstance(e, (Add, Sub, Mul, Div)):
            scan(e.left, where)
            scan(e.right, where)

    scan(prog.objective[1], "objective")
    for i, (expr, _) in enumerate(prog.constraints):
        scan(expr, f"constraints[{i}]")

    unmatched = [to_text(groups[j]) for j in range(len(groups)) if j not in matched]
    if unmatched:
        raise StructuralError(
            "group(s) never occurred as subtrees: "
            + ", ".join(repr(t) for t in unmatched)
            + "; write the expressions with the grouped form"
        )
    for part in parts:
        if is_polynomial(part):
            raise StructuralError(
                f"group {to_text(part)!r} is already polynomial; "
                "it does not need a variable"
            )
    return [(p, tuple(occ)) for p, occ in parts.items()]


def _program_radicals(prog: AlgebraicProgram) -> list[Root]:
    """Distinct Root subtrees across all program expressions, outermost first
    and objective before constraints: one auxiliary variable each in the
    straightforward reformulation."""
    exprs = [prog.objective[1]] + [e for e, _ in prog.constraints]
    return list(dict.fromkeys(r for e in exprs for r in radicals.distinct_radicals(e)))


# ---------------------------------------------------------------------------
# The reformulation with one variable per radical expression.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReformulateConfig:
    """Budgets and the isolation knobs shared by all parts."""

    isolate: IsolateConfig = IsolateConfig()
    merge: bool = False
    max_children: int = 64


def _density_note(prog: AlgebraicProgram, strategy: str) -> str:
    # No constraints, or all strict: removing the measure-zero resultant
    # locus cannot change the optimum (the feasible set is open).
    if not prog.constraints or all(
        rel in (">", "<") for _, rel in prog.constraints
    ):
        return "open_dense_case"
    if strategy == "domain":
        return "asserted_by_user"
    return "unchecked"


def _rebind_condition(cond: SignCondition, registry: VarRegistry) -> SignCondition:
    """The same condition over `registry`, matching variables by name."""
    names = cond.poly.registry.names()
    terms = {
        tuple(sorted((registry.id_of(names[v]), e) for v, e in m)): c
        for m, c in cond.poly.terms.items()
    }
    return SignCondition(MultiPoly(registry, terms), cond.rel)


def _rebind_domain(domain: DomainSpec, registry: VarRegistry) -> DomainSpec:
    # The domain is stated over the original problem variables, which keep
    # their ids in the working registry (same names, same order).
    return DomainSpec(
        conditions=tuple(
            _rebind_condition(c, registry) for c in domain.conditions
        ),
        interior_point=dict(domain.interior_point),
    )


def reformulate(
    prog: AlgebraicProgram,
    strategy: str = "univariate",
    cfg: ReformulateConfig = ReformulateConfig(),
    domain: DomainSpec | None = None,
) -> ReformulationResult:
    """Polynomial children of an algebraic program, one variable per part.

    For every algebraic part: defining polynomial, isolation certificate
    (optionally merged), and a fresh variable z substituted at all
    occurrences.  One child is emitted per combination of certificate entries
    across the parts (one, "already polynomial", for a program without
    parts); each carries, in order, every part's defining equation
    and root conditions, the parts' component conditions, and the original
    constraints, deduplicated.  A `domain` is required by (and only used
    with) the domain strategy and must be stated over `prog.variables`.

    Replacing every part by its variable must leave all program expressions
    polynomial; if not, the leftover structure (an ungrouped denominator,
    say) is a StructuralError, so the user can group it away.
    """
    found = extract_algebraic_parts(prog)
    warnings: list[str] = []
    density = _density_note(prog, strategy)
    if density == "unchecked":
        warnings.append(
            "density unchecked: non-strict constraints may meet the deleted "
            "resultant zeros; pass a domain or inspect the resultants"
        )
    sense = prog.objective[0]
    baseline_count = len(_program_radicals(prog))

    # The children's registry: the problem variables, then one z per part.
    registry = VarRegistry(prog.variables.names())
    substitution: dict[Expr, Var] = {}
    for expr, _ in found:
        substitution[expr] = Var(registry.fresh("z"))
        registry.add(substitution[expr].name)

    objective, original_conds = _replaced_program(prog, substitution, registry)

    # Pipeline per part, on a scratch registry (defining_polynomial interns
    # elimination variables there; the children's registry stays clean).
    work = VarRegistry(prog.variables.names())
    wdomain = _rebind_domain(domain, work) if domain is not None else None
    parts: list[PartReformulation] = []
    for expr, occ in found:
        z_name = substitution[expr].name
        dp = defining_polynomial(expr, work, z_name=z_name, seed=cfg.isolate.seed)
        cert = isolate(expr, dp, strategy=strategy, cfg=cfg.isolate, domain=wdomain)
        if cfg.merge:
            cert = merge_components(cert, cfg.isolate)
        warnings.extend(f"{z_name} = {to_text(expr)}: {w}" for w in cert.warnings)
        if not cert.entries:
            warnings.append(
                f"{z_name} = {to_text(expr)}: no components where the "
                "expression is real; no children emitted"
            )
        parts.append(
            PartReformulation(
                expr=expr,
                occurrences=occ,
                z_name=z_name,
                defining=dp,
                certificate=cert,
            )
        )

    sizes = [len(p.certificate.entries) for p in parts]
    total = math.prod(sizes)
    if total > cfg.max_children:
        raise ResourceError(
            f"{total} children (component combinations) exceed "
            f"max_children={cfg.max_children}"
        )

    children: list[PolynomialProgram] = []
    for combo in itertools.product(*(range(n) for n in sizes)):
        # each constraint once, with the kind of its first occurrence
        rows: dict[SignCondition, str] = {}
        for p, idx in zip(parts, combo):
            entry = p.certificate.entries[idx]
            for i, rc in enumerate(entry.root_conditions):
                kind = (
                    f"defining polynomial of {p.z_name}"
                    if i == 0 and rc.rel == "="
                    else f"isolating root {p.z_name}"
                )
                rows.setdefault(_rebind_condition(rc, registry), kind)
        for p, idx in zip(parts, combo):
            for cc in p.certificate.entries[idx].component.conditions:
                rows.setdefault(_rebind_condition(cc, registry), "component")
        for c in original_conds:
            rows.setdefault(c, "original constraint")
        labels = [
            p.certificate.entries[idx].component.label or f"component {idx + 1}"
            for p, idx in zip(parts, combo)
        ]
        children.append(
            PolynomialProgram(
                variables=registry,
                objective=(sense, objective),
                constraints=tuple((c.poly, c.rel) for c in rows),
                provenance={
                    registry.id_of(p.z_name): p.expr for p in parts
                },
                component_label="; ".join(labels) or "already polynomial",
                constraint_kinds=tuple(rows.values()),
                entry_choice=combo,
            )
        )

    return ReformulationResult(
        children=tuple(children),
        aux_count_ours=len(parts),
        aux_count_baseline=baseline_count,
        density_note=density,
        parts=tuple(parts),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# The straightforward baseline: one variable per radical.
# ---------------------------------------------------------------------------

_AUX_STEMS = ("u", "v", "w")


def _aux_name(k: int, registry: VarRegistry) -> str:
    stem = _AUX_STEMS[k] if k < len(_AUX_STEMS) else "w"
    return registry.fresh(stem)


def _rational_form(
    e: Expr, registry: VarRegistry
) -> tuple[MultiPoly, MultiPoly]:
    """Radical-free expression as an exact quotient num/den of MultiPolys."""
    one = MultiPoly.const(registry, 1)
    if isinstance(e, Const):
        return MultiPoly.const(registry, e.value), one
    if isinstance(e, Var):
        return MultiPoly.var(registry, registry.id_of(e.name)), one
    if not isinstance(e, (Add, Sub, Mul, Div)):
        raise StructuralError(f"unexpected node in rational form: {e!r}")
    a, da = _rational_form(e.left, registry)
    b, db = _rational_form(e.right, registry)
    if isinstance(e, Add):
        return a * db + b * da, da * db
    if isinstance(e, Sub):
        return a * db - b * da, da * db
    if isinstance(e, Mul):
        return a * b, da * db
    if b.is_zero():
        raise StructuralError("division by an identically zero expression")
    return a * db, da * b


def _provably_nonzero(p: MultiPoly, nonneg: set[VarId]) -> bool:
    constant = p.terms.get((), Fraction(0))
    return provably_nonneg(p, nonneg) and constant > 0


def baseline_reformulate(prog: AlgebraicProgram) -> PolynomialProgram:
    """The one-variable-per-radical reformulation.

    Every distinct Root subtree w = root(r, g) (outermost first, objective
    before constraints) gets `w^r = g` with inner radicals of g already
    replaced; even r additionally contributes `w >= 0` and — unless g is
    provably nonnegative or the condition duplicates an earlier one —
    `g >= 0`.  Divisions are cleared by cross-multiplication; nonconstant
    denominators are asserted nonzero with `!=` unless provably positive.
    """
    registry = VarRegistry(prog.variables.names())
    sense, objective_expr = prog.objective
    rads = _program_radicals(prog)
    aux_names = []
    for k, _ in enumerate(rads):
        name = _aux_name(k, registry)
        registry.add(name)
        aux_names.append(name)
    substitution: Mapping[Expr, Expr] = {
        rad: Var(name) for rad, name in zip(rads, aux_names)
    }
    nonneg = {
        registry.id_of(name)
        for rad, name in zip(rads, aux_names)
        if rad.index % 2 == 0
    }

    # each constraint once, with the kind of its first occurrence
    rows: dict[SignCondition, str] = {}

    def denominator_nonzero(den: MultiPoly) -> None:
        if not den.is_constant() and not _provably_nonzero(den, nonneg):
            rows.setdefault(SignCondition.normalized(den, "!="), "denominator nonzero")

    def quotient_conditions(
        num: MultiPoly, den: MultiPoly, rel: str, kind: str
    ) -> None:
        """`num/den rel 0` as polynomial conditions (den may be nonconstant)."""
        if den.is_constant():
            c = den.constant_value()
            if c == 0:
                raise StructuralError("constraint divides by the zero constant")
            if c < 0:
                rel = _verify.RELATIONS[rel].flip
            rows.setdefault(SignCondition.normalized(num, rel), kind)
            return
        # An equality needs num = 0; otherwise multiplying through by den^2
        # keeps the sign: num/den rel 0 becomes num*den rel 0 away from the
        # zeros of den.
        cleared = num if rel == "=" else num * den
        rows.setdefault(SignCondition.normalized(cleared, rel), kind)
        denominator_nonzero(den)

    radicand_parts: list[tuple[MultiPoly, MultiPoly]] = []
    for rad, name in zip(rads, aux_names):
        w = MultiPoly.var(registry, registry.id_of(name))
        num, den = _rational_form(
            substitute_expr(rad.radicand, substitution), registry
        )
        radicand_parts.append((num, den))
        # w^r = num/den, cross-multiplied.
        rows.setdefault(
            SignCondition.normalized(w**rad.index * den - num, "="), f"defines {name}"
        )
        denominator_nonzero(den)

    for e, rel in prog.constraints:
        num, den = _rational_form(substitute_expr(e, substitution), registry)
        quotient_conditions(num, den, rel, "original constraint")

    for rad, name, (num, den) in zip(rads, aux_names, radicand_parts):
        if rad.index % 2:
            continue
        w = MultiPoly.var(registry, registry.id_of(name))
        rows.setdefault(
            SignCondition.normalized(w, ">="), f"{name} is the nonnegative root"
        )
        cleared = num if den.is_constant() else num * den
        if den.is_constant() and den.constant_value() < 0:
            cleared = -cleared
        if not provably_nonneg(cleared, nonneg):
            quotient_conditions(num, den, ">=", "radicand nonnegative")

    num, den = _rational_form(
        substitute_expr(objective_expr, substitution), registry
    )
    if not den.is_constant():
        raise StructuralError(
            "objective has a nonconstant denominator after radical "
            "replacement; no polynomial objective exists"
        )
    objective = num * (Fraction(1) / den.constant_value())

    return PolynomialProgram(
        variables=registry,
        objective=(sense, objective),
        constraints=tuple((c.poly, c.rel) for c in rows),
        provenance={
            registry.id_of(name): rad for rad, name in zip(rads, aux_names)
        },
        component_label="straightforward",
        constraint_kinds=tuple(rows.values()),
    )


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------


def _child_record(pp: PolynomialProgram) -> dict:
    registry = pp.variables
    return {
        "label": pp.component_label,
        "variables": list(registry.names()),
        "objective": {"sense": pp.objective[0], "poly": pp.objective[1].to_text()},
        "constraints": [
            {"poly": p.to_text(), "rel": rel} for p, rel in pp.constraints
        ],
        "provenance": {
            registry.name_of(v): to_text(e) for v, e in pp.provenance.items()
        },
    }


def _emit_json(obj: ReformulationResult | PolynomialProgram) -> bytes:
    if isinstance(obj, PolynomialProgram):
        record = _child_record(obj)
    else:
        record = {
            "children": [_child_record(c) for c in obj.children],
            "aux_count_ours": obj.aux_count_ours,
            "aux_count_baseline": obj.aux_count_baseline,
            "density_note": obj.density_note,
        }
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


#: SMT-LIB 2.6 reserved words and the Core theory's symbols; a variable so
#: named is written as a quoted symbol
_SMT_RESERVED = frozenset(
    "_ as exists forall let match par BINARY DECIMAL HEXADECIMAL NUMERAL STRING "
    "true false not and or xor ite distinct".split()
)


def _smt_symbol(name: str) -> str:
    """`name` as written, or quoted when it is a reserved word or no SMT-LIB
    simple symbol (``é`` is written ``|é|``).  A variable name is an
    identifier, so it is a simple symbol exactly when it is ASCII."""
    return name if name.isascii() and name not in _SMT_RESERVED else f"|{name}|"


def _smt_number(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator) if c >= 0 else f"(- {-c.numerator})"
    text = f"(/ {abs(c.numerator)} {c.denominator})"
    return text if c >= 0 else f"(- {text})"


def _smt_poly(p: MultiPoly) -> str:
    """Canonical s-expression: positive terms minus negative terms, monomials
    in the same graded order as the text form, powers expanded to products."""
    if p.is_zero():
        return "0"
    positive: list[str] = []
    negative: list[str] = []

    for m in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[m]
        factors = []
        for v, e in m:
            factors.extend([_smt_symbol(p.registry.name_of(v))] * e)
        if abs(c) != 1 or not factors:
            factors.insert(0, _smt_number(abs(c)))
        term = factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")"
        (positive if c > 0 else negative).append(term)

    def fold(parts: list[str]) -> str:
        return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"

    if not negative:
        return fold(positive)
    if not positive:
        return f"(- {fold(negative)})"
    return f"(- {fold(positive)} {fold(negative)})"


def _smt_assertion(p: MultiPoly, rel: str) -> str:
    body = _smt_poly(p)
    if rel == "!=":
        return f"(assert (not (= {body} 0)))"
    return f"(assert ({rel} {body} 0))"


def _used_variables(pp: PolynomialProgram) -> list[str]:
    used: set[VarId] = set()
    polys = [pp.objective[1]] + [p for p, _ in pp.constraints]
    for p in polys:
        for m in p.terms:
            used.update(v for v, _ in m)
    used.update(pp.provenance)
    return [n for i, n in enumerate(pp.variables.names()) if i in used]


def _emit_smtlib(obj: ReformulationResult | PolynomialProgram) -> bytes:
    children = [obj] if isinstance(obj, PolynomialProgram) else list(obj.children)
    scripts: list[str] = []
    for i, child in enumerate(children):
        sense, poly = child.objective
        lines = [
            f"; child {i + 1}: {child.component_label}",
            f"; objective ({sense}imized, not encoded): {poly.to_text()}",
            "(set-logic QF_NRA)",
        ]
        lines += [
            f"(declare-const {_smt_symbol(n)} Real)" for n in _used_variables(child)
        ]
        lines += [_smt_assertion(p, rel) for p, rel in child.constraints]
        lines.append("(check-sat)")
        scripts.append("\n".join(lines) + "\n")
    return "(reset)\n".join(scripts).encode()


def _emit_human(obj: ReformulationResult | PolynomialProgram) -> bytes:
    out: list[str] = []

    def block(pp: PolynomialProgram, title: str) -> None:
        sense, poly = pp.objective
        out.append(title)
        out.append(f"  {sense}imize  {poly.to_text()}")
        out.append("  subject to")
        kinds = pp.constraint_kinds
        annotated = len(kinds) == len(pp.constraints)
        width = max(
            (len(f"{p.to_text()} {rel} 0") for p, rel in pp.constraints),
            default=0,
        )
        for j, (p, rel) in enumerate(pp.constraints):
            text = f"{p.to_text()} {rel} 0"
            if annotated:
                out.append(f"    {text.ljust(width)}   ({kinds[j]})")
            else:
                out.append(f"    {text}")
        if not pp.constraints:
            out.append("    (none)")
        for v in sorted(pp.provenance):
            out.append(
                f"  where {pp.variables.name_of(v)} = "
                f"{to_text(pp.provenance[v])}"
            )

    if isinstance(obj, PolynomialProgram):
        block(obj, f"program: {obj.component_label}")
    else:
        for i, child in enumerate(obj.children):
            block(child, f"child {i + 1} of {len(obj.children)}: "
                         f"{child.component_label}")
            out.append("")
        out.append(
            f"auxiliary variables: {obj.aux_count_ours} here, "
            f"{obj.aux_count_baseline} in the straightforward reformulation"
        )
        out.append(f"density note: {obj.density_note}")
    return ("\n".join(out) + "\n").encode()


def emit(
    obj: ReformulationResult | PolynomialProgram, format: str = "json"
) -> bytes:
    """Serialize a reformulation for downstream consumption.

    `json` is lossless for the schema fields and round trips byte-for-byte
    through `result_from_json`/`program_from_json`; `smtlib` emits one
    QF_NRA feasibility script per child (objective in a comment); `human`
    pretty-prints in the style the worked examples are displayed in.
    """
    if format == "json":
        return _emit_json(obj)
    if format == "smtlib":
        return _emit_smtlib(obj)
    if format == "human":
        return _emit_human(obj)
    raise ProgramError(f"unknown emit format {format!r}")


def _child_from_record(rec: dict) -> PolynomialProgram:
    registry = VarRegistry(rec["variables"])
    constraints = []
    for c in rec["constraints"]:
        if c["rel"] not in _verify.RELATIONS:
            raise StructuralError(f"unknown relation {c['rel']!r}")
        constraints.append((polynomial_from_text(c["poly"], registry), c["rel"]))
    sense = rec["objective"]["sense"]
    if sense not in _SENSES:
        raise StructuralError(f"unknown objective sense {sense!r}")
    return PolynomialProgram(
        variables=registry,
        objective=(sense, polynomial_from_text(rec["objective"]["poly"], registry)),
        constraints=tuple(constraints),
        provenance={
            registry.id_of(name): normalize(parse(text))
            for name, text in rec["provenance"].items()
        },
        component_label=rec["label"],
    )


def program_from_json(text: str) -> PolynomialProgram:
    return _child_from_record(json.loads(text))


def result_from_json(text: str) -> ReformulationResult:
    obj = json.loads(text)
    if obj.get("density_note") not in _DENSITY_NOTES:
        raise StructuralError(f"unknown density note {obj.get('density_note')!r}")
    return ReformulationResult(
        children=tuple(_child_from_record(rec) for rec in obj["children"]),
        aux_count_ours=obj["aux_count_ours"],
        aux_count_baseline=obj["aux_count_baseline"],
        density_note=obj["density_note"],
    )


# ---------------------------------------------------------------------------
# Substitution soundness.
# ---------------------------------------------------------------------------


def check_substitution(
    result: ReformulationResult,
    prog: AlgebraicProgram,
    samples: int = 32,
    *,
    seed: int = 0,
):
    """Check each child against the original program: exact identities,
    and the certificates' root rows at sample points.

    Proved once per child, as polynomial identities: the child's objective
    is the program's objective with every part replaced by its variable,
    with the same sense; every program constraint, so replaced and
    normalized, is a row; the other rows are exactly the root and component
    conditions of the certificate entries the child's `entry_choice` names;
    and every row labelled "original constraint" is a replaced program
    constraint.  An expression that is not polynomial after the replacement
    fails the identity.

    Sampled: at points of the child's component (anchored at the
    certificate samples), the exact test of the chosen components'
    conditions decides whether a point counts; there each auxiliary z is set
    to an enclosure of its part, and every root row (the defining polynomial
    and the isolating conditions, taken from the certificates) must hold
    somewhere on the enclosures.  `tally_points` checks each distinct drawn
    point of a child once; a repeat counts, or is skipped, as the first was.
    Every child is walked and reported, also after one fails or when its
    identity fails, so the draws do not depend on the verdicts.  A child
    that passes the walk but fails an identity has that identity's
    mismatch as its witness.  Returns a VerifyReport.
    """
    report = _verify.VerifyReport()
    if not result.parts:
        report.add(
            _verify.CheckLine(
                check="substitution soundness (no algebraic parts)",
                status="pass",
                samples_used=0,
            )
        )
        return report

    sense, objective_expr = prog.objective
    registry = result.parts[0].certificate.defining.registry
    substitution = {p.expr: Var(p.z_name) for p in result.parts}
    expected: dict = {}  # registry -> the replaced program, or why none
    # Program variables that occur outside every algebraic part are in no
    # component's sample: they enter each anchor at 0 and are drawn around it.
    occurring = variables_of(objective_expr).union(
        *(variables_of(e) for e, _ in prog.constraints)
    )
    program_ids = [registry.id_of(n) for n in prog.variables.names() if n in occurring]
    rng = random.Random(seed)
    for ci, child in enumerate(result.children):
        child_vars = child.variables
        if child_vars not in expected:
            try:
                expected[child_vars] = _replaced_program(prog, substitution, child_vars)
            except StructuralError as exc:
                expected[child_vars] = exc
        entries = [
            p.certificate.entries[idx]
            for p, idx in zip(result.parts, child.entry_choice)
        ]
        comps = [entry.component for entry in entries]
        root_rows = dict.fromkeys(
            _rebind_condition(rc, child_vars)
            for entry in entries
            for rc in entry.root_conditions
        )
        certificate_rows = root_rows | dict.fromkeys(
            _rebind_condition(cc, child_vars)
            for comp in comps
            for cc in comp.conditions
        )
        mismatch = _identity_mismatch(child, sense, expected[child_vars], certificate_rows)
        # Sample inside the first part's component, around its sample with
        # the variables it lacks taken from the other parts' samples; other
        # parts' entries must cover the same point for the child to be
        # meaningful, which the condition checks below enforce.
        anchor = dict(comps[0].sample)
        for comp in comps[1:]:
            for v, val in comp.sample.items():
                anchor.setdefault(v, val)
        for v in program_ids:
            anchor.setdefault(v, Fraction(0))
        region = dataclasses.replace(comps[0], sample=anchor)
        zids = [child_vars.id_of(p.z_name) for p in result.parts]
        child_ids = {
            n: child_vars.id_of(n)
            for n in map(registry.name_of, anchor)
            if n in child_vars
        }

        def check(i, point):
            named = {registry.name_of(v): val for v, val in point.items()}
            if not all(
                _verify.condition_holds(cond, point)
                for comp in comps
                for cond in comp.conditions
            ):
                return False, None

            box: dict[VarId, Interval] = {}
            for p, zid in zip(result.parts, zids):
                try:
                    enclosure = eval_numeric(p.expr, named)
                except EvalDomainError:
                    break
                if enclosure is NOT_REAL:
                    break
                box[zid] = enclosure
            if len(box) < len(result.parts):
                if i == 0:
                    return False, f"a part is not real at the anchor {named}"
                return False, None

            exact = {child_ids[n]: val for n, val in named.items() if n in child_ids}
            for cond in root_rows:
                enclosure = radicals.poly_enclosure(cond.poly, exact, box)
                if not _verify.relation_possible(enclosure, cond.rel):
                    return True, (
                        f"child {ci + 1}: constraint {cond.text()} fails near {named}"
                    )
            return True, None

        points = _verify.component_points(region, rng, 4 * samples)
        used, failure = _verify.tally_points(points, check, samples)
        if not failure and mismatch:
            failure = f"child {ci + 1}: {mismatch}"
        elif not used and not failure:
            failure = f"child {ci + 1}: no drawn point satisfies its conditions"
        report.add(
            _verify.CheckLine(
                check=f"substitution soundness on child {ci + 1}",
                status="fail" if failure else "pass",
                witness=failure,
                samples_used=used,
            )
        )
    return report


def _replaced_program(
    prog: AlgebraicProgram, substitution: Mapping[Expr, Var], registry: VarRegistry
) -> tuple[MultiPoly, dict[SignCondition, str]]:
    """The program with every part replaced by its variable, over `registry`:
    the objective, and each constraint as its normalized row, keyed to where
    it stands.  StructuralError names an expression that stays no polynomial
    over `registry`."""

    def replaced(e: Expr, where: str) -> MultiPoly:
        try:
            return to_polynomial(substitute_expr(e, substitution), registry)
        except (NotPolynomial, PolyError):  # a leftover root, a lost name
            raise StructuralError(
                f"{where} stays non-polynomial after replacing the algebraic "
                "parts; group the offending subexpression"
            ) from None

    objective = replaced(prog.objective[1], "objective")
    rows: dict[SignCondition, str] = {}
    for i, (e, rel) in enumerate(prog.constraints):
        where = f"constraints[{i}]"
        rows.setdefault(SignCondition.normalized(replaced(e, where), rel), where)
    return objective, rows


def _identity_mismatch(
    child: PolynomialProgram,
    sense: str,
    replaced: tuple[MultiPoly, dict[SignCondition, str]] | StructuralError,
    certificate_rows: dict[SignCondition, None],
) -> str | None:
    """What differs between a child and the replaced program, or None."""
    if isinstance(replaced, StructuralError):
        return str(replaced)
    objective, originals = replaced
    got_sense, got = child.objective
    if got_sense != sense:
        return f"objective sense {got_sense} is not the program's {sense}"
    if got != objective:
        return (
            f"objective {got.to_text()} is not {objective.to_text()}, "
            "the program's with the parts replaced"
        )
    rows = [SignCondition(p, rel) for p, rel in child.constraints]
    present = set(rows)
    wanted = originals | dict.fromkeys(certificate_rows, "the certificates")
    for cond, source in wanted.items():
        if cond not in present:
            return f"constraint {cond.text()} from {source} is missing"
    for cond in rows:
        if cond not in wanted:
            return (
                f"constraint {cond.text()} is from neither the program "
                "nor the certificates"
            )
    for cond, kind in zip(rows, child.constraint_kinds):
        if kind == "original constraint" and cond not in originals:
            return (
                f"constraint {cond.text()} is labelled original "
                "but is no program constraint"
            )
    return None

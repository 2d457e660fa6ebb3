"""Root isolation certificates for algebraic functions.

Given a defining polynomial p(z, x₁,…,xₙ) of a radical expression f, the set
A where no resultant res_z(p, p⁽ⁱ⁾) vanishes has the property that on each of
its connected components the real roots of p move continuously and the signs
of the derivatives p⁽ⁱ⁾ at each root stay constant.  The sign vector at f
therefore picks f out from the other roots on the whole component.  This
module builds the resultants, decomposes A with one of three strategies,
certifies the derivative signs at one sample per component, and packages the
result as a certificate of strict polynomial sign conditions.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import radicals
from .defpoly import DefiningPolynomial
from .polycore import (
    MultiPoly,
    PolyError,
    VarId,
    VarRegistry,
    grlex_leading,
    integer_normalize,
    provably_nonneg,
    try_divexact,
)
from .radicals import NOT_REAL, EvalDomainError, Expr, Interval, eval_numeric, poly_enclosure
from .resultants import resultant_with_constant
from . import verify as _verify


class IsolationError(Exception):
    pass


class StrategyError(IsolationError):
    """The chosen component strategy does not apply to these resultants."""


class ValidationError(IsolationError):
    """A sample point or user-supplied domain violates a precondition."""


class PrecisionError(IsolationError):
    """A sign could not be certified within the refinement budget."""


# ---------------------------------------------------------------------------
# Conditions and certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignCondition:
    """`poly rel 0` with poly in canonical integer-normalized form."""

    poly: MultiPoly
    rel: str

    @staticmethod
    def normalized(poly: MultiPoly, rel: str) -> SignCondition:
        if rel not in _verify.RELATIONS:
            raise IsolationError(f"unknown relation {rel!r}")
        if poly.is_zero():
            return SignCondition(poly, rel)
        if poly.terms[grlex_leading(poly.terms)] < 0:
            rel = _verify.RELATIONS[rel].flip
        return SignCondition(integer_normalize(poly), rel)

    def text(self) -> str:
        return f"{self.poly.to_text()} {self.rel} 0"

    def as_record(self) -> dict:
        return {"poly": self.poly.to_text(), "rel": self.rel}


@dataclass(frozen=True)
class ComponentDescription:
    """One connected piece of A: conditions over the x-variables, an interior
    sample point where they all hold, and a human-readable label."""

    conditions: tuple[SignCondition, ...]
    sample: Mapping[VarId, Fraction]
    label: str = ""


@dataclass(frozen=True)
class CertEntry:
    component: ComponentDescription
    root_conditions: tuple[SignCondition, ...]
    sign_vector: tuple[int, ...]


@dataclass(frozen=True)
class IsolationCertificate:
    z: VarId
    defining: MultiPoly
    source: Expr
    entries: tuple[CertEntry, ...]
    strategy_used: str
    skipped: tuple[ComponentDescription, ...] = ()
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        registry = self.defining.registry
        obj = {
            "z": registry.name_of(self.z),
            "variables": list(registry.names()),
            "defining": self.defining.to_text(),
            "source": radicals.to_text(self.source),
            "strategy": self.strategy_used,
            "skipped_components": len(self.skipped),
            "skipped": [_component_record(c, registry) for c in self.skipped],
            "warnings": list(self.warnings),
            "entries": [
                {
                    "label": e.component.label,
                    "component_conditions": [
                        c.as_record() for c in e.component.conditions
                    ],
                    "sample": _sample_record(e.component.sample, registry),
                    "root_conditions": [c.as_record() for c in e.root_conditions],
                    "sign_vector": list(e.sign_vector),
                }
                for e in self.entries
            ],
        }
        return json.dumps(obj, indent=2) + "\n"


def _sample_record(sample: Mapping[VarId, Fraction], registry: VarRegistry):
    return {registry.name_of(v): str(val) for v, val in sorted(sample.items())}


def _component_record(c: ComponentDescription, registry: VarRegistry) -> dict:
    return {
        "label": c.label,
        "conditions": [cond.as_record() for cond in c.conditions],
        "sample": _sample_record(c.sample, registry),
    }


def condition_from_record(rec: dict, read: Callable[[str], MultiPoly]) -> SignCondition:
    """The condition a ``{"poly": ..., "rel": ...}`` record describes, its
    polynomial read from the text by `read`.

    Raises ValidationError for a relation outside the known set.
    """
    if rec["rel"] not in _verify.RELATIONS:
        raise ValidationError(f"unknown relation {rec['rel']!r}")
    return SignCondition(read(rec["poly"]), rec["rel"])


def _checked(value, valid: bool, what: str):
    # TypeError for a misshapen field: the CLI's "unreadable certificate"
    if not valid:
        raise TypeError(f"{what}, got {value!r}")
    return value


def _lists_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def certificate_from_json(text: str) -> IsolationCertificate:
    obj = json.loads(text)
    names = obj["variables"]
    valid = _lists_strings(names) and len(set(names)) == len(names)
    _checked(names, valid, "variables must list strings, each once")
    try:
        registry = VarRegistry(names)
    except PolyError as exc:  # an invalid name
        raise TypeError(f"variables: {exc}") from None
    z = registry.id_of(_checked(obj["z"], obj["z"] in names, "z must name a variable"))
    rows, skipped = obj["entries"], obj.get("skipped", [])
    _checked(rows, isinstance(rows, list), "entries must be a list")
    _checked(skipped, isinstance(skipped, list), "skipped must be a list")
    strategy, warnings = obj["strategy"], obj.get("warnings", [])
    _checked(strategy, isinstance(strategy, str), "strategy must be a string")
    _checked(warnings, _lists_strings(warnings), "warnings must list strings")
    source = radicals.normalize(radicals.parse(obj["source"]))
    source_names = radicals.variables_of(source)
    _checked(obj["source"], source_names <= set(names), "source must name listed variables")

    # one polynomial object per distinct text, so that its evaluation plan is
    # built once for every condition that names it
    polys: dict[str, MultiPoly] = {}

    def read(text: str) -> MultiPoly:
        poly = polys.get(text)
        if poly is None:
            try:
                poly = polys[text] = radicals.polynomial_from_text(text, registry)
            except PolyError:  # a name that `variables` does not list
                what = "polynomials must name listed variables"
                raise TypeError(f"{what}, got {text!r}") from None
        return poly

    def sample(rec: dict) -> dict[VarId, Fraction]:
        _checked(rec, isinstance(rec, dict), "sample must be an object")
        valid = rec.keys() == source_names
        _checked(rec, valid, "sample must assign exactly the source's variables")
        return {registry.id_of(n): Fraction(v) for n, v in rec.items()}

    def component(rec: dict, conds_key: str) -> ComponentDescription:
        conditions = tuple(condition_from_record(r, read) for r in rec[conds_key])
        point = sample(rec["sample"])
        label = rec.get("label", "")
        _checked(label, isinstance(label, str), "label must be a string")
        return ComponentDescription(conditions, point, label)

    def sign_vector(rec: dict) -> tuple[int, ...]:
        signs = rec["sign_vector"]
        valid = isinstance(signs, list) and all(s in (-1, 1) for s in signs)
        return tuple(_checked(signs, valid, "sign_vector must list -1s and 1s"))

    entries = tuple(
        CertEntry(
            component=component(e, "component_conditions"),
            root_conditions=tuple(
                condition_from_record(r, read) for r in e["root_conditions"]
            ),
            sign_vector=sign_vector(e),
        )
        for e in rows
    )
    return IsolationCertificate(
        z=z,
        defining=read(obj["defining"]),
        source=source,
        entries=entries,
        strategy_used=strategy,
        skipped=tuple(component(c, "conditions") for c in skipped),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class IsolateConfig:
    """Settings of component construction, isolation and merging."""

    samples: int = 32
    seed: int = 0
    allow_boundary: bool = False
    grid_min: Fraction = Fraction(-4)
    grid_max: Fraction = Fraction(4)
    grid_resolution: int = 8


@dataclass(frozen=True)
class DomainSpec:
    """User-asserted domain: constraints plus a rational interior point.

    The caller asserts that the described set lies inside one connected
    component of A; the constructor of components() validates this only by
    sampling, which is the best a point check can do.
    """

    conditions: tuple[SignCondition, ...]
    interior_point: Mapping[VarId, Fraction]


# ---------------------------------------------------------------------------
# Critical resultants.
# ---------------------------------------------------------------------------


def critical_resultants(p: MultiPoly, z: VarId) -> list[MultiPoly]:
    """res_z(p, p⁽ⁱ⁾) for i = 1..d; together they cut out the complement of A.

    The last derivative is constant in z, so `resultant_with_constant` takes
    it by the leading-coefficient power convention.  Identically-zero
    resultants are kept in the list so callers can report them.
    """
    return [resultant_with_constant(p, q, z) for q in p.derivatives(z)]


# ---------------------------------------------------------------------------
# Component strategies.
# ---------------------------------------------------------------------------


def components(
    resultants: Sequence[MultiPoly],
    strategy: str,
    xvars: Sequence[VarId],
    registry: VarRegistry,
    cfg: IsolateConfig,
    domain: DomainSpec | None,
    warnings: list[str],
) -> list[ComponentDescription]:
    """Decompose the nonvanishing set A into connected pieces.

    Strategies: `univariate` (exact intervals between real roots), `domain`
    (a single user-asserted region), `grid` (sign vectors at cell centers,
    face-adjacent cells flood-filled).  Diagnostics that do not invalidate the
    decomposition are appended to `warnings`.
    """
    for r in resultants:
        if r.is_zero():
            raise ValidationError(
                "a critical resultant is identically zero: the set A is empty"
            )
    nonconstant = [r for r in resultants if not r.is_constant()]
    if strategy == "univariate":
        return _univariate_components(nonconstant, xvars, registry, cfg, warnings)
    if strategy == "domain":
        if domain is None:
            raise StrategyError("domain strategy requires a DomainSpec")
        return _domain_component(nonconstant, domain, cfg, warnings)
    if strategy == "grid":
        return _grid_components(nonconstant, xvars, registry, cfg, warnings)
    raise StrategyError(f"unknown strategy {strategy!r}")


def _univariate_components(
    nonconstant: list[MultiPoly],
    xvars: Sequence[VarId],
    registry: VarRegistry,
    cfg: IsolateConfig,
    warnings: list[str],
) -> list[ComponentDescription]:
    involved: set[VarId] = set()
    for r in nonconstant:
        involved |= r.vars_present()
    if len(involved) > 1:
        names = ", ".join(sorted(registry.name_of(v) for v in involved))
        raise StrategyError(
            f"univariate strategy needs resultants in one variable, got {names}"
        )
    if not involved:
        sample = {v: Fraction(0) for v in xvars}
        return [ComponentDescription((), sample, "all of space")]
    v = involved.pop()
    intervals = _verify.isolate_real_roots(*nonconstant, v=v).intervals
    # One rational sample strictly inside each maximal root-free interval.
    points: list[Fraction] = []
    if not intervals:
        points.append(Fraction(0))
    else:
        points.append(intervals[0][0] - 1)
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            points.append((hi + lo) / 2)
        points.append(intervals[-1][1] + 1)
    comps = []
    seen: dict[tuple[SignCondition, ...], str] = {}
    for i, s in enumerate(points):
        sample = {w: Fraction(0) for w in xvars}
        sample[v] = s
        conditions = _strict(nonconstant, [r.eval({v: s}) for r in nonconstant])
        if not intervals:
            label = "all of the line"
        elif i == 0:
            label = f"branch {i + 1} of {len(points)} (left half-line)"
        elif i == len(points) - 1:
            label = f"branch {i + 1} of {len(points)} (right half-line)"
        else:
            label = f"branch {i + 1} of {len(points)}"
        if conditions in seen:
            warnings.append(
                f"components {seen[conditions]!r} and {label!r} carry identical sign "
                "conditions; the emitted conditions cover their union"
            )
        else:
            seen[conditions] = label
        comps.append(ComponentDescription(conditions, sample, label))
    return comps


def _domain_component(
    nonconstant: list[MultiPoly],
    domain: DomainSpec,
    cfg: IsolateConfig,
    warnings: list[str],
) -> list[ComponentDescription]:
    point = dict(domain.interior_point)
    for cond in domain.conditions:
        if not _verify.condition_holds(cond, point):
            raise ValidationError(
                f"interior point violates domain condition {cond.text()}"
            )
    for r in nonconstant:
        if r.eval(point) == 0:
            raise ValidationError(
                f"domain interior point lies on the resultant zero set of "
                f"{r.to_text()}"
            )
    comp = ComponentDescription(tuple(domain.conditions), point, "domain")
    rng = random.Random(cfg.seed)
    zero_hits = 0
    checked = 0
    tries = 0
    max_tries = max(4 * cfg.samples, 16)
    seen: dict = {}
    while checked < cfg.samples and tries < max_tries:
        tries += 1
        sample = _verify.sample_in_component(comp, rng, seen=seen)
        if any(r.eval(sample) == 0 for r in nonconstant):
            zero_hits += 1
            continue
        checked += 1
    if zero_hits:
        warnings.append(
            f"domain validation resampled past {zero_hits} point(s) on a "
            "resultant zero set"
        )
    if checked < cfg.samples:
        raise ValidationError(
            "domain validation kept hitting resultant zero sets: the domain "
            "does not appear to lie inside one component of A"
        )
    return [comp]


def _grid_components(
    nonconstant: list[MultiPoly],
    xvars: Sequence[VarId],
    registry: VarRegistry,
    cfg: IsolateConfig,
    warnings: list[str],
) -> list[ComponentDescription]:
    if not xvars:
        raise StrategyError("grid strategy needs at least one variable")
    if cfg.grid_resolution < 1 or cfg.grid_min >= cfg.grid_max:
        raise StrategyError("grid needs grid_min < grid_max and resolution >= 1")
    n = len(xvars)
    res = cfg.grid_resolution
    step = (cfg.grid_max - cfg.grid_min) / res
    centers = [cfg.grid_min + step * Fraction(2 * k + 1, 2) for k in range(res)]

    def cell_point(idx: tuple[int, ...]) -> dict[VarId, Fraction]:
        return {v: centers[i] for v, i in zip(xvars, idx)}

    cells: dict[tuple[int, ...], tuple[int, ...]] = {}
    boundary_cells = 0
    for idx in itertools.product(range(res), repeat=n):
        point = cell_point(idx)
        signs = tuple(
            (val > 0) - (val < 0)
            for val in (r.eval(point) for r in nonconstant)
        )
        if 0 in signs:
            boundary_cells += 1
            continue
        cells[idx] = signs

    # flood fill in product order: a group's first cell is its least, and
    # its anchor
    anchors: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for anchor, signs in cells.items():
        if anchor in seen:
            continue
        anchors.append(anchor)
        seen.add(anchor)
        stack = [anchor]
        while stack:
            idx = stack.pop()
            for axis, shift in itertools.product(range(n), (-1, 1)):
                nb = idx[:axis] + (idx[axis] + shift,) + idx[axis + 1:]
                if nb not in seen and cells.get(nb) == signs:
                    seen.add(nb)
                    stack.append(nb)

    comps = [
        ComponentDescription(
            _strict(nonconstant, cells[anchor]),
            cell_point(anchor),
            f"grid group {k + 1} of {len(anchors)}",
        )
        for k, anchor in enumerate(anchors)
    ]
    if boundary_cells:
        warnings.append(
            f"{boundary_cells} grid cell(s) had a resultant zero at the "
            "center and were excluded"
        )
    if not comps:
        raise ValidationError("no grid cell avoided the resultant zero sets")
    return comps


def _strict(polys: Iterable[MultiPoly], signs: Iterable) -> tuple[SignCondition, ...]:
    """`q > 0` or `q < 0` by the sign of the matching value, for each
    nonconstant q, without repeats."""
    return tuple(dict.fromkeys(
        SignCondition.normalized(q, ">" if s > 0 else "<")
        for q, s in zip(polys, signs)
        if not q.is_constant()
    ))


# ---------------------------------------------------------------------------
# Isolation proper.
# ---------------------------------------------------------------------------


def isolate(
    f: Expr | str,
    dp: DefiningPolynomial,
    strategy: str = "univariate",
    cfg: IsolateConfig = IsolateConfig(),
    domain: DomainSpec | None = None,
) -> IsolationCertificate:
    """Certificate of sign conditions that pin f down among the roots of its
    defining polynomial, one entry per connected component where f is real.

    An expression f becomes the certificate's `source` as given (a string
    is parsed and normalized); f is evaluated in normal form, so it may still
    hold Pow nodes."""
    if isinstance(f, str):
        f = radicals.normalize(radicals.parse(f))
    source, f = f, radicals.normalize(f)
    p = dp.poly
    z = dp.z
    registry = p.registry
    xvars = sorted(registry.id_of(n) for n in radicals.variables_of(dp.source))
    tower = p.derivatives(z)
    resultants_ = critical_resultants(p, z)
    warnings: list[str] = []
    comps = components(resultants_, strategy, xvars, registry, cfg, domain, warnings)
    entries: list[CertEntry] = []
    skipped: list[ComponentDescription] = []
    for comp in comps:
        named = {registry.name_of(v): val for v, val in comp.sample.items()}
        try:
            value = eval_numeric(f, named)
        except EvalDomainError:
            warnings.append(
                f"evaluation failed on {comp.label!r}; component skipped"
            )
            skipped.append(comp)
            continue
        if value is NOT_REAL:
            skipped.append(comp)
            continue
        signs = _certified_tower_signs(tower, z, comp, f, named, value)
        conditions = (SignCondition.normalized(p, "="), *_strict(tower, signs))
        entries.append(CertEntry(comp, conditions, tuple(signs)))
    return IsolationCertificate(
        z=z,
        defining=p,
        source=source,
        entries=tuple(entries),
        strategy_used=strategy,
        skipped=tuple(skipped),
        warnings=tuple(warnings),
    )


def _certified_tower_signs(
    tower: Sequence[MultiPoly],
    z: VarId,
    comp: ComponentDescription,
    f: Expr,
    named: Mapping[str, Fraction],
    value: Interval,
) -> list[int]:
    """Sign of every p⁽ⁱ⁾ at (f(a), a), certified by interval refinement;
    `value` is f's enclosure at `radicals.PRECISION`, the first tried.

    On a valid component no sign is zero, so refinement terminates; an exact
    zero or running out of budget means the sample sits on (or too close to)
    a resultant zero and is reported as such.
    """
    for bits in radicals.precisions(radicals.PRECISION):
        if bits != radicals.PRECISION:
            value = eval_numeric(f, named, bits)
        enclosures = [poly_enclosure(q, comp.sample, {z: value}) for q in tower]
        if not any(e.contains_zero() for e in enclosures):
            return [1 if e.lo > 0 else -1 for e in enclosures]
        if any(e.lo == e.hi == 0 for e in enclosures):  # no precision helps
            break
    raise PrecisionError(
        f"could not certify a derivative sign on {comp.label!r}: the "
        "sample appears to lie on a resultant zero set"
    )


# ---------------------------------------------------------------------------
# Merging components with equal sign vectors.
# ---------------------------------------------------------------------------


def merge_components(
    cert: IsolationCertificate, cfg: IsolateConfig = IsolateConfig()
) -> IsolationCertificate:
    """Combine entries whose derivative sign vectors agree.

    The merged component keeps only the conditions shared verbatim by every
    member.  With cfg.allow_boundary the strict root inequalities are relaxed
    to non-strict ones — covering resultant zeros the way the worked examples
    do — and the relaxed conditions are simplified by cancelling a z factor
    against `z >= 0` and dropping conditions implied by a stronger one.  The
    merged certificate is re-checked with `verify.verify_certificate` at
    max(cfg.samples, 1) points per entry; on any failure the original
    certificate is returned with a warning naming the failing check's witness.
    """
    if not cert.entries:
        return cert
    groups: dict[tuple[int, ...], list[CertEntry]] = {}
    for entry in cert.entries:
        groups.setdefault(entry.sign_vector, []).append(entry)
    if not cfg.allow_boundary and all(len(m) == 1 for m in groups.values()):
        return cert

    registry = cert.defining.registry
    merged_entries: list[CertEntry] = []
    for vector, members in groups.items():
        common = set(members[0].component.conditions).intersection(
            *(m.component.conditions for m in members[1:])
        )
        shared = [c for c in members[0].component.conditions if c in common]
        root_conditions = list(members[0].root_conditions)
        if cfg.allow_boundary:
            root_conditions = [
                replace(c, rel={">": ">=", "<": "<="}.get(c.rel, c.rel))
                for c in root_conditions
            ]
            root_conditions = _simplify_relaxed(
                root_conditions, cert.z, registry
            )
        label = members[0].component.label
        if len(members) > 1:
            label = "merged(" + ", ".join(
                m.component.label for m in members
            ) + ")"
        component = ComponentDescription(
            tuple(shared), dict(members[0].component.sample), label
        )
        merged_entries.append(
            CertEntry(component, tuple(root_conditions), vector)
        )

    merged = IsolationCertificate(
        z=cert.z,
        defining=cert.defining,
        source=cert.source,
        entries=tuple(merged_entries),
        strategy_used=cert.strategy_used,
        skipped=cert.skipped,
        warnings=cert.warnings,
    )
    try:
        report = _verify.verify_certificate(
            cert.source, merged, max(cfg.samples, 1), seed=cfg.seed
        )
    except radicals.SamplingError as exc:
        failure = str(exc)
    else:
        failure = next(
            (line.witness for line in report.checks if line.status == "fail"),
            None,
        )
    if failure is not None:
        return replace(
            cert,
            warnings=cert.warnings
            + (f"merge aborted: {failure}; returning unmerged certificate",),
        )
    return merged


def _simplify_relaxed(
    conditions: list[SignCondition], z: VarId, registry: VarRegistry
) -> list[SignCondition]:
    """One-step cleanup of relaxed conditions, as done in the worked examples:
    cancel a z factor from `z*q >= 0` when `z >= 0` is also present, then drop
    any condition that a kept one implies via a sum-of-even-monomials gap."""
    zp = MultiPoly.var(registry, z)
    has_z_nonneg = SignCondition(zp, ">=") in conditions
    out: list[SignCondition] = []
    for c in conditions:
        if c.rel == ">=" and has_z_nonneg and c.poly != zp:
            q = try_divexact(c.poly, zp)
            if q is not None and not q.is_constant():
                out.append(SignCondition.normalized(q, ">="))
                continue
        out.append(c)
    out = list(dict.fromkeys(out))
    # with repeats gone two `>=` conditions differ in their polynomials, so a gap
    # that is provably nonnegative is nonzero and d >= 0 forces c >= 0
    return [
        c
        for c in out
        if c.rel != ">="
        or not any(
            d is not c and d.rel == ">=" and provably_nonneg(c.poly - d.poly)
            for d in out
        )
    ]

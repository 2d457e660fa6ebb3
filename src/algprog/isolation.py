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

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import radicals
from .defpoly import DefiningPolynomial, SamplingError, poly_on_interval
from .polycore import (
    MultiPoly,
    PolyError,
    VarId,
    VarRegistry,
    grlex_leading,
    integer_normalize,
    try_divexact,
)
from .radicals import NOT_REAL, EvalDomainError, Expr, eval_numeric
from .resultants import resultant, resultant_with_constant
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

_FLIP = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "=", "!=": "!="}

RELATIONS = tuple(_FLIP)


@dataclass(frozen=True)
class SignCondition:
    """`poly rel 0` with poly in canonical integer-normalized form."""

    poly: MultiPoly
    rel: str

    @staticmethod
    def normalized(poly: MultiPoly, rel: str) -> SignCondition:
        if rel not in _FLIP:
            raise IsolationError(f"unknown relation {rel!r}")
        if poly.is_zero():
            return SignCondition(poly, rel)
        if poly.terms[grlex_leading(poly.terms)] < 0:
            rel = _FLIP[rel]
        return SignCondition(integer_normalize(poly), rel)

    def key(self) -> tuple:
        return (tuple(sorted(self.poly.terms.items())), self.rel)

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

    @property
    def skipped_components(self) -> int:
        return len(self.skipped)

    def to_json(self) -> str:
        registry = self.defining.registry
        obj = {
            "z": registry.name_of(self.z),
            "variables": list(registry.names()),
            "defining": self.defining.to_text(),
            "source": radicals.to_text(self.source),
            "strategy": self.strategy_used,
            "skipped_components": self.skipped_components,
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


def condition_from_record(rec: dict, registry: VarRegistry) -> SignCondition:
    """The condition a ``{"poly": ..., "rel": ...}`` record describes.

    Raises ValidationError for a relation outside the known set.
    """
    if rec["rel"] not in _FLIP:
        raise ValidationError(f"unknown relation {rec['rel']!r}")
    return SignCondition(
        radicals.polynomial_from_text(rec["poly"], registry), rec["rel"]
    )


def certificate_from_json(text: str) -> IsolationCertificate:
    obj = json.loads(text)
    registry = VarRegistry(obj["variables"])
    z = registry.id_of(obj["z"])

    def sample(rec: dict) -> dict[VarId, Fraction]:
        return {registry.id_of(n): Fraction(v) for n, v in rec.items()}

    def component(rec: dict, conds_key: str) -> ComponentDescription:
        return ComponentDescription(
            conditions=tuple(
                condition_from_record(r, registry) for r in rec[conds_key]
            ),
            sample=sample(rec["sample"]),
            label=rec.get("label", ""),
        )

    entries = tuple(
        CertEntry(
            component=component(e, "component_conditions"),
            root_conditions=tuple(
                condition_from_record(r, registry) for r in e["root_conditions"]
            ),
            sign_vector=tuple(e["sign_vector"]),
        )
        for e in obj["entries"]
    )
    return IsolationCertificate(
        z=z,
        defining=radicals.polynomial_from_text(obj["defining"], registry),
        source=radicals.normalize(radicals.parse(obj["source"])),
        entries=entries,
        strategy_used=obj["strategy"],
        skipped=tuple(component(c, "conditions") for c in obj.get("skipped", [])),
        warnings=tuple(obj.get("warnings", [])),
    )


@dataclass(frozen=True)
class IsolateConfig:
    """Shared knobs for component construction, isolation and merging."""

    samples: int = 32
    precision: int = 64
    seed: int = 0
    allow_boundary: bool = False
    sample_radius: Fraction = Fraction(1)
    grid_min: Fraction = Fraction(-4)
    grid_max: Fraction = Fraction(4)
    grid_resolution: int = 8
    max_sign_doublings: int = 64


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
# Derivatives and critical resultants.
# ---------------------------------------------------------------------------


def derivative_tower(p: MultiPoly, z: VarId) -> list[MultiPoly]:
    """[p⁽¹⁾, …, p⁽ᵈ⁾] where d is the degree of p in z (the last one is
    constant in z)."""
    d = p.degree_in(z)
    if d < 1:
        raise PolyError("derivative tower needs positive degree in z")
    tower = []
    q = p
    for _ in range(d):
        q = q.derivative(z)
        tower.append(q)
    return tower


def critical_resultants(p: MultiPoly, z: VarId) -> list[MultiPoly]:
    """res_z(p, p⁽ⁱ⁾) for i = 1..d; together they cut out the complement of A.

    The last derivative is constant in z, so its resultant degenerates to the
    leading-coefficient power convention.  Identically-zero resultants are
    kept in the list so callers can report them.
    """
    out = []
    for q in derivative_tower(p, z):
        if q.degree_in(z) >= 1:
            out.append(resultant(p, q, z))
        else:
            out.append(resultant_with_constant(p, q, z))
    return out


# ---------------------------------------------------------------------------
# Component strategies.
# ---------------------------------------------------------------------------


def components(
    resultants: Sequence[MultiPoly],
    strategy: str,
    xvars: Sequence[VarId],
    registry: VarRegistry,
    cfg: IsolateConfig = IsolateConfig(),
    domain: DomainSpec | None = None,
    warnings: list[str] | None = None,
) -> list[ComponentDescription]:
    """Decompose the nonvanishing set A into connected pieces.

    Strategies: `univariate` (exact intervals between real roots), `domain`
    (a single user-asserted region), `grid` (sign vectors at cell centers,
    face-adjacent cells unioned).  Diagnostics that do not invalidate the
    decomposition are appended to `warnings` when a list is supplied.
    """
    if warnings is None:
        warnings = []
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
    product = nonconstant[0]
    for r in nonconstant[1:]:
        product = product * r
    isolation = _verify.isolate_real_roots(product, v)
    intervals = isolation.intervals
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
    seen: dict[tuple, str] = {}
    for i, s in enumerate(points):
        sample = {w: Fraction(0) for w in xvars}
        sample[v] = s
        conditions = []
        for r in nonconstant:
            value = r.eval({v: s})
            conditions.append(
                SignCondition.normalized(r, ">" if value > 0 else "<")
            )
        conditions = _dedupe(conditions)
        if not intervals:
            label = "all of the line"
        elif i == 0:
            label = f"branch {i + 1} of {len(points)} (left half-line)"
        elif i == len(points) - 1:
            label = f"branch {i + 1} of {len(points)} (right half-line)"
        else:
            label = f"branch {i + 1} of {len(points)}"
        key = tuple(c.key() for c in conditions)
        if key in seen:
            warnings.append(
                f"components {seen[key]!r} and {label!r} carry identical sign "
                "conditions; the emitted conditions cover their union"
            )
        else:
            seen[key] = label
        comps.append(ComponentDescription(tuple(conditions), sample, label))
    return comps


def _domain_component(
    nonconstant: list[MultiPoly],
    domain: DomainSpec,
    cfg: IsolateConfig,
    warnings: list[str],
) -> list[ComponentDescription]:
    point = dict(domain.interior_point)
    for cond in domain.conditions:
        if not _verify.relation_holds(cond.poly.eval(point), cond.rel):
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
    while checked < cfg.samples and tries < max_tries:
        tries += 1
        sample = _verify.sample_in_component(comp, rng, cfg.sample_radius)
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
    for flat in range(res ** n):
        idx, rest = [], flat
        for _ in range(n):
            idx.append(rest % res)
            rest //= res
        idx = tuple(idx)
        point = cell_point(idx)
        signs = tuple(
            (val > 0) - (val < 0)
            for val in (r.eval(point) for r in nonconstant)
        )
        if 0 in signs:
            boundary_cells += 1
            continue
        cells[idx] = signs

    parent: dict[tuple[int, ...], tuple[int, ...]] = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for idx, signs in cells.items():
        for axis in range(n):
            nb = tuple(
                e + (1 if a == axis else 0) for a, e in enumerate(idx)
            )
            if nb in cells and cells[nb] == signs:
                parent[find(idx)] = find(nb)

    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for idx in cells:
        groups.setdefault(find(idx), []).append(idx)

    comps = []
    for k, members in enumerate(sorted(groups.values(), key=min)):
        anchor = min(members)
        signs = cells[anchor]
        conditions = _dedupe(
            SignCondition.normalized(r, ">" if s > 0 else "<")
            for r, s in zip(nonconstant, signs)
        )
        comps.append(
            ComponentDescription(
                tuple(conditions),
                cell_point(anchor),
                f"grid group {k + 1} of {len(groups)}",
            )
        )
    if boundary_cells:
        warnings.append(
            f"{boundary_cells} grid cell(s) had a resultant zero at the "
            "center and were excluded"
        )
    if not comps:
        raise ValidationError("no grid cell avoided the resultant zero sets")
    return comps


def _dedupe(conditions: Iterable[SignCondition]) -> list[SignCondition]:
    out: list[SignCondition] = []
    seen = set()
    for c in conditions:
        if c.key() not in seen:
            seen.add(c.key())
            out.append(c)
    return out


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
    defining polynomial, one entry per connected component where f is real."""
    if isinstance(f, str):
        f = radicals.normalize(radicals.parse(f))
    p = dp.poly
    z = dp.z
    registry = p.registry
    xvars = sorted(registry.id_of(n) for n in radicals.variables_of(dp.source))
    tower = derivative_tower(p, z)
    resultants_ = critical_resultants(p, z)
    warnings: list[str] = []
    comps = components(resultants_, strategy, xvars, registry, cfg, domain, warnings)
    entries: list[CertEntry] = []
    skipped: list[ComponentDescription] = []
    for comp in comps:
        named = {registry.name_of(v): val for v, val in comp.sample.items()}
        try:
            value = eval_numeric(f, named, cfg.precision)
        except EvalDomainError:
            warnings.append(
                f"evaluation failed on {comp.label!r}; component skipped"
            )
            skipped.append(comp)
            continue
        if value is NOT_REAL:
            skipped.append(comp)
            continue
        signs = _certified_tower_signs(tower, z, comp, f, named, cfg)
        conditions = [SignCondition.normalized(p, "=")]
        for q, s in zip(tower, signs):
            if q.is_constant():
                continue
            conditions.append(SignCondition.normalized(q, ">" if s > 0 else "<"))
        entries.append(
            CertEntry(comp, tuple(_dedupe(conditions)), tuple(signs))
        )
    return IsolationCertificate(
        z=z,
        defining=p,
        source=f,
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
    cfg: IsolateConfig,
) -> list[int]:
    """Sign of every p⁽ⁱ⁾ at (f(a), a), certified by interval refinement.

    On a valid component no sign is zero, so refinement terminates; running
    out of budget means the sample sits on (or too close to) a resultant zero
    and is reported as such.
    """
    signs = []
    for q in tower:
        bits = cfg.precision
        for _ in range(cfg.max_sign_doublings):
            value = eval_numeric(f, named, bits)
            enclosure = poly_on_interval(q, z, comp.sample, value)
            if not enclosure.contains_zero():
                signs.append(1 if enclosure.lo > 0 else -1)
                break
            if enclosure.lo == enclosure.hi:  # exact zero: theory violation
                bits = None
                break
            bits *= 2
        else:
            bits = None
        if bits is None:
            raise PrecisionError(
                f"could not certify a derivative sign on {comp.label!r}: the "
                "sample appears to lie on a resultant zero set"
            )
    return signs


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
    merged certificate is validated by sampling; on any failure the original
    certificate is returned with a warning.
    """
    if not cert.entries:
        return cert
    groups: dict[tuple[int, ...], list[CertEntry]] = {}
    order: list[tuple[int, ...]] = []
    for entry in cert.entries:
        if entry.sign_vector not in groups:
            order.append(entry.sign_vector)
        groups.setdefault(entry.sign_vector, []).append(entry)
    if not cfg.allow_boundary and all(len(groups[k]) == 1 for k in order):
        return cert

    registry = cert.defining.registry
    merged_entries: list[CertEntry] = []
    for vector in order:
        members = groups[vector]
        shared = [
            c
            for c in members[0].component.conditions
            if all(
                c.key() in {d.key() for d in m.component.conditions}
                for m in members
            )
        ]
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
    failure = _validate_merge(merged, cfg)
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
    has_z_nonneg = any(
        c.rel == ">=" and c.poly == zp for c in conditions
    )
    out: list[SignCondition] = []
    for c in conditions:
        if c.rel == ">=" and has_z_nonneg and c.poly != zp:
            q = try_divexact(c.poly, zp)
            if q is not None and not q.is_constant():
                out.append(SignCondition.normalized(q, ">="))
                continue
        out.append(c)
    out = _dedupe(out)
    kept: list[SignCondition] = []
    for i, c in enumerate(out):
        implied = False
        for j, d in enumerate(out):
            if i == j or c.rel != ">=" or d.rel != ">=":
                continue
            gap = c.poly - d.poly
            if not gap.is_zero() and _is_even_nonneg_sum(gap):
                implied = True  # d >= 0 forces c >= 0
                break
            if gap.is_zero() and j < i:
                implied = True  # exact duplicate, keep the first
                break
        if not implied:
            kept.append(c)
    return kept


def _is_even_nonneg_sum(p: MultiPoly) -> bool:
    """True when p is a sum of monomials with positive coefficients and all
    exponents even — hence nonnegative on all of space."""
    return all(
        coeff > 0 and all(e % 2 == 0 for _, e in mono)
        for mono, coeff in p.terms.items()
    )


def _validate_merge(
    cert: IsolationCertificate, cfg: IsolateConfig
) -> str | None:
    """Check unique root selection against f at sampled points of every merged
    entry; returns a failure description or None."""
    registry = cert.defining.registry
    rng = random.Random(cfg.seed)
    for entry in cert.entries:
        comp = entry.component
        checked = 0
        tries = 0
        # Merged sign conditions can hold outside the components they came
        # from (resultants of squares, say), so a drawn point where f is not
        # real lies outside every certified component and is simply redrawn.
        while checked < max(cfg.samples, 1) and tries < 4 * max(cfg.samples, 1):
            try:
                point = (
                    dict(comp.sample)
                    if tries == 0
                    else _verify.sample_in_component(
                        comp, rng, cfg.sample_radius
                    )
                )
            except SamplingError as exc:
                return str(exc)
            tries += 1
            named = {
                registry.name_of(v): val for v, val in point.items()
            }
            value = eval_numeric(cert.source, named, cfg.precision)
            if value is NOT_REAL:
                if tries == 1:
                    return f"f is not real at {named} inside {comp.label!r}"
                continue
            checked += 1
            selection = _verify.root_selection(
                cert.defining, cert.z, entry.root_conditions, point
            )
            if len(selection.passing) != 1:
                return (
                    f"{len(selection.passing)} roots pass the merged "
                    f"conditions at {named}"
                )
            if not _verify.selection_matches_f(
                cert.source, selection, named, cfg.precision
            ):
                return f"merged conditions select the wrong root at {named}"
    return None

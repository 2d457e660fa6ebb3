"""Independent oracles for the rest of the pipeline.

Everything in this module is exact: real roots of univariate polynomials are
isolated with Sturm sequences, signs of polynomials at algebraic roots are
decided exactly, and certificates are re-checked from scratch rather than by
trusting any interval the isolation code produced.  That makes these checks
usable as oracles for the modules they audit.  Where an entry's root
conditions fix the sign of every derivative of the defining polynomial,
Thom's lemma lets one root, the one in f's enclosure, stand for all of them
(`verify_certificate`).

The univariate kernel is `uni`, on integer coefficient lists;
`uni_from_poly` is where a polynomial at a sample point becomes one, scaled
by a positive integer, which changes no sign.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple

from . import radicals
from .polycore import MultiPoly, PolyError, VarId, provably_nonneg, try_divexact
from .radicals import (
    NOT_REAL,
    EvalDomainError,
    Expr,
    Interval,
    SamplingError,
    degree_bounds,
    eval_numeric,
    sample_real_point,
)
from .uni import (
    Bracket,
    derivative,
    interval_sign,
    isolate_product_roots,
    isolate_roots,
    sign_at,
    sign_at_root,
    square_free,
    trim,
)


def uni_from_poly(
    p: MultiPoly, v: VarId, point: Mapping[VarId, Fraction]
) -> list[int]:
    """Integer coefficient list of `p` viewed as univariate in `v`, every
    other variable set from `point`, scaled by the lcm of the denominators.
    Each coefficient is read as `MultiPoly.scaled_value` gives it and put in
    lowest terms by one gcd.

    Raises PolyError when a coefficient involves a variable `point` lacks.
    """
    node = p.split(frozenset((v,)))
    coeffs = {0: node} if isinstance(node, MultiPoly) else node[1]
    values = [(0, 1)] * (max(coeffs) + 1)
    powers = p.point_powers(point)
    for e, q in coeffs.items():
        num, den = q.scaled_value(point, powers)
        g = gcd(num, den)
        values[e] = num // g, den // g
    den = lcm(*(d for _, d in values))
    return trim([num * (den // d) for num, d in values])


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sole_variable(polys: Iterable[MultiPoly]) -> VarId:
    present = set().union(*(p.vars_present() for p in polys))
    if len(present) > 1:
        raise PolyError("expected a univariate polynomial")
    return next(iter(present)) if present else 0


@dataclass(frozen=True)
class RootIsolation:
    """Square-free polynomial plus disjoint open intervals, one real root each."""

    poly: MultiPoly
    intervals: tuple[tuple[Fraction, Fraction], ...]


def isolate_real_roots(*factors: MultiPoly, v: VarId | None = None) -> RootIsolation:
    """Isolate every real root of the product of `factors` in disjoint
    rational intervals.

    The result holds the square-free part of the product, primitive with a
    positive leading coefficient, so multiple and shared roots are isolated
    once; `uni.isolate_product_roots` finds it and its intervals factor by
    factor, and they are the ones the product itself would give.  Interval
    endpoints are never roots.
    """
    if any(p.is_zero() for p in factors):
        raise PolyError("cannot isolate roots of the zero polynomial")
    if v is None:
        v = _sole_variable(factors)
    sf, intervals = isolate_product_roots([uni_from_poly(p, v, {}) for p in factors])
    poly = MultiPoly(
        factors[0].registry,
        {((v, e),) if e else (): Fraction(coeff) for e, coeff in enumerate(sf)},
    )
    return RootIsolation(poly, tuple(intervals))


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass
class CheckLine:
    check: str
    status: str
    witness: str | None = None
    widest_interval: tuple[str, str] | None = None
    samples_used: int = 0

    def as_record(self) -> dict:
        out: dict = {"check": self.check, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.widest_interval is not None:
            out["widest_interval"] = list(self.widest_interval)
        out["samples_used"] = self.samples_used
        return out


@dataclass
class VerifyReport:
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(line.status == "pass" for line in self.checks)

    def add(self, line: CheckLine) -> None:
        self.checks.append(line)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": [c.as_record() for c in self.checks]},
            indent=2,
        )


# ---------------------------------------------------------------------------
# Defining-polynomial verification: p(f(a), a) must be certifiably zero.
# ---------------------------------------------------------------------------


def _as_expr(f: Expr | str) -> Expr:
    if isinstance(f, str):
        f = radicals.parse(f)
    return radicals.normalize(f)


def _zero_enclosure_at(
    dp,
    point: Mapping[str, Fraction],
    precision: int,
) -> Interval | None:
    """Enclose p(f(a), a) with width below 2^-precision, or None if not real."""
    registry = dp.poly.registry
    by_id = {registry.id_of(n): v for n, v in point.items()}
    target = Fraction(1, 2 ** precision)
    for bits in radicals.precisions(precision + 1):
        value = eval_numeric(dp.source, point, bits)
        if value is NOT_REAL:
            return None
        enclosure = radicals.poly_enclosure(dp.poly, by_id, {dp.z: value})
        if enclosure.width() <= target:
            return enclosure
    raise EvalDomainError("could not refine p(f(a), a) below the tolerance")


def verify_defining(
    f: Expr | str,
    dp,
    samples: int = 32,
    precision: int = 64,
    seed: int = 0,
) -> VerifyReport:
    """Certify p(f(a), a) = 0 at random real-valued rational points.

    Each sample produces an interval around p(f(a), a) of width at most
    2^-precision; the check fails the moment one such interval excludes zero.
    The defining polynomial is duck-typed (attributes `poly`, `z` and
    `source`), as certificates are.
    """
    f = _as_expr(f)
    rng = random.Random(seed)
    report = VerifyReport()
    widest: Interval | None = None
    for i in range(samples):
        point = sample_real_point(f, rng, precision)
        enclosure = _zero_enclosure_at(dp, point, precision)
        if enclosure is None:  # pragma: no cover - sampler filters these
            continue
        if widest is None or enclosure.width() > widest.width():
            widest = enclosure
        if not enclosure.contains_zero():
            report.add(
                CheckLine(
                    check="defining-polynomial substitution",
                    status="fail",
                    witness=f"sample {i}: {_point_text(point)} -> "
                    f"[{_endpoint_text(enclosure.lo, up=False)}, "
                    f"{_endpoint_text(enclosure.hi, up=True)}]",
                    samples_used=i + 1,
                )
            )
            return report
    report.add(
        CheckLine(
            check="defining-polynomial substitution",
            status="pass",
            widest_interval=(
                (_endpoint_text(widest.lo, up=False), _endpoint_text(widest.hi, up=True))
                if widest else None
            ),
            samples_used=samples,
        )
    )
    return report


#: significant bits kept by an endpoint too long to print in full
ENDPOINT_BITS = 64


def _endpoint_text(x: Fraction, up: bool) -> str:
    """`x` in full when its digits fit int-to-text conversion.  Otherwise x
    rounded outward (up for an upper end, down for a lower one) to
    `ENDPOINT_BITS` significant bits and printed exactly as ``m*2^e``: the
    printed interval then still encloses the computed one, on the same side
    of zero."""
    try:
        return str(x)
    except ValueError:
        pass
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length() - ENDPOINT_BITS
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    m = -(-num // den) if up else num // den
    return f"{m}*2^{e}"


def _point_text(point: Mapping[str, Fraction]) -> str:
    return "(" + ", ".join(f"{n}={point[n]}" for n in sorted(point)) + ")"


# ---------------------------------------------------------------------------
# Certificate verification.
# ---------------------------------------------------------------------------

class Relation(NamedTuple):
    test: Callable[[int], bool]  # whether `p rel 0` holds where p has sign s
    flip: str  # the relation that says the same of -p
    # an inequality's s with s*p >= 0 wherever `p rel 0` holds; 0 for `=`
    # and `!=`, which forced_sign does not count
    weak: int


#: the sign conditions `p rel 0` this package reads and writes
RELATIONS = {
    ">": Relation(lambda s: s > 0, "<", 1),
    "<": Relation(lambda s: s < 0, ">", -1),
    ">=": Relation(lambda s: s >= 0, "<=", 1),
    "<=": Relation(lambda s: s <= 0, ">=", -1),
    "=": Relation(lambda s: s == 0, "=", 0),
    "!=": Relation(lambda s: s != 0, "!=", 0),
}


def relation_holds(value: Fraction, rel: str) -> bool:
    try:
        return RELATIONS[rel].test(_sign(value))
    except KeyError:
        raise PolyError(f"unknown relation {rel!r}") from None


def condition_holds(cond, point: Mapping[VarId, Fraction]) -> bool:
    """Whether `cond.poly cond.rel 0` holds at a full rational point, read
    from the sign alone; the condition is duck-typed (attributes `poly` and
    `rel`)."""
    return relation_holds(cond.poly.sign_at(point), cond.rel)


def relation_possible(iv: Interval, rel: str) -> bool:
    """Whether `rel 0` holds for some value in the interval, that is, the
    enclosure does not refute it."""
    test = RELATIONS[rel].test
    return any(test(s) for s in range(_sign(iv.lo), _sign(iv.hi) + 1))


def relation_certain(iv: Interval, rel: str) -> bool:
    """Whether `rel 0` holds for every value in the interval."""
    test = RELATIONS[rel].test
    return all(test(s) for s in range(_sign(iv.lo), _sign(iv.hi) + 1))


@dataclass(frozen=True)
class RootSelection:
    """Roots of the defining polynomial at one sample, tagged by condition:
    every real root, or the one `root_selection` proved alone in `alone_in`."""

    square_free: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    passing: tuple[int, ...]


def root_selection(
    defining: MultiPoly,
    z: VarId,
    root_conditions: Iterable,
    point: Mapping[VarId, Fraction],
    *,
    alone_in: Interval | None = None,
) -> RootSelection:
    """Isolate the real roots of p(z, a) and test every sign condition exactly.

    `root_conditions` are duck-typed: objects with `poly` and `rel`
    attributes.  The single equality condition is the defining polynomial
    itself and is skipped (it holds at every root by construction).  Each
    root keeps one bracket that every condition narrows in turn; the
    selection's intervals are the brackets as the conditions left them,
    still isolating, with non-root endpoints unless the root is rational
    and they meet in it.

    `alone_in` is for a caller that knows at most one root can satisfy the
    conditions at any point (`forced_sign`).  When p(z, a) provably has
    exactly one root in that interval (`lone_root`) and the root passes, the
    selection is that root alone, and the other roots are neither isolated
    nor tested; otherwise every root is, as without it.
    """
    c = uni_from_poly(defining, z, point)
    if len(c) <= 1:
        raise PolyError("defining polynomial degenerates at the sample point")
    sf = square_free(c)
    # Each condition is substituted once per point, not once per root.
    strict = [
        (RELATIONS[cond.rel].test, uni_from_poly(cond.poly, z, point))
        for cond in root_conditions
        if cond.rel != "="
    ]
    if alone_in is not None:
        bracket = lone_root(sf, alone_in)
        if bracket is not None and all(
            test(sign_at_root(cq, bracket)) for test, cq in strict
        ):
            return RootSelection(tuple(sf), (bracket.interval(),), (0,))
    intervals = []
    passing = []
    for idx, (lo, hi) in enumerate(isolate_roots(sf)):
        bracket = Bracket(sf, lo, hi)
        if all(test(sign_at_root(cq, bracket)) for test, cq in strict):
            passing.append(idx)
        intervals.append(bracket.interval())
    return RootSelection(tuple(sf), tuple(intervals), tuple(passing))


def lone_root(sf: list[int], value: Interval) -> Bracket | None:
    """A bracket of the one root of the square-free `sf` in `value`, when
    that root is provably alone there, else None.

    A point `value` must be a root.  Otherwise `sf` must have strictly
    opposite signs at the ends, so a root lies between them, and its
    derivative one strict sign on the whole interval (interval Horner), so
    no second root does.
    """
    bracket = Bracket(sf, value.lo, value.hi)
    if bracket.a == bracket.b:
        return None if bracket.s_lo else bracket
    if (
        bracket.s_lo
        and sign_at(sf, bracket.b, bracket.d) == -bracket.s_lo
        and interval_sign(derivative(sf), bracket.a, bracket.b, bracket.d)
    ):
        return bracket
    return None


def selection_matches_f(value: Interval, selection: RootSelection) -> bool:
    """True when the unique passing root lies in `value`, an enclosure of
    f(a).

    The root is the only one of the square-free p in its interval, whose
    endpoints are not roots unless they meet in it, so it lies in the
    intersection J of the interval and `value` exactly when p does not keep
    one strict sign at both ends of J.
    """
    if len(selection.passing) != 1:
        return False
    lo, hi = selection.intervals[selection.passing[0]]
    lo, hi = max(lo, value.lo), min(hi, value.hi)
    if lo > hi:
        return False
    p = selection.square_free
    return (
        sign_at(p, lo.numerator, lo.denominator)
        * sign_at(p, hi.numerator, hi.denominator)
        <= 0
    )


def forced_sign(d: MultiPoly, conditions: Iterable) -> int:
    """A sign s with s*d >= 0 wherever every condition holds, or 0 when no
    rule shows one.  The conditions are duck-typed (`poly`, `rel`); only
    `>`, `<`, `>=` and `<=` count, each giving its polynomial q a sign s_q
    with s_q*q >= 0.  Two exact rules are tried in order, c a nonzero
    rational:

    (1) d = c*q + g, with c fixed by a term of q in which some variable has
        an odd exponent (by each term of q when none has), and g a sum of
        terms with even exponents only, each of the coefficient sign
        sign(c)*s_q, so g has that sign everywhere; g = 0 is d = c*q;
    (2) d = q1*r, q1 found by exact division, and r covered by (1) with
        sign s, giving s_q1*s.

    They undo `isolation._simplify_relaxed`'s two steps, a condition
    dropped for an even gap and the z factor cancelled against `z >= 0`.
    """
    signed = [
        (c.poly, RELATIONS[c.rel].weak)
        for c in conditions
        if RELATIONS[c.rel].weak and not c.poly.is_zero()
    ]
    sign = _gap_sign(d, signed)
    for q1, s1 in signed:
        if sign:
            break
        rest = try_divexact(d, q1)
        if rest is not None:
            sign = s1 * _gap_sign(rest, signed)
    return sign


def _gap_sign(d: MultiPoly, signed: list[tuple[MultiPoly, int]]) -> int:
    """Rule (1) of `forced_sign` against each (q, s_q) of `signed`."""
    for q, s in signed:
        odd = [m for m in q.terms if any(e % 2 for _, e in m)]
        for m in odd[:1] or q.terms:
            c = Fraction(d.terms.get(m, 0)) / q.terms[m]
            sign = s if c > 0 else -s
            if c and provably_nonneg((d - q * c) * sign):
                return sign
    return 0


def derivatives_in(p: MultiPoly, z: VarId) -> list[MultiPoly]:
    """The derivatives of `p` in z of order 1 ... deg_z(p) - 1."""
    out: list[MultiPoly] = []
    for _ in range(p.degree_in(z) - 1):
        out.append((out[-1] if out else p).derivative(z))
    return out


#: times sample_in_component divides its box radius (first 1) by 16 after
#: max_tries misses
_SAMPLE_SHRINKS = 4


def sample_in_component(
    component,
    rng: random.Random,
    max_tries: int = 500,
    *,
    seen: dict | None = None,
) -> dict[VarId, Fraction]:
    """A random rational point within 1 of the component's sample in every
    coordinate where all its conditions hold exactly (rejection sampling in
    the anchor box).

    A component much narrower than the box (between two close roots of the
    resultants) is hit only by the anchor itself, 1 draw in 81; after
    `max_tries` misses the box shrinks by 16 and sampling goes on, up to
    _SAMPLE_SHRINKS times.

    Each draw is keyed by ``(shrink, r_1, ..., r_k)``, its box and its
    offsets in anchor order, and its point is built and tested only the
    first time: `seen` (one per sample walk; a fresh one per call when
    omitted) maps each tested key to its point, or to None where a condition
    failed.  A known miss is skipped and a known hit returns its point again,
    so the rng draws, and with them every point returned, are the same as
    without the memo.
    """
    if seen is None:
        seen = {}
    anchor = dict(component.sample)
    for shrink in range(_SAMPLE_SHRINKS + 1):
        box = Fraction(1, 16**shrink)
        for _ in range(max_tries):
            key = (shrink, *[rng.randint(-40, 40) for _ in anchor])
            if key not in seen:
                point = {
                    v: a + box * Fraction(r, 40)
                    for (v, a), r in zip(anchor.items(), key[1:])
                }
                hit = all(condition_holds(c, point) for c in component.conditions)
                seen[key] = point if hit else None
            if seen[key] is not None:
                return dict(seen[key])
    raise SamplingError(
        f"rejection sampling exhausted near {component.label or 'component'}"
    )


def component_points(component, rng: random.Random, limit: int):
    """The sample walk of every certified check: the component's own sample,
    then points drawn lazily by sample_in_component, `limit` points in all.
    The walk keeps one `seen` memo, so each distinct draw is tested against
    the conditions once; a point may come out more than once."""
    seen: dict = {}
    for n in range(limit):
        if n == 0:
            yield dict(component.sample)
        else:
            yield sample_in_component(component, rng, seen=seen)


def tally_points(points, check, limit: int) -> tuple[int, str | None]:
    """Count the samples of a walk: `check(n, point)`, for the walk's n-th
    point, returns whether the point counts as a sample and a failure
    message or None.  Stops at the first failure or at `limit` counted
    points; returns the count, the failing point included, and the failure.

    Each distinct point is checked once.  A repeat counts, or is skipped, as
    it was the first time, without another check; no failing point repeats,
    since a failure ends the walk.  Count and failure are those that
    checking every point would give.
    """
    counted: dict[tuple, bool] = {}  # checked point -> whether it counts
    used = 0
    for n, point in enumerate(points):
        # integer pairs hash far faster than Fractions do
        key = tuple([(v, x.as_integer_ratio()) for v, x in point.items()])
        if key not in counted:
            counts, failure = check(n, point)
            if failure:
                return used + counts, failure
            counted[key] = counts
        if counted[key]:
            used += 1
            if used == limit:
                break
    return used, None


def verify_certificate(
    f: Expr | str,
    cert,
    samples_per_component: int = 8,
    precision: int = 64,
    seed: int = 0,
) -> VerifyReport:
    """Re-check an isolation certificate from scratch, exactly.

    For every entry, sample points satisfying the component conditions, then
    select the roots of the defining polynomial p that pass the root
    conditions at each point (`root_selection`) with rational arithmetic.
    Exactly one root may pass, and it must lie in an enclosure J of f at the
    sample, computed at `precision` bits (`selection_matches_f`).

    Once per entry, `forced_sign` decides whether the root conditions force
    a weak sign on every z-derivative of p of order 1 ... deg_z(p) - 1.
    Where they do, at most one root can pass at any point (Thom's lemma with
    weak signs: the z where every derivative has its sign form an interval,
    on which p is strictly monotone; Coste & Roy 1988, Basu, Pollack & Roy,
    *Algorithms in Real Algebraic Geometry*, ch. 2), so the entry's
    selections are made `alone_in` J: a root proved alone in J that passes
    is the only passing root, and no other root is isolated.  Everything
    else (an entry not covered, a condition that fails there, no root
    provably alone in J) isolates every root and decides every condition at
    each, as without the proof; only that path fails a check, so reports
    are the ones it alone would give.
    The walk may return a point it returned before; `tally_points` checks
    each distinct point of an entry once, so a repeat of a passing point
    counts toward `samples_used` again without another root selection, and
    a repeat of a point where f is not real is skipped again.
    The certificate object is duck-typed (attributes `defining`, `z`,
    `entries`, and per-entry `component` / `root_conditions`), so this module
    never imports the code it is auditing.
    """
    f = _as_expr(f)
    registry = cert.defining.registry
    rng = random.Random(seed)
    report = VerifyReport()

    def value_at(named):
        # a point where f cannot be evaluated counts as one where it is not real
        try:
            return eval_numeric(f, named, precision)
        except EvalDomainError:
            return NOT_REAL

    derivatives = derivatives_in(cert.defining, cert.z)
    for entry in cert.entries:
        comp = entry.component
        covered = all(forced_sign(d, entry.root_conditions) for d in derivatives)

        def check(n, point):
            named = {registry.name_of(v): val for v, val in point.items()}
            value = value_at(named)
            if value is NOT_REAL:
                # Component conditions may hold beyond the component itself
                # (they are necessary, not sufficient); a drawn point where f
                # is not even real is certainly outside and is redrawn rather
                # than counted.  The component sample itself must be real.
                if n == 0:
                    return False, (
                        f"f is not real at the component sample {_point_text(named)}"
                    )
                return False, None
            selection = root_selection(
                cert.defining,
                cert.z,
                entry.root_conditions,
                point,
                alone_in=value if covered else None,
            )
            if len(selection.passing) != 1:
                return True, (
                    f"{len(selection.passing)} roots satisfy the conditions at "
                    f"{_point_text(named)}"
                )
            if not selection_matches_f(value, selection):
                return True, f"selected root does not match f at {_point_text(named)}"
            return True, None

        points = component_points(comp, rng, 4 * samples_per_component)
        used, failure = tally_points(points, check, samples_per_component)
        report.add(
            CheckLine(
                check=f"unique root selection on {comp.label or 'component'}",
                status="fail" if failure else "pass",
                witness=failure,
                samples_used=used,
            )
        )
        if failure:
            return report
    for comp in getattr(cert, "skipped", ()):
        named = {registry.name_of(v): val for v, val in comp.sample.items()}
        value = value_at(named)
        report.add(
            CheckLine(
                check=f"skipped component {comp.label or ''} is not real-valued",
                status="pass" if value is NOT_REAL else "fail",
                witness=None if value is NOT_REAL else _point_text(named),
                samples_used=1,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Degree audits.
# ---------------------------------------------------------------------------


def audit_degrees(dp) -> VerifyReport:
    """Compare observed degrees of the defining polynomial against the bounds
    promised for its source expression (and the recorded root-index product)."""
    bounds = degree_bounds(dp.source)
    registry = dp.poly.registry
    observed_z = dp.poly.degree_in(dp.z)
    prediction = dp.predicted_z_degree_bound
    rows = [
        ("z-degree within bound", observed_z, "bound", bounds.z_degree),
        ("z-degree within recorded prediction", observed_z, "predicted", prediction),
    ]
    for name in sorted(bounds.var_degrees):
        observed = dp.poly.degree_in(registry.id_of(name)) if name in registry else 0
        rows.append(
            (f"{name}-degree within bound", observed, "bound", bounds.var_degrees[name])
        )
    return VerifyReport([
        CheckLine(
            check=check,
            status="pass" if observed <= limit else "fail",
            witness=f"observed {observed}, {word} {limit}",
        )
        for check, observed, word, limit in rows
    ])

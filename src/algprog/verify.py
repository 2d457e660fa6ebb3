"""Independent oracles for the rest of the pipeline.

Everything in this module is exact: real roots of univariate polynomials are
isolated with Sturm sequences over rationals, signs of polynomials at
algebraic roots are decided exactly, and certificates are re-checked from
scratch rather than by trusting any interval the isolation code produced.
That makes these checks usable as oracles for the modules they audit.

Sturm chains hold integer coefficients (each element scaled by a positive
rational, which never changes a sign), and the sign of an integer polynomial
at a rational a/b is read off b^n * c(a/b), computed by homogeneous integer
Horner; no `Fraction` is built per coefficient.  `refine_root` and
`sign_at_root` bisect through one integer halving over a doubling
denominator.  The sign of q at the root of p isolated in (lo, hi) is decided
in this order: integer interval Horner on the interval, then a few bisection
steps of the interval with the same test, and only if q's sign is still
undecided gcd(p, q) with a Sturm count, which settles zero exactly;
refinement then continues until the interval test certifies the sign, which
terminates because the root is simple.  Square-free parts are taken in
integers as well: a degree-0 gcd of c and c' modulo `polycore.IMAGE_PRIME`
usually proves c square-free, and otherwise a primitive integer remainder
sequence gives the gcd, by which c is divided exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import radicals
from .defpoly import SamplingError, degree_bounds, sample_real_point
from .polycore import (
    IMAGE_PRIME,
    MultiPoly,
    PolyError,
    VarId,
    gcd_degree_mod,
)
from .radicals import NOT_REAL, EvalDomainError, Expr, Interval, eval_numeric


# ---------------------------------------------------------------------------
# Dense univariate polynomials as Fraction coefficient lists (index = power).
# The multivariate machinery is overkill once a sample point has been
# substituted in, and Sturm chains want cheap arithmetic.
# ---------------------------------------------------------------------------

Uni = list[Fraction]


def _uni_trim(c: Uni) -> Uni:
    while c and c[-1] == 0:
        c.pop()
    return c


def uni_from_poly(
    p: MultiPoly, v: VarId, point: Mapping[VarId, Fraction]
) -> Uni:
    """Coefficient list of `p` viewed as univariate in `v`, every other
    variable set from `point`.

    Raises PolyError when a coefficient involves a variable `point` lacks.
    """
    node = p.split(frozenset((v,)))
    if isinstance(node, MultiPoly):
        return _uni_trim([node.eval(point)])
    _, coeffs = node
    out: Uni = [Fraction(0)] * (max(coeffs) + 1)
    for e, q in coeffs.items():
        out[e] = q.eval(point)
    return _uni_trim(out)


def uni_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def uni_derivative(c: Sequence[Fraction]) -> Uni:
    return _uni_trim([c[e] * e for e in range(1, len(c))])


def _integral(c: Sequence[Fraction]) -> list[int]:
    # Integer coefficients of c times the lcm of its denominators, a positive
    # factor, so every sign is kept.  Int entries are accepted as they are.
    den = 1
    for coeff in c:
        den = lcm(den, coeff.denominator)
    return [coeff.numerator * (den // coeff.denominator) for coeff in c]


def _primitive(c: list[int]) -> list[int]:
    # Divide out the (positive) content; keeps chains from drowning in huge
    # numerators and changes no sign.
    g = gcd(*c)
    return [n // g for n in c] if g > 1 else c


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(c: Sequence[int], x: Fraction) -> int:
    return _sign_at_ratio(c, x.numerator, x.denominator)


def _sign_at_ratio(c: Sequence[int], a: int, b: int) -> int:
    # Sign of the integer polynomial c at x = a/b (b > 0), read off
    # b^n * c(a/b), which homogeneous Horner computes in integers.
    acc = 0
    scale = 1
    for coeff in reversed(c):
        acc = acc * a + coeff * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def _interval_sign(c: Sequence[int], a: int, b: int, d: int) -> int:
    # Sign of the integer polynomial c on [a/d, b/d] (d > 0) when interval
    # Horner proves it, else 0.  The enclosure is of d^n * c on the interval,
    # all in integers.
    low = high = 0
    scale = 1
    for coeff in reversed(c):
        products = (low * a, low * b, high * a, high * b)
        term = coeff * scale
        low, high = min(products) + term, max(products) + term
        scale *= d
    return 1 if low > 0 else -1 if high < 0 else 0


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation.
# ---------------------------------------------------------------------------


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # -(a mod b) scaled to primitive integers by a positive factor: integer
    # pseudo-division that multiplies by |lc(b)|, so no sign is lost.
    rem = list(a)
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(rem) >= len(b):
        factor = rem[-1] * sign
        shift = len(rem) - len(b)
        if lead != 1:
            rem = [lead * r for r in rem]
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        rem.pop()
        _uni_trim(rem)
    return _primitive([-r for r in rem])


def _sturm_chain(c: Sequence[Fraction]) -> list[list[int]]:
    # Sturm chain of c with every element scaled to primitive integers.
    first = _primitive(_integral(c))
    chain = [first, _primitive(uni_derivative(first))]
    while chain[-1]:
        rem = _negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # A greatest common divisor of integer polynomials, up to a rational factor.
    a, b = list(a), _uni_trim(list(b))
    while b:
        a, b = b, _negated_remainder(a, b)
    return a


def _sole_variable(p: MultiPoly) -> VarId:
    present = p.vars_present()
    if len(present) > 1:
        raise PolyError("expected a univariate polynomial")
    return next(iter(present)) if present else 0


def _variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    `chain` is a `_sturm_chain` result, so it holds integers; endpoints must
    not be roots of its first element.
    """
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_root_bound(c: Sequence[Fraction]) -> Fraction:
    """Strict bound: every real root r of the polynomial has |r| < bound."""
    if len(c) <= 1:
        return Fraction(1)
    lead = abs(c[-1])
    return Fraction(1) + max(abs(coeff) / lead for coeff in c[:-1])


_SPLIT_OFFSETS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), Fraction(1, 7),
    Fraction(3, 7), Fraction(5, 7), Fraction(6, 7), Fraction(1, 11),
]


def _split_point(c: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction:
    # A point strictly inside (lo, hi) that is not a root; the polynomial has
    # finitely many roots, so one of the fixed offsets always works.
    for t in _SPLIT_OFFSETS:
        m = lo + (hi - lo) * t
        if _sign_at(c, m):
            return m
    raise PolyError("could not find a non-root split point")  # pragma: no cover


@dataclass(frozen=True)
class RootIsolation:
    """Square-free polynomial plus disjoint open intervals, one real root each."""

    poly: MultiPoly
    intervals: tuple[tuple[Fraction, Fraction], ...]


def isolate_real_roots(p: MultiPoly, v: VarId | None = None) -> RootIsolation:
    """Isolate every real root of `p` in disjoint rational intervals.

    The polynomial is reduced to its square-free part first, so multiple roots
    are isolated once.  Interval endpoints are never roots.
    """
    if p.is_zero():
        raise PolyError("cannot isolate roots of the zero polynomial")
    if v is None:
        v = _sole_variable(p)
    sf = _square_free_uni(uni_from_poly(p, v, {}))
    if sf[-1] < 0:  # positive leading coefficient, as integer_normalize gives
        sf = [-coeff for coeff in sf]
    poly = MultiPoly(
        p.registry, {((v, e),) if e else (): coeff for e, coeff in enumerate(sf)}
    )
    return RootIsolation(poly, tuple(_isolate_square_free(sf)))


def _halvings(c: Sequence[int], lo: Fraction, hi: Fraction):
    """Bisect an isolating interval of the integer polynomial `c` in integers.

    Yields (a, b, d) with the interval [a/d, b/d]: first (lo, hi) over a
    common denominator, then each half that keeps the root.  The midpoint
    is (a + b)/2d, so the numerators are kept over a doubling d and b - a
    never changes.  A midpoint that is a root of c is yielded as a = b, last.
    """
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    s_lo = _sign_at_ratio(c, a, d)
    while True:
        yield a, b, d
        m = a + b
        d *= 2
        s_m = _sign_at_ratio(c, m, d)
        if s_m == 0:
            yield m, m, d
            return
        if s_m == s_lo:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m


def refine_root(
    c: Sequence[Fraction], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a simple root below `width` by bisection.

    A rational root discovered at a midpoint collapses the interval to a point.
    `c` may hold ints or Fractions.
    """
    for a, b, d in _halvings(_integral(c), lo, hi):
        if (b - a) * width.denominator <= width.numerator * d:
            return Fraction(a, d), Fraction(b, d)


#: bisection steps sign_at_root tries before it pays for gcd(p, q)
_BISECTIONS_BEFORE_GCD = 4


def sign_at_root(
    q: Sequence[Fraction],
    p: Sequence[Fraction],
    lo: Fraction,
    hi: Fraction,
) -> int:
    """Exact sign of q at the unique root of square-free p inside (lo, hi).

    The decisions come in this order.  Integer interval Horner bounds q on
    the interval, and a bound that excludes zero gives the sign.  Otherwise
    the interval is bisected a few steps, retrying the bound after each; a
    midpoint that is a root of p gives the exact sign of q there.  Only if
    the sign is still undecided is gcd(p, q) computed: any common root inside
    the interval must be the root, so a Sturm count of the gcd decides zero
    exactly.  If q does not vanish there, bisection goes on until the bound
    excludes zero, which terminates because the root is simple.  `q` and `p`
    may hold ints or Fractions; both are scaled to integers by a positive
    factor, which changes no sign.
    """
    q = _uni_trim(_integral(q))
    if not q:
        return 0
    p = _integral(p)
    for steps, (a, b, d) in enumerate(_halvings(p, lo, hi)):
        if a == b:  # lo = hi, or a midpoint root of p
            return _sign_at_ratio(q, a, d)
        s = _interval_sign(q, a, b, d)
        if s:
            return s
        if steps == _BISECTIONS_BEFORE_GCD:
            # Endpoints are non-roots of p (a midpoint root ends the walk),
            # hence of the gcd.
            g = _int_gcd(p, q)
            if len(g) > 1 and sturm_count(
                _sturm_chain(g), Fraction(a, d), Fraction(b, d)
            ):
                return 0


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


#: the sign conditions `p rel 0` this package reads and writes
RELATIONS = {
    ">": Relation(lambda s: s > 0, "<"),
    "<": Relation(lambda s: s < 0, ">"),
    ">=": Relation(lambda s: s >= 0, "<="),
    "<=": Relation(lambda s: s <= 0, ">="),
    "=": Relation(lambda s: s == 0, "="),
    "!=": Relation(lambda s: s != 0, "!="),
}


def relation_holds(value: Fraction, rel: str) -> bool:
    try:
        return RELATIONS[rel].test(_sign(value))
    except KeyError:
        raise PolyError(f"unknown relation {rel!r}") from None


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
    """Roots of the defining polynomial at one sample, tagged by condition."""

    square_free: tuple[Fraction, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    passing: tuple[int, ...]


def root_selection(
    defining: MultiPoly,
    z: VarId,
    root_conditions: Iterable,
    point: Mapping[VarId, Fraction],
) -> RootSelection:
    """Isolate the real roots of p(z, a) and test every sign condition exactly.

    `root_conditions` are duck-typed: objects with `poly` and `rel`
    attributes.  The single equality condition is the defining polynomial
    itself and is skipped (it holds at every root by construction).
    """
    uni = uni_from_poly(defining, z, point)
    if len(uni) <= 1:
        raise PolyError("defining polynomial degenerates at the sample point")
    sf = _square_free_uni(uni)
    isolation = _isolate_square_free(sf)
    # Each condition is substituted once per point, not once per root.
    strict = [
        (cond.rel, uni_from_poly(cond.poly, z, point))
        for cond in root_conditions
        if cond.rel != "="
    ]
    passing = []
    for idx, (lo, hi) in enumerate(isolation):
        ok = True
        for rel, cq in strict:
            s = sign_at_root(cq, sf, lo, hi)
            if not RELATIONS[rel].test(s):
                ok = False
                break
        if ok:
            passing.append(idx)
    return RootSelection(tuple(sf), tuple(isolation), tuple(passing))


def _isolate_square_free(sf: Uni) -> list[tuple[Fraction, Fraction]]:
    if len(sf) <= 1:
        return []
    chain = _sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []
    # Each work item carries the sign variations at both of its ends, so a
    # split point's count is computed once and serves both halves.
    work = [(-bound, _variations(chain, -bound), bound, _variations(chain, bound))]
    while work:
        lo, var_lo, hi, var_hi = work.pop()
        n = var_lo - var_hi
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        m = _split_point(chain[0], lo, hi)
        var_m = _variations(chain, m)
        work.append((lo, var_lo, m, var_m))
        work.append((m, var_m, hi, var_hi))
    out.sort()
    return out


def _square_free_uni(c: Sequence[Fraction]) -> Uni:
    c = _uni_trim(list(c))
    ci = _integral(c)
    dci = uni_derivative(ci)
    # When lc(ci) survives mod the prime, so does the leading coefficient of
    # any integer divisor of ci, and a degree-0 image gcd of ci and ci'
    # proves ci square-free without a gcd over the integers.
    if not (ci and ci[-1] % IMAGE_PRIME and gcd_degree_mod(ci, dci) == 0):
        # The gcd can be ci' itself, which need not be primitive.
        g = _primitive(_int_gcd(ci, dci))
        if len(g) > 1:
            # lc(g) > 0 keeps the sign of c's leading coefficient
            ci = _exact_quotient(ci, g if g[-1] > 0 else [-n for n in g])
    # Scaled by a positive rational to coprime integers.
    return [Fraction(n) for n in _primitive(ci)]


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # a / b for a primitive divisor b of the integer polynomial a; by Gauss's
    # lemma the quotient has integer coefficients.
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(quo))):
        factor = rem[shift + len(b) - 1] // b[-1]
        quo[shift] = factor
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
    return quo


def selection_matches_f(
    value: Interval,
    selection: RootSelection,
    tol_bits: int,
) -> bool:
    """True when the unique passing root overlaps `value`, an enclosure of
    f(a), with the root refined to width 2^-tol_bits."""
    if len(selection.passing) != 1:
        return False
    sf = list(selection.square_free)
    lo, hi = selection.intervals[selection.passing[0]]
    lo, hi = refine_root(sf, lo, hi, Fraction(1, 2 ** tol_bits))
    return lo <= value.hi and value.lo <= hi


#: times sample_in_component divides its box radius (first 1) by 16 after
#: max_tries misses
_SAMPLE_SHRINKS = 4


def sample_in_component(
    component,
    rng: random.Random,
    max_tries: int = 500,
) -> dict[VarId, Fraction]:
    """A random rational point within 1 of the component's sample in every
    coordinate where all its conditions hold exactly (rejection sampling in
    the anchor box).

    A component much narrower than the box (between two close roots of the
    resultants) is hit only by the anchor itself, 1 draw in 81; after
    `max_tries` misses the box shrinks by 16 and sampling goes on, up to
    _SAMPLE_SHRINKS times.
    """
    anchor = dict(component.sample)
    for shrink in range(_SAMPLE_SHRINKS + 1):
        box = Fraction(1, 16**shrink)
        for _ in range(max_tries):
            point = {
                v: a + box * Fraction(rng.randint(-40, 40), 40)
                for v, a in anchor.items()
            }
            if all(
                relation_holds(c.poly.eval(point), c.rel)
                for c in component.conditions
            ):
                return point
    raise SamplingError(
        f"rejection sampling exhausted near {component.label or 'component'}"
    )


def component_points(component, rng: random.Random, limit: int):
    """The sample walk of every certified check: the component's own sample,
    then points drawn lazily by sample_in_component, `limit` points in all."""
    for n in range(limit):
        yield dict(component.sample) if n == 0 else sample_in_component(component, rng)


def verify_certificate(
    f: Expr | str,
    cert,
    samples_per_component: int = 8,
    tol_bits: int = 64,
    seed: int = 0,
) -> VerifyReport:
    """Re-check an isolation certificate from scratch, exactly.

    For every entry, sample points satisfying the component conditions, then
    isolate all real roots of the defining polynomial at each point and decide
    every sign condition with rational arithmetic.  Exactly one root may pass,
    and its isolating interval must overlap an enclosure of f at the sample.
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
            return eval_numeric(f, named, tol_bits)
        except EvalDomainError:
            return NOT_REAL

    for entry in cert.entries:
        comp = entry.component
        used = 0
        failure: str | None = None
        # Component conditions may hold beyond the component itself (they are
        # necessary, not sufficient); a drawn point where f is not even real
        # is certainly outside and is redrawn rather than counted.
        points = component_points(comp, rng, 4 * samples_per_component)
        for n, point in enumerate(points):
            named = {registry.name_of(v): val for v, val in point.items()}
            value = value_at(named)
            if value is NOT_REAL:
                if n == 0:
                    failure = "f is not real at the component sample "
                    failure += _point_text(named)
                    break
                continue
            used += 1
            selection = root_selection(
                cert.defining, cert.z, entry.root_conditions, point
            )
            if len(selection.passing) != 1:
                failure = (
                    f"{len(selection.passing)} roots satisfy the conditions at "
                    f"{_point_text(named)}"
                )
                break
            if not selection_matches_f(value, selection, tol_bits):
                failure = f"selected root does not match f at {_point_text(named)}"
                break
            if used == samples_per_component:
                break
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

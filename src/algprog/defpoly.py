"""Defining polynomials for radical expressions.

Every expression built from polynomials by field operations and r-th roots
is algebraic over the rational functions in its variables: there is a nonzero
polynomial p(z, x) with p(f(x), x) = 0 wherever f is defined and real.  The
construction is a structural recursion that combines the operands' defining
polynomials through resultants, eliminating one auxiliary variable per node:

    f + g   res_t(p_f(z - t, x), p_g(t, x))
    f - g   res_t(p_f(z + t, x), p_g(t, x))
    f * g   res_t(t^d p_f(z/t, x), p_g(t, x))      d = deg_z p_f
    f / g   res_t(p_f(t z, x), p_g(t, x))
    root_r  res_t(z^r - t, p_g(t, x))

with the base case z - f for polynomial f.  Resultants introduce spurious
factors, so each level's result is reduced: content stripped, made
square-free, split into cheap candidate factors, and every factor tested for
vanishing on f by certified interval evaluation at random rational points.
Factor filtering is probabilistic but one-sided -- a factor is only kept
alone when no sample can refute it, and on any doubt the whole square-free
part is returned unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import radicals
from .polycore import (
    MultiPoly,
    PolyError,
    VarId,
    VarRegistry,
    divexact,
    gcd_in_main_var,
    homogenize_in_quotient,
    integer_normalize,
    primitive_part_in,
    square_free_part,
)
from .radicals import (
    Add,
    Const,
    Div,
    Expr,
    Interval,
    Mul,
    NotPolynomial,
    Root,
    SamplingError,
    Sub,
    degree_bounds,  # noqa: F401 - callers read defpoly.degree_bounds
    eval_numeric,
    normalize,
    parse,
    poly_enclosure,
    sample_real_point,
    to_polynomial,
    variables_of,
)
from .resultants import resultant_with_constant


class DefiningError(PolyError):
    """The construction degenerated (zero denominator expressions etc.)."""


@dataclass(frozen=True)
class DefiningPolynomial:
    poly: MultiPoly
    z: VarId
    source: Expr
    reduced: bool
    predicted_z_degree_bound: int
    reduction_log: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the probabilistic zero test
# ---------------------------------------------------------------------------

#: real-valued points at which a candidate factor must vanish
_ZERO_TEST_TRIALS = 8


def _certified_zero_at(
    q: MultiPoly,
    f: Expr,
    registry: VarRegistry,
    z: VarId,
    point: Mapping[str, Fraction],
) -> bool:
    """True if q(f(a), a) is certified to enclose 0 below 2^-PRECISION,
    re-confirmed at two further precision doublings; False once any
    enclosure excludes 0 (that answer is exact)."""
    by_id = {registry.id_of(n): v for n, v in point.items()}
    target = Fraction(1, 2**radicals.PRECISION)
    confirmations = 0
    for work in radicals.precisions(radicals.PRECISION):
        value = eval_numeric(f, point, work)
        assert isinstance(value, Interval)
        enclosure = poly_enclosure(q, by_id, {z: value})
        if not enclosure.contains_zero():
            return False
        if confirmations == 2:
            return True
        if confirmations or enclosure.width() <= target:
            confirmations += 1
    return False  # could not certify; treat as refuted (conservative)


def probabilistic_zero_test(
    q: MultiPoly,
    f: Expr,
    registry: VarRegistry,
    z: VarId,
    seed: int = 0,
) -> bool:
    """Does q(f(x), x) vanish identically?  False answers are certain;
    True answers hold with high probability over the random samples."""
    rng = random.Random(seed)
    for _ in range(_ZERO_TEST_TRIALS):
        point = sample_real_point(f, rng)
        if not _certified_zero_at(q, f, registry, z, point):
            return False
    return True


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _split_candidate_factors(p: MultiPoly, z: VarId) -> list[MultiPoly]:
    """Cheap coprime splitting of a square-free p via gcds with its
    derivatives: a factor missing some variable w is caught by
    gcd(p, dp/dw).  No irreducible factorization is attempted.  The
    derivative in z itself is skipped: every q here divides p, so it is
    square-free in z and gcd(q, dq/dz) is 1."""
    work = [p]
    out: list[MultiPoly] = []
    while work:
        q = work.pop()
        for w in sorted(q.vars_present() - {z}):
            g = gcd_in_main_var(q, q.derivative(w), z)
            if 0 < g.degree_in(z) < q.degree_in(z):
                work.append(g)
                work.append(primitive_part_in(divexact(q, g), z))
                break
        else:
            out.append(integer_normalize(q))
    if len(out) > 1:
        out.sort(key=MultiPoly.to_text)
    return out


def reduce_defining(
    p: MultiPoly,
    f: Expr,
    registry: VarRegistry,
    z: VarId,
    seed: int = 0,
    log: list[str] | None = None,
) -> MultiPoly:
    """Shrink a defining polynomial: square-free part, then drop candidate
    factors that provably do not vanish on f.  Falls back to the square-free
    part whenever the filtering is inconclusive, so the result always
    defines f.  `seed` seeds the zero test's sample points."""
    if p.degree_in(z) < 1:
        raise DefiningError("defining polynomial must have positive degree in z")
    before = p.degree_in(z)

    def note(result: MultiPoly, how: str) -> MultiPoly:
        if log is not None and (how != "irreducible step" or
                                result.degree_in(z) != before):
            log.append(
                f"{radicals.to_text(f)}: z-degree {before} -> "
                f"{result.degree_in(z)} ({how})"
            )
        return result

    # no primitive part first: the gcd over K(x)[z] ignores content, and
    # square_free_part returns a primitive result (Gauss's lemma)
    sf = square_free_part(p, z)
    factors = _split_candidate_factors(sf, z)
    if len(factors) == 1:
        return note(factors[0], "irreducible step")
    try:
        passing = [
            q
            for q in factors
            if probabilistic_zero_test(q, f, registry, z, seed)
        ]
    except SamplingError:
        return note(integer_normalize(sf), "square-free only; sampling failed")
    if passing:
        prod = passing[0]
        for q in passing[1:]:
            prod = prod * q
        return note(
            integer_normalize(prod),
            f"kept {len(passing)} of {len(factors)} factors",
        )
    return note(integer_normalize(sf), "square-free only; no factor passed")


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


def defining_polynomial(
    f: Expr | str,
    registry: VarRegistry | None = None,
    z_name: str = "z",
    seed: int = 0,
) -> DefiningPolynomial:
    """Defining polynomial of a radical expression, reduced at every level.

    The registry gains the variable `z_name` plus internal elimination
    variables (these never appear in the result).  If no registry is given a
    fresh one is created with f's variables in sorted order.
    """
    if isinstance(f, str):
        f = parse(f)
    f = normalize(f)
    if registry is None:
        registry = VarRegistry(sorted(variables_of(f)))
    else:
        for name in sorted(variables_of(f)):
            registry.ensure(name)
    if z_name in registry:
        raise DefiningError(
            f"root variable {z_name!r} collides with an expression variable"
        )
    z = registry.add(z_name)
    zp = MultiPoly.var(registry, z)
    log: list[str] = []
    poly = _build(f, registry, z, zp, seed, log)
    return DefiningPolynomial(
        poly=poly,
        z=z,
        source=f,
        reduced=True,
        predicted_z_degree_bound=root_index_product(f),
        reduction_log=tuple(log),
    )


def _build(
    e: Expr,
    registry: VarRegistry,
    z: VarId,
    zp: MultiPoly,
    seed: int,
    log: list[str],
) -> MultiPoly:
    try:
        base = to_polynomial(e, registry)
    except NotPolynomial:
        base = None
    if base is not None:
        return integer_normalize(zp - base)

    if isinstance(e, Root):
        pg = _build(e.radicand, registry, z, zp, seed, log)
        t = registry.add(registry.fresh("t"))
        tp = MultiPoly.var(registry, t)
        a = zp**e.index - tp
        b = pg.substitute(z, tp)
        return _combine(a, b, t, e, registry, z, seed, log)

    if isinstance(e, (Add, Sub, Mul, Div)):
        pf = _build(e.left, registry, z, zp, seed, log)
        pg = _build(e.right, registry, z, zp, seed, log)
        t = registry.add(registry.fresh("t"))
        tp = MultiPoly.var(registry, t)
        if isinstance(e, Add):
            a = pf.substitute(z, zp - tp)
        elif isinstance(e, Sub):
            a = pf.substitute(z, zp + tp)
        elif isinstance(e, Mul):
            # t^d * pf(z/t): each z^k keeps z^k and gains t^(d-k)
            a = homogenize_in_quotient(pf, z, t, pf.degree_in(z))
        else:  # Div
            a = pf.substitute(z, tp * zp)
            # a denominator is never 0 where f/g is defined, so pg's factors
            # z go; kept, they multiply the resultant by powers of pf(0),
            # which may vanish identically
            pg = divexact(pg, zp ** min(dict(m).get(z, 0) for m in pg.terms))
            if pg.degree_in(z) < 1:
                raise _degenerated(e)
        b = pg.substitute(z, tp)
        return _combine(a, b, t, e, registry, z, seed, log)

    raise DefiningError(f"cannot build a defining polynomial for {e!r}")


def _combine(
    a: MultiPoly,
    b: MultiPoly,
    t: VarId,
    e: Expr,
    registry: VarRegistry,
    z: VarId,
    seed: int,
    log: list[str] | None = None,
) -> MultiPoly:
    res = resultant_with_constant(a, b, t)
    if t in res.vars_present():
        raise DefiningError("internal error: elimination variable survived")
    if res.degree_in(z) < 1:
        raise _degenerated(e)
    return reduce_defining(res, e, registry, z, seed, log)


def _degenerated(e: Expr) -> DefiningError:
    return DefiningError(
        "defining polynomial degenerated to degree 0 in the root variable "
        f"while combining {radicals.to_text(e)!r} (is a denominator "
        "identically zero?)"
    )


def root_index_product(e: Expr) -> int:
    """Product of the indices of every root occurrence: an a priori bound on
    the z-degree of the defining polynomial."""
    if isinstance(e, (Const, radicals.Var)):
        return 1
    if isinstance(e, (Add, Sub, Mul, Div)):
        return root_index_product(e.left) * root_index_product(e.right)
    if isinstance(e, Root):
        return e.index * root_index_product(e.radicand)
    raise DefiningError(f"normalize the expression first: {e!r}")

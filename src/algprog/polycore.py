"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from monomials to nonzero rational coefficients.
Monomials are tuples of ``(var_id, exponent)`` pairs, sorted by variable id,
with zero exponents never stored.  Variable ids index into a shared
`VarRegistry`; mixing polynomials from different registries is an error.

Each coefficient is stored in one canonical form: an `int` when it is
integral, a `Fraction` only when its denominator exceeds 1, never a float.
`Fraction(n) == n` and both hash alike, so equality, hashing and text output
do not depend on the form, and integer-normalized polynomials, the common
case, do their ring arithmetic in ints.

Everything here is exact -- no floats anywhere.  The canonical text form
sorts terms by graded-lexicographic order (total degree first, ties broken so
that later-registered variables weigh more), which makes printed polynomials
stable across runs and platforms.  `MultiPoly.from_text` reads that form
back term by term, without the expression parser.

A gcd first tries one image of both operands modulo a prime, at a fixed
point for the other variables: when the image gcd has degree 0 the true gcd
is 1 (Brown's degree bound).  Otherwise the heuristic GCDHEU, checked by exact
trial division, gives the gcd, and only when it gives up does the
subresultant PRS run.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .uni import IMAGE_PRIME, gcd_degree_mod

VarId = int

# A coefficient in canonical form: an int, or a Fraction with denominator > 1.
Coefficient = int | Fraction

# A monomial: ((var_id, exp), ...) sorted by var_id, every exp > 0.
Monomial = tuple[tuple[int, int], ...]

_ONE: Monomial = ()

#: A name as the expression parser reads it: word characters (`str.isalnum`
#: or "_"), the first of them no decimal digit.
IDENTIFIER = re.compile(r"[^\W\d]\w*")

#: Names the parser reads as functions, so no variable may take them.
FUNCTION_NAMES = frozenset({"sqrt", "root"})


def is_variable_name(name: str) -> bool:
    """Whether the expression parser reads `name` back as a variable."""
    return IDENTIFIER.fullmatch(name) is not None and name not in FUNCTION_NAMES


class PolyError(Exception):
    """Structural misuse of the polynomial layer (registry mixups etc.)."""


class VarRegistry:
    """Append-only mapping between variable names and small integer ids."""

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: list[str] = []
        self._ids: dict[str, VarId] = {}
        for n in names:
            self.add(n)

    def add(self, name: str) -> VarId:
        """Register a new variable; adding the same name twice is an error."""
        if name in self._ids:
            raise PolyError(f"variable {name!r} already registered")
        if not is_variable_name(name):
            raise PolyError(f"invalid variable name {name!r}")
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def ensure(self, name: str) -> VarId:
        """Return the id for `name`, registering it if needed."""
        got = self._ids.get(name)
        return got if got is not None else self.add(name)

    def id_of(self, name: str) -> VarId:
        try:
            return self._ids[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def name_of(self, vid: VarId) -> str:
        return self._names[vid]

    def fresh(self, stem: str) -> str:
        """Pick an unused name starting from `stem` (stem, stem2, stem3, ...)."""
        if stem not in self._ids:
            return stem
        k = 2
        while f"{stem}{k}" in self._ids:
            k += 1
        return f"{stem}{k}"

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if monomial `a` divides `b`."""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def _mono_div(b: Monomial, a: Monomial) -> Monomial:
    out = dict(b)
    for v, e in a:
        out[v] -= e
    return tuple(sorted((v, e) for v, e in out.items() if e))


def grlex_key(m: Monomial) -> tuple:
    """Sort key of the graded order of the text form: total degree first;
    ties broken lexicographically with later-registered variables taking
    precedence (so a defining variable z added after the problem variables
    sorts in front)."""
    return (_mono_degree(m), tuple(sorted(m, reverse=True)))


def grlex_leading(terms: Mapping[Monomial, Coefficient]) -> Monomial:
    return max(terms, key=grlex_key)


class _Plan:
    """What repeated evaluation of one polynomial needs, built on its first
    `eval` or `split`; polynomials are immutable, so it never goes stale.

    `tops` maps each variable present to its top degree, in the order of
    first appearance among the terms; `scale` is the lcm of the coefficient
    denominators; `rows` holds one ``(coefficient * scale, exponents)`` pair
    per term, the exponents listed in the order of `tops`; `splits` caches
    `MultiPoly.split` by variable set, each entry stored once fully built.
    """

    __slots__ = ("tops", "scale", "rows", "splits")

    def __init__(self, terms: Mapping[Monomial, Coefficient]) -> None:
        tops: dict[VarId, int] = {}
        for m in terms:
            for v, e in m:
                if e > tops.get(v, 0):
                    tops[v] = e
        scale = math.lcm(*(c.denominator for c in terms.values()))
        self.tops = tops
        self.scale = scale
        self.rows = [
            (c.numerator * (scale // c.denominator), tuple(dict(m).get(v, 0) for v in tops))
            for m, c in terms.items()
        ]
        self.splits: dict[frozenset[VarId], tuple] = {}


class MultiPoly:
    """Immutable-by-convention sparse polynomial tied to a registry.

    `scaled_value`, `split` and the callers built on them (`eval`,
    `sign_at`, interval enclosure, the univariate coefficient lists of
    `verify`) read one lazily built `_Plan`.
    """

    __slots__ = ("registry", "terms", "_plan")

    def __init__(self, registry: VarRegistry, terms: Mapping[Monomial, Coefficient]):
        self.registry = registry
        # the canonical form: zeros dropped, an integral Fraction made an int
        self.terms: dict[Monomial, Coefficient] = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items()
            if c
        }
        self._plan: _Plan | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, registry: VarRegistry) -> MultiPoly:
        return cls(registry, {})

    @classmethod
    def const(cls, registry: VarRegistry, c) -> MultiPoly:
        if type(c) is not int:
            c = Fraction(c)
        return cls(registry, {_ONE: c} if c else {})

    @classmethod
    def var(cls, registry: VarRegistry, vid: VarId) -> MultiPoly:
        if not 0 <= vid < len(registry):
            raise PolyError(f"variable id {vid} not in registry")
        return cls(registry, {((vid, 1),): 1})

    def _check(self, other: MultiPoly) -> None:
        if self.registry is not other.registry:
            raise PolyError("polynomials belong to different registries")

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.registry, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(self.registry, out)

    def __radd__(self, other) -> MultiPoly:
        return self.__add__(other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.registry, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> MultiPoly:
        return MultiPoly.const(self.registry, other).__sub__(self)

    def __mul__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            c = other if type(other) is int else Fraction(other)
            if c.denominator == 1:
                c = c.numerator
            if c == 1:  # polynomials are immutable, so sharing is safe
                return self
            if not c:
                return MultiPoly.zero(self.registry)
            return MultiPoly(self.registry, {m: k * c for m, k in self.terms.items()})
        self._check(other)
        # iterate over the smaller operand for fewer dict rebuilds
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Coefficient] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return MultiPoly(self.registry, out)

    def __rmul__(self, other) -> MultiPoly:
        return self.__mul__(other)

    def __pow__(self, k: int) -> MultiPoly:
        if not isinstance(k, int) or k < 0:
            raise PolyError(f"polynomial power must be a non-negative int, got {k!r}")
        result = MultiPoly.const(self.registry, 1)
        if len(self.terms) > 1 and len(self.vars_present()) > 1:
            # squaring would multiply two halves of comb(k/2 + n - 1, n - 1)
            # terms each at the last step; k products by the base cost less
            for _ in range(k):
                result = result * self
            return result
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.registry is other.registry
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # equal terms hash alike whatever the registry, which __eq__ checks
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {_ONE}

    def constant_value(self) -> Coefficient:
        if not self.is_constant():
            raise PolyError("polynomial is not constant")
        return self.terms.get(_ONE, 0)

    def degree_in(self, v: VarId) -> int:
        """Degree in variable `v`; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        d = 0
        for m in self.terms:
            for w, e in m:
                if w == v:
                    if e > d:
                        d = e
                    break
        return d

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def vars_present(self) -> set[VarId]:
        out: set[VarId] = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def term_count(self) -> int:
        return len(self.terms)

    # -- calculus / evaluation ------------------------------------------

    def derivative(self, v: VarId) -> MultiPoly:
        out: dict[Monomial, Coefficient] = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(v, 0)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            mm = tuple(sorted(d.items()))
            out[mm] = out.get(mm, 0) + c * e
        return MultiPoly(self.registry, out)

    def derivatives(self, v: VarId) -> list[MultiPoly]:
        """The derivatives in `v` of order 1 up to deg_v, the last one free
        of `v`: the tower whose signs at a root tell it from the others."""
        out: list[MultiPoly] = []
        for _ in range(self.degree_in(v)):
            out.append((out[-1] if out else self).derivative(v))
        return out

    def eval(self, point: Mapping[VarId, Fraction]) -> Fraction:
        """Evaluate at a full rational point (every present var must be given).

        The sum is taken in integers over one common denominator: the plan's
        scale times d^D for each variable v = n/d of top degree D, so that
        v^e contributes n^e * d^(D - e).  One `Fraction` is built at the end.
        """
        return Fraction(*self.scaled_value(point))

    def sign_at(self, point: Mapping[VarId, Fraction]) -> int:
        """The sign of `eval(point)`, read off the integer sum without a
        `Fraction`: its common denominator is positive."""
        total = self.scaled_value(point)[0]
        return (total > 0) - (total < 0)

    def point_powers(self, point: Mapping[VarId, Fraction]) -> dict[VarId, list[int]]:
        """For each variable of `self` with a value n/d in `point`, the list
        ``n^e * d^(D - e)`` for e = 0..D, D its degree in `self`: what
        `scaled_value` reads, for `self` or any of its coefficients."""
        out = {}
        for v, top in self._compiled().tops.items():
            if v in point:
                n, d = point[v].as_integer_ratio()
                # a running product: each entry is the one before times n/d,
                # and d divides it exactly while e < D
                row = [d**top]
                for _ in range(top):
                    row.append(row[-1] * n // d)
                out[v] = row
        return out

    def scaled_value(
        self, point: Mapping[VarId, Fraction], powers: Mapping[VarId, list[int]] | None = None
    ) -> tuple[int, int]:
        """`eval`'s integer sum and its positive common denominator, not
        reduced; point values are ints or Fractions, read through
        ``as_integer_ratio``.  `powers`, the `point_powers` of this
        polynomial or of one it is a coefficient of, saves rebuilding them
        for every coefficient of a `split`.
        """
        if powers is None:
            powers = self.point_powers(point)
        plan = self._compiled()
        den = plan.scale
        table = []
        for v in plan.tops:
            if v not in powers:
                raise PolyError(f"no value for variable {self.registry.name_of(v)!r}")
            pw = powers[v]
            den *= pw[0]
            table.append(pw)
        total = 0
        for acc, exps in plan.rows:
            for pw, e in zip(table, exps):
                acc *= pw[e]
            total += acc
        return total, den

    def split(self, vs: frozenset[VarId]):
        """`self` nested in the variables of `vs` it involves, ascending id
        order: `self` when it involves none of them, else ``(v, coeffs)``
        with v the least such variable and ``coeffs`` mapping each power of v
        to the split of its coefficient (as `coeffs_in` gives them).

        Built once per variable set and kept in the plan.
        """
        plan = self._compiled()
        if plan.tops.keys().isdisjoint(vs):
            return self
        node = plan.splits.get(vs)
        if node is None:
            v = min(w for w in plan.tops if w in vs)
            node = v, {e: c.split(vs) for e, c in self.coeffs_in(v).items()}
            plan.splits[vs] = node
        return node

    def _compiled(self) -> _Plan:
        plan = self._plan
        if plan is None:
            # assigned only once built: an exception inside leaves no plan
            plan = self._plan = _Plan(self.terms)
        return plan

    def coeffs_in(self, v: VarId) -> dict[int, MultiPoly]:
        """Coefficients of powers of `v`, each a polynomial free of `v`."""
        buckets: dict[int, dict[Monomial, Coefficient]] = {}
        for m, c in self.terms.items():
            e = 0
            for i, (w, k) in enumerate(m):
                if w == v:  # dropping one pair keeps the monomial sorted
                    e, m = k, m[:i] + m[i + 1 :]
                    break
            buckets.setdefault(e, {})[m] = c
        return {e: MultiPoly(self.registry, t) for e, t in buckets.items()}

    @classmethod
    def from_coeffs(
        cls, registry: VarRegistry, v: VarId, coeffs: Mapping[int, MultiPoly]
    ) -> MultiPoly:
        out: dict[Monomial, Coefficient] = {}
        for e, p in coeffs.items():
            for m, c in p.terms.items():
                mm = _mono_mul(m, ((v, e),)) if e else m
                out[mm] = out.get(mm, 0) + c
        return cls(registry, out)

    def leading_coeff_in(self, v: VarId) -> MultiPoly:
        d = self.degree_in(v)
        if d < 0:
            return MultiPoly.zero(self.registry)
        return self.coeffs_in(v)[d]

    def substitute(self, v: VarId, replacement) -> MultiPoly:
        """Substitute a polynomial (or rational constant) for variable `v`."""
        if not isinstance(replacement, MultiPoly):
            replacement = MultiPoly.const(self.registry, replacement)
        self._check(replacement)
        coeffs = self.coeffs_in(v)
        if not coeffs:
            return MultiPoly.zero(self.registry)
        # Horner in v keeps intermediate swell down.
        result = MultiPoly.zero(self.registry)
        for e in range(max(coeffs), -1, -1):
            result = result * replacement
            if e in coeffs:
                result = result + coeffs[e]
        return result

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``z^6 - 3*x*z^4 + x^2``."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            mono = "*".join(
                self.registry.name_of(v) + (f"^{e}" if e > 1 else "")
                for v, e in m
            )
            mag = abs(c)
            if not mono:
                body = _frac_text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_frac_text(mag)}*{mono}"
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    @classmethod
    def from_text(
        cls, registry: VarRegistry, text: str, max_power: int
    ) -> MultiPoly | None:
        """Read text in the form `to_text` prints, or None for any other.

        The form is a list of signed terms, the first unsigned or with a
        minus; each is a coefficient ``n`` or ``n/d``, a ``*``-product of
        ``name`` or ``name^k``, or a coefficient times such a product.  None
        also comes back for a zero denominator, a name not in `registry` or
        repeated in one product, and an exponent outside 1..`max_power`.
        The terms are added up in text order: a term that cancels is
        dropped, and put back last when the same monomial comes again, as
        adding the terms one at a time would.
        """
        ids = registry._ids
        out: dict[Monomial, Coefficient] = {}
        signs = ("", "-")  # of the first term; later ones have a sign
        pos = 0
        while True:
            m = _PRINTED_TERM.match(text, pos)
            if m is None or m[1] not in signs:
                return None
            signs, pos = ("+", "-"), m.end()
            sign, num, den, product = m[1], m[2], m[3], m[4] or m[5]
            if den is None:
                c = 1 if num is None else int(num)
            elif int(den):
                c = Fraction(int(num), int(den))
            else:  # the parse path raises EvalDomainError
                return None
            powers: dict[VarId, int] = {}
            for factor in product.split("*") if product else ():
                name, _, k = factor.partition("^")
                v, e = ids.get(name.strip()), int(k) if k else 1
                if v is None or v in powers or not 0 < e <= max_power:
                    return None
                powers[v] = e
            if c:
                mono = tuple(sorted(powers.items()))
                total = out.get(mono, 0) + (-c if sign == "-" else c)
                if total:
                    out[mono] = total
                else:
                    del out[mono]
            if pos == len(text):
                return cls(registry, out)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


#: ``name`` or ``name^k``, a factor of a printed monomial
_FACTOR = rf"{IDENTIFIER.pattern}(?:\s*\^\s*\d+)?"
_PRODUCT = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
#: one printed term: its sign, then ``n``, ``n/d``, either times a product,
#: or a product alone; whitespace may stand wherever the parser skips it
_PRINTED_TERM = re.compile(
    rf"\s*([-+]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*({_PRODUCT}))?|({_PRODUCT}))\s*"
)


# ---------------------------------------------------------------------------
# exact division, gcd machinery
# ---------------------------------------------------------------------------


class InexactDivision(PolyError):
    """Raised when an exact polynomial division turns out not to be exact."""


def divexact(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Divide `p` by `q` assuming exact divisibility; raise otherwise.

    `q` is scaled to primitive integers and `p` to integers; by Gauss's
    lemma their quotient is then integral whenever it exists, and
    `int_divexact` finds it.
    """
    p._check(q)
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    if q.is_constant():
        c = q.constant_value()
        return p if c == 1 else p * (1 / Fraction(c))
    dp = math.lcm(*(c.denominator for c in p.terms.values()))
    dq = math.lcm(*(c.denominator for c in q.terms.values()))
    iq = int_terms(q, dq)
    g = math.gcd(*iq.values())
    quo = int_divexact(int_terms(p, dp), {m: k // g for m, k in iq.items()})
    if dq != g * dp:
        scale = Fraction(dq, g * dp)
        quo = {m: k * scale for m, k in quo.items()}
    return MultiPoly(p.registry, quo)


def try_divexact(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    try:
        return divexact(p, q)
    except InexactDivision:
        return None


def provably_nonneg(p: MultiPoly, nonneg: Collection[VarId] = ()) -> bool:
    """Sound, syntactic: every term has a positive coefficient and each
    variable occurs to an even power unless it is in `nonneg`, the variables
    known nonnegative; then p >= 0 wherever those are."""
    return all(
        c > 0 and all(e % 2 == 0 or v in nonneg for v, e in m)
        for m, c in p.terms.items()
    )


# Integer term dicts {monomial: int}, no zero values: the fraction-free
# kernels' private working form.  They never leave the function that builds
# them; results go back into a `MultiPoly`, whose coefficients stay ints
# unless a denominator remains.
IntTerms = dict[Monomial, int]


def int_terms(p: MultiPoly, scale: int) -> IntTerms:
    """The terms of `scale * p`; `scale` must clear every denominator."""
    return {m: c.numerator * (scale // c.denominator) for m, c in p.terms.items()}


def int_cross(a: IntTerms, b: IntTerms, c: IntTerms, d: IntTerms) -> IntTerms:
    """a*b - c*d."""
    out: IntTerms = {}
    for x, y, sign in ((a, b, 1), (c, d, -1)):
        for mx, kx in x.items():
            for my, ky in y.items():
                m = _mono_mul(mx, my)
                out[m] = out.get(m, 0) + sign * kx * ky
    return {m: k for m, k in out.items() if k}


def int_divexact(p: IntTerms, q: IntTerms) -> IntTerms:
    """The integer quotient p / q; raise InexactDivision unless it exists."""
    if len(q) == 1:
        ((mq, cq),) = q.items()
        out: IntTerms = {}
        for m, k in p.items():
            c, r = divmod(k, cq)
            if r or mq and not _mono_divides(mq, m):
                raise InexactDivision("division is not exact")
            out[_mono_div(m, mq) if mq else m] = c
        return out
    rem = dict(p)
    keys = {m: grlex_key(m) for m in rem}
    lead_q = grlex_leading(q)
    cq = q[lead_q]
    out = {}
    while rem:
        lead_r = max(rem, key=keys.__getitem__)
        c, r = divmod(rem[lead_r], cq)
        if r or not _mono_divides(lead_q, lead_r):
            raise InexactDivision("division is not exact")
        m = _mono_div(lead_r, lead_q)
        out[m] = c
        for mq, kq in q.items():
            mm = _mono_mul(m, mq)
            s = rem.get(mm, 0) - c * kq
            if s:
                if mm not in keys:
                    keys[mm] = grlex_key(mm)
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return out


def integer_normalize(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if p.is_zero():
        return p
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = p.terms if den == 1 else int_terms(p, den)
    g = math.gcd(*ints.values())
    if ints[grlex_leading(ints)] < 0:
        g = -g
    if ints is p.terms and g == 1:  # polynomials are immutable, so sharing is safe
        return p
    return MultiPoly(p.registry, {m: k // g for m, k in ints.items()})


def _pseudo_rem(p: MultiPoly, q: MultiPoly, v: VarId) -> MultiPoly:
    """Pseudo-remainder of p by q in v, scaled by lc(q)^(deg p - deg q + 1)."""
    dp, dq = p.degree_in(v), q.degree_in(v)
    if dq < 0:
        raise PolyError("pseudo-remainder by zero")
    lc_q = q.leading_coeff_in(v)
    r = p
    steps = dp - dq + 1
    used = 0
    while not r.is_zero() and r.degree_in(v) >= dq:
        dr = r.degree_in(v)
        lc_r = r.leading_coeff_in(v)
        shift = MultiPoly.from_coeffs(p.registry, v, {dr - dq: lc_r})
        r = r * lc_q - shift * q
        used += 1
    # normalize to the textbook scaling so subresultant formulas hold
    for _ in range(steps - used):
        r = r * lc_q
    return r


def subresultant_prs(p: MultiPoly, q: MultiPoly, v: VarId) -> list[MultiPoly]:
    """Subresultant polynomial remainder sequence starting from (p, q)."""
    if p.degree_in(v) < q.degree_in(v):
        p, q = q, p
    seq = [p, q]
    a, b = p, q
    g = MultiPoly.const(p.registry, 1)
    h = MultiPoly.const(p.registry, 1)
    while b.degree_in(v) > 0:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return seq
        divisor = g * (h ** delta)
        r = divexact(r, divisor)
        a, b = b, r
        seq.append(r)
        g = a.leading_coeff_in(v)
        if delta:
            h = divexact(g ** delta, h ** (delta - 1))
        # delta == 0 leaves h unchanged
    return seq


_MASK64 = 2**64 - 1


@functools.lru_cache(maxsize=64)
def _image_value(w: VarId) -> int:
    # A fixed residue per variable, the splitmix64 hash of its id, so that no
    # small polynomial relates the values of different variables; no RNG, so
    # every run takes the same path.
    x = (w + 1) * 0x9E3779B97F4A7C15 & _MASK64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
    return (x ^ x >> 31) % IMAGE_PRIME


def _image_in(p: MultiPoly, v: VarId) -> list[int] | None:
    # p mod IMAGE_PRIME as univariate in v, every other variable at its
    # image value; None when a denominator vanishes mod the prime.
    out = [0] * (p.degree_in(v) + 1)
    for m, c in p.terms.items():
        x = c.numerator
        if c.denominator != 1:
            if not c.denominator % IMAGE_PRIME:
                return None
            x *= pow(c.denominator, -1, IMAGE_PRIME)
        e = 0
        for w, k in m:
            if w == v:
                e = k
            else:
                x = x * pow(_image_value(w), k, IMAGE_PRIME) % IMAGE_PRIME
        out[e] = (out[e] + x) % IMAGE_PRIME
    return out


def _coprime_by_image(p: MultiPoly, q: MultiPoly, v: VarId) -> bool:
    """True when one modular image proves gcd(p, q) in v to be 1.

    φ maps coefficients to GF(IMAGE_PRIME) and the variables other than v to
    fixed values.  Let G be the gcd of p and q over the other variables'
    fraction field, primitive with integer coefficients, so it divides both in
    the polynomial ring.  φ(lc G) divides φ(lc p) ≠ 0, so deg φ(G) = deg G;
    and φ(G) divides both images, hence their gcd.  An image gcd of degree 0
    therefore gives deg G = 0.  False means nothing: the caller runs the PRS.
    """
    images = []
    for f in (p, q):
        image = _image_in(f, v)
        if image is None or not image[-1]:
            return False
        images.append(image)
    return gcd_degree_mod(*images) == 0


def _has_constant_coeff(p: MultiPoly, v: VarId) -> bool:
    # The coefficient of v^e is a nonzero constant iff a term is v^e alone
    # and no term with v-exponent e holds another variable.
    alone, mixed = set(), set()
    for m in p.terms:
        if not m or len(m) == 1 and m[0][0] == v:
            alone.add(m[0][1] if m else 0)
        else:
            mixed.add(next((e for w, e in m if w == v), 0))
    return not alone <= mixed


def _heuristic_gcd(a: IntTerms, b: IntTerms) -> IntTerms | None:
    """Gcd of two nonzero integer polynomials by GCDHEU (Char, Geddes &
    Gonnet 1989, J. Symbolic Comput. 7), or None when it gives up.

    The integer contents are divided out and their gcd c multiplied back
    in.  The first variable x goes to an integer ξ ≥ 2·min(‖a‖∞, ‖b‖∞) + 2,
    the gcd γ of the two images comes from the same heuristic on one
    variable fewer, and G is read off γ's symmetric ξ-adic digits, so that
    G(ξ) = γ.  Its primitive part P = G / k is accepted only if it divides
    both primitive operands exactly, which makes it a common divisor.

    It is then the greatest (the GCDHEU theorem).  Write gcd(a, b) = P·h.
    Since γ is the gcd of the images (by induction on the variables),
    P(ξ)·h(ξ) divides γ = k·P(ξ), so h(ξ) is an integer dividing k, and
    |k| ≤ ξ/2 as k divides a digit.  Take the operand of smaller norm, say
    a.  A nonzero polynomial in Z[x] of norm ≤ ‖a‖∞ has its roots α below
    1 + ‖a‖∞ ≤ ξ/2 in absolute value (Cauchy), so |ξ − α| > ξ/2.  Hence ξ
    is no root of the coefficient of a's leading monomial in the other
    variables, nor of h's, which divides it; with h(ξ) constant, h is free
    of the other variables.  Then h divides a coefficient of a, so
    |h(ξ)| > (ξ/2)^deg h, and h(ξ) | k leaves deg h = 0.  A rejected P
    makes ξ ← ξ·73794 // 27011; after six tries, or when the level below
    gives up, the heuristic gives up.
    """
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if _ONE in a and len(a) == 1 or _ONE in b and len(b) == 1:
        return {_ONE: c}
    a = {m: k // ca for m, k in a.items()}
    b = {m: k // cb for m, k in b.items()}
    x = min(m[0][0] for f in (a, b) for m in f if m)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(6):
        images = [_image_at(f, x, xi) for f in (a, b)]
        if all(images):
            gamma = _heuristic_gcd(*images)
            if gamma is None:
                return None
            g = _from_digits(gamma, x, xi)
            cg = math.gcd(*g.values())
            g = {m: k // cg for m, k in g.items()}
            try:
                int_divexact(a, g)
                int_divexact(b, g)
            except InexactDivision:
                pass
            else:
                return {m: k * c for m, k in g.items()}
        xi = xi * 73794 // 27011
    return None


def _image_at(f: IntTerms, x: VarId, xi: int) -> IntTerms:
    # f with x set to xi; x is the least variable of f, so it leads each
    # monomial it occurs in.
    out: IntTerms = {}
    for m, k in f.items():
        if m and m[0][0] == x:
            k *= xi ** m[0][1]
            m = m[1:]
        out[m] = out.get(m, 0) + k
    return {m: k for m, k in out.items() if k}


def _from_digits(gamma: IntTerms, x: VarId, xi: int) -> IntTerms:
    # The polynomial in x whose coefficient of x^e holds the e-th symmetric
    # xi-adic digit of each of gamma's coefficients; every variable of gamma
    # comes after x, so prefixing (x, e) keeps a monomial sorted.
    out: IntTerms = {}
    half = xi // 2
    e = 0
    while gamma:
        rest: IntTerms = {}
        for m, k in gamma.items():
            d = k % xi
            if d > half:
                d -= xi
            if d:
                out[((x, e),) + m if e else m] = d
            if k != d:
                rest[m] = (k - d) // xi
        gamma = rest
        e += 1
    return out


def _heuristic_poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """`poly_gcd(p, q)` of two nonzero polynomials, normalized alike, by
    `_heuristic_gcd`; None when the heuristic gives up."""
    g = _heuristic_gcd(
        *(int_terms(f, math.lcm(*(c.denominator for c in f.terms.values()))) for f in (p, q))
    )
    if g is None:
        return None
    # in the text order, in which the PRS path's exact divisions mostly leave
    # a gcd: a factor that the reduction keeps then keeps its term order
    ordered = sorted(g.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    return integer_normalize(MultiPoly(p.registry, dict(ordered)))


def content_in(p: MultiPoly, v: VarId) -> MultiPoly:
    """Gcd of the coefficients of `p` viewed as a polynomial in `v`.

    Content 1 is proved without a gcd when a coefficient is a nonzero
    constant, or when the two smallest coefficients have coprime images in
    every variable of the first (`_coprime_by_image`): a nonconstant gcd
    would have positive degree in one of them.  Otherwise the gcds are
    taken smallest coefficient first, each by the heuristic, with
    `poly_gcd` as its fallback.
    """
    if _has_constant_coeff(p, v):
        return MultiPoly.const(p.registry, 1)
    coeffs = sorted(
        p.coeffs_in(v).values(), key=lambda c: (c.term_count(), c.total_degree())
    )
    if not coeffs:
        return MultiPoly.zero(p.registry)
    g = coeffs[0]
    if len(coeffs) > 1 and all(
        _coprime_by_image(g, coeffs[1], w) for w in g.vars_present()
    ):
        return MultiPoly.const(p.registry, 1)
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _heuristic_poly_gcd(g, c) or poly_gcd(g, c)
    return integer_normalize(g)


def primitive_part_in(p: MultiPoly, v: VarId) -> MultiPoly:
    if p.is_zero():
        return p
    return integer_normalize(divexact(p, content_in(p, v)))


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Full multivariate gcd, normalized to primitive integer coefficients.

    Rational constants count as units, so gcd(6, 4) is 1.
    """
    p._check(q)
    if p.is_zero():
        return integer_normalize(q)
    if q.is_zero():
        return integer_normalize(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.registry, 1)
    shared = p.vars_present() | q.vars_present()
    v = min(shared)
    cp, cq = content_in(p, v), content_in(q, v)
    c = poly_gcd(cp, cq)
    pp, qq = divexact(p, cp), divexact(q, cq)
    return integer_normalize(c * gcd_in_main_var(pp, qq, v))


def gcd_in_main_var(p: MultiPoly, q: MultiPoly, v: VarId) -> MultiPoly:
    """Gcd of p and q as univariate polynomials in `v` over the remaining
    variables' fraction field, returned primitive with integer coefficients.

    Degree-0 results collapse to the constant 1 (units don't matter here).
    """
    p._check(q)
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd of two zero polynomials")
    if p.is_zero():
        return primitive_part_in(q, v)
    if q.is_zero():
        return primitive_part_in(p, v)
    if p.degree_in(v) == 0 or q.degree_in(v) == 0:
        return MultiPoly.const(p.registry, 1)
    if _coprime_by_image(p, q, v):
        return MultiPoly.const(p.registry, 1)
    g = _heuristic_poly_gcd(p, q)
    if g is not None:
        # the gcd over the other variables' fraction field is the full gcd's
        # primitive part in v, which is 1 when v does not occur in it
        return primitive_part_in(g, v)
    seq = subresultant_prs(p, q, v)
    last = seq[-1]
    if last.degree_in(v) == 0:
        return MultiPoly.const(p.registry, 1)
    return primitive_part_in(last, v)


def square_free_part(p: MultiPoly, v: VarId) -> MultiPoly:
    """Largest square-free divisor of `p` with respect to `v`, primitive."""
    if p.degree_in(v) < 1:
        raise PolyError("square-free part needs positive degree in the main variable")
    g = gcd_in_main_var(p, p.derivative(v), v)
    out = divexact(p, g)
    return primitive_part_in(out, v)


def homogenize_in_quotient(p: MultiPoly, v: VarId, t: VarId, d: int) -> MultiPoly:
    """Return t^d * p(v/t) with denominators cleared: v^e picks up t^(d-e).

    `d` must be the degree of `p` in `v`, and `t` must not occur in `p`.
    """
    if t in p.vars_present():
        raise PolyError("homogenization variable already occurs in the polynomial")
    if d != p.degree_in(v):
        raise PolyError(f"expected degree {p.degree_in(v)} in quotient, got {d}")
    out: dict[Monomial, Coefficient] = {}
    for m, c in p.terms.items():
        dm = dict(m)
        e = dm.get(v, 0)
        if d - e:
            dm[t] = d - e
        out[tuple(sorted(dm.items()))] = c
    return MultiPoly(p.registry, out)

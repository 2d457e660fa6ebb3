"""Radical expressions: syntax trees, parsing, normalization, interval values.

Expressions are built from rational constants, named variables, the four
field operations, rational powers, and explicit roots.  ``sqrt(e)`` is sugar
for ``root(2, e)``.  Normalization removes every ``Pow`` node: integer powers
unfold into products, ``g^(r/s)`` becomes ``root(s, g^r)``, and negative
exponents turn into divisions, so downstream code only ever sees
``Const/Var/Add/Sub/Mul/Div/Root``; an exponent above `MAX_POWER` raises
PowerBudgetError before it unfolds.  Polynomial text is read without
normalizing: text in the printed form term by term, any other by
`to_polynomial`, which raises integer powers itself.  Unary minus binds
looser than ``^``: ``-x^2`` is ``-(x^2)``.

Numeric evaluation is exact: a subtree without roots is a rational, and
only roots (and the nodes they reach) are intervals with rational endpoints.
Roots are enclosed by binary-scaled integer root extraction, refined until
the enclosure is narrower than ``2^-PRECISION``, the working precision, or
a doubling of it (`precisions`).  An even root of a provably negative
radicand yields the distinguished ``NOT_REAL`` value; division by an exact
zero raises ``EvalDomainError`` (a different thing entirely).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .polycore import IDENTIFIER, MultiPoly, VarId, VarRegistry

# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Root:
    index: int
    radicand: Expr


Expr = Const | Var | Add | Sub | Mul | Div | Pow | Root


class ExprError(Exception):
    """Structural problem with an expression (bad root index, 0^0, ...)."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Division by zero, or a sign/realness question the budget can't settle."""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_REJECTED_FUNCTIONS = {"sin", "cos", "tan", "exp", "log", "ln", "abs", "min", "max"}


#: deepest nesting of parentheses, function calls and unary minus `parse`
#: accepts; deeper input would exhaust the interpreter's recursion limit
MAX_NESTING = 100

#: highest degree a product or power may reach in any one variable, and
#: highest exponent of a constant, when `polynomial_from_text` multiplies it
#: out; also the highest exponent `normalize` unfolds; `x^1000` still reads
MAX_POWER = 1000

#: most terms a power may expand to when `polynomial_from_text` raises it,
#: counted as the monomials of its degree in the base's terms;
#: `(x + y + z + w)^37` still reads
MAX_TERMS = 10_000


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def ident(self) -> str:
        """The name at the cursor (`polycore.IDENTIFIER`), or "" if none."""
        self.skip_ws()
        m = IDENTIFIER.match(self.text, self.pos)
        if m is None:
            return ""
        self.pos = m.end()
        return m.group()


def parse(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError with a position on failure."""
    sc = _Scanner(text)
    e = _parse_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ExprSyntaxError("trailing input", sc.pos)
    return e


def _parse_sum(sc: _Scanner) -> Expr:
    e = _parse_term(sc)
    while True:
        if sc.take("+"):
            e = Add(e, _parse_term(sc))
        elif sc.take("-"):
            e = Sub(e, _parse_term(sc))
        else:
            return e


def _parse_term(sc: _Scanner) -> Expr:
    e = _parse_factor(sc)
    while True:
        if sc.take("*"):
            e = Mul(e, _parse_factor(sc))
        elif sc.take("/"):
            e = Div(e, _parse_factor(sc))
        else:
            return e


def _parse_factor(sc: _Scanner) -> Expr:
    # unary minus negates a whole power, so -x^2 is -(x^2); each minus
    # counts toward MAX_NESTING, as a parenthesis does
    if sc.take("-"):
        inner = _nested(sc, _parse_factor)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Sub(Const(Fraction(0)), inner)
    base = _nested(sc, _parse_primary)
    if sc.take("^"):
        exponent = _parse_exponent(sc)
        return Pow(base, exponent)
    return base


def _parse_exponent(sc: _Scanner) -> Fraction:
    if sc.take("("):
        num = sc.integer()
        sc.expect("/")
        den = sc.integer()
        sc.expect(")")
        if den == 0:
            raise ExprSyntaxError("zero denominator in exponent", sc.pos)
        return Fraction(num, den)
    return Fraction(sc.integer())


def _nested(sc: _Scanner, parse_one) -> Expr:
    if sc.depth > MAX_NESTING:
        raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", sc.pos)
    sc.depth += 1
    e = parse_one(sc)
    sc.depth -= 1
    return e


def _parse_primary(sc: _Scanner) -> Expr:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        e = _parse_sum(sc)
        sc.expect(")")
        return e
    if ch.isdecimal():
        num = sc.integer()
        # a '/' here binds as term-level division, not a rational literal;
        # rational constants come from context like 3/4 where the parser's
        # Div(Const, Const) folds during normalization.
        return Const(Fraction(num))
    name = sc.ident()
    if name:
        if name == "sqrt":
            sc.expect("(")
            e = _parse_sum(sc)
            sc.expect(")")
            return Root(2, e)
        if name == "root":
            sc.expect("(")
            idx = sc.integer()
            sc.expect(",")
            e = _parse_sum(sc)
            sc.expect(")")
            if idx < 1:
                raise ExprSyntaxError(f"root index must be >= 1, got {idx}", sc.pos)
            return Root(idx, e)
        if sc.peek() == "(":
            hint = (
                "transcendental functions are not supported"
                if name in _REJECTED_FUNCTIONS
                else "only sqrt(...) and root(k, ...) are recognized"
            )
            raise ExprSyntaxError(f"unknown function {name!r}: {hint}", sc.pos)
        return Var(name)
    raise ExprSyntaxError("expected a number, variable, or '('", sc.pos)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def to_text(e: Expr) -> str:
    """Render an expression in the same grammar `parse` accepts."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    # precedence levels: 0 sum, 1 term, 2 atom-ish
    if isinstance(e, Const):
        s = str(e.value)
        return f"({s})" if (e.value < 0 and parent_prec > 0) else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = f"{_render(e.left, 0)} + {_render(e.right, 1)}"
        return f"({s})" if parent_prec > 0 else s
    if isinstance(e, Sub):
        s = f"{_render(e.left, 0)} - {_render(e.right, 1)}"
        return f"({s})" if parent_prec > 0 else s
    if isinstance(e, Mul):
        s = f"{_render(e.left, 1)}*{_render(e.right, 2)}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Div):
        s = f"{_render(e.left, 1)}/{_render(e.right, 2)}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Pow):
        exp = e.exponent
        etxt = str(exp.numerator) if exp.denominator == 1 else f"({exp})"
        return f"{_render(e.base, 2)}^{etxt}"
    if isinstance(e, Root):
        inner = _render(e.radicand, 0)
        return f"sqrt({inner})" if e.index == 2 else f"root({e.index}, {inner})"
    raise ExprError(f"unknown node {e!r}")


def structural_key(e: Expr) -> str:
    """Deterministic total order on expressions (used to sort Add/Mul children).

    A serialized form rather than a hash: collision-free and stable across
    runs, which keeps normalization reproducible.
    """
    if isinstance(e, Const):
        return f"C{e.value}"
    if isinstance(e, Var):
        return f"V{e.name}"
    if isinstance(e, Add):
        return f"A({structural_key(e.left)},{structural_key(e.right)})"
    if isinstance(e, Sub):
        return f"S({structural_key(e.left)},{structural_key(e.right)})"
    if isinstance(e, Mul):
        return f"M({structural_key(e.left)},{structural_key(e.right)})"
    if isinstance(e, Div):
        return f"D({structural_key(e.left)},{structural_key(e.right)})"
    if isinstance(e, Pow):
        return f"P{e.exponent}({structural_key(e.base)})"
    if isinstance(e, Root):
        return f"R{e.index}({structural_key(e.radicand)})"
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(e: Expr) -> Expr:
    """Rewrite to the Pow-free normal form; idempotent by construction."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return e
    if isinstance(e, (Add, Mul)):
        l, r = normalize(e.left), normalize(e.right)
        if structural_key(r) < structural_key(l):
            l, r = r, l
        return type(e)(l, r)
    if isinstance(e, (Sub, Div)):
        return type(e)(normalize(e.left), normalize(e.right))
    if isinstance(e, Root):
        if e.index < 1:
            raise ExprError(f"root index must be >= 1, got {e.index}")
        inner = normalize(e.radicand)
        return inner if e.index == 1 else Root(e.index, inner)
    if isinstance(e, Pow):
        base = normalize(e.base)
        r, s = e.exponent.numerator, e.exponent.denominator
        _check_degree("power", abs(r))  # before x^99999999 unfolds
        if r == 0:
            if base == Const(Fraction(0)):
                raise ExprError("0^0 is undefined")
            return Const(Fraction(1))
        if r < 0:
            flipped = normalize(Pow(base, Fraction(-r, s)))
            return Div(Const(Fraction(1)), flipped)
        if s == 1:
            if isinstance(base, Const):
                return Const(base.value**r)
            return normalize(_unfold_power(base, r))
        return normalize(Root(s, _unfold_power(base, r)))
    raise ExprError(f"unknown node {e!r}")


def _unfold_power(base: Expr, k: int) -> Expr:
    out: Expr = base
    for _ in range(k - 1):
        out = Mul(out, base)
    return out


# ---------------------------------------------------------------------------
# polynomial view
# ---------------------------------------------------------------------------


class NotPolynomial(ExprError):
    pass


class PowerBudgetError(Exception):
    """A product or power above `MAX_POWER` or `MAX_TERMS` (exit 5, a budget
    rather than a bad input)."""


def to_polynomial(e: Expr, registry: VarRegistry, capped: bool = False) -> MultiPoly:
    """Convert a radical-free expression to a MultiPoly over `registry`,
    which must hold every variable of `e`.

    Division is only allowed by nonzero constants, and a negative power only
    of a nonzero constant.  Raises NotPolynomial when a root, a fractional
    power or a non-constant denominator is in the way.  With `capped`, as
    `polynomial_from_text` reads, a product or power above `MAX_POWER` in a
    variable, or a power that may expand past `MAX_TERMS` terms, raises
    PowerBudgetError before it is multiplied out.  Sums are added up along
    their left spine without recursion; each term is inserted, and dropped
    once it cancels, in the order the binary additions of the tree would
    give, so a normalized tree converts to the same polynomial term for term.
    """
    if isinstance(e, Const):
        return MultiPoly.const(registry, e.value)
    if isinstance(e, Var):
        return MultiPoly.var(registry, registry.id_of(e.name))
    if isinstance(e, (Add, Sub)):
        spine = []
        while isinstance(e, (Add, Sub)):
            spine.append(e)
            e = e.left
        out = dict(to_polynomial(e, registry, capped).terms)
        for node in reversed(spine):
            right = to_polynomial(node.right, registry, capped).terms
            sign = 1 if isinstance(node, Add) else -1
            for m, c in right.items():
                total = out.get(m, 0) + sign * c
                if total:
                    out[m] = total
                else:
                    del out[m]
        return MultiPoly(registry, out)
    if isinstance(e, Mul):
        left = to_polynomial(e.left, registry, capped)
        right = to_polynomial(e.right, registry, capped)
        if capped:
            da, db = _degrees(left), _degrees(right)
            sums = (da.get(v, 0) + db.get(v, 0) for v in da.keys() | db.keys())
            _check_degree("product", max(sums, default=0))
        return left * right
    if isinstance(e, Div):
        c = _nonzero_constant(to_polynomial(e.right, registry, capped))
        return to_polynomial(e.left, registry, capped) * (Fraction(1) / c)
    if isinstance(e, Root):
        if e.index == 1:
            return to_polynomial(e.radicand, registry, capped)
        raise NotPolynomial("expression contains a root")
    if isinstance(e, Pow):
        if e.exponent.denominator != 1:
            raise NotPolynomial("expression contains a root")
        base = to_polynomial(e.base, registry, capped)
        k = e.exponent.numerator
        if capped:
            # a constant's power counts as degree 1, so its exponent is capped too
            _check_degree("power", abs(k) * max(_degrees(base).values(), default=1))
        if k < 0:
            return MultiPoly.const(registry, _nonzero_constant(base) ** k)
        if k == 0 and not base:
            raise ExprError("0^0 is undefined")
        n = len(base.terms)
        if capped and n > 1 and math.comb(k + n - 1, n - 1) > MAX_TERMS:
            raise PowerBudgetError(
                f"a power of {n} terms to the {k} may expand past "
                f"the cap of {MAX_TERMS} terms"
            )
        return base**k
    raise ExprError(f"unknown node {e!r}")


def _degrees(p: MultiPoly) -> dict[VarId, int]:
    """The highest exponent of each variable in `p`."""
    out: dict[VarId, int] = {}
    for m in p.terms:
        for v, d in m:
            if d > out.get(v, 0):
                out[v] = d
    return out


def _check_degree(what: str, degree: int) -> None:
    if degree > MAX_POWER:
        raise PowerBudgetError(
            f"{what} of degree {degree} is above the cap of {MAX_POWER}"
        )


def _nonzero_constant(den: MultiPoly) -> Fraction:
    """The value of a polynomial that divides: a nonzero constant, as a
    `Fraction`, so that dividing by it or raising it to a negative power
    stays exact when the coefficient is an int."""
    if not den.is_constant():
        raise NotPolynomial("non-constant denominator")
    c = den.constant_value()
    if c == 0:
        raise EvalDomainError("division by the zero constant")
    return Fraction(c)


def is_polynomial(e: Expr) -> bool:
    """True iff the normalized expression denotes a polynomial (roots absent,
    all denominators nonzero constants)."""
    try:
        to_polynomial(e, VarRegistry(sorted(variables_of(e))))
        return True
    except NotPolynomial:
        return False


def polynomial_from_text(text: str, registry: VarRegistry) -> MultiPoly:
    """Read polynomial text (canonical or not) into a MultiPoly.  Text in
    the printed form of `MultiPoly.to_text` is read term by term
    (`MultiPoly.from_text`); any other is read straight from its parse tree:
    powers are raised by repeated squaring, with no normalizing, and
    products and powers are held under `MAX_POWER` and `MAX_TERMS`.  Both
    give the same polynomial, term order included."""
    poly = MultiPoly.from_text(registry, text, MAX_POWER)
    if poly is None:
        poly = to_polynomial(parse(text), registry, capped=True)
    return poly


def variables_of(e: Expr) -> set[str]:
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Add, Sub, Mul, Div)):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Pow):
        return variables_of(e.base)
    if isinstance(e, Root):
        return variables_of(e.radicand)
    raise ExprError(f"unknown node {e!r}")


def distinct_radicals(e: Expr) -> tuple[Root, ...]:
    """All distinct Root subtrees of a normalized expression, outermost first.

    Nested radicals are counted at every level, in first-occurrence preorder;
    this is exactly the number of auxiliary variables the one-root-per-radical
    baseline reformulation introduces.
    """
    seen: dict[Root, None] = {}

    def walk(node: Expr) -> None:
        if isinstance(node, Root):
            seen.setdefault(node)
            walk(node.radicand)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Pow):
            raise ExprError("Pow nodes must be normalized away first")

    walk(e)
    return tuple(seen)


def substitute_expr(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace every occurrence of each key subtree (structural equality)."""
    if e in mapping:
        return mapping[e]
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(
            substitute_expr(e.left, mapping), substitute_expr(e.right, mapping)
        )
    if isinstance(e, Root):
        return Root(e.index, substitute_expr(e.radicand, mapping))
    if isinstance(e, Pow):
        return Pow(substitute_expr(e.base, mapping), e.exponent)
    return e


# ---------------------------------------------------------------------------
# exact interval arithmetic
# ---------------------------------------------------------------------------
#
# The kernel works in integers: an exact value is a pair ``(num, den)`` and
# an interval a triple ``(lo, hi, den)``, numerators over one positive
# denominator, neither reduced by a gcd on the way.  A `Fraction` `Interval`
# is built only where a value leaves `poly_enclosure` or `eval_numeric`.


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExprError(f"inverted interval [{self.lo}, {self.hi}]")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @classmethod
    def point(cls, c: Fraction) -> Interval:
        return cls(c, c)


def _interval(x: tuple[int, ...]) -> Interval:
    """The `Interval` of a kernel pair or triple."""
    if len(x) == 2:
        c = Fraction(*x)
        return Interval(c, c)
    lo, hi, den = x
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _add(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    alo, ahi, ad = a
    blo, bhi, bd = b
    if ad == bd:
        return alo + blo, ahi + bhi, ad
    return alo * bd + blo * ad, ahi * bd + bhi * ad, ad * bd


def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    if b[0] == b[1]:
        a, b = b, a
    alo, ahi, ad = a
    blo, bhi, bd = b
    if alo == ahi:
        # a point scales the other operand: two products ordered by its
        # sign give the same endpoints as all four
        if alo >= 0:
            return blo * alo, bhi * alo, bd * ad
        return bhi * alo, blo * alo, bd * ad
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products), ad * bd


def poly_enclosure(
    p: MultiPoly, point: Mapping[VarId, Fraction], box: Mapping[VarId, Interval]
) -> Interval:
    """Enclose p over `box` with every other variable fixed by `point`.

    Horner in each box variable, in ascending id order, with the
    coefficients enclosed recursively; a coefficient free of every box
    variable is evaluated exactly at `point` (`MultiPoly.scaled_value`, all
    of them reading one table of coordinate powers) and enters as a point
    interval.  By subdistributivity the enclosure is never wider than
    term-by-term interval evaluation, and exact quantities stay exact.  The
    nesting is `MultiPoly.split`, built once per polynomial and box variable
    set; the box is taken to one common denominator first.
    """
    den = math.lcm(*(c.denominator for iv in box.values() for c in (iv.lo, iv.hi)))
    ibox = {
        v: (
            iv.lo.numerator * (den // iv.lo.denominator),
            iv.hi.numerator * (den // iv.hi.denominator),
            den,
        )
        for v, iv in box.items()
    }
    return _interval(_enclose(p.split(frozenset(box)), point, ibox, p.point_powers(point)))


def _enclose(node, point: Mapping[VarId, Fraction], box, powers: dict) -> tuple[int, int, int]:
    if isinstance(node, MultiPoly):
        num, den = node.scaled_value(point, powers)
        return num, num, den
    v, coeffs = node
    iv = box[v]
    top = max(coeffs)
    acc = _enclose(coeffs[top], point, box, powers)
    for e in range(top - 1, -1, -1):
        acc = _mul(acc, iv)
        if e in coeffs:
            acc = _add(acc, _enclose(coeffs[e], point, box, powers))
    return acc


class _NotReal:
    """Singleton marker: the expression has no real value at this point."""

    _instance: _NotReal | None = None

    def __new__(cls) -> _NotReal:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_REAL"


NOT_REAL = _NotReal()

NumericValue = Interval | _NotReal


class _NeedsPrecision(Exception):
    """Internal: the working precision cannot settle a sign; retry higher."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _iroot(n: int, r: int) -> int:
    """Floor of the r-th root of a non-negative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or r == 1:
        return n
    if r == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // r)  # >= true root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x**r > n:
        x -= 1
    return x


def _rat_root(num: int, den: int, r: int, bits: int) -> tuple[int, int, int]:
    """Enclose (num/den)^(1/r) within 2^-bits, for odd r or num >= 0.

    The pair is put in lowest terms by one gcd first: the perfect-power
    test reads both parts, so a perfect power reached through an unreduced
    pair stays exact.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num < 0:
        lo, hi, d = _rat_root(-num, den, r, bits)
        return -hi, -lo, d
    if num == 0:
        return 0, 0, 1
    rn, rd = _iroot(num, r), _iroot(den, r)
    if rn**r == num and rd**r == den:
        return rn, rn, rd
    scale = 1 << (r * bits)
    lo = _iroot((num * scale) // den, r)
    hi = _iroot(-(-(num * scale) // den), r) + 1
    return lo, hi, 1 << bits


def rat_root_enclosure(a: Fraction, r: int, bits: int) -> Interval:
    """Enclose a^(1/r) for a >= 0 within 2^-bits; exact for perfect powers."""
    if a < 0:
        raise ExprError("rat_root_enclosure needs a non-negative radicand")
    return _interval(_rat_root(a.numerator, a.denominator, r, bits))


def _root_value(x: tuple[int, ...], r: int, bits: int):
    if len(x) == 2:
        num, den = x
        if num < 0 and r % 2 == 0:
            return NOT_REAL
        return _rat_root(num, den, r, bits)
    lo, hi, den = x
    if r % 2 == 0:
        if hi < 0:
            return NOT_REAL
        if lo < 0:
            raise _NeedsPrecision("even root of an interval straddling zero")
    # roots are monotone on their domain: enclose each endpoint's root
    alo, _, ad = _rat_root(lo, den, r, bits)
    _, bhi, bd = _rat_root(hi, den, r, bits)
    if ad == bd:
        return alo, bhi, ad
    return alo * bd, bhi * ad, ad * bd


def _eval_interval(e: Expr, point: Mapping[str, Fraction], bits: int):
    # Exact first: a subtree without roots evaluates to an exact pair, and
    # becomes a point triple only where it meets an interval operand.
    # Arithmetic on points is exact, so every enclosure is the one
    # evaluating each node as an interval gives.
    t = type(e)
    if t is Const or t is Var:
        if t is Var and e.name not in point:
            raise ExprError(f"no value given for variable {e.name!r}")
        value = e.value if t is Const else point[e.name]
        if type(value) is not Fraction:
            value = Fraction(value)
        return value.as_integer_ratio()
    if t is Add or t is Sub or t is Mul or t is Div:
        l = _eval_interval(e.left, point, bits)
        r = _eval_interval(e.right, point, bits)
        if l is NOT_REAL or r is NOT_REAL:
            return NOT_REAL
        if len(l) == len(r) == 2:
            a, b = l
            c, d = r
            if t is Mul:
                return a * c, b * d
            if t is Div:
                if not c:
                    raise EvalDomainError("division by zero")
                return (a * d, b * c) if c > 0 else (-a * d, -b * c)
            if t is Sub:
                c = -c
            if b == d:
                return a + c, b
            return a * d + c * b, b * d
        if len(l) == 2:
            l = l[0], l[0], l[1]
        if len(r) == 2:
            r = r[0], r[0], r[1]
        if t is Add:
            return _add(l, r)
        if t is Sub:
            return _add(l, (-r[1], -r[0], r[2]))
        if t is Mul:
            return _mul(l, r)
        rlo, rhi, rd = r
        if rlo <= 0 <= rhi:
            if rlo == rhi:
                raise EvalDomainError("division by zero")
            raise _NeedsPrecision("denominator interval straddles zero")
        # 1/r is [rd/rhi, rd/rlo], over the positive rlo*rhi
        return _mul(l, (rd * rlo, rd * rhi, rlo * rhi))
    if t is Root:
        inner = _eval_interval(e.radicand, point, bits)
        if inner is NOT_REAL:
            return NOT_REAL
        return _root_value(inner, e.index, bits)
    if t is Pow:
        raise ExprError("Pow nodes must be normalized away before evaluation")
    raise ExprError(f"unknown node {e!r}")


#: the working precision in bits: where every refinement ladder starts
PRECISION = 64

#: how many times the working precision may double before giving up
MAX_PRECISION_DOUBLINGS = 64


def precisions(bits: int):
    """The refinement schedule of every certified check: `bits`, then doubled
    each step, MAX_PRECISION_DOUBLINGS values in all (read at call time)."""
    for _ in range(MAX_PRECISION_DOUBLINGS):
        yield bits
        bits *= 2


def eval_numeric(
    e: Expr, point: Mapping[str, Fraction], precision: int | None = None
) -> NumericValue:
    """Evaluate at a rational point: a real enclosure or NOT_REAL.

    Each root is enclosed within 2^-(precision+1), PRECISION by default;
    ambiguous denominators and even-root radicands trigger refinement, and
    an exhausted budget raises EvalDomainError rather than guessing.
    """
    if precision is None:
        precision = PRECISION
    if precision < 1:
        raise ExprError("precision must be positive")
    for bits in precisions(precision + 1):
        try:
            value = _eval_interval(e, point, bits)
        except _NeedsPrecision:
            continue
        return NOT_REAL if value is NOT_REAL else _interval(value)
    raise EvalDomainError(
        "refinement budget exhausted: a denominator or even-root radicand is "
        "numerically indistinguishable from zero"
    )


# ---------------------------------------------------------------------------
# sample points and a priori degree bounds
# ---------------------------------------------------------------------------


class SamplingError(Exception):
    """Could not find real-valued sample points for a zero test."""


#: sample coordinates are n/d with n in [-20, 20] and d in [1, 8]
SAMPLE_NUMERATOR_RANGE = 20
SAMPLE_DENOMINATOR_MAX = 8

#: draws sample_real_point makes before giving up
_SAMPLE_TRIES = 400


def sample_real_point(f: Expr, rng: random.Random) -> dict[str, Fraction]:
    """A random rational point where `f` evaluates to a real interval."""
    names = sorted(variables_of(f))
    for _ in range(_SAMPLE_TRIES):
        point = {
            name: Fraction(
                rng.randint(-SAMPLE_NUMERATOR_RANGE, SAMPLE_NUMERATOR_RANGE),
                rng.randint(1, SAMPLE_DENOMINATOR_MAX),
            )
            for name in names
        }
        try:
            value = eval_numeric(f, point)
        except EvalDomainError:
            continue
        if value is not NOT_REAL:
            return point
    raise SamplingError(
        f"no real-valued sample point found for {to_text(f)!r} "
        f"after {_SAMPLE_TRIES} tries"
    )


@dataclass(frozen=True)
class DegreeBounds:
    """A priori degree bounds for the defining polynomial of an expression."""

    z_degree: int
    var_degrees: dict[str, int] = field(default_factory=dict)


def degree_bounds(f: Expr | str) -> DegreeBounds:
    """A priori degree bounds, mirroring how the defining polynomial's
    construction recurses: polynomial nodes are base cases, the four field
    operations multiply z-degrees and mix variable degrees, and an r-th root
    scales the z-degree by r while leaving variable degrees alone."""
    if isinstance(f, str):
        f = parse(f)
    return _bounds(normalize(f))


def _bounds(e: Expr) -> DegreeBounds:
    if is_polynomial(e):
        probe = VarRegistry(sorted(variables_of(e)))
        p = to_polynomial(e, probe)
        degs = {
            probe.name_of(v): p.degree_in(v) for v in sorted(p.vars_present())
        }
        return DegreeBounds(z_degree=1, var_degrees=degs)
    if isinstance(e, (Add, Sub, Mul, Div)):
        lb, rb = _bounds(e.left), _bounds(e.right)
        names = set(lb.var_degrees) | set(rb.var_degrees)
        mixed = {
            n: lb.var_degrees.get(n, 0) * rb.z_degree
            + lb.z_degree * rb.var_degrees.get(n, 0)
            for n in names
        }
        return DegreeBounds(z_degree=lb.z_degree * rb.z_degree, var_degrees=mixed)
    if isinstance(e, Root):
        gb = _bounds(e.radicand)
        return DegreeBounds(
            z_degree=e.index * gb.z_degree, var_degrees=dict(gb.var_degrees)
        )
    raise ExprError(f"cannot bound degrees for {e!r}")

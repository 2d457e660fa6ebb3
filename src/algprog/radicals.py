"""Radical expressions: syntax trees, parsing, normalization, interval values.

Expressions are built from rational constants, named variables, the four
field operations, rational powers, and explicit roots.  ``sqrt(e)`` is sugar
for ``root(2, e)``.  Normalization removes every ``Pow`` node: integer powers
unfold into products, ``g^(r/s)`` becomes ``root(s, g^r)``, and negative
exponents turn into divisions, so downstream code only ever sees
``Const/Var/Add/Sub/Mul/Div/Root``.

Numeric evaluation is exact: a subtree without roots is a rational, and
only roots (and the nodes they reach) are intervals with rational endpoints.
Roots are enclosed by binary-scaled integer root extraction, refined until
the enclosure is narrower than ``2^-precision``.  An even root of a provably
negative radicand yields the distinguished ``NOT_REAL`` value; division by an
exact zero raises ``EvalDomainError`` (a different thing entirely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .polycore import MultiPoly, VarId, VarRegistry

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


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Root]


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


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
    base = _parse_atom(sc)
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


def _parse_atom(sc: _Scanner) -> Expr:
    if sc.depth > MAX_NESTING:
        raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", sc.pos)
    sc.depth += 1
    e = _parse_primary(sc)
    sc.depth -= 1
    return e


def _parse_primary(sc: _Scanner) -> Expr:
    ch = sc.peek()
    if ch == "-":
        sc.take("-")
        inner = _parse_atom(sc)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Sub(Const(Fraction(0)), inner)
    if ch == "(":
        sc.take("(")
        e = _parse_sum(sc)
        sc.expect(")")
        return e
    if ch.isdigit():
        num = sc.integer()
        # a '/' here binds as term-level division, not a rational literal;
        # rational constants come from context like 3/4 where the parser's
        # Div(Const, Const) folds during normalization.
        return Const(Fraction(num))
    if ch.isalpha() or ch == "_":
        name = sc.ident()
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


def to_polynomial(
    e: Expr, registry: VarRegistry, allow_new: bool = True
) -> MultiPoly:
    """Convert a normalized, radical-free expression to a MultiPoly.

    Division is only allowed by nonzero constants.  Raises NotPolynomial when
    a Root (or non-constant denominator) is in the way.
    """
    if isinstance(e, Const):
        return MultiPoly.const(registry, e.value)
    if isinstance(e, Var):
        vid = registry.ensure(e.name) if allow_new else registry.id_of(e.name)
        return MultiPoly.var(registry, vid)
    if isinstance(e, Add):
        return to_polynomial(e.left, registry, allow_new) + to_polynomial(
            e.right, registry, allow_new
        )
    if isinstance(e, Sub):
        return to_polynomial(e.left, registry, allow_new) - to_polynomial(
            e.right, registry, allow_new
        )
    if isinstance(e, Mul):
        return to_polynomial(e.left, registry, allow_new) * to_polynomial(
            e.right, registry, allow_new
        )
    if isinstance(e, Div):
        den = to_polynomial(e.right, registry, allow_new)
        if not den.is_constant():
            raise NotPolynomial("non-constant denominator")
        c = den.constant_value()
        if c == 0:
            raise EvalDomainError("division by the zero constant")
        return to_polynomial(e.left, registry, allow_new) * (Fraction(1) / c)
    if isinstance(e, Root):
        raise NotPolynomial("expression contains a root")
    if isinstance(e, Pow):
        raise ExprError("Pow nodes must be normalized away first")
    raise ExprError(f"unknown node {e!r}")


def is_polynomial(e: Expr) -> bool:
    """True iff the normalized expression denotes a polynomial (roots absent,
    all denominators nonzero constants)."""
    probe = VarRegistry()
    try:
        to_polynomial(e, probe, allow_new=True)
        return True
    except NotPolynomial:
        return False


def polynomial_from_text(text: str, registry: VarRegistry) -> MultiPoly:
    """Parse canonical polynomial text back into a MultiPoly."""
    return to_polynomial(normalize(parse(text)), registry, allow_new=False)


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
    seen: list[Root] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Root):
            if node not in seen:
                seen.append(node)
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

    def __add__(self, other: Interval) -> Interval:
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: Interval) -> Interval:
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: Interval) -> Interval:
        a, b = (other, self) if other.lo == other.hi else (self, other)
        if a.lo == a.hi:
            # a point scales the other operand: two products ordered by its
            # sign give the same endpoints as all four
            c = a.lo
            if c >= 0:
                return Interval(b.lo * c, b.hi * c)
            return Interval(b.hi * c, b.lo * c)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    @classmethod
    def point(cls, c: Fraction) -> Interval:
        return cls(c, c)


def poly_enclosure(
    p: MultiPoly, point: Mapping[VarId, Fraction], box: Mapping[VarId, Interval]
) -> Interval:
    """Enclose p over `box` with every other variable fixed by `point`.

    Horner in each box variable, in ascending id order, with the
    coefficients enclosed recursively; a coefficient free of every box
    variable is evaluated exactly at `point` and enters as a point interval.
    By subdistributivity the enclosure is never wider than term-by-term
    interval evaluation, and exact quantities stay exact.  The nesting is
    `MultiPoly.split`, built once per polynomial and box variable set.
    """
    return _enclose(p.split(frozenset(box)), point, box)


def _enclose(node, point: Mapping[VarId, Fraction], box: Mapping[VarId, Interval]) -> Interval:
    if isinstance(node, MultiPoly):
        return Interval.point(node.eval(point))
    v, coeffs = node
    iv = box[v]
    top = max(coeffs)
    acc = _enclose(coeffs[top], point, box)
    for e in range(top - 1, -1, -1):
        acc = acc * iv
        if e in coeffs:
            acc = acc + _enclose(coeffs[e], point, box)
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

NumericValue = Union[Interval, _NotReal]


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


def rat_root_enclosure(a: Fraction, r: int, bits: int) -> Interval:
    """Enclose a^(1/r) for a >= 0 within 2^-bits; exact for perfect powers."""
    if a < 0:
        raise ExprError("rat_root_enclosure needs a non-negative radicand")
    if a == 0:
        return Interval.point(Fraction(0))
    rn, rd = _iroot(a.numerator, r), _iroot(a.denominator, r)
    if rn**r == a.numerator and rd**r == a.denominator:
        return Interval.point(Fraction(rn, rd))
    scale = 1 << (r * bits)
    lo_int = _iroot((a.numerator * scale) // a.denominator, r)
    hi_int = _iroot(-(-(a.numerator * scale) // a.denominator), r) + 1
    return Interval(Fraction(lo_int, 1 << bits), Fraction(hi_int, 1 << bits))


def _root_value(x: Fraction | Interval, r: int, bits: int) -> NumericValue:
    if type(x) is Fraction:
        if x >= 0:
            return rat_root_enclosure(x, r, bits)
        return NOT_REAL if r % 2 == 0 else -rat_root_enclosure(-x, r, bits)
    if r % 2 == 0:
        if x.hi < 0:
            return NOT_REAL
        if x.lo < 0:
            raise _NeedsPrecision("even root of an interval straddling zero")
        lo = rat_root_enclosure(x.lo, r, bits)
        hi = rat_root_enclosure(x.hi, r, bits)
        return Interval(lo.lo, hi.hi)
    # odd roots are monotone over all reals
    def one(a: Fraction) -> Interval:
        if a >= 0:
            return rat_root_enclosure(a, r, bits)
        return -rat_root_enclosure(-a, r, bits)

    return Interval(one(x.lo).lo, one(x.hi).hi)


def _as_interval(x: Fraction | Interval) -> Interval:
    return x if type(x) is Interval else Interval(x, x)


def _eval_interval(
    e: Expr, point: Mapping[str, Fraction], bits: int
) -> Fraction | NumericValue:
    # Exact first: a subtree without roots evaluates to a plain Fraction, and
    # becomes a point interval only where it meets an interval operand or a
    # root.  Arithmetic on point intervals is exact, so every enclosure is
    # the one evaluating each node as an interval gives.
    t = type(e)
    if t is Const:
        value = e.value
        return value if type(value) is Fraction else Fraction(value)
    if t is Var:
        if e.name not in point:
            raise ExprError(f"no value given for variable {e.name!r}")
        value = point[e.name]
        return value if type(value) is Fraction else Fraction(value)
    if t is Add or t is Sub or t is Mul or t is Div:
        l = _eval_interval(e.left, point, bits)
        r = _eval_interval(e.right, point, bits)
        if l is NOT_REAL or r is NOT_REAL:
            return NOT_REAL
        if type(l) is not type(r):
            l, r = _as_interval(l), _as_interval(r)
        if t is Add:
            return l + r
        if t is Sub:
            return l - r
        if t is Mul:
            return l * r
        if type(r) is Fraction:
            if not r:
                raise EvalDomainError("division by zero")
            return l / r
        if r.contains_zero():
            if r.lo == r.hi:
                raise EvalDomainError("division by zero")
            raise _NeedsPrecision("denominator interval straddles zero")
        inverses = (1 / r.lo, 1 / r.hi)
        return l * Interval(min(inverses), max(inverses))
    if t is Root:
        inner = _eval_interval(e.radicand, point, bits)
        if inner is NOT_REAL:
            return NOT_REAL
        return _root_value(inner, e.index, bits)
    if t is Pow:
        raise ExprError("Pow nodes must be normalized away before evaluation")
    raise ExprError(f"unknown node {e!r}")


#: how many times the working precision may double before giving up
MAX_PRECISION_DOUBLINGS = 64


def precisions(bits: int):
    """The refinement schedule of every certified check: `bits`, then doubled
    each step, MAX_PRECISION_DOUBLINGS values in all (read at call time)."""
    for _ in range(MAX_PRECISION_DOUBLINGS):
        yield bits
        bits *= 2


def eval_numeric(
    e: Expr, point: Mapping[str, Fraction], precision: int = 64
) -> NumericValue:
    """Evaluate at a rational point: a real enclosure or NOT_REAL.

    Each root is enclosed within 2^-(precision+1); ambiguous denominators and
    even-root radicands trigger automatic refinement, and exhausting the
    refinement budget raises EvalDomainError rather than guessing.
    """
    if precision < 1:
        raise ExprError("precision must be positive")
    for bits in precisions(precision + 1):
        try:
            value = _eval_interval(e, point, bits)
        except _NeedsPrecision:
            continue
        return NOT_REAL if value is NOT_REAL else _as_interval(value)
    raise EvalDomainError(
        "refinement budget exhausted: a denominator or even-root radicand is "
        "numerically indistinguishable from zero"
    )

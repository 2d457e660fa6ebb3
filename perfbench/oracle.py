"""Independent oracles for the benchmark.

Nothing here imports algprog.  Polynomials are plain dicts from monomials
(sorted tuples of (variable, exponent)) to Fractions, parsed from the text
the program prints; radical expressions are evaluated in floating point.
The expected outputs below are hand-written: the worked problems' displayed
children and baselines (README, acceptance criterion 4) and closed forms for
the two problem families the reformulate workload draws from.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict  # {((var, exp), ...): Fraction}

# -- hand-written expectations -------------------------------------------------

EXPECTED_CHILDREN = {
    "goldstein_price": [
        "z^4 - 2*y*z^2 - 2*x*z^2 + 4*z^2 + y^2 - 2*x*y + x^2 = 0",
        "z^2 - y - x + 2 >= 0",
        "z >= 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
    ],
    "rosenbrock": [
        "z^4 - 2*x^2*z^2 + x^4 - y^2 - 1 = 0",
        "z^2 - x^2 >= 0",
        "z >= 0",
    ],
}

EXPECTED_BASELINES = {
    "goldstein_price": [
        "u^2 - x + 1 = 0",
        "v^2 - y + 1 = 0",
        "x - 1 >= 0",
        "y - 1 >= 0",
        "u >= 0",
        "v >= 0",
    ],
    "rosenbrock": [
        "u^2 - x^2 - v = 0",
        "v^2 - y^2 - 1 = 0",
        "u >= 0",
        "v >= 0",
    ],
}

#: auxiliary variables: one per algebraic part here, one per radical in the
#: straightforward baseline (README, acceptance criterion 4)
EXPECTED_AUX = (1, 2)

#: sum family sqrt(x - a) + sqrt(y - b); with u = x - a, v = y - b the
#: defining polynomial is (z^2 - u - v)^2 - 4uv
SUM_FAMILY_CHILD = [
    "z^4 - 2*(x - {a} + y - {b})*z^2 + (x - {a} - y + {b})^2 = 0",
    "z^2 - (x - {a}) - (y - {b}) >= 0",
    "z >= 0",
    "x - {a} >= 0",
    "y - {b} >= 0",
]
SUM_FAMILY_BASELINE = [
    "u^2 - x + {a} = 0",
    "v^2 - y + {b} = 0",
    "x - {a} >= 0",
    "y - {b} >= 0",
    "u >= 0",
    "v >= 0",
]

#: nested family sqrt(c*x^2 + sqrt(y^2 + d)): (z^2 - c*x^2)^2 = y^2 + d
NESTED_FAMILY_CHILD = [
    "(z^2 - {c}*x^2)^2 - y^2 - {d} = 0",
    "z^2 - {c}*x^2 >= 0",
    "z >= 0",
]
NESTED_FAMILY_BASELINE = [
    "u^2 - {c}*x^2 - v = 0",
    "v^2 - y^2 - {d} = 0",
    "u >= 0",
    "v >= 0",
]

RELATIONS = ("!=", ">=", "<=", "=", ">", "<")

# -- expressions ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


class OracleError(ValueError):
    pass


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"cannot tokenize {text[pos:]!r}")
        num, name, sym = m.groups()
        out.append(("num", int(num)) if num else ("name", name) if name else ("sym", sym))
        pos = m.end()
    return out


class _Parser:
    """Grammar: sum of terms, * and /, unary minus, ^ with an integer or
    parenthesised rational exponent, numbers, variables, sqrt(e), root(n, e)."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self, sym=None):
        if self.i < len(self.toks):
            tok = self.toks[self.i]
            if sym is None or tok == ("sym", sym):
                return tok
        return None

    def take(self, sym):
        if self.peek(sym):
            self.i += 1
            return True
        return False

    def expect(self, sym):
        if not self.take(sym):
            raise OracleError(f"expected {sym!r} at token {self.i}")

    def parse(self):
        tree = self.sum()
        if self.i != len(self.toks):
            raise OracleError(f"trailing input at token {self.i}")
        return tree

    def sum(self):
        tree = self.term()
        while True:
            if self.take("+"):
                tree = ("add", tree, self.term())
            elif self.take("-"):
                tree = ("sub", tree, self.term())
            else:
                return tree

    def term(self):
        tree = self.unary()
        while True:
            if self.take("*"):
                tree = ("mul", tree, self.unary())
            elif self.take("/"):
                tree = ("div", tree, self.unary())
            else:
                return tree

    def unary(self):
        if self.take("-"):
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if not self.take("^"):
            return base
        if self.take("("):
            num = self.signed_int()
            den = 1
            if self.take("/"):
                den = self.signed_int()
            self.expect(")")
            return ("pow", base, Fraction(num, den))
        return ("pow", base, Fraction(self.signed_int()))

    def signed_int(self):
        sign = -1 if self.take("-") else 1
        tok = self.peek()
        if not tok or tok[0] != "num":
            raise OracleError("expected an integer exponent")
        self.i += 1
        return sign * tok[1]

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise OracleError("unexpected end of input")
        self.i += 1
        if tok[0] == "num":
            return ("num", Fraction(tok[1]))
        if tok[0] == "name":
            if tok[1] in ("sqrt", "root") and self.take("("):
                if tok[1] == "sqrt":
                    index, radicand = 2, self.sum()
                else:
                    index = self.signed_int()
                    self.expect(",")
                    radicand = self.sum()
                self.expect(")")
                return ("root", index, radicand)
            return ("var", tok[1])
        if tok == ("sym", "("):
            tree = self.sum()
            self.expect(")")
            return tree
        raise OracleError(f"unexpected {tok[1]!r}")


def parse_expr(text: str):
    return _Parser(text).parse()


# -- polynomial arithmetic --------------------------------------------------------


def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def padd(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        c = out.get(m, 0) + sign * c
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _mono_mul(ma, mb)
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _to_poly(tree) -> Poly:
    kind = tree[0]
    if kind == "num":
        return {(): tree[1]} if tree[1] else {}
    if kind == "var":
        return {((tree[1], 1),): Fraction(1)}
    if kind == "neg":
        return {m: -c for m, c in _to_poly(tree[1]).items()}
    if kind in ("add", "sub"):
        return padd(_to_poly(tree[1]), _to_poly(tree[2]), 1 if kind == "add" else -1)
    if kind == "mul":
        return pmul(_to_poly(tree[1]), _to_poly(tree[2]))
    if kind == "div":
        den = _to_poly(tree[2])
        if set(den) != {()}:
            raise OracleError("division by a non-constant")
        return {m: c / den[()] for m, c in _to_poly(tree[1]).items()}
    if kind == "pow":
        exp = tree[2]
        if exp.denominator != 1 or exp < 0:
            raise OracleError("polynomials need natural exponents")
        base, out = _to_poly(tree[1]), {(): Fraction(1)}
        for _ in range(int(exp)):
            out = pmul(out, base)
        return out
    raise OracleError(f"{kind} is not polynomial")


def poly(text: str) -> Poly:
    """Polynomial from text such as ``z^4 - 2*x^2*z^2 + x^4``."""
    return _to_poly(parse_expr(text))


def condition(text: str) -> tuple[Poly, str]:
    """``"<poly> <rel> 0"`` as (poly, rel)."""
    for rel in RELATIONS:
        head, sep, tail = text.rpartition(f" {rel} ")
        if sep and tail.strip() == "0":
            return poly(head), rel
    raise OracleError(f"not a condition: {text!r}")


def same_condition(got: tuple[Poly, str], want: tuple[Poly, str]) -> bool:
    """Equal up to a positive factor (any nonzero factor for = and !=)."""
    (p, rel), (q, rel_q) = got, want
    if rel != rel_q or set(p) != set(q) or not p:
        return False
    m = next(iter(q))
    ratio = p[m] / q[m]
    if ratio <= 0 and rel not in ("=", "!="):
        return False
    return all(p[k] == ratio * q[k] for k in q)


def conditions_match(got: list, want_texts: list[str], ordered: bool = True) -> bool:
    want = [condition(t) for t in want_texts]
    if len(got) != len(want):
        return False
    if ordered:
        return all(map(same_condition, got, want))
    unused = list(got)
    for w in want:
        hit = next((g for g in unused if same_condition(g, w)), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


# -- floating-point evaluation ------------------------------------------------------


def _real_root(value: float, index: int):
    if value >= 0:
        return value ** (1.0 / index)
    if index % 2:
        return -((-value) ** (1.0 / index))
    return None


def eval_float(tree, point: dict):
    """Value at a point, None where an even root of a negative number occurs;
    a zero denominator raises ZeroDivisionError."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "var":
        return float(point[tree[1]])
    if kind == "neg":
        v = eval_float(tree[1], point)
        return None if v is None else -v
    if kind == "root":
        v = eval_float(tree[2], point)
        return None if v is None else _real_root(v, tree[1])
    if kind == "pow":
        v = eval_float(tree[1], point)
        if v is None:
            return None
        exp = tree[2]
        if exp.denominator == 1:
            return v ** int(exp)
        r = _real_root(v, exp.denominator)
        return None if r is None else r ** exp.numerator
    a, b = eval_float(tree[1], point), eval_float(tree[2], point)
    if a is None or b is None:
        return None
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if b == 0:
        raise ZeroDivisionError("zero denominator")
    return a / b


def eval_poly(p: Poly, point: dict) -> tuple[float, float]:
    """(value, sum of |term|) at a point, for relative tolerances."""
    total = scale = 0.0
    for m, c in p.items():
        t = float(c)
        for v, e in m:
            t *= point[v] ** e
        total += t
        scale += abs(t)
    return total, scale


def vanishes(p: Poly, point: dict, rel_tol: float = 1e-7) -> bool:
    value, scale = eval_poly(p, point)
    return abs(value) <= rel_tol * max(scale, 1.0)


def holds(p: Poly, rel: str, point: dict, rel_tol: float = 1e-7):
    """True/False, or None when the value is too close to 0 to tell."""
    value, scale = eval_poly(p, point)
    if abs(value) <= rel_tol * max(scale, 1.0):
        return True if rel in (">=", "<=", "=") else None
    return {
        ">": value > 0, "<": value < 0, ">=": value > 0, "<=": value < 0,
        "=": False, "!=": True,
    }[rel]


# -- emitted formats -------------------------------------------------------------------

_HUMAN_CONSTRAINT = re.compile(r"^    (.+?) (!=|>=|<=|=|>|<) 0\s+\(.*\)$")
_HUMAN_OBJECTIVE = re.compile(r"^  (?:minimize|maximize)  (.+)$")
_SMT_OBJECTIVE = re.compile(r"^; objective \(\w+, not encoded\): (.+)$")


def _sexpr(text: str):
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list = [[]]
    for tok in toks:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise OracleError("unbalanced s-expression")
    return stack[0]


def _smt_poly(node) -> Poly:
    if isinstance(node, str):
        if node.isdigit():
            return {(): Fraction(int(node))} if int(node) else {}
        return {((node, 1),): Fraction(1)}
    op, args = node[0], [_smt_poly(a) for a in node[1:]]
    if op == "+":
        out: Poly = {}
        for a in args:
            out = padd(out, a)
        return out
    if op == "*":
        out = {(): Fraction(1)}
        for a in args:
            out = pmul(out, a)
        return out
    if op == "-":
        if len(args) == 1:
            return {m: -c for m, c in args[0].items()}
        out = args[0]
        for a in args[1:]:
            out = padd(out, a, -1)
        return out
    if op == "/" and len(args) == 2 and set(args[1]) == {()}:
        return {m: c / args[1][()] for m, c in args[0].items()}
    raise OracleError(f"unsupported SMT operator {op!r}")


def _smt_assertion(node) -> tuple[Poly, str]:
    rel, body = node[0], node[1:]
    if rel == "not" and body[0][0] == "=":
        p, _ = _smt_assertion(body[0])
        return p, "!="
    if rel not in RELATIONS or len(body) != 2 or body[1] != "0":
        raise OracleError(f"unexpected assertion {node!r}")
    return _smt_poly(body[0]), rel


def parse_output(text: str, fmt: str) -> list[dict]:
    """Programs in an emitted document: [{"objective": Poly, "constraints":
    [(Poly, rel), ...]}, ...] in output order."""
    programs: list[dict] = []
    if fmt == "json":
        import json

        obj = json.loads(text)
        records = obj["children"] if "children" in obj else [obj]
        for rec in records:
            programs.append({
                "objective": poly(rec["objective"]["poly"]),
                "constraints": [(poly(c["poly"]), c["rel"]) for c in rec["constraints"]],
            })
        return programs
    if fmt == "human":
        for line in text.splitlines():
            m = _HUMAN_OBJECTIVE.match(line)
            if m:
                programs.append({"objective": poly(m.group(1)), "constraints": []})
                continue
            m = _HUMAN_CONSTRAINT.match(line)
            if m and programs:
                programs[-1]["constraints"].append((poly(m.group(1)), m.group(2)))
        return programs
    if fmt == "smtlib":
        for line in text.splitlines():
            m = _SMT_OBJECTIVE.match(line)
            if m:
                programs.append({"objective": poly(m.group(1)), "constraints": []})
            elif line.startswith("(assert ") and programs:
                node = _sexpr(line)[0]
                programs[-1]["constraints"].append(_smt_assertion(node[1]))
        return programs
    raise OracleError(f"unknown format {fmt!r}")


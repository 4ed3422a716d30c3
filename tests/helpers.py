"""Seeded generators, numeric oracles and the references shared across
the test modules: the determinant expansion, the term-by-term product of
constants and sums, and the reference parser.

Everything takes an explicit random.Random so each test pins its seed; no
global RNG state is touched.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Callable, Iterable

from exformal.errors import DomainError, ExprSyntaxError, UnknownSymbolError
from exformal.symbolic import (
    BUILTIN_FUNCTIONS,
    Add,
    Chart,
    Expr,
    Func,
    ONE,
    Rat,
    Sym,
    ZERO,
    add,
    eval_at,
    func,
    interpretation_table,
    mul,
    pow_,
    simplify,
    sub,
    _children,
)
from exformal.exterior import Form, SubmanifoldMap
from exformal.geometry import Metric
from exformal.connection import Connection

CHARTS = {
    2: Chart(("x", "y")),
    3: Chart(("x", "y", "z")),
    4: Chart(("t", "x", "y", "z")),
}


def rand_rational(rng: random.Random) -> Rat:
    num = rng.randint(-4, 4)
    den = rng.choice((1, 1, 1, 2, 3))
    if num == 0:
        num = 1
    return Rat(Fraction(num, den))


def rand_monomial(rng: random.Random, names, max_deg=2) -> Expr:
    factors = [rand_rational(rng)]
    for n in names:
        d = rng.randint(0, max_deg)
        if d:
            factors.append(pow_(Sym(n), d))
    return mul(*factors)


def rand_poly(rng: random.Random, names, terms=3, max_deg=2) -> Expr:
    return add(*(rand_monomial(rng, names, max_deg)
                 for _ in range(rng.randint(1, terms))))


def rand_trig_poly(rng: random.Random, names, terms=3) -> Expr:
    """Polynomial plus at most one sin/cos factor per term."""
    parts = []
    for _ in range(rng.randint(1, terms)):
        t = rand_monomial(rng, names, max_deg=1)
        if rng.random() < 0.5:
            t = mul(t, func(rng.choice(("sin", "cos")),
                            Sym(rng.choice(names))))
        parts.append(t)
    return add(*parts)


def rand_expr(rng: random.Random, names) -> Expr:
    return rand_trig_poly(rng, names) if rng.random() < 0.5 else rand_poly(
        rng, names
    )


def rand_form(rng: random.Random, chart: Chart, degree: int,
              component_gen=rand_expr) -> Form:
    from itertools import combinations

    comps = {}
    for idx in combinations(range(chart.dim), degree):
        if rng.random() < 0.75:
            comps[idx] = component_gen(rng, chart.names)
    return Form(chart, degree, comps)


def rand_diag_metric(rng: random.Random, chart: Chart) -> Metric:
    """Diagonal metric with positive nonvanishing entries like 2 + x^2."""
    n = chart.dim
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        c = Rat(rng.randint(1, 3))
        entry = add(c, pow_(Sym(chart.names[rng.randrange(n)]), 2))
        rows[i][i] = entry
    return Metric(chart, rows, det_sign=1)


def rand_connection(rng: random.Random, chart: Chart, density=0.3,
                    symmetric=False) -> Connection:
    n = chart.dim
    gamma = [[[ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for s in range(n):
        for a in range(n):
            for b in range(a if symmetric else 0, n):
                if rng.random() < density:
                    e = rand_poly(rng, chart.names, terms=2, max_deg=1)
                    gamma[s][a][b] = e
                    if symmetric:
                        gamma[s][b][a] = e
    return Connection(chart, gamma)


def rand_poly_map(rng: random.Random, source: Chart, target: Chart
                  ) -> SubmanifoldMap:
    exprs = tuple(
        rand_poly(rng, source.names, terms=2, max_deg=2)
        for _ in range(target.dim)
    )
    return SubmanifoldMap(source, target, exprs)


def off_domain_constants(obj) -> list:
    """The constants in `obj` (an expression, or a nested tuple/list of
    them) whose value is neither an int nor a Fraction with denominator
    above 1: an integral constant is always a Python int."""
    stack, out = [obj], []
    while stack:
        n = stack.pop()
        if isinstance(n, (tuple, list)):
            stack.extend(n)
        elif isinstance(n, Rat):
            v = n.value
            if not (type(v) is int or (type(v) is Fraction and v.denominator > 1)):
                out.append(v)
        else:
            stack.extend(_children(n))
    return out


def submatrix(m, i: int, j: int):
    """m without row i and column j."""
    return tuple(
        tuple(e for cj, e in enumerate(row) if cj != j)
        for ci, row in enumerate(m)
        if ci != i
    )


def laplace(m):
    """det m by first-row expansion of explicit submatrices, every minor
    built afresh: the tree the minor table must give for each minor."""
    if len(m) == 1:
        return m[0][0]
    parts = [mul(Rat(-1 if j % 2 else 1), m[0][j], laplace(submatrix(m, 0, j)))
             for j in range(len(m)) if m[0][j] != ZERO]
    return simplify(add(*parts))


def numeric_env(rng: random.Random, names, lo=-1.5, hi=1.5):
    return {n: rng.uniform(lo, hi) for n in names}


def eval_with_interp(e: Expr, env) -> float:
    """eval_at with opaque functions bound to their seed-0 interpretations."""
    return eval_at(e, env, interpretation_table(e))


def form_components_close(a: Form, b: Form, rng: random.Random,
                          points=5, tol=1e-8) -> bool:
    """Numeric componentwise comparison at random sample points."""
    if a.chart != b.chart or a.degree != b.degree:
        return False
    keys = set(a.components) | set(b.components)
    names = a.chart.names
    for _ in range(points):
        env = numeric_env(rng, names)
        for k in keys:
            va = eval_with_interp(a.get(k), env)
            vb = eval_with_interp(b.get(k), env)
            if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
                return False
    return True


def termwise_product(first: Expr, *sums: Expr) -> Expr:
    """`first` times each sum, distributed by a `mul` of every pair of
    terms and one `add` per sum: the product the kernel's shortcuts for a
    constant times a sum must give."""
    terms = [first]
    for s in sums:
        out = add(*(mul(t, u) for t in terms for u in s.terms))
        terms = out.terms if isinstance(out, Add) else [out]
    return add(*terms)


# ---------------------------------------------------------------------------
# Reference parser for `test_parse_reference`.  It adds a sum one operand
# at a time, multiplies every factor of a term through `pow_` and `mul`,
# constants included, and reads the text through `_Token` objects.  The
# engine's parser, which builds each sum by one `add` and folds a term's
# constants first, must give the same tree, or the same error with the
# same message and position.
# ---------------------------------------------------------------------------


def _factor(base: Expr, exp: int) -> tuple[Expr, int]:
    """The factor base^exp of a term, refused as soon as a zero base takes
    a negative exponent."""
    if exp < 0 and base == ZERO:
        raise DomainError("0 raised to a negative power")
    return base, exp


def _product(factors: list[tuple[Expr, int]]) -> Expr:
    """A term's factors multiplied out in one `mul`."""
    if len(factors) == 1:
        return pow_(*factors[0])
    return mul(*[pow_(b, k) for b, k in factors])


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*'*)|(?P<op>[-+*/^()]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", at,
                expected=("number", "identifier", "operator"),
            )
        if m.group("num") is not None:
            out.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            out.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, chart: Chart, params: Iterable[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.coords = set(chart.names)
        self.params = set(params)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {expected[0]}, found {tok.text or 'end of input'}",
                tok.pos,
                expected=expected,
            )
        return self.take()

    def parse(self) -> Expr:
        try:
            e = _product(self.expr())
        except RecursionError:  # each nesting level is a few parser frames
            raise ExprSyntaxError("expression nested too deeply",
                                  self.peek().pos) from None
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.pos,
                expected=("'+'", "'-'", "'*'", "'/'", "end of input"),
            )
        return e

    def expr(self) -> list[tuple[Expr, int]]:
        """The next sum; a single term comes back as its factors."""
        factors = self.term()
        while self.peek().kind in ("+", "-"):
            e = _product(factors)
            op = self.take()
            rhs = _product(self.term())
            factors = [(add(e, rhs) if op.kind == "+" else sub(e, rhs), 1)]
        return factors

    def term(self) -> list[tuple[Expr, int]]:
        factors = self.factor()
        while self.peek().kind in ("*", "/"):
            if self.take().kind == "*":
                factors += self.factor()
            else:
                factors += [_factor(b, -k) for b, k in self.factor()]
        return factors

    def factor(self) -> list[tuple[Expr, int]]:
        if self.peek().kind == "-":
            self.take()
            return [(Rat(-1), 1)] + self.factor()
        factors = self.atom()
        if self.peek().kind != "^":
            return factors
        self.take()
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.expect("num", ("integer exponent",))
        if "." in tok.text:
            raise ExprSyntaxError(
                "exponent must be an integer", tok.pos,
                expected=("integer exponent",),
            )
        return [_factor(_product(factors), sign * self.number(tok, int))]

    @staticmethod
    def number(tok: _Token, convert: Callable[[str], object]):
        try:
            return convert(tok.text)
        except ValueError:  # past the interpreter's integer string limit
            raise ExprSyntaxError("number has too many digits", tok.pos) from None

    def atom(self) -> list[tuple[Expr, int]]:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            value = self.number(tok, Fraction if "." in tok.text else int)
            return [(ZERO if value == 0 else ONE if value == 1 else Rat(value), 1)]
        if tok.kind == "(":
            self.take()
            factors = self.expr()
            self.expect(")", ("')'",))
            return factors
        if tok.kind == "ident":
            self.take()
            name = tok.text.rstrip("'")
            order = len(tok.text) - len(name)
            if self.peek().kind == "(":
                self.take()
                arg = _product(self.expr())
                self.expect(")", ("')'",))
                if name in BUILTIN_FUNCTIONS:
                    if order:
                        raise ExprSyntaxError(
                            f"primes are not allowed on built-in {name}",
                            tok.pos,
                            expected=("opaque function name",),
                        )
                    return [(func(name, arg), 1)]
                return [(Func(name, arg, order), 1)]
            if order:
                raise ExprSyntaxError(
                    f"derivative {tok.text} must be applied to an argument",
                    tok.pos,
                    expected=("'('",),
                )
            if name in self.coords or name in self.params:
                return [(Sym(name), 1)]
            raise UnknownSymbolError(name, tok.pos)
        raise ExprSyntaxError(
            f"expected an operand, found {tok.text or 'end of input'}",
            tok.pos,
            expected=("number", "identifier", "'('", "'-'"),
        )


def reference_parse_expr(text: str, chart: Chart,
                         params: Iterable[str] = ()) -> Expr:
    """Parse `text` against a chart and parameter list, as the reference
    parser does.

    Bare identifiers must be chart coordinates or declared parameters;
    non-built-in identifiers applied with call syntax become opaque
    function symbols.
    """
    return _Parser(text, chart, params).parse()

"""Exact symbolic scalar expressions.

Everything downstream (forms, metrics, connections, transforms) computes
over the expression trees defined here.  Design points:

* constants are exact rationals, each held as its numerator and
  denominator in lowest terms (see `Rat`); every exact computation (the
  constructors, the parser, the printers, the rational normal form) runs
  on ints, reduced by one helper, `_reduced`, and a `fractions.Fraction`
  is left only where a constant enters or leaves (see `Rat`); floating
  point enters only in numeric evaluation (`eval_at` and the one sampler,
  `_sample_values`), which computes each distinct subexpression once per point;
* trees are immutable and built through canonicalizing constructors, so
  `simplify` is idempotent by construction; it keeps its result on the
  node it simplified, so no tree is simplified twice, and `diff` keeps
  each derivative on the node under the symbol's name, so no tree is
  differentiated twice by one symbol;
* zero-testing is tri-state (`ZERO` / `NONZERO` / `UNKNOWN`): symbolic
  first, then the values of one sampler (`_sample_values`, which a metric's
  det-sign check shares), with fixed point count, box and tolerance; the
  seed is its only setting; every set of residuals becomes a verdict in
  one function, `_check_residuals`, which folds their zero tests by
  `_fold_verdicts` and returns the zero test of each that is not ZERO;
* a function call is one node, `Func`, whose name decides what it is: a
  built-in such as sin(x), or an unspecified profile like a(t) or f(z - t)
  with formal derivatives a', a'', ...

The rewrite set applied by the constructors is deliberately bounded:
rational folding, flatten/sort of commutative operands under a fixed total
order, like-term and like-factor collection, integer-power rules,
distribution of products over sums (expanded normal form), and special
values at 0/1 for the built-in functions.  Nothing else.  A product of
sums, a positive power of a sum included, is expanded only within
`_EXPANSION_BUDGET` term products; past it `mul` and `pow_` raise an
ExformalError, as `pow_` does for a power of a constant past `_POWER_BITS`.

`simplify` takes a tree through those constructors: a node whose children
all simplify to themselves is kept as it is, and only a node with a
changed child is rebuilt from the new children.  The exception is a tree
with a sum raised to a negative power or with any power of cos(u) as a
factor, which it puts in a rational normal form: one expanded numerator over a
factored denominator s*prod b_i^k_i.  The numerator is a Laurent polynomial
with integer coefficients in kernels (symbols, and built-in or opaque function
calls with a simplified argument) and s is a positive int; each base b_i has no
monomial content, coprime integer coefficients and a positive leading
coefficient, so 1/(1 - 2*m/r) becomes r/(r - 2*m).  Sums go over the LCM of
their denominators; after each step the numerator is reduced modulo
sin(u)^2 + cos(u)^2 - 1 (cos(u)^(2j+i) -> cos(u)^i*(1 - sin(u)^2)^j) and
divided exactly by each base it is a multiple of, so removable
singularities such as (r^2 - 4*m^2)/(r - 2*m) cancel.  No polynomial GCD
is taken, and the expansions are capped (`_EXPANSION_BUDGET`): a tree
past the cap, such as 1 + (x + 1)^-1200, keeps the form the constructors
gave it.  Every other tree is already in this form with an empty
denominator, which is why the path can be chosen from the input alone.

Work whose result is known in advance is skipped, and the trees stay the
same.  No base divides a single term (it has two terms or more and no
monomial content), so a division is tried only on a numerator of two
terms or more.  A term that is already its own normal form, a constant
times kernel powers over normal bases (`_normal_term`), is returned
unconverted: converting it would find nothing to cancel and rebuild it.
The constructors do not rebuild a tree they already hold in canonical
form.  A constant times a sum gives each term the product of the two
coefficients (`_with_coefficient`) instead of a `mul` per term, and the
sum of those terms only needs sorting: the terms of a canonical sum have
distinct monomials, and so do their multiples by one term.  1 times a
sum is the sum itself.  `mul`, like `add`, keeps each factor it does not
merge as the object it was given.  The product rule in `diff` takes the
derivative of a factor that is the symbol itself to be the other factors
as they stand, since a canonical product with one factor removed is
canonical.  `substitute`, like `simplify`, returns a node
whose children all come back as the same objects as it is, since the
constructors would give it back from them.  Printing reads a term's sign
off its coefficient and builds no node, and the parser builds a sum by
one `add` and folds a term's constants before its one `mul`; an `add` or
`mul` of the same operands in any grouping is the same canonical tree.

Kernels are treated as independent variables, apart from the sin/cos link.
That can miss a zero (exp(x)*exp(-x) - 1 stays as it is) but never invent
one: the division and the trigonometric reduction are exact, so a symbolic
0 is a proof.
"""

from __future__ import annotations

import math
import operator
import random
import re
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainError,
    ExformalError,
    ExprSyntaxError,
    UnboundSymbolError,
    UnknownSymbolError,
)

__all__ = [
    "Chart",
    "Expr",
    "Rat",
    "Sym",
    "Func",
    "Pow",
    "Mul",
    "Add",
    "ZERO",
    "ONE",
    "rational",
    "add",
    "mul",
    "pow_",
    "neg",
    "sub",
    "div",
    "func",
    "opaque",
    "diff",
    "simplify",
    "substitute",
    "substitute_function",
    "free_symbols",
    "to_text",
    "parse_expr",
    "eval_at",
    "fn_key",
    "ZeroVerdict",
    "Verdict",
    "is_zero",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

BUILTIN_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")


def _check_names(names: tuple[str, ...], what: str) -> None:
    """Refuse a name that is not an identifier, or that repeats one before
    it, with a ValueError that calls it a `what` name."""
    seen = set()
    for n in names:
        if not _IDENT_RE.match(n):
            raise ValueError(f"{what} name {n!r} is not a valid identifier")
        if n in seen:
            raise ValueError(f"duplicate {what} name {n!r}")
        seen.add(n)


class Chart:
    """An ordered tuple of coordinate names, e.g. (t, x, y, z).  Immutable;
    two charts are equal when their names are."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("chart needs at least one coordinate")
        _check_names(names, "coordinate")
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Chart is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Chart is immutable")

    def __eq__(self, other):
        if type(other) is not Chart:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Chart(names={self.names!r})"

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------
#
# Canonical ("expanded normal") form maintained by the constructors:
#   Add   - >= 2 terms, sorted, no nested Add, like terms merged, at most
#           one rational term;
#   Mul   - >= 2 factors, sorted, no nested Mul, at most one leading
#           rational coefficient, no repeated bases, no Add factor except
#           inside a negative-exponent Pow;
#   Pow   - integer exponent not in {0, 1}; base is an atom or an Add with
#           a negative exponent (positive powers of sums are expanded);
#   atoms - Rat, Sym, Func (a built-in or a profile, after its name).
#
# Every node carries a structural `key` tuple that induces the fixed total
# order used for sorting and doubles as the equality/hash witness.


class Expr:
    # `_simple` is the memo of `simplify`: None until the node is simplified,
    # then its simplified tree, or True when the node is that tree itself (a
    # flag rather than a self-reference, so that reference counting still
    # frees a tree).  `_diff` is the memo of `diff`: None until the node is
    # differentiated, then a dict from symbol name to derivative (never the
    # node itself, so it makes no cycle either).  Rat and Sym never read or
    # set them.
    __slots__ = ("key", "_h", "_simple", "_diff")

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self.key == other.key)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"<Expr {to_text(self)}>"


class Rat(Expr):
    """Exact rational constant, held as the two ints of its `key`
    (0, num, den): numerator and denominator in lowest terms, den > 0.  The
    engine computes on those ints (`_reduced`), so building, simplifying,
    evaluating or printing a tree makes no `Fraction`.  One is left only
    where a constant enters or leaves: `Rat(value)` checks its input
    through `_exact`, the parser reads a decimal literal as one, and `value`
    is the constant as an `int` when it is integral and as a `Fraction`
    otherwise, made from the pair when asked.  Floats are refused, since
    `Fraction(0.1)` is not 1/10, and a string with a zero denominator is a
    DomainError."""

    __slots__ = ()

    def __init__(self, value):
        if type(value) is not int:
            value = _exact(value)
        self.key = key = (0, value.numerator, value.denominator)
        self._h = hash(key)

    @property
    def value(self) -> int | Fraction:
        _, n, d = self.key
        return n if d == 1 else Fraction(n, d)


def _rat(n: int, d: int) -> Rat:
    """The Rat n/d, made without checks from a pair in lowest terms with
    d > 0."""
    r = object.__new__(Rat)
    r.key = key = (0, n, d)
    r._h = hash(key)
    return r


def _reduced(n: int, d: int) -> Rat:
    """The Rat n/d for d > 0: the one place where a constant's pair is
    brought to lowest terms."""
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return _rat(n, d)


def _exact(value) -> int | Fraction:
    """`value` as an exact constant: an int when integral, else a Fraction."""
    if not isinstance(value, Fraction):
        if isinstance(value, float):
            raise TypeError(f"a float is not an exact constant: {value!r}")
        try:
            value = Fraction(value)
        except ZeroDivisionError:  # a string such as "1/0"
            raise DomainError(f"constant {value!r} has a zero denominator") from None
    return value.numerator if value.denominator == 1 else value


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.key = (1, name)
        self._h = hash(self.key)


class Func(Expr):
    """Unary function call: a built-in when `name` is in BUILTIN_FUNCTIONS,
    else an unspecified profile such as a(t) (`opaque`), whose `order`
    counts the primes of its formal derivative.  Build one through `func`
    or `opaque`, which check it."""

    __slots__ = ("name", "arg", "order", "opaque")

    def __init__(self, name: str, arg: Expr, order: int = 0):
        self.name = name
        self.arg = arg
        self.order = order
        self.opaque = name not in BUILTIN_FUNCTIONS
        if self.opaque:
            self.key = (3, name, order, arg.key)
        elif order:
            raise ValueError(f"built-in {name} has no formal derivatives")
        else:
            self.key = (2, name, arg.key)
        self._h = hash(self.key)
        self._simple = None
        self._diff = None


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self.key = (4, base.key, exp)
        self._h = hash(self.key)
        self._simple = None
        self._diff = None


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self.key = (5, tuple([f.key for f in factors]))
        self._h = hash(self.key)
        self._simple = None
        self._diff = None


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self.key = (6, tuple([t.key for t in terms]))
        self._h = hash(self.key)
        self._simple = None
        self._diff = None


ZERO = Rat(0)
ONE = Rat(1)
_MINUS_ONE = Rat(-1)

_by_key = operator.attrgetter("key")


# ---------------------------------------------------------------------------
# Canonicalizing constructors
# ---------------------------------------------------------------------------


def rational(value) -> Rat:
    """Exact rational constant; accepts int, Fraction, or numeric string,
    not float."""
    return Rat(value)


def _coefficient_rat(term: Expr) -> Rat:
    """The rational coefficient of a (non-Add) canonical term, as a Rat."""
    if type(term) is Rat:
        return term
    if type(term) is Mul and type(term.factors[0]) is Rat:
        return term.factors[0]
    return ONE


def _with_coefficient(c: Rat, term: Expr) -> Expr:
    """The (non-Add) canonical term with its rational coefficient replaced
    by the nonzero constant `c`, built from the term's own factors without
    a throwaway node; the term itself when `c` and its coefficient are 1."""
    t = type(term)
    if t is Rat:
        return c
    one = c.key == ONE.key
    if t is not Mul:
        return term if one else Mul((c, term))
    fs = term.factors
    if type(fs[0]) is not Rat:
        return term if one else Mul((c,) + fs)
    if not one:
        return Mul((c,) + fs[1:])
    return fs[1] if len(fs) == 2 else Mul(fs[1:])


def add(*args: Expr) -> Expr:
    """Canonical sum: flatten, fold rationals, merge like terms, sort.

    Like terms are keyed by the key of their monomial, read off the term's
    own key, and a term that meets no like term is kept as it is; only a
    merged one is rebuilt.  An argument that is the shared ZERO is dropped
    first: with none left the sum is ZERO, and with one left that is
    neither a sum nor a Rat it is that term, as it is.
    """
    stack = [a for a in args if a is not ZERO]
    if len(stack) < 2:
        if not stack:
            return ZERO
        if type(stack[0]) not in (Add, Rat):
            return stack[0]
    # Coefficients are summed as (numerator, denominator) pairs over the
    # product of the denominators, unless they are equal, and reduced once.
    rat = None  # the one Rat term, as it is, while there is only one
    rat_num, rat_den = None, 1  # the sum of the Rat terms; None until one
    by_mono: dict[tuple, list] = {}  # monomial key -> [num, den, term, merged]
    while stack:
        a = stack.pop()
        t = type(a)
        if t is Add:
            stack.extend(a.terms)
            continue
        if t is Rat:
            _, n, d = a.key
            if rat_num is None:
                rat, rat_num, rat_den = a, n, d
            elif d == rat_den:
                rat, rat_num = None, rat_num + n
            else:
                rat, rat_num, rat_den = None, rat_num * d + n * rat_den, rat_den * d
            continue
        if t is Mul and type(a.factors[0]) is Rat:
            factor_keys = a.key[1]
            _, n, d = factor_keys[0]
            rest = factor_keys[1:]  # the keys of the factors after the coefficient
            mono_key = rest[0] if len(rest) == 1 else (5, rest)
        else:
            n = d = 1
            mono_key = a.key
        slot = by_mono.get(mono_key)
        if slot is None:
            by_mono[mono_key] = [n, d, a, False]
        else:
            sd = slot[1]
            if d == sd:
                slot[0] += n
            else:
                slot[0], slot[1] = slot[0] * d + n * sd, sd * d
            slot[3] = True
    terms = [_with_coefficient(_reduced(n, d), term) if merged else term
             for n, d, term, merged in by_mono.values() if n]
    if rat_num:
        terms.append(rat or _reduced(rat_num, rat_den))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_by_key)
    return Add(tuple(terms))


def _as_base_exp(f: Expr) -> tuple[Expr, int]:
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, 1


def mul(*args: Expr) -> Expr:
    """Canonical product: flatten, fold coefficient, merge exponents of
    equal bases, distribute over sums, sort; ZERO at the first zero factor.
    A factor whose base meets no equal base is kept as it is; only a
    merged one is rebuilt.

    The sum factors are distributed by `_expand`, which raises an
    ExformalError past `_EXPANSION_BUDGET` term products, so a short input
    such as (x + 1)^5000 is refused instead of stalling.
    """
    coeff = None  # the one Rat factor, as it is, while there is only one
    num, den = 0, 1  # the product of the Rat factors; 0 until there is one
    bases: dict[tuple, list] = {}
    stack = list(args)
    while stack:
        a = stack.pop()
        t = type(a)
        if t is Mul:
            stack.extend(a.factors)
            continue
        if t is Rat:
            _, n, d = a.key
            if not n:
                return ZERO
            if not num:
                coeff, num, den = a, n, d
            else:
                coeff, num, den = None, num * n, den * d
            continue
        if t is Pow:
            b, e = a.base, a.exp
        else:
            b, e = a, 1
        slot = bases.get(b.key)
        if slot is None:
            bases[b.key] = [b, e, a]
        else:
            slot[1] += e
            slot[2] = None  # merged: the factor is rebuilt from b and e
    if not num:
        coeff, num = ONE, 1

    # each base is an atom or a sum (a Mul is flattened, a Pow unwrapped),
    # so a power other than 1 is a Pow node unless it is a sum to expand; a
    # base seen once keeps the factor it came in as
    factors: list[Expr] = []
    expand: list[tuple[Add, int]] = []  # Add factors to distribute, with powers
    for b, e, a in bases.values():
        if e > 0 and type(b) is Add:
            expand.append((b, e))
        elif a is not None:
            factors.append(a)
        elif e == 1:
            factors.append(b)
        elif e:
            factors.append(Pow(b, e))

    if factors:
        factors.sort(key=_by_key)
        if num != den:  # the product is not 1 (den > 0)
            factors.insert(0, coeff or _reduced(num, den))
        first = factors[0] if len(factors) == 1 else Mul(tuple(factors))
    else:
        first = coeff or _reduced(num, den)
    return _expand(first, expand) if expand else first


def _expand(first: Expr, sums: list[tuple[Add, int]]) -> Expr:
    """The term `first` times each sum to its positive power, distributed
    one sum factor at a time with like terms merged before the next; the
    term products are charged against `_EXPANSION_BUDGET`.

    While the running product is one constant it scales the next sum's
    terms, each given the product of the two coefficients without a `mul`;
    a constant of 1 takes them as they are, and 1 times a single sum is
    that sum.  A product of one term and a sum has no like terms, so its
    terms are sorted into the sum without going through `add`."""
    terms = [first]
    merged = True  # no two of `terms` are like terms
    spent = 0
    for a, k in sums:
        for _ in range(k):
            if not merged:
                out = add(*terms)
                terms = out.terms if isinstance(out, Add) else [out]
            spent += len(terms) * len(a.terms)
            if spent > _EXPANSION_BUDGET:
                what = (f"a sum of {len(a.terms)} terms to the power {k}"
                        if len(sums) == 1
                        else f"a product of {sum(n for _, n in sums)} sums")
                raise ExformalError(f"expanding {what} takes more than "
                                    f"{_EXPANSION_BUDGET} term products")
            merged = len(terms) == 1  # one term times a sum has no like terms
            c = terms[0].key if merged and type(terms[0]) is Rat else None
            if c == ONE.key:
                terms = a.terms
            elif c is not None:
                _, cn, cd = c
                scaled = []
                for u in a.terms:
                    _, n, d = _coefficient_rat(u).key
                    scaled.append(_with_coefficient(_reduced(cn * n, cd * d), u))
                terms = scaled
            else:
                terms = [mul(t, u) for t in terms for u in a.terms]
    if terms is a.terms:
        return a
    if merged:
        return Add(tuple(sorted(terms, key=_by_key)))
    return add(*terms)


def pow_(base: Expr, exp: int) -> Expr:
    """Integer power with folding, merging, and expansion of sum bases; a
    positive power of a sum is expanded by `_expand`, within its budget, and
    a power of a constant is folded within `_POWER_BITS`."""
    if not isinstance(exp, int):
        raise TypeError("exponents must be Python ints")
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Rat):
        _, n, d = base.key
        if n == 0 and exp < 0:
            raise DomainError("0 raised to a negative power")
        bits = max(n.bit_length(), d.bit_length())
        if abs(exp) * bits > _POWER_BITS and not (d == 1 and abs(n) == 1):
            raise ExformalError(f"raising a constant of {bits} bits to the power "
                                f"{exp} takes more than {_POWER_BITS} bits")
        if exp < 0:  # (n/d)^-k = (d/n)^k, the sign moved to the numerator
            n, d, exp = (d, n, -exp) if n > 0 else (-d, -n, -exp)
        return _rat(n**exp, d**exp)  # powers of coprime ints stay coprime
    if isinstance(base, Mul):
        return mul(*(pow_(f, exp) for f in base.factors))
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * exp)
    if isinstance(base, Add) and exp > 0:
        return _expand(ONE, [(base, exp)])
    return Pow(base, exp)


def neg(e: Expr) -> Expr:
    return ZERO if e is ZERO else mul(_MINUS_ONE, e)


def sub(a: Expr, b: Expr) -> Expr:
    """a - b.  When `a is b` it is ZERO at once, with no algebra: every tree
    is canonical, so add(a, neg(a)) is ZERO too.  The one difference is a
    sum of more than `_EXPANSION_BUDGET` terms, whose `neg` raises."""
    return ZERO if a is b else add(a, neg(b))


def div(a: Expr, b: Expr) -> Expr:
    return mul(a, pow_(b, -1))


def func(name: str, arg: Expr) -> Expr:
    """Built-in function application with exact special values at 0 and 1."""
    if name not in BUILTIN_FUNCTIONS:
        raise ValueError(f"not a built-in function: {name}")
    if isinstance(arg, Rat):
        _, num, den = arg.key
        if num == 0:
            if name in ("sin", "tan"):
                return ZERO
            if name in ("cos", "exp"):
                return ONE
            if name == "sqrt":
                return ZERO
            if name == "ln":
                raise DomainError("ln(0)")
        if num == 1 == den:
            if name == "ln":
                return ZERO
            if name == "sqrt":
                return ONE
        if name == "sqrt" and num >= 0:
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                return _rat(rn, rd)  # roots of coprime squares are coprime
    return Func(name, arg)


def opaque(name: str, arg: Expr, order: int = 0) -> Func:
    """The profile `name` (not a built-in) at `arg`, or its order-th
    formal derivative."""
    if name in BUILTIN_FUNCTIONS or not _IDENT_RE.match(name):
        raise ValueError(f"not a profile name: {name!r}")
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"derivative order must be an int >= 0, got {order!r}")
    return Func(name, arg, order)


# ---------------------------------------------------------------------------
# Tree walkers
# ---------------------------------------------------------------------------


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def free_symbols(e: Expr) -> set[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Sym):
            out.add(n.name)
        else:
            stack.extend(_children(n))
    return out


def depends_on(e: Expr, name: str) -> bool:
    return name in free_symbols(e)


# ---------------------------------------------------------------------------
# Differentiation and substitution
# ---------------------------------------------------------------------------


def diff(e: Expr, name: str) -> Expr:
    """Exact partial derivative by the symbol `name`.

    Any symbol other than `name` (coordinates and parameters alike) is a
    constant; a profile produces its formal-derivative node by the chain
    rule.

    The result is kept on `e` under `name`, so each tree, and each subtree
    shared with one already differentiated, is differentiated once per
    symbol.  The product rule skips a constant factor without a call, and
    for the factor that is the symbol itself it takes the other factors as
    they stand: a canonical product with one factor removed is canonical.
    """
    t = type(e)
    if t is Rat:
        return ZERO
    if t is Sym:
        return ONE if e.name == name else ZERO
    try:
        memo = e._diff
    except AttributeError:
        raise TypeError(f"not an Expr: {e!r}") from None
    if memo is not None:
        out = memo.get(name)
        if out is not None:
            return out
    if t is Add:
        out = add(*[diff(u, name) for u in e.terms])
    elif t is Mul:
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            tf = type(f)
            if tf is Rat:
                continue
            if tf is Sym:
                if f.name == name:
                    rest = fs[:i] + fs[i + 1 :]
                    parts.append(rest[0] if len(rest) == 1 else Mul(rest))
                continue
            d = diff(f, name)
            if d is not ZERO:
                parts.append(mul(d, *fs[:i], *fs[i + 1 :]))
        out = add(*parts)
    elif t is Pow:
        d = diff(e.base, name)
        out = ZERO if d is ZERO else mul(_rat(e.exp, 1), pow_(e.base, e.exp - 1), d)
    else:  # a Func
        d = diff(e.arg, name)
        out = ZERO if d is ZERO else mul(_outer_derivative(e), d)
    if memo is None:
        e._diff = {name: out}
    else:
        memo[name] = out
    return out


def _outer_derivative(e: Func) -> Expr:
    """The derivative of the function `e` applies, at its argument."""
    u = e.arg
    if e.opaque:
        return Func(e.name, u, e.order + 1)
    if e.name == "sin":
        return func("cos", u)
    if e.name == "cos":
        return neg(func("sin", u))
    if e.name == "tan":
        return add(ONE, pow_(func("tan", u), 2))
    if e.name == "exp":
        return func("exp", u)
    if e.name == "ln":
        return pow_(u, -1)
    if e.name == "sqrt":
        return mul(_rat(1, 2), pow_(func("sqrt", u), -1))
    raise ValueError(e.name)  # pragma: no cover


def _rebuild(e: Expr, child: Callable[[Expr], Expr]) -> Expr:
    """`e` rebuilt through the canonical constructors from `child` of each
    direct subexpression.  When every child comes back as the same object,
    `e` itself is returned: the constructors give a canonical tree back
    from its own children.  A Rat or Sym comes back as it is."""
    kids = _children(e)
    new = [child(c) for c in kids]
    if all(map(operator.is_, new, kids)):
        return e
    if isinstance(e, Add):
        return add(*new)
    if isinstance(e, Mul):
        return mul(*new)
    if isinstance(e, Pow):
        return pow_(new[0], e.exp)
    if e.opaque:  # a profile has no special values to fold
        return Func(e.name, new[0], e.order)
    return func(e.name, new[0])


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions; rebuilds canonically, and a subtree
    that holds none of the replaced symbols comes back as it is."""
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    return _rebuild(e, lambda c: substitute(c, mapping))


def substitute_function(e: Expr, name: str, var: str, profile: Expr) -> Expr:
    """Replace the opaque function `name` by a concrete profile.

    Occurrences name^(k)(arg) become (d^k profile / d var^k) evaluated at
    arg.  Used for numeric cross-checks such as a(t) = t^2.
    """
    if isinstance(e, Func) and e.opaque and e.name == name:
        body = profile
        for _ in range(e.order):
            body = diff(body, var)
        inner = substitute_function(e.arg, name, var, profile)
        return substitute(body, {var: inner})
    return _rebuild(e, lambda c: substitute_function(c, name, var, profile))


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def _mono_factors(term: Expr) -> list[tuple[Expr, int]]:
    """The (base, exponent) factors of a term, its coefficient left out."""
    if isinstance(term, Mul):
        return [_as_base_exp(f) for f in term.factors if not isinstance(f, Rat)]
    if isinstance(term, Rat):
        return []
    return [_as_base_exp(term)]


# Rational normal form.  Within one `_Rational`, the kernels (Sym, and
# Func, built-in or profile, with a simplified argument) are numbered in
# the order met.  A monomial is the tuple of their exponents, negative ones
# allowed, without trailing zeros; a polynomial is a dict {monomial:
# nonzero int coefficient}; a value is (numerator polynomial, {base number:
# positive exponent}, scale), the denominator being the positive int scale
# times a product of numbered bases.  A constant n/d enters as
# ({(): n}, {}, d), and `expr` writes each coefficient c as c/scale.


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mono_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_add_into(acc: dict, p: dict) -> None:
    for m, c in p.items():
        v = acc.get(m, 0) + c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _corner(p: dict, pick=min) -> tuple:
    """The exponentwise minimum (the monomial content) or maximum of the
    monomials of `p`."""
    n = max(map(len, p))
    out = [pick(m[i] if i < len(m) else 0 for m in p) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _normalize(kernels: list[Expr], p: dict) -> tuple[int, dict]:
    """(c, b) with p = c*b for an integer polynomial p: c is the gcd of its
    coefficients, negated when the leading one is negative, so b has coprime
    integer coefficients and a positive leading coefficient; kernels[i] is
    the kernel of exponent i.
    The leading term is the constant one when there is one, else the first
    under lex order with the kernel of larger key the more significant; so
    1 - 2*m/r gives r - 2*m and 1 - L*r^2 stays as it is.  The order depends
    on the kernels only, not on their numbering, so a base comes out the
    same in every simplification.  This is the one statement of the base
    rule: `_Rational.invert` makes its bases with it, and `_normal_base`
    asks it whether a sum is one."""
    content = math.gcd(*p.values())
    if () in p:
        lead = ()
    else:
        used = sorted({i for m in p for i in range(len(m))},
                      key=lambda i: kernels[i].key, reverse=True)
        lead = max(p, key=lambda m: tuple(m[i] if i < len(m) else 0
                                          for i in used))
    if p[lead] < 0:
        content = -content
    return content, {m: c // content for m, c in p.items()}


def _divide_exact(p: dict, b: dict, spend: Callable[[int], None]) -> dict | None:
    """p / b when the polynomial `b` (no negative exponents) divides the
    Laurent polynomial `p` exactly, else None; each step is charged to
    `spend`.

    Multivariate division under lex order on the exponent tuples, after `p`
    is multiplied by a monomial that makes its exponents nonnegative (a
    monomial is a unit, and `b` has no monomial content, so that does not
    change whether `b` divides `p`).  The leading monomial of a multiple of
    `b` is divisible by that of `b`, so the first leading monomial that is
    not proves a nonzero remainder.  Each quotient term is a term of p / b
    when b divides p, and degrees in each kernel add under multiplication,
    so a quotient term of degree above deg(p) - deg(b) in a kernel proves
    one too.  By Gauss's lemma, p / b has integer coefficients when b
    divides p, since `p` has integer coefficients and `b` coprime ones, so
    the first quotient coefficient that is not an integer proves one too.
    """
    low = tuple(min(x, 0) for x in _corner(p))
    up = _mono_neg(low)
    p = {_mono_mul(m, up): c for m, c in p.items()}
    lb = max(b)
    cb = b[lb]
    down = _mono_neg(lb)
    high = _mono_mul(_corner(p, max), _mono_neg(_corner(b, max)))
    q = {}
    while p:
        lp = max(p)
        if len(lb) > len(lp) or any(x < y for x, y in zip(lp, lb)):
            return None
        m = _mono_mul(lp, down)
        if len(m) > len(high) or any(x > y for x, y in zip(m, high)):
            return None
        spend(len(b))
        c, r = divmod(p[lp], cb)
        if r:
            return None
        q[_mono_mul(m, low)] = c
        for mb, c2 in b.items():
            t = _mono_mul(m, mb)
            v = p.get(t, 0) - c * c2
            if v:
                p[t] = v
            else:
                del p[t]
    return q


# Term products, division steps and terms of expanded powers of
# 1 - sin(u)^2 that one simplification may spend in the rational normal
# form, and term products that one `_expand` may spend distributing a
# product over its sum factors (a positive power of a sum included).  The
# constructors keep Pow(sum, -k) and cos(u)^k unexpanded, and the normal
# form expands them; past this budget the tree keeps the constructors' form
# instead, so neither a short input such as 1 + (x + 1)^-1200 nor a long
# sum of terms with cos(u)^140 swells or stalls.  A division that cannot
# succeed, of a single term by a base, is neither tried nor charged.  No
# simplification in the benchmark corpora spends more than 34; in the tests
# one component of the Kerr-Newman Einstein tensor (`test_golden`) spends
# 9,304 and none other more than 1,146 (a metric with a t-phi block in
# `test_connection`); no `_expand` in the corpora spends more than 12, none
# in the tests more than 930 ((1 - sin(x)^2)^30) but those that probe this
# budget.
_EXPANSION_BUDGET = 10_000

# Bits that `pow_` may spend on a rational constant to an integer power,
# counted as the exponent times the larger bit length of the numerator and
# denominator, so that a short input such as 3^30000000 is refused instead
# of stalling; 1 and -1 take any power.  It is well above the ~14,300
# bits (4300 digits) that `to_text` can print, so 2^99999 is still made,
# and refused only when printed.
_POWER_BITS = 1_000_000


class _OverBudget(Exception):
    pass


class _Rational:
    """One simplification to the rational normal form: the kernel and base
    tables, and the value of each subtree converted so far."""

    def __init__(self):
        self.kernels: list[Expr] = []
        self.numbers: dict[Expr, int] = {}
        self.sin_of: dict[int, int] = {}  # kernel number of cos(u) -> of sin(u)
        self.bases: list[dict] = []
        self.base_numbers: dict[frozenset, int] = {}
        self.powers: dict[int, list[dict]] = {}  # base number -> [1, b, b^2, ...]
        self.values: dict[Expr, tuple[dict, dict, int]] = {}
        self.budget = _EXPANSION_BUDGET

    def spend(self, work: int) -> None:
        self.budget -= work
        if self.budget < 0:
            raise _OverBudget

    def product(self, p: dict, q: dict) -> dict:
        self.spend(len(p) * len(q) or 1)
        return _poly_mul(p, q)

    # -- Expr -> value ------------------------------------------------------

    def value(self, e: Expr) -> tuple[dict, dict, int]:
        v = self.values.get(e)
        if v is None:
            v = self.values[e] = self._convert(e)
        return v

    def _convert(self, e: Expr) -> tuple[dict, dict, int]:
        if isinstance(e, Rat):
            _, n, d = e.key
            return ({(): n} if n else {}), {}, d
        if isinstance(e, Add):
            return self.add([self.value(t) for t in e.terms])
        if isinstance(e, Mul):
            return self.mul([self.value(f) for f in e.factors])
        if isinstance(e, Pow) and isinstance(e.base, Add):
            v = self.value(e.base)
            if e.exp < 0:
                v = self.invert(v)
            return self.power(v, abs(e.exp))
        base, exp = _as_base_exp(e)
        kernel = _rebuild(base, simplify)
        if isinstance(kernel, Rat):
            return self.value(pow_(kernel, exp))
        mono = (0,) * self.number(kernel) + (exp,)
        return (*self.cancel({mono: 1}, {}), 1)

    def number(self, kernel: Expr) -> int:
        i = self.numbers.get(kernel)
        if i is None:
            i = self.numbers[kernel] = len(self.kernels)
            self.kernels.append(kernel)
            if isinstance(kernel, Func) and kernel.name == "cos":
                self.sin_of[i] = self.number(func("sin", kernel.arg))
        return i

    # -- arithmetic -----------------------------------------------------------

    def add(self, values: list[tuple[dict, dict, int]]) -> tuple[dict, dict, int]:
        """Sum over the least common multiple of the denominators."""
        scale = math.lcm(*[s for _, _, s in values])
        groups: dict[tuple, dict] = {}
        for num, den, s in values:
            if s != scale:
                num = {m: c * (scale // s) for m, c in num.items()}
            _poly_add_into(groups.setdefault(tuple(sorted(den.items())), {}), num)
        lcm: dict[int, int] = {}
        for den in groups:
            for b, k in den:
                lcm[b] = max(lcm.get(b, 0), k)
        total: dict = {}
        for den, num in groups.items():
            have = dict(den)
            for b, k in lcm.items():
                if k > have.get(b, 0):
                    num = self.product(num, self.base_power(b, k - have.get(b, 0)))
            _poly_add_into(total, num)
        return (*self.cancel(total, lcm), scale)

    def mul(self, values: list[tuple[dict, dict, int]]) -> tuple[dict, dict, int]:
        num: dict = {(): 1}
        den: dict[int, int] = {}
        scale = 1
        for n, d, s in sorted(values, key=lambda v: len(v[0])):
            num = self.product(num, n)
            scale *= s
            for b, k in d.items():
                den[b] = den.get(b, 0) + k
        return (*self.cancel(num, den), scale)

    def power(self, v: tuple[dict, dict, int], k: int) -> tuple[dict, dict, int]:
        num, den, scale = v
        out = num
        for _ in range(k - 1):
            out = self.product(out, num)
        return (*self.cancel(out, {b: e * k for b, e in den.items()}), scale**k)

    def invert(self, v: tuple[dict, dict, int]) -> tuple[dict, dict, int]:
        """1/v: the old denominator, expanded, over the numerator's base; the
        numerator's content becomes the scale."""
        num, den, scale = v
        if not num:
            raise DomainError("0 raised to a negative power")
        if len(num) == 1:
            ((mono, content),) = num.items()
            down = _mono_neg(mono)
            new_den = {}
        else:
            down = _mono_neg(_corner(num))
            content, base = _normalize(self.kernels, {_mono_mul(m, down): c
                                                      for m, c in num.items()})
            new_den = {self.base_number(base): 1}
        out = {down: scale if content > 0 else -scale}
        for b, k in den.items():
            out = self.product(out, self.base_power(b, k))
        return (*self.cancel(out, new_den), abs(content))

    def base_number(self, base: dict) -> int:
        key = frozenset(base.items())
        i = self.base_numbers.get(key)
        if i is None:
            i = self.base_numbers[key] = len(self.bases)
            self.bases.append(base)
        return i

    def base_power(self, b: int, k: int) -> dict:
        powers = self.powers.setdefault(b, [{(): 1}])
        while len(powers) <= k:
            powers.append(self.product(powers[-1], self.bases[b]))
        return powers[k]

    def cancel(self, num: dict, den: dict[int, int]) -> tuple[dict, dict]:
        """Reduce the numerator modulo sin(u)^2 + cos(u)^2 - 1, and divide
        out each base of the denominator as often as it divides exactly,
        until no base divides the reduced numerator.

        A division is tried only while the numerator has two terms or more.
        A base has two terms or more and no monomial content, so each of its
        nonzero multiples has two terms or more (the least and greatest
        monomials under lex order cannot cancel), and no base divides a
        single term: the skipped attempts could only fail, and they are not
        charged to the budget."""
        num = self.reduce_trig(num)
        left = dict(den)
        divided = len(num) > 1
        while divided:
            divided = False
            for b, k in left.items():
                q = (_divide_exact(num, self.bases[b], self.spend)
                     if k and len(num) > 1 else None)
                if q is not None:
                    num = self.reduce_trig(q)
                    left[b] = k - 1
                    divided = True
        if not num:
            return {}, {}
        return num, {b: k for b, k in left.items() if k}

    def reduce_trig(self, p: dict) -> dict:
        """The canonical form of `p` modulo s^2 + c^2 - 1 for each pair
        c = cos(u), s = sin(u): c^n*(q0 + c*q1) with q0, q1 free of c, n the
        lowest power of c or 0, and, when n < 0, q0 not a multiple of
        1 - s^2 (c^n*(1 - s^2)*r is c^(n+2)*r).  Powers of c above 1 are
        rewritten in one step by c^(2j+i) = c^i*(1 - s^2)^j."""
        for ci, si in self.sin_of.items():
            exps = [m[ci] if len(m) > ci else 0 for m in p]
            if not exps or (min(exps) >= 0 and max(exps) <= 1):
                continue
            n = min(min(exps), 0)
            sin2 = (0,) * si + (2,)

            def cos_power(k):
                return (0,) * ci + (k,)

            q = ({}, {})  # q0, q1
            for m, c in p.items():
                k = (m[ci] if len(m) > ci else 0) - n
                j, i = divmod(k, 2)
                self.spend((j + 1) ** 2)  # j + 1 terms of up to j bits each
                m = _mono_mul(m, cos_power(-k - n))
                _poly_add_into(q[i], {
                    _mono_mul(m, (0,) * si + (2 * t,)): c * (-1) ** t * math.comb(j, t)
                    for t in range(j + 1)})
            q0, q1 = q
            one_minus_sin2 = {(): 1, sin2: -1}
            while n < 0 and len(q0) != 1:  # a single term is no multiple
                r = _divide_exact(q0, one_minus_sin2, self.spend) if q0 else {}
                if r is None:
                    break
                q0, q1, n = q1, r, n + 1
            p = {_mono_mul(m, cos_power(n)): c for m, c in q0.items()}
            p.update((_mono_mul(m, cos_power(n + 1)), c) for m, c in q1.items())
        return p

    # -- value -> Expr ----------------------------------------------------------

    def polynomial(self, p: dict, scale: int = 1) -> Expr:
        ks = self.kernels
        return add(*(mul(_reduced(c, scale),
                         *(pow_(ks[i], x) for i, x in enumerate(m) if x))
                     for m, c in p.items()))

    def expr(self, v: tuple[dict, dict, int]) -> Expr:
        num, den, scale = v
        return mul(self.polynomial(num, scale),
                   *(pow_(self.polynomial(self.bases[b]), -k) for b, k in den.items()))


def _needs_rational(e: Expr) -> bool:
    """True when a factor of a term of `e` is a power of a sum or of cos(u)
    (canonical trees nest no deeper).  A power of a sum is a negative one,
    since the constructors expand the others, and a power of cos(u) has an
    exponent other than 0 and 1, which `reduce_trig` may rewrite."""
    for t in e.terms if isinstance(e, Add) else (e,):
        for f in t.factors if isinstance(t, Mul) else (t,):
            if isinstance(f, Pow) and (isinstance(f.base, Add) or (
                    isinstance(f.base, Func) and f.base.name == "cos")):
                return True
    return False


def _kept_kernel(f: Expr, exp: int) -> bool:
    """Whether the factor f^exp is a kernel power that `_Rational._convert`
    keeps as it is: a symbol, or a function call rebuilt from its simplified
    argument as itself, and for cos(u) only the first power, which
    `reduce_trig` leaves alone."""
    if isinstance(f, Sym):
        return True
    return (isinstance(f, Func) and (exp == 1 or f.name != "cos")
            and _rebuild(f, simplify) == f)


def _normal_base(b: Add) -> bool:
    """Whether the sum `b` is a base as `_normalize` leaves it: terms that
    are monomials in kept kernels (`_kept_kernel`) with positive exponents,
    no monomial content, and content 1 under `_normalize`, which states the
    rule for the coefficients and the lead.  The kernels are numbered here
    in the order met; `_normalize` picks the lead by kernel key, so the
    numbering does not matter."""
    numbers: dict[Expr, int] = {}
    p = {}
    for t in b.terms:
        m = ()
        for f, k in _mono_factors(t):
            if k < 0 or not _kept_kernel(f, k):
                return False
            m = _mono_mul(m, (0,) * numbers.setdefault(f, len(numbers)) + (k,))
        _, n, d = _coefficient_rat(t).key
        if d != 1:
            return False
        p[m] = n
    return not any(_corner(p)) and _normalize(list(numbers), p)[0] == 1


def _normal_term(e: Expr) -> bool:
    """Whether the term `e` (not a sum) is its own rational normal form: a
    product of a constant, kept kernel powers and Pow(b, -k) with `b` a
    normal base (`_kept_kernel`, `_normal_base`).  Such a term converts to
    one monomial over those bases; no base divides a single term, so
    `cancel` leaves it, and the rebuild gives `e` back."""
    for f in e.factors if isinstance(e, Mul) else (e,):
        if isinstance(f, Rat):
            continue
        base, k = _as_base_exp(f)
        if isinstance(base, Add):
            if k > 0 or not _normal_base(base):
                return False
        elif not _kept_kernel(base, k):
            return False
    return True


def _rational_form(e: Expr) -> Expr | None:
    """The rational normal form of `e`, or None when it would spend more
    than `_EXPANSION_BUDGET`.  A term that is already in that form
    (`_normal_term`) comes back as it is, unconverted: the full path would
    convert it, find nothing to cancel and rebuild `e`, or go past the
    budget, in which case `simplify` keeps `e` too."""
    if not isinstance(e, Add) and _normal_term(e):
        return e
    r = _Rational()
    try:
        return r.expr(r.value(e))
    except _OverBudget:
        return None


def simplify(e: Expr) -> Expr:
    """Canonical form, idempotent: the rational normal form (see the module
    docstring) when `_needs_rational(e)`, that is when a factor of a term is
    a power of a sum or of cos(u), else `e` itself when each of its children
    simplifies to itself (the constructors give a canonical tree back from
    its own children), or else `e` rebuilt through the constructors from
    its simplified children.  A normal form that does not fit in
    `_EXPANSION_BUDGET` is not made: `e` stays as the constructors built it.

    The result is kept on `e` and marked as its own fixed point, so each
    tree, and each subtree shared with one already simplified, is simplified
    once.  When the result equals `e`, `e` itself is returned.
    """
    if isinstance(e, (Rat, Sym)):
        return e
    done = e._simple
    if done is not None:
        return e if done is True else done
    if _needs_rational(e):
        out = _rational_form(e) or e  # an Expr is always truthy
    elif all(simplify(c) is c for c in _children(e)):
        # no child changed, and rebuilding `e` from them would give `e`
        e._simple = True
        return e
    else:
        out = _rebuild(e, simplify)  # rereads the children's memos
        if out != e and _needs_rational(out):  # e.g. cos(u)*cos(v), u == v
            out = _rational_form(out) or out
    if out == e:
        e._simple = True
        return e
    e._simple = out
    if not isinstance(out, (Rat, Sym)):
        out._simple = True
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's integer string limit
        raise ExformalError(
            f"an integer of {n.bit_length()} bits is too long to print"
        ) from None


def _pow_token(base: Expr, exp: int) -> str:
    if isinstance(base, Add):
        b = f"({to_text(base)})"
    else:
        b = to_text(base)
    return b if exp == 1 else f"{b}^{exp}"


def _term_text(t: Expr) -> tuple[bool, str]:
    """Whether the Add-free term `t` is negative, and the text of its
    magnitude as numerator/denominator tokens: the sign is flipped here,
    on the coefficient, so no negated term is built to print.  A canonical
    term has at most one constant factor, so its pair is printed as it is,
    in lowest terms."""
    cn = cd = 1
    num: list[str] = []
    den: list[str] = []
    factors = t.factors if isinstance(t, Mul) else (t,)
    for f in factors:
        if isinstance(f, Rat):
            _, n, d = f.key
            cn, cd = cn * n, cd * d
            continue
        b, e = _as_base_exp(f)
        if e > 0:
            num.append(_pow_token(b, e))
        else:
            den.append(_pow_token(b, -e))
    negative = cn < 0
    if negative:
        cn = -cn
    if cn != 1 or not num:
        num.insert(0, _digits(cn))
    if cd != 1:
        den.insert(0, _digits(cd))
    out = "*".join(num)
    for d in den:
        out += f"/{d}"
    return negative, out


def to_text(e: Expr) -> str:
    """Printable, reparseable text form.

    Formal derivatives print with primes (a'(t)); the parser accepts the
    same extension, so parse(to_text(e)) == e for canonical trees.
    """
    if isinstance(e, Rat):
        _, n, d = e.key
        return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Func):
        return f"{fn_key(e.name, e.order)}({to_text(e.arg)})"
    if isinstance(e, Add):
        pieces = []
        for t in e.terms:
            negative, body = _term_text(t)
            if pieces:
                pieces.append(" - " if negative else " + ")
            elif negative:
                pieces.append("-")
            pieces.append(body)
        return "".join(pieces)
    # Mul / Pow: render through the term printer
    negative, body = _term_text(e)
    return "-" + body if negative else body


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# Grammar (README carries the same statement):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ('^' ['-'] integer)? | '-' factor
#   atom   := number | ident | ident '(' expr ')' | '(' expr ')'
# Identifiers: [A-Za-z][A-Za-z0-9_]*, optionally suffixed by primes (')
# when used as a function call -- that extension carries the formal
# derivatives a'(t), f''(u) through printing and reparsing.
#
# `term`, `factor` and `atom` return a term as its (base, exponent)
# factors: '/' negates the exponent of each factor it reads, a unary '-'
# prepends (-1, 1), and '^k' applies to its atom multiplied out.  The list
# is multiplied out once, by `_product`, where the term is added, passed
# as a function argument or ends the parse.  So a divisor in parentheses
# that holds a single term is inverted factor by factor, and a/(s)^k reads
# back as the tree `to_text` prints that way, without expanding s^k.
# `_product` folds the term's literal constants into one coefficient
# first, so that its one `mul` meets a single Rat, and a sum is built by
# one `add` over all of its terms.  Both give the tree that multiplying
# and adding one operand at a time gives: the constructors are canonical,
# and the constants and sums are formed in the same order, so each error
# is the one that order meets first.


def _factor(base: Expr, exp: int) -> tuple[Expr, int]:
    """The factor base^exp of a term, refused as soon as a zero base takes
    a negative exponent."""
    if exp < 0 and base == ZERO:
        raise DomainError("0 raised to a negative power")
    return base, exp


def _product(factors: list[tuple[Expr, int]]) -> Expr:
    """A term's factors multiplied out in one `mul`, after its constants
    are folded into one coefficient (each raised by `pow_`, which checks
    its size), in the order the term reads them."""
    if len(factors) == 1:
        return pow_(*factors[0])
    num = den = 1
    rest = []
    for b, k in factors:
        if type(b) is Rat:
            _, n, d = (b if k == 1 else pow_(b, k)).key
            num, den = num * n, den * d
        else:
            rest.append(b if k == 1 else pow_(b, k))
    if num != den or not rest:  # the constant is not 1 (den > 0)
        return mul(_reduced(num, den), *rest)
    return rest[0] if len(rest) == 1 else mul(*rest)


# A token is the tuple of the groups of one match: the whitespace before
# it, then its number, identifier, operator or stray character, at most one
# of them not empty.  The token with all four empty ends the text; a
# position is counted only for an error.
_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+(?:\.\d+)?)|([A-Za-z][A-Za-z0-9_]*'*)|([-+*/^()])|(.)|\Z)",
    re.DOTALL,
)
_STRAY = operator.itemgetter(4)


class _Parser:
    def __init__(self, text: str, chart: Chart, params: Iterable[str]):
        self.tokens = _TOKEN_RE.findall(text)
        self.i = 0
        self.coords = set(chart.names)
        self.params = set(params)
        if any(map(_STRAY, self.tokens)):
            i = next(i for i, tok in enumerate(self.tokens) if tok[4])
            raise ExprSyntaxError(
                f"unexpected character {self.tokens[i][4]!r}", self.position(i),
                expected=("number", "identifier", "operator"),
            )

    def position(self, i: int) -> int:
        """The offset in the text of token `i`."""
        before = sum(len("".join(tok)) for tok in self.tokens[:i])
        return before + len(self.tokens[i][0])

    def found(self, expected: tuple[str, ...]) -> ExprSyntaxError:
        """The error for a token that is not the first of `expected`."""
        _, num, ident, op, _ = self.tokens[self.i]
        return ExprSyntaxError(
            f"expected {expected[0]}, found {num or ident or op or 'end of input'}",
            self.position(self.i), expected=expected,
        )

    def close(self) -> None:
        if self.tokens[self.i][3] != ")":
            raise self.found(("')'",))
        self.i += 1

    def parse(self) -> Expr:
        try:
            e = _product(self.expr())
        except RecursionError:  # each nesting level is a few parser frames
            raise ExprSyntaxError("expression nested too deeply",
                                  self.position(self.i)) from None
        _, num, ident, op, _ = self.tokens[self.i]
        if num or ident or op:
            raise ExprSyntaxError(
                f"unexpected trailing input {num or ident or op!r}",
                self.position(self.i),
                expected=("'+'", "'-'", "'*'", "'/'", "end of input"),
            )
        return e

    def expr(self) -> list[tuple[Expr, int]]:
        """The next sum; a single term comes back as its factors."""
        factors = self.term()
        op = self.tokens[self.i][3]
        if op != "+" and op != "-":
            return factors
        terms = [_product(factors)]
        while op == "+" or op == "-":
            self.i += 1
            rhs = _product(self.term())
            terms.append(rhs if op == "+" else neg(rhs))
            op = self.tokens[self.i][3]
        return [(add(*terms), 1)]

    def term(self) -> list[tuple[Expr, int]]:
        factors = self.factor()
        op = self.tokens[self.i][3]
        while op == "*" or op == "/":
            self.i += 1
            if op == "*":
                factors += self.factor()
            else:
                factors += [_factor(b, -k) for b, k in self.factor()]
            op = self.tokens[self.i][3]
        return factors

    def factor(self) -> list[tuple[Expr, int]]:
        tokens = self.tokens
        if tokens[self.i][3] == "-":
            self.i += 1
            return [(_MINUS_ONE, 1)] + self.factor()
        factors = self.atom()
        if tokens[self.i][3] != "^":
            return factors
        self.i += 1
        sign = 1
        if tokens[self.i][3] == "-":
            self.i += 1
            sign = -1
        at = self.i
        if not tokens[at][1]:
            raise self.found(("integer exponent",))
        if "." in tokens[at][1]:
            raise ExprSyntaxError(
                "exponent must be an integer", self.position(at),
                expected=("integer exponent",),
            )
        self.i += 1
        return [_factor(_product(factors), sign * self.number(at, int))]

    def number(self, i: int, convert: Callable[[str], object]):
        try:
            return convert(self.tokens[i][1])
        except ValueError:  # past the interpreter's integer string limit
            raise ExprSyntaxError("number has too many digits",
                                  self.position(i)) from None

    def atom(self) -> list[tuple[Expr, int]]:
        at = self.i
        _, num, ident, op, _ = self.tokens[at]
        if num:
            self.i += 1
            value = self.number(at, Fraction if "." in num else int)
            return [(ZERO if value == 0 else ONE if value == 1 else Rat(value), 1)]
        if op == "(":
            self.i += 1
            factors = self.expr()
            self.close()
            return factors
        if ident:
            self.i += 1
            name = ident.rstrip("'")
            order = len(ident) - len(name)
            if self.tokens[self.i][3] == "(":
                self.i += 1
                arg = _product(self.expr())
                self.close()
                if name in BUILTIN_FUNCTIONS:
                    if order:
                        raise ExprSyntaxError(
                            f"primes are not allowed on built-in {name}",
                            self.position(at),
                            expected=("opaque function name",),
                        )
                    return [(func(name, arg), 1)]
                return [(Func(name, arg, order), 1)]
            if order:
                raise ExprSyntaxError(
                    f"derivative {ident} must be applied to an argument",
                    self.position(at),
                    expected=("'('",),
                )
            if name in self.coords or name in self.params:
                return [(Sym(name), 1)]
            raise UnknownSymbolError(name, self.position(at))
        raise ExprSyntaxError(
            f"expected an operand, found {op or 'end of input'}",
            self.position(at),
            expected=("number", "identifier", "'('", "'-'"),
        )


def parse_expr(text: str, chart: Chart, params: Iterable[str] = ()) -> Expr:
    """Parse `text` against a chart and parameter list.

    Bare identifiers must be chart coordinates or declared parameters;
    non-built-in identifiers applied with call syntax become opaque
    function symbols.
    """
    return _Parser(text, chart, params).parse()


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def fn_key(name: str, order: int) -> str:
    """fn_table key for the order-th formal derivative of `name`."""
    return name + "'" * order


def _plan(e: Expr) -> list[tuple[Expr, tuple[int, ...]]]:
    """The distinct subexpressions of `e`, equal ones once, each with the
    plan slots of its children; children come first, in the left-to-right
    post-order in which a walk of the tree first completes them, so the
    last entry is `e`."""
    slots: dict[Expr, int] = {}
    plan: list[tuple[Expr, tuple[int, ...]]] = []
    # the path from `e` down to the node being walked: each node with an
    # iterator over its children and the slots of those already completed
    stack = [(e, iter(_children(e)), [])]
    while stack:
        node, kids, done = stack[-1]
        for kid in kids:
            slot = slots.get(kid)
            if slot is None:
                stack.append((kid, iter(_children(kid)), []))
                break
            done.append(slot)
        else:
            stack.pop()
            slot = slots[node] = len(plan)
            plan.append((node, tuple(done)))
            if stack:
                stack[-1][2].append(slot)
    return plan


def _eval_plan(plan: list[tuple[Expr, tuple[int, ...]]], env: Mapping[str, float],
               fns: Mapping[str, Callable[[float], float]], guard: float) -> float:
    """Value of the last plan entry; each entry is computed once, so a
    DomainError names the first failing node of the tree's post-order.  A
    value that is not finite (a sum or product that overflows to inf, or
    inf - inf, which is nan) is a DomainError too."""
    vals: list[float] = []
    for e, kids in plan:
        if isinstance(e, Add):
            v = sum([vals[i] for i in kids])
        elif isinstance(e, Mul):
            v = 1.0
            for i in kids:
                v *= vals[i]
        elif isinstance(e, Pow):
            b = vals[kids[0]]
            if e.exp < 0:
                if b == 0:
                    raise DomainError("division by zero")
                if abs(b) < guard:
                    raise DomainError("near-singular denominator")
            try:
                v = b**e.exp
            except OverflowError:
                raise DomainError("power overflow") from None
        elif isinstance(e, Rat):
            _, n, d = e.key
            try:
                v = n / d
            except OverflowError:
                raise DomainError("constant too large for a float") from None
        elif isinstance(e, Sym):
            try:
                v = float(env[e.name])
            except KeyError:
                raise UnboundSymbolError(f"symbol '{e.name}' is unbound") from None
        elif e.opaque:
            key = fn_key(e.name, e.order)
            fn = fns.get(key)
            if fn is None:
                raise UnboundSymbolError(f"function '{key}' is unbound")
            v = float(fn(vals[kids[0]]))
        else:
            v = _eval_func(e.name, vals[kids[0]], guard)
        vals.append(v)
    if not math.isfinite(vals[-1]):
        raise DomainError("value is not finite")
    return vals[-1]


def _eval_func(name: str, x: float, guard: float) -> float:
    try:
        if name == "sin":
            return math.sin(x)
        if name == "cos":
            return math.cos(x)
        if name == "tan":
            if abs(math.cos(x)) < guard:
                raise DomainError("tan near a pole")
            return math.tan(x)
    except ValueError:  # an infinite argument
        raise DomainError(f"{name} of an infinite value") from None
    if name == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise DomainError("exp overflow") from None
    if name == "ln":
        if x <= 0:
            raise DomainError("ln of a non-positive value")
        return math.log(x)
    if name == "sqrt":
        if x < 0:
            raise DomainError("sqrt of a negative value")
        return math.sqrt(x)
    raise ValueError(name)  # pragma: no cover


def eval_at(e: Expr, assignment: Mapping[str, float],
            fn_table: Mapping[str, Callable[[float], float]] | None = None) -> float:
    """Double-precision value of `e` with every symbol and function bound.

    fn_table keys follow `fn_key`: "a" for a, "a'" for its first formal
    derivative, and so on.  Each distinct subexpression is evaluated once.
    A value that leaves the float range raises DomainError.
    """
    return _eval_plan(_plan(e), assignment, fn_table or {}, 0.0)


# ---------------------------------------------------------------------------
# Tri-state zero testing
# ---------------------------------------------------------------------------


class ZeroVerdict(Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


class Verdict(Enum):
    """Outcome of a check that a set of residuals vanishes."""

    PASS = "Pass"
    FAIL = "Fail"
    UNKNOWN = "Unknown"


_CHECK_VERDICT = {ZeroVerdict.ZERO: Verdict.PASS, ZeroVerdict.NONZERO: Verdict.FAIL,
                  ZeroVerdict.UNKNOWN: Verdict.UNKNOWN}


def _fold_verdicts(verdicts: Iterable[ZeroVerdict | Verdict]) -> Verdict:
    """One verdict for a whole check: Fail beats Unknown beats Pass.

    Takes zero-test and check verdicts alike (a ZeroVerdict counts as the
    Verdict it implies) and consumes them all; none at all is Pass.
    """
    seen = {_CHECK_VERDICT.get(v, v) for v in verdicts}
    return next((v for v in (Verdict.FAIL, Verdict.UNKNOWN) if v in seen),
                Verdict.PASS)


def _check_residuals(residuals: Mapping[object, Expr], seed: int
                     ) -> tuple[Verdict, dict[object, ZeroVerdict]]:
    """The one check that a set of residuals vanishes: `is_zero(seed)` of
    every residual of a {label: Expr} map, labels taken in `str` order.
    Returns the folded verdict and, in that order, the zero-test verdict of
    each label that is not ZERO."""
    bad = {}
    for label in sorted(residuals, key=str):
        v = is_zero(residuals[label], seed)
        if v is not ZeroVerdict.ZERO:
            bad[label] = v
    return _fold_verdicts(bad.values()), bad


# The box, tolerance and limits of `_sample_values` and `is_zero`.
_POINTS = 20
_BOX = (-2.0, 2.0)
_TOL = 1e-9
_SINGULAR_GUARD = 1e-6
_MAX_REDRAWS = 200


def _sample_points(names: Sequence[str], seed: int,
                   center: bool = False) -> Iterator[dict[str, float]]:
    """Endless seeded points of the sampling box, one coordinate per name
    in the order given: the box center first when `center`, then uniform
    draws from random.Random(seed)."""
    lo, hi = _BOX
    if center:
        yield dict.fromkeys(names, (lo + hi) * 0.5)
    rng = random.Random(seed)
    while True:
        yield {n: rng.uniform(lo, hi) for n in names}


class _OpaqueInterp:
    """Smooth random interpretation of an opaque profile: a cubic plus a
    sinusoid, so no formal derivative of any order vanishes identically."""

    def __init__(self, rng: random.Random):
        self.c = [rng.uniform(-1.5, 1.5) for _ in range(4)]
        self.amp = rng.uniform(0.6, 1.4)
        self.freq = rng.uniform(0.7, 1.3)
        self.phase = rng.uniform(0.0, math.pi)

    def derivative(self, order: int) -> Callable[[float], float]:
        c = self.c
        amp, w, ph = self.amp, self.freq, self.phase

        def value(s: float) -> float:
            if order == 0:
                p = c[0] + c[1] * s + c[2] * s * s + c[3] * s**3
            elif order == 1:
                p = c[1] + 2 * c[2] * s + 3 * c[3] * s * s
            elif order == 2:
                p = 2 * c[2] + 6 * c[3] * s
            elif order == 3:
                p = 6 * c[3]
            else:
                p = 0.0
            return p + amp * w**order * math.sin(w * s + ph + order * math.pi / 2)

        return value


def interpretation_table(e: Expr, seed: int = 0) -> dict[str, Callable[[float], float]]:
    """fn_table for every opaque call in `e`, derived from `seed`.

    The interpretation of a name depends only on (seed, name), so the same
    profile backs a(t) and a'(t) consistently across expressions.
    """
    return _interpretations(_plan(e), seed)


def _interpretations(plan: list[tuple[Expr, tuple[int, ...]]],
                     seed: int) -> dict[str, Callable[[float], float]]:
    """fn_table for the profiles of `plan`, each up to the highest
    derivative order it is called at."""
    orders: dict[str, int] = {}
    for node, _ in plan:
        if isinstance(node, Func) and node.opaque:
            orders[node.name] = max(orders.get(node.name, 0), node.order)
    table: dict[str, Callable[[float], float]] = {}
    for name, max_order in sorted(orders.items()):
        interp = _OpaqueInterp(random.Random(f"{seed}:{name}"))
        for order in range(max_order + 1):
            table[fn_key(name, order)] = interp.derivative(order)
    return table


def _sample_values(e: Expr, seed: int, guard: float, names: Iterable[str] = (),
                   center: bool = False) -> Iterator[float | None]:
    """Values of `e` under `guard` at the points of `_sample_points(seed,
    center)` over the symbols of `e` and `names`, None where a DomainError
    is raised, as it is for a value that is not finite; the plan and the
    profiles (those of `seed`) are built once."""
    plan = _plan(e)
    symbols = set(names).union(n.name for n, _ in plan if isinstance(n, Sym))
    fns = _interpretations(plan, seed)
    for env in _sample_points(sorted(symbols), seed, center):
        try:
            v = _eval_plan(plan, env, fns, guard)
        except DomainError:
            yield None
        else:
            yield v


def is_zero(e: Expr, seed: int = 0) -> ZeroVerdict:
    """Tri-state zero test: symbolic first, then seeded sampling.

    A tree that `simplify` does not bring to a constant is evaluated by
    `_sample_values(seed)` with guard _SINGULAR_GUARD: a value past _TOL is
    NONZERO and _POINTS values within it ZERO; the result is UNKNOWN once
    more than _MAX_REDRAWS points had to be redrawn.
    """
    s = simplify(e)
    if isinstance(s, Rat):
        return ZeroVerdict.ZERO if s.key[1] == 0 else ZeroVerdict.NONZERO

    values = _sample_values(s, seed, _SINGULAR_GUARD)
    redraws = done = 0
    while done < _POINTS:
        v = next(values)
        if v is None:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                return ZeroVerdict.UNKNOWN
        elif abs(v) > _TOL:
            return ZeroVerdict.NONZERO
        else:
            done += 1
    return ZeroVerdict.ZERO

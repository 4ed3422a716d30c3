"""Term-wise antiderivatives over a bounded table.

Supported per term (after canonical splitting into var-free and
var-dependent factors, at most one of the latter):

* pure powers s^k, including k = -1 -> ln(s);
* powers of an affine base (a*s + b)^k, including k = -1;
* sin/cos/exp of an affine argument.

Anything else returns None; callers treat that as "not integrable here"
rather than guessing.
"""

from __future__ import annotations

from .symbolic import (
    Add,
    Expr,
    Func,
    Mul,
    Rat,
    Sym,
    ZERO,
    add,
    depends_on,
    diff,
    div,
    func,
    mul,
    neg,
    pow_,
    _as_base_exp,
)

__all__ = ["antiderivative"]


def _affine_slope(e: Expr, var: str) -> Expr | None:
    """d(e)/d(var) when it is a nonzero var-free expression, else None."""
    slope = diff(e, var)
    if slope == ZERO or depends_on(slope, var):
        return None
    return slope


def _anti_term(term: Expr, var: str) -> Expr | None:
    factors = term.factors if isinstance(term, Mul) else (term,)
    free: list[Expr] = []
    dep: list[Expr] = []
    for f in factors:
        (dep if depends_on(f, var) else free).append(f)
    if not dep:
        return mul(*free, Sym(var)) if free else Sym(var)
    if len(dep) > 1:
        return None
    base, k = _as_base_exp(dep[0])

    if isinstance(base, Sym) and base.name == var:
        anti = func("ln", base) if k == -1 else mul(
            pow_(Rat(k + 1), -1), pow_(base, k + 1)
        )
    elif isinstance(base, Add):
        slope = _affine_slope(base, var)
        if slope is None:
            return None
        if k == -1:
            anti = div(func("ln", base), slope)
        else:
            anti = div(mul(pow_(Rat(k + 1), -1), pow_(base, k + 1)), slope)
    elif isinstance(base, Func) and k == 1 and base.name in ("sin", "cos", "exp"):
        slope = _affine_slope(base.arg, var)
        if slope is None:
            return None
        if base.name == "sin":
            anti = div(neg(func("cos", base.arg)), slope)
        elif base.name == "cos":
            anti = div(func("sin", base.arg), slope)
        else:
            anti = div(func("exp", base.arg), slope)
    else:
        return None
    return mul(*free, anti) if free else anti


def antiderivative(e: Expr, var: str) -> Expr | None:
    """Antiderivative of `e` in `var` per the table, or None."""
    terms = e.terms if isinstance(e, Add) else (e,)
    parts = []
    for t in terms:
        anti = _anti_term(t, var)
        if anti is None:
            return None
        parts.append(anti)
    return add(*parts)

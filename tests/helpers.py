"""Seeded generators, numeric oracles and the reference determinant
expansion shared across the test modules.

Everything takes an explicit random.Random so each test pins its seed; no
global RNG state is touched.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exformal.symbolic import (
    Chart,
    Expr,
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

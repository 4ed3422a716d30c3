"""Connections, torsion, the evolutionary-form commutator, and the
curvature stack up to the Einstein tensor and its divergence.

Index conventions (normative for every identity tested here):

* Gamma^sigma_{alpha beta}: sigma upper, alpha first lower, beta second
  lower; alpha is the differentiation index, so the covariant derivative
  of a 1-form reads A_{beta;alpha} = d_alpha A_beta
  - Gamma^sigma_{alpha beta} A_sigma.
* torsion T^sigma_{alpha beta} = Gamma^sigma_{alpha beta}
  - Gamma^sigma_{beta alpha}.
* R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma}
  - d_nu Gamma^rho_{mu sigma} + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
  - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}; on the unit 2-sphere this
  makes R^theta_{phi theta phi} = +sin(theta)^2.

Connections may be nonsymmetric everywhere except christoffel output; no
metric-compatibility constraint is imposed on user-supplied coefficients.

The Levi-Civita stack of a metric g is christoffel(g) -> ricci_and_scalar(g)
-> einstein_tensor(g) -> bianchi_residual(g), each stage built once per
`Metric` object by `_stage`.  The Ricci stage `ricci_and_scalar(g)` builds
only the n^2(n+1)/2 Riemann components R^rho_{mu rho nu}, mu <= nu, that
it contracts;
`riemann(c)` builds the whole tensor of any connection, torsion included.

Most metrics met in practice are diagonal, so most Gamma components are
zero.  The curvature loops skip every product with a factor that is the
shared ZERO (an identity test, `is ZERO`; the parser gives every literal 0
that node), and build -a*b as one mul(-1, a, b).  `christoffel` takes
each d_c g_ab once, into one table, with no `diff` of a ZERO entry; it
walks only the nonzero entries of each row of g^-1 and skips a bracket
whose three derivatives are ZERO.  A Gamma, Riemann component, torsion
entry or Bianchi term with no nonzero part is ZERO without an `add`, a
`diff` or a `simplify`.  A zero missed this way costs time and changes
no tree.  g^-1 (`_linalg.mat_inverse`), and for the Levi-Civita
connection Gamma's lower pair, R_{mu nu} and G_{mu nu}, are symmetric, so
each is built on one triangle by `_linalg.mirrored`: the entry with the
pair (b, a), b > a, is the object built for (a, b).  `riemann` builds the
components with mu <= nu by the same rule and negates the others.
`Metric` checks all n^2 entries of g * g^-1 = I.  On a 4-dim chart the
Ricci stage contracts 40 Riemann components instead of 64.  A
user-supplied `Connection` is kept as given, torsion included.
Each Ricci component sums Riemann components that were simplified one at
a time: summing their raw terms before one `simplify` expands far more,
and on Kerr-Newman goes past the expansion budget.
"""

from __future__ import annotations

from functools import partial, wraps

from .errors import ChartMismatchError, DegreeError
from ._linalg import grid, grid_at, grid_items, grid_map, is_grid, mirrored
from .exterior import Form
from .geometry import Metric
from .symbolic import (
    _MINUS_ONE,
    Chart,
    Expr,
    Rat,
    ZERO,
    add,
    diff,
    mul,
    neg,
    pow_,
    simplify,
)

__all__ = [
    "Connection",
    "Tensor",
    "christoffel",
    "torsion",
    "covariant_derivative_1form",
    "evolutionary_commutator",
    "riemann",
    "ricci_and_scalar",
    "einstein_tensor",
    "bianchi_residual",
]


class Tensor:
    """Componentwise tensor container with declared index variance.

    `variance` is a string of 'u'/'l' per slot, e.g. "ull" for
    T^sigma_{alpha beta}.  Components are simplified on construction.
    """

    def __init__(self, chart: Chart, variance: str, comps):
        rank = len(variance)
        if any(v not in "ul" for v in variance):
            raise ValueError("variance must use only 'u' and 'l'")
        if not is_grid(comps, chart.dim, rank):
            raise DegreeError(
                f"component array must be {chart.dim}^{rank} of Expr"
            )
        self.chart = chart
        self.variance = variance
        self.comps = grid_map(simplify, comps, rank)

    @property
    def rank(self) -> int:
        return len(self.variance)

    def comp(self, *idx: int) -> Expr:
        return grid_at(self.comps, idx)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.chart == other.chart
            and self.variance == other.variance
            and self.comps == other.comps
        )

    def nonzero(self) -> dict[tuple[int, ...], Expr]:
        """Map of the nonzero components, in index order."""
        return {idx: e for idx, e in grid_items(self.comps, self.chart.dim,
                                                self.rank) if e != ZERO}


class Connection(Tensor):
    """n^3 coefficients Gamma^sigma_{alpha beta}, possibly nonsymmetric,
    held in a "ull" component container (Gamma itself does not transform
    as a tensor); `gamma` is its component array."""

    def __init__(self, chart: Chart, gamma):
        super().__init__(chart, "ull", gamma)
        self.gamma = self.comps

    @classmethod
    def zero(cls, chart: Chart) -> "Connection":
        return cls(chart, grid(chart.dim, 3, lambda s, a, b: ZERO))


def _stage(build):
    """Build a stage of a metric's curvature stack on first use and keep it
    on that metric object, so all its consumers share one stack.  A stage
    is a pure function of the metric."""
    slot = f"_stage_{build.__name__}"

    @wraps(build)
    def stage(g: Metric):
        if slot not in g.__dict__:
            g.__dict__[slot] = build(g)
        return g.__dict__[slot]
    return stage


@_stage
def christoffel(g: Metric) -> Connection:
    """Levi-Civita coefficients of a nonsingular metric, symmetric in the
    lower pair: Gamma^s_{ab} is built for a <= b, and Gamma^s_{ba} is the
    same object."""
    chart = g.chart
    n = chart.dim
    names = chart.names
    half = pow_(Rat(2), -1)
    # dg[c][a][b] = d_c g_ab, each taken once; ZERO for a ZERO entry
    dg = grid(n, 3, lambda c, a, b: ZERO if g.g[a][b] is ZERO
              else diff(g.g[a][b], names[c]))
    inverse_rows = [[(r, e) for r, e in enumerate(row) if e != ZERO]
                    for row in g.inverse]

    def gamma(s, a, b):
        parts = []
        for r, inv in inverse_rows[s]:
            d1, d2, d3 = dg[a][r][b], dg[b][r][a], dg[r][a][b]
            if d1 is ZERO and d2 is ZERO and d3 is ZERO:
                continue
            bracket = add(d1, d2, neg(d3))
            if bracket is not ZERO:
                parts.append(mul(inv, bracket))
        if not parts:
            return ZERO
        total = add(*parts)
        return total if total is ZERO else mul(half, total)

    return Connection(chart, grid(n, 3, mirrored(gamma)))


def torsion(c: Connection) -> Tensor:
    """T^sigma_{alpha beta} = Gamma^sigma_{alpha beta}
    - Gamma^sigma_{beta alpha}; identically zero for christoffel output.
    An entry whose two coefficients are one object, as in christoffel's
    mirrored lower pair, is ZERO with no algebra; on canonical trees a - a
    is ZERO anyway."""
    gamma = c.gamma

    def entry(s, a, b):
        ab, ba = gamma[s][a][b], gamma[s][b][a]
        if ab is ba:  # both ZERO, or one mirrored Levi-Civita coefficient
            return ZERO
        return add(ab, neg(ba))

    return Tensor(c.chart, "ull", grid(c.chart.dim, 3, entry))


def _form_components_as_vector(a: Form) -> tuple[Expr, ...]:
    return tuple(a.get((i,)) for i in range(a.chart.dim))


def covariant_derivative_1form(a: Form, c: Connection) -> Tensor:
    """Matrix A_{beta;alpha} indexed [alpha][beta]."""
    if a.chart != c.chart:
        raise ChartMismatchError("form and connection charts differ")
    if a.degree != 1:
        raise DegreeError("covariant derivative here takes a 1-form")
    n = a.chart.dim
    names = a.chart.names
    A = _form_components_as_vector(a)

    def entry(al, b):
        transport = add(*(mul(c.gamma[s][al][b], A[s]) for s in range(n)))
        return add(diff(A[b], names[al]), neg(transport))

    return Tensor(a.chart, "ll", grid(n, 2, entry))


def evolutionary_commutator(a: Form, c: Connection) -> Form:
    """2-form K = d a - T^sigma a_sigma with T the torsion, that is
    K_{alpha beta} = (d_alpha A_beta - d_beta A_alpha)
    + (Gamma^sigma_{beta alpha} - Gamma^sigma_{alpha beta}) A_sigma.

    For symmetric connections this is exactly ext_d(a); nonsymmetric
    connectedness contributes the torsion term that obstructs closure.
    Built from Gamma directly: summing the simplified ext_d(a) and
    torsion(c) gives equal values, but a larger tree where `simplify`
    stops at its expansion budget.
    """
    if a.chart != c.chart:
        raise ChartMismatchError("form and connection charts differ")
    if a.degree != 1:
        raise DegreeError("the evolutionary commutator takes a 1-form")
    n = a.chart.dim
    names = a.chart.names
    A = _form_components_as_vector(a)
    comps = {}
    for al in range(n):
        for be in range(al + 1, n):
            curl = add(diff(A[be], names[al]), neg(diff(A[al], names[be])))
            tors = add(
                *(
                    mul(add(c.gamma[s][be][al], neg(c.gamma[s][al][be])), A[s])
                    for s in range(n)
                )
            )
            comps[(al, be)] = add(curl, tors)
    return Form(a.chart, 2, comps)


def _riemann_component(gamma, names, r: int, s: int, m: int, v: int) -> Expr:
    """R^r_{s m v} of the coefficients `gamma`, simplified; 0 for m == v,
    where the formula is antisymmetric in m, v."""
    if m == v:
        return ZERO
    parts = []
    if gamma[r][v][s] is not ZERO:
        parts.append(diff(gamma[r][v][s], names[m]))
    if gamma[r][m][s] is not ZERO:
        parts.append(neg(diff(gamma[r][m][s], names[v])))
    for lam in range(len(names)):
        a, b = gamma[r][m][lam], gamma[lam][v][s]
        if a is not ZERO and b is not ZERO:
            parts.append(mul(a, b))
        a, b = gamma[r][v][lam], gamma[lam][m][s]
        if a is not ZERO and b is not ZERO:
            parts.append(mul(_MINUS_ONE, a, b))
    return simplify(add(*parts)) if parts else ZERO


def riemann(c: Connection) -> Tensor:
    """Curvature R^rho_{sigma mu nu} of a (possibly nonsymmetric)
    connection; antisymmetric in mu, nu.  Only the n^3(n-1)/2 components
    with mu < nu are built; those with mu > nu are their negations."""
    rule = partial(_riemann_component, c.gamma, c.chart.names)
    return Tensor(c.chart, "ulll", grid(c.chart.dim, 4, mirrored(rule, neg)))


@_stage
def ricci_and_scalar(g: Metric) -> tuple[Tensor, Expr]:
    """R_{mu nu} = R^rho_{mu rho nu} and R = g^{mu nu} R_{mu nu} of the
    Levi-Civita connection, contracted from the Riemann components
    R^rho_{mu rho nu} with mu <= nu alone, n^2(n+1)/2 of them; R_{nu mu}
    is the object built for R_{mu nu}.  Each component comes from the one
    curvature rule `riemann` uses, so R_{mu nu} is the contraction of
    `riemann(christoffel(g))`."""
    n = g.chart.dim
    component = partial(_riemann_component, christoffel(g).gamma,
                        g.chart.names)

    def contracted(m, v):
        return add(*(component(r, m, r, v) for r in range(n)))

    ricci_t = Tensor(g.chart, "ll", grid(n, 2, mirrored(contracted)))
    scalar = simplify(add(*(
        mul(g.inverse[m][v], ricci_t.comp(m, v))
        for m in range(n) for v in range(n)
        if g.inverse[m][v] is not ZERO and ricci_t.comp(m, v) is not ZERO
    )))
    return ricci_t, scalar


@_stage
def einstein_tensor(g: Metric) -> Tensor:
    """G_{mu nu} = R_{mu nu} - (1/2) g_{mu nu} R, from the Ricci stage
    `ricci_and_scalar(g)`; built for mu <= nu, and G_{nu mu} is the object
    built for G_{mu nu}."""
    ricci, scalar = ricci_and_scalar(g)
    minus_half = pow_(Rat(-2), -1)

    def entry(m, v):
        if g.g[m][v] is ZERO or scalar is ZERO:
            return ricci.comp(m, v)
        return add(ricci.comp(m, v), mul(minus_half, g.g[m][v], scalar))

    return Tensor(g.chart, "ll", grid(g.chart.dim, 2, mirrored(entry)))


@_stage
def bianchi_residual(g: Metric) -> tuple[Expr, ...]:
    """Contracted Bianchi residual, one expression per lower index:
    div G_nu = g^{mu rho} (d_rho G_{mu nu} - Gamma^lam_{rho mu} G_{lam nu}
    - Gamma^lam_{rho nu} G_{mu lam}); expected componentwise zero."""
    chart = g.chart
    n = chart.dim
    names = chart.names
    G = einstein_tensor(g)
    gamma = christoffel(g).gamma

    def divergence(v):
        parts = []
        for m in range(n):
            for r in range(n):
                if g.inverse[m][r] == ZERO:
                    continue
                Gmv = G.comp(m, v)
                inner = [] if Gmv is ZERO else [diff(Gmv, names[r])]
                for lam in range(n):
                    for a, b in ((gamma[lam][r][m], G.comp(lam, v)),
                                 (gamma[lam][r][v], G.comp(m, lam))):
                        if a is not ZERO and b is not ZERO:
                            inner.append(mul(_MINUS_ONE, a, b))
                total = add(*inner)
                if total is not ZERO:
                    parts.append(mul(g.inverse[m][r], total))
        return simplify(add(*parts))

    return grid(n, 1, divergence)

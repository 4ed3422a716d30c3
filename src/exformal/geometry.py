"""Metric structure and Hodge duality.

Conventions (also echoed in every CLI report):

* Minkowski scenarios use the mostly-plus signature diag(-1, 1, 1, 1)
  with time first; the determinant sign is declared, then checked:
  exactly when det g simplifies to a constant, otherwise numerically at
  the sampling box center (or, where det g is singular there, at the
  first point of seed 0 where it is not); it is never inferred.
* hodge raises all indices with g^{-1} (by its minors, through
  `_linalg.compound_sum`), contracts against the Levi-Civita symbol,
  and scales by sqrt|det g|; the involution **a = s * (-1)^(p(n-p)) a
  fixes every sign (s = declared det sign).
* codifferential: delta a = s * (-1)^(n(p+1)+1) * d * a.
* electromagnetic 2-form: F = (E1 dx + E2 dy + E3 dz)^dt
  + B1 dy^dz + B2 dz^dx + B3 dx^dy, units c = 1; with it dF = 0 encodes
  Faraday plus no-monopoles and d*F = *J encodes Gauss plus Ampere.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Sequence

from .errors import (
    ChartError,
    ChartMismatchError,
    DegreeError,
    MetricValidationError,
    SingularMetricError,
)
from ._linalg import as_matrix, compound_sum, grid, mat_det, mat_inverse, minors
from .exterior import Form, _merge_sign, ext_d, linear_combine
from .symbolic import (
    _MAX_REDRAWS,
    _SINGULAR_GUARD,
    Chart,
    Expr,
    Rat,
    ZERO,
    ZeroVerdict,
    _check_residuals,
    _coeff_monomial,
    _mono_factors,
    _sample_values,
    add,
    free_symbols,
    func,
    is_zero,
    mul,
    neg,
    pow_,
    simplify,
)

__all__ = [
    "Metric",
    "hodge",
    "codifferential",
    "build_em_form",
    "maxwell_residual",
    "euclidean_metric",
    "minkowski_metric",
]


def _sqrt_positive(e: Expr) -> Expr:
    """sqrt of an expression declared positive; halves even monomial
    exponents (a(t)^6 -> a(t)^3), otherwise keeps an opaque sqrt node."""
    e = simplify(e)
    coeff, mono = _coeff_monomial(e)
    root = func("sqrt", Rat(coeff)) if coeff > 0 else None
    if isinstance(root, Rat):  # coeff is a perfect square
        halved = []
        for b, k in _mono_factors(mono):
            if k % 2:
                break
            halved.append(pow_(b, k // 2))
        else:
            return mul(root, *halved)
    return func("sqrt", e)


class Metric:
    """Symmetric Expr matrix with declared determinant sign.

    Construction simplifies entries, checks symmetry structurally,
    computes and caches the inverse, rejects identically singular
    matrices, and confirms g*g^-1 = I and the declared sign of det g
    (exactly for a constant det g, else by `_sample_det`); its zero tests
    use seed 0.
    """

    def __init__(self, chart: Chart, g: Sequence[Sequence[Expr]], det_sign: int):
        if det_sign not in (1, -1):
            raise MetricValidationError("det_sign must be +1 or -1")
        n = chart.dim
        if len(g) != n:
            raise ChartError(f"metric must be {n}x{n} for this chart")
        self.chart = chart
        self.g = as_matrix(g)
        self.det_sign = det_sign
        for i in range(n):
            for j in range(i + 1, n):
                if self.g[i][j] != self.g[j][i]:
                    raise MetricValidationError(
                        f"metric not symmetric at ({i},{j})"
                    )
        minor = minors(self.g)  # det g and the cofactors share its sub-minors
        self.det = mat_det(self.g, minor)
        if is_zero(self.det) is ZeroVerdict.ZERO:
            raise SingularMetricError("metric determinant is identically zero")
        self.inverse = mat_inverse(self.g, self.det, minor)
        self.sqrt_abs_det = _sqrt_positive(mul(Rat(det_sign), self.det))
        self._check_inverse()
        self._check_det_sign()

    def _check_inverse(self):
        n = self.chart.dim
        residuals = {
            (i, j): add(*(mul(self.g[i][k], self.inverse[k][j]) for k in range(n)
                          if self.g[i][k] is not ZERO
                          and self.inverse[k][j] is not ZERO),
                        Rat(-1) if i == j else ZERO)
            for i in range(n) for j in range(n)
        }
        _, bad = _check_residuals(residuals, 0)
        if bad:
            i, j = min(bad)
            raise MetricValidationError(f"g * g^-1 != identity at ({i},{j})")

    def _check_det_sign(self):
        exact = isinstance(self.det, Rat)
        v = self.det.value if exact else self._sample_det()
        if (v > 0) != (self.det_sign > 0):
            where = "the constant det" if exact else "det at sample"
            raise MetricValidationError(
                f"declared det_sign {self.det_sign} contradicts {where}"
            )

    def _sample_det(self) -> float:
        """det g at the sampling box center, or at the first point of seed 0
        after it where det g is defined and not within the singular guard
        of zero; the sampler runs unguarded on the symbols of g."""
        names = set().union(*(free_symbols(e) for row in self.g for e in row))
        values = _sample_values(self.det, 0, 0.0, names, center=True)
        for v in islice(values, _MAX_REDRAWS + 1):
            if v is not None and abs(v) > _SINGULAR_GUARD:
                return v
        raise MetricValidationError("could not sample a nonsingular point")


def euclidean_metric(chart: Chart) -> Metric:
    rows = grid(chart.dim, 2, lambda i, j: Rat(1) if i == j else ZERO)
    return Metric(chart, rows, det_sign=1)


def minkowski_metric(chart: Chart) -> Metric:
    """diag(-1, 1, ..., 1) with the first coordinate timelike."""
    def entry(i, j):
        return Rat(-1 if i == 0 else 1) if i == j else ZERO

    return Metric(chart, grid(chart.dim, 2, entry), det_sign=-1)


def hodge(a: Form, g: Metric) -> Form:
    """Hodge dual; degree p -> n - p."""
    if a.chart != g.chart:
        raise ChartMismatchError("form and metric live on different charts")
    n = g.chart.dim
    p = a.degree
    comps = {}
    for idx in combinations(range(n), p):
        dual = tuple(i for i in range(n) if i not in idx)
        up = compound_sum(g.inverse, a.components, idx)
        comps[dual] = mul(Rat(_merge_sign(idx, dual)), g.sqrt_abs_det, up)
    return Form(g.chart, n - p, comps)


def codifferential(a: Form, g: Metric) -> Form:
    """delta a = s * (-1)^(n(p+1)+1) * d * a; zero on scalars."""
    n = g.chart.dim
    p = a.degree
    if p == 0:
        return Form.zero(g.chart, 0)
    sign = g.det_sign * (-1) ** (n * (p + 1) + 1)
    return linear_combine([Rat(sign)], [hodge(ext_d(hodge(a, g)), g)])


def build_em_form(E: Sequence[Expr], B: Sequence[Expr], chart: Chart) -> Form:
    """Electromagnetic 2-form from E and B on a 4-dim chart, time first."""
    if chart.dim != 4:
        raise ChartError("electromagnetic form needs a 4-dimensional chart")
    if len(E) != 3 or len(B) != 3:
        raise DegreeError("E and B each need three components")
    comps = {
        (0, 1): neg(E[0]),
        (0, 2): neg(E[1]),
        (0, 3): neg(E[2]),
        (2, 3): B[0],
        (1, 3): neg(B[1]),
        (1, 2): B[2],
    }
    return Form(chart, 2, comps)


def maxwell_residual(F: Form, J: Form, g: Metric) -> tuple[Form, Form]:
    """(dF, d*F - *J); both vanish exactly when the scenario satisfies
    the source convention d*F = *J."""
    if F.chart != g.chart or J.chart != g.chart:
        raise ChartMismatchError("F, J, metric must share one chart")
    if g.chart.dim != 4:
        raise ChartError("Maxwell residuals need a 4-dimensional chart")
    if F.degree != 2:
        raise DegreeError("F must have degree 2")
    if J.degree != 1:
        raise DegreeError("J must have degree 1")
    first = ext_d(F)
    second = linear_combine(
        [Rat(1), Rat(-1)], [ext_d(hodge(F, g)), hodge(J, g)]
    )
    return first, second

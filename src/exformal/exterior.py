"""Skew-symmetric differential forms over a single chart.

Components are stored only at strictly increasing multi-indices, so two
forms are equal exactly when their component maps match.  Operations
yield their result as (index, term) pairs that `_summed` adds up per
index, and every sign of moving differentials into increasing order comes
from `_merge_sign`; `pullback` alone takes Jacobian minors through
`_linalg.compound_sum`, all read from one minor table of the Jacobian per
call.  The closure classifier separates Closed / Exact / NonClosed and,
for closed forms, attempts an explicit potential that is re-verified
before being reported.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ChartMismatchError, DegreeError, DomainError
from .symbolic import (
    Chart,
    Expr,
    Rat,
    Sym,
    Verdict,
    ZERO,
    _check_residuals,
    add,
    diff,
    free_symbols,
    mul,
    pow_,
    simplify,
    sub,
    substitute,
    to_text,
)
from ._antideriv import antiderivative
from ._linalg import compound_sum, minors

__all__ = [
    "Form",
    "VectorField",
    "SubmanifoldMap",
    "ClosureStatus",
    "ClosureReport",
    "dcoord",
    "wedge",
    "ext_d",
    "linear_combine",
    "pullback",
    "interior_product",
    "classify_closure",
    "form_to_text",
]


class Form:
    """Degree-p skew-symmetric form: increasing index tuple -> Expr.

    Components are simplified on construction and zeros dropped, so the
    empty map is the zero form.  Degree 0 stores its single expression at
    the empty tuple.  Instances are immutable by convention.
    """

    def __init__(self, chart: Chart, degree: int,
                 components: Mapping[Sequence[int], Expr] | None = None):
        n = chart.dim
        if not 0 <= degree <= n:
            raise DegreeError(f"degree {degree} out of range for dim {n}")
        comps: dict[tuple[int, ...], Expr] = {}
        for raw_idx, e in (components or {}).items():
            idx = tuple(raw_idx)
            if len(idx) != degree:
                raise DegreeError(f"index {idx} has length != degree {degree}")
            if any(not 0 <= i < n for i in idx):
                raise DegreeError(f"index {idx} out of range for dim {n}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise DegreeError(f"index {idx} is not strictly increasing")
            s = simplify(e)
            if s != ZERO:
                comps[idx] = s
        self.chart = chart
        self.degree = degree
        self.components = comps

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def scalar(cls, chart: Chart, e: Expr) -> "Form":
        return cls(chart, 0, {(): e})

    def get(self, idx: Sequence[int]) -> Expr:
        return self.components.get(tuple(idx), ZERO)

    @property
    def is_zero_form(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    def __repr__(self):
        return f"<Form deg={self.degree} {form_to_text(self)}>"


def dcoord(chart: Chart, i: int) -> Form:
    """The coordinate differential dx^i as a 1-form."""
    return Form(chart, 1, {(i,): Rat(1)})


def form_to_text(f: Form) -> str:
    if f.degree == 0:
        return to_text(f.get(()))
    if not f.components:
        return "0"
    parts = []
    for idx in sorted(f.components):
        basis = "^".join(f"d{f.chart.names[i]}" for i in idx)
        parts.append(f"({to_text(f.components[idx])}) {basis}")
    return " + ".join(parts)


class VectorField:
    """Contravariant components, one Expr per chart coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: tuple[Expr, ...]):
        if len(components) != chart.dim:
            raise DegreeError("vector field needs one component per coordinate")
        self.chart = chart
        self.components = components


class SubmanifoldMap:
    """Parameterized map u -> x(u) from a source chart into a target chart.

    Models the integrable structure (pseudostructure) on which inexact
    closed forms are realized; supplied by the user, never searched for.
    """

    __slots__ = ("source", "target", "exprs")

    def __init__(self, source: Chart, target: Chart, exprs: tuple[Expr, ...]):
        if len(exprs) != target.dim:
            raise DegreeError("map needs one expression per target coordinate")
        self.source = source
        self.target = target
        self.exprs = exprs

    @classmethod
    def identity(cls, chart: Chart) -> "SubmanifoldMap":
        return cls(chart, chart, tuple(Sym(n) for n in chart.names))


def _require_same_chart(a_chart: Chart, b_chart: Chart):
    if a_chart != b_chart:
        raise ChartMismatchError(
            f"charts differ: {a_chart.names} vs {b_chart.names}"
        )


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Parity of sorting the concatenation of two increasing tuples."""
    inversions = 0
    for i in left:
        for j in right:
            if j < i:
                inversions += 1
    return -1 if inversions % 2 else 1


def _summed(chart: Chart, degree: int,
            terms: Iterable[tuple[tuple[int, ...], Expr]]) -> Form:
    """The form whose component at each index is the sum of the terms
    paired with that index; an index without terms is zero."""
    acc: dict[tuple[int, ...], list[Expr]] = {}
    for idx, term in terms:
        acc.setdefault(idx, []).append(term)
    return Form(chart, degree, {idx: add(*ts) for idx, ts in acc.items()})


def wedge(a: Form, b: Form) -> Form:
    """Graded-commutative exterior product."""
    _require_same_chart(a.chart, b.chart)
    n = a.chart.dim
    degree = a.degree + b.degree
    if degree > n:
        return Form.zero(a.chart, n)
    return _summed(a.chart, degree, (
        (tuple(sorted(ia + ib)), mul(Rat(_merge_sign(ia, ib)), ca, cb))
        for ia, ca in a.components.items()
        for ib, cb in b.components.items()
        if not set(ia) & set(ib)
    ))


def ext_d(a: Form) -> Form:
    """Exterior derivative; at top degree returns the zero form."""
    n = a.chart.dim
    if a.degree == n:
        return Form.zero(a.chart, n)
    names = a.chart.names
    position = {name: j for j, name in enumerate(names)}

    def terms():
        for idx, c in a.components.items():
            # c's derivative by a coordinate it does not hold is zero
            held = sorted(position[s] for s in free_symbols(c) if s in position)
            for j in held:
                if j in idx:
                    continue
                dc = diff(c, names[j])
                if dc != ZERO:
                    sign = _merge_sign((j,), idx)
                    yield tuple(sorted(idx + (j,))), mul(Rat(sign), dc)

    return _summed(a.chart, a.degree + 1, terms())


def linear_combine(coeffs: Sequence[Expr], forms: Sequence[Form]) -> Form:
    """Componentwise sum of coefficient-scaled forms of equal degree."""
    if len(coeffs) != len(forms):
        raise DegreeError("need one coefficient per form")
    if not forms:
        raise DegreeError("need at least one form")
    chart, degree = forms[0].chart, forms[0].degree
    for f in forms[1:]:
        _require_same_chart(chart, f.chart)
        if f.degree != degree:
            raise DegreeError("forms must share a degree")
    return _summed(chart, degree, (
        (idx, mul(c, comp))
        for c, f in zip(coeffs, forms)
        for idx, comp in f.components.items()
    ))


def pullback(phi: SubmanifoldMap, a: Form) -> Form:
    """Pull a form on the target chart back along the map.  Its component
    at a source index K is sum_I a_I(x(u)) det(dx^I/du^K), the minors of
    the map's Jacobian (Cauchy-Binet), read by `compound_sum` from one
    minor table of the Jacobian."""
    _require_same_chart(phi.target, a.chart)
    src = phi.source
    k = src.dim
    if a.degree > k:
        return Form.zero(src, k)
    subs_map = {phi.target.names[i]: phi.exprs[i] for i in range(phi.target.dim)}
    jac_t = tuple(tuple(diff(x, u) for x in phi.exprs) for u in src.names)
    minor = minors(jac_t)
    pulled = {idx: substitute(c, subs_map) for idx, c in a.components.items()}
    return Form(src, a.degree, {
        K: compound_sum(minor, pulled, K)
        for K in combinations(range(k), a.degree)
    })


def interior_product(v: VectorField, a: Form) -> Form:
    """Contraction of the first slot with a vector field."""
    _require_same_chart(v.chart, a.chart)
    if a.degree < 1:
        raise DegreeError("interior product needs degree >= 1")
    return _summed(a.chart, a.degree - 1, (
        (idx[:pos] + idx[pos + 1:],
         mul(Rat(_merge_sign((i,), idx)), v.components[i], c))
        for idx, c in a.components.items()
        for pos, i in enumerate(idx)
    ))


# ---------------------------------------------------------------------------
# Closure classification
# ---------------------------------------------------------------------------


class ClosureStatus(Enum):
    CLOSED = "Closed"
    EXACT = "Exact"
    NONCLOSED = "NonClosed"


class ClosureReport(NamedTuple):
    status: ClosureStatus
    potential: Form | None = None
    commutator: dict | None = None
    uncertain: bool = False


def _axis_potential(a: Form, base: int) -> Expr | None:
    """Potential of a closed 1-form by iterated segment integration from
    the base point (base, ..., base); None when the antiderivative table
    cannot integrate a component."""
    names = a.chart.names
    s = "_s_"
    base_e = Rat(base)
    parts = []
    for i, name in enumerate(names):
        comp = a.get((i,))
        if comp == ZERO:
            continue
        frozen = {names[j]: base_e for j in range(i + 1, len(names))}
        frozen[name] = Sym(s)
        integrand = substitute(comp, frozen)
        anti = antiderivative(integrand, s)
        if anti is None:
            return None
        try:
            upper = substitute(anti, {s: Sym(name)})
            lower = substitute(anti, {s: base_e})
        except DomainError:
            return None
        parts.append(sub(upper, lower))
    return add(*parts)


def _homotopy_potential(a: Form) -> Form | None:
    """Scaling-homotopy potential about the origin for degree >= 2."""
    chart = a.chart
    n = chart.dim
    p = a.degree
    t = "_t_"
    scale = {name: mul(Sym(t), Sym(name)) for name in chart.names}
    comps: dict[tuple[int, ...], Expr] = {}
    for J in combinations(range(n), p - 1):
        parts = []
        for i in range(n):
            if i in J:
                continue
            comp = a.get(tuple(sorted(J + (i,))))
            if comp == ZERO:
                continue
            sign = _merge_sign((i,), J)
            integrand = mul(pow_(Sym(t), p - 1), substitute(comp, scale))
            anti = antiderivative(integrand, t)
            if anti is None:
                return None
            try:
                value = sub(substitute(anti, {t: Rat(1)}),
                            substitute(anti, {t: Rat(0)}))
            except DomainError:
                return None
            parts.append(mul(Rat(sign), Sym(chart.names[i]), value))
        if parts:
            comps[J] = add(*parts)
    return Form(chart, p - 1, comps)


def _verified(potential: Form, a: Form, seed: int) -> bool:
    residual = linear_combine([Rat(1), Rat(-1)], [ext_d(potential), a])
    return _check_residuals(residual.components, seed)[0] is Verdict.PASS


def _find_potential(a: Form, seed: int) -> Form | None:
    p = a.degree
    if p == 0:
        return None
    if a.is_zero_form:
        return Form.zero(a.chart, p - 1)
    if p == 1:
        for base in (0, 1):
            psi = _axis_potential(a, base)
            if psi is None:
                continue
            candidate = Form.scalar(a.chart, psi)
            if _verified(candidate, a, seed):
                return candidate
        return None
    candidate = _homotopy_potential(a)
    if candidate is not None and _verified(candidate, a, seed):
        return candidate
    return None


def classify_closure(a: Form, seed: int = 0) -> ClosureReport:
    """Closed / Exact / NonClosed classification of a form.

    Exactness is only reported with a potential that has been rebuilt
    through ext_d and re-verified; when the integration table cannot
    produce one, the honest answer is Closed with no potential.  Every
    component of d(a) whose zero test is not Zero makes the form NonClosed
    and goes into the commutator; `uncertain` is set when the check of
    d(a) = 0 is Unknown, i.e. each of those components is Unknown and none
    is NonZero.
    """
    d = ext_d(a)
    verdict, bad = _check_residuals(d.components, seed)
    if bad:
        return ClosureReport(ClosureStatus.NONCLOSED,
                             commutator={idx: d.components[idx] for idx in bad},
                             uncertain=verdict is Verdict.UNKNOWN)
    potential = _find_potential(a, seed)
    if potential is not None:
        return ClosureReport(ClosureStatus.EXACT, potential=potential)
    return ClosureReport(ClosureStatus.CLOSED)

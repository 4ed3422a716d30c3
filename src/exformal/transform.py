"""Degenerate transformations and realization of identical relations.

Legendre transform restricted to Lagrangians quadratic in the velocities
(degeneracy is then exactly det M = 0), Jacobian/Hessian/Poisson-bracket
degeneracy loci, integrating factors for 1-forms on 2-dim charts, and the
canonical 1-form with its flow check.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .errors import (
    ChartError,
    DegenerateLagrangianError,
    NotVerifiableError,
    PatternMismatchError,
)
from ._antideriv import antiderivative
from ._linalg import as_matrix, mat_inverse, minors
from .exterior import (
    ClosureStatus,
    Form,
    VectorField,
    classify_closure,
    ext_d,
    interior_product,
    linear_combine,
    pullback,
)
from .symbolic import (
    Add,
    Chart,
    Expr,
    Func,
    ONE,
    Rat,
    Sym,
    Verdict,
    ZERO,
    ZeroVerdict,
    _check_residuals,
    _coefficient_rat,
    _with_coefficient,
    add,
    depends_on,
    diff,
    div,
    free_symbols,
    func,
    is_zero,
    mul,
    neg,
    pow_,
    simplify,
    sub,
    substitute,
)

__all__ = [
    "QuadraticLagrangian",
    "HamiltonianSystem",
    "DegeneracyClass",
    "DegeneracyReport",
    "FlowCheckReport",
    "canonical_split",
    "legendre",
    "inverse_legendre",
    "poisson_bracket",
    "jacobian_degeneracy",
    "integrating_factor",
    "poincare_cartan",
    "hamilton_flow_check",
]


class DegeneracyClass(Enum):
    NONDEGENERATE = "Nondegenerate"
    DEGENERATE_EVERYWHERE = "DegenerateEverywhere"
    CONDITIONALLY_DEGENERATE = "ConditionallyDegenerate"


class DegeneracyReport(NamedTuple):
    """Vanishing locus of a Hessian or Jacobian determinant."""

    determinant: Expr
    locus_status: ZeroVerdict
    classification: DegeneracyClass


def _classify_determinant(det: Expr, seed: int) -> DegeneracyReport:
    det = simplify(det)
    status = is_zero(det, seed)
    if status is ZeroVerdict.ZERO:
        cls = DegeneracyClass.DEGENERATE_EVERYWHERE
    elif isinstance(det, Rat):
        cls = DegeneracyClass.NONDEGENERATE
    else:
        cls = DegeneracyClass.CONDITIONALLY_DEGENERATE
    return DegeneracyReport(det, status, cls)


def _fresh_names(stems, taken) -> tuple[str, ...]:
    """Each stem with '_' appended until it is neither in `taken` nor an
    earlier result."""
    out = []
    for name in stems:
        while name in taken or name in out:
            name += "_"
        out.append(name)
    return tuple(out)


class QuadraticLagrangian:
    """L = (1/2) v^T M(q) v + b(q)^T v - V(q).

    M must be symmetric and, like b and V, independent of the velocity
    symbols.
    """

    def __init__(self, q_names: Sequence[str], v_names: Sequence[str],
                 mass: Sequence[Sequence[Expr]], linear: Sequence[Expr],
                 potential: Expr, p_names: Sequence[str] | None = None):
        q_names, v_names = tuple(q_names), tuple(v_names)
        if len(q_names) != len(v_names) or not q_names:
            raise ChartError("need matching nonempty q and v name lists")
        try:
            Chart(q_names + v_names)
        except ValueError as e:
            raise ChartError(f"q and v names: {e}") from None
        k = len(q_names)
        mass = as_matrix(mass)
        if len(mass) != k or len(linear) != k:
            raise ChartError("mass matrix and linear term must be k x k / k")
        for i in range(k):
            for j in range(i + 1, k):
                if mass[i][j] != mass[j][i]:
                    raise ChartError(f"mass matrix not symmetric at ({i},{j})")
        linear = tuple(simplify(e) for e in linear)
        potential = simplify(potential)
        held = set().union(*map(free_symbols, [e for row in mass for e in row]
                                + [*linear, potential]))
        if held.intersection(v_names):
            raise ChartError("M, b, V must not depend on velocities")
        self.q_names = q_names
        self.v_names = v_names
        self.mass = mass
        self.linear = linear
        self.potential = potential
        if p_names is None:
            p_names = _fresh_names(
                ("p" + v[1:] if v.startswith("v") else "p_" + q
                 for q, v in zip(q_names, v_names)),
                held.union(q_names, v_names))
        self.p_names = tuple(p_names)

    @property
    def k(self) -> int:
        return len(self.q_names)


class HamiltonianSystem:
    """H over a canonical chart ordered (t?, q_1..q_k, p_1..p_k)."""

    def __init__(self, chart: Chart, hamiltonian: Expr):
        self.chart = chart
        self.hamiltonian = simplify(hamiltonian)
        self.time, self.q_names, self.p_names = canonical_split(chart)

    @property
    def k(self) -> int:
        return len(self.q_names)

    def with_time(self) -> "HamiltonianSystem":
        if self.time is not None:
            return self
        if "t" in self.chart.names:
            raise ChartError("cannot prepend time: 't' already used")
        return HamiltonianSystem(
            Chart(("t",) + self.chart.names), self.hamiltonian
        )


def canonical_split(chart: Chart):
    """Split (t?, q..., p...) by the ordering convention; the leading
    coordinate named 't' is time, the rest halves into q's then p's."""
    names = chart.names
    time = None
    rest = names
    if names[0] == "t":
        time = "t"
        rest = names[1:]
    if not rest or len(rest) % 2:
        raise ChartError(
            "canonical chart needs an even number of q/p coordinates"
        )
    k = len(rest) // 2
    return time, rest[:k], rest[k:]


def _canonical_chart(k: int) -> Chart:
    """(t, q, p) for k = 1, else (t, q1..qk, p1..pk)."""
    if k == 1:
        return Chart(("t", "q", "p"))
    ids = range(1, k + 1)
    return Chart(("t", *(f"q{i}" for i in ids), *(f"p{i}" for i in ids)))


def _quadratic(p_names, b, W, V) -> Expr:
    """(1/2)(p - b)^T W (p - b) + V over the momenta named `p_names`."""
    pb = [sub(Sym(p), bi) for p, bi in zip(p_names, b)]
    k = len(pb)
    half = pow_(Rat(2), -1)
    return add(
        *(
            mul(half, pb[i], W[i][j], pb[j])
            for i in range(k)
            for j in range(k)
        ),
        V,
    )


def legendre(L: QuadraticLagrangian, seed: int = 0
             ) -> tuple[HamiltonianSystem, DegeneracyReport]:
    """p = Mv + b inverted to H = (1/2)(p-b)^T M^-1 (p-b) + V.

    Raises DegenerateLagrangianError when det M is identically zero --
    the transform does not exist anywhere on that locus.
    """
    minor = minors(L.mass)
    report = _classify_determinant(minor(), seed)
    if report.classification is DegeneracyClass.DEGENERATE_EVERYWHERE:
        raise DegenerateLagrangianError(
            "velocity Hessian is identically singular", report
        )
    H = _quadratic(L.p_names, L.linear, mat_inverse(L.mass, minor), L.potential)
    chart = Chart(L.q_names + L.p_names)
    return HamiltonianSystem(chart, H), report


def inverse_legendre(H: HamiltonianSystem, seed: int = 0) -> QuadraticLagrangian:
    """Recover the quadratic Lagrangian from a quadratic-in-p Hamiltonian.

    Pattern-matches H = (1/2)(p-b)^T W (p-b) + V with W symmetric and
    nonsingular; raises PatternMismatchError otherwise.
    """
    k = H.k
    grads = [simplify(diff(H.hamiltonian, n)) for n in H.p_names]
    W = []
    for i in range(k):
        row = []
        for j in range(k):
            entry = simplify(diff(grads[i], H.p_names[j]))
            if any(depends_on(entry, n) for n in H.p_names):
                raise PatternMismatchError(
                    "Hamiltonian is not quadratic in the momenta"
                )
            row.append(entry)
        W.append(tuple(row))
    W = tuple(W)
    minor = minors(W)
    if is_zero(minor(), seed) is ZeroVerdict.ZERO:
        raise PatternMismatchError("momentum quadratic form is singular")
    M = mat_inverse(W, minor)
    zero_p = {n: ZERO for n in H.p_names}
    grad0 = [substitute(gi, zero_p) for gi in grads]
    b = tuple(
        simplify(neg(add(*(mul(M[i][j], grad0[j]) for j in range(k)))))
        for i in range(k)
    )
    V = simplify(substitute(H.hamiltonian, dict(zip(H.p_names, b))))
    rebuilt = _quadratic(H.p_names, b, W, V)
    if is_zero(sub(H.hamiltonian, rebuilt), seed) is not ZeroVerdict.ZERO:
        raise PatternMismatchError(
            "Hamiltonian does not match the quadratic family"
        )
    v_names = _fresh_names(
        ("v" + p[1:] if p.startswith("p") else "v_" + p for p in H.p_names),
        set(H.chart.names) | free_symbols(H.hamiltonian))
    return QuadraticLagrangian(H.q_names, v_names, M, b, V,
                               p_names=H.p_names)


def poisson_bracket(f: Expr, g: Expr, sys_chart: Chart) -> Expr:
    """{f, g} over a canonical chart."""
    _, q_names, p_names = canonical_split(sys_chart)
    parts = []
    for q, p in zip(q_names, p_names):
        parts.append(mul(diff(f, q), diff(g, p)))
        parts.append(neg(mul(diff(f, p), diff(g, q))))
    return simplify(add(*parts))


def jacobian_degeneracy(phi, seed: int = 0) -> DegeneracyReport:
    """Determinant of the Jacobian of a square map, classified; it is the
    top component of the pullback of the volume form."""
    if phi.source.dim != phi.target.dim:
        raise ChartError("jacobian degeneracy needs a square map")
    top = tuple(range(phi.target.dim))
    volume = Form(phi.target, len(top), {top: ONE})
    return _classify_determinant(pullback(phi, volume).get(top), seed)


def _exp_of(e: Expr) -> Expr:
    """exp(e) with integer multiples of ln(u) pulled out as powers."""
    e = simplify(e)
    if e == ZERO:
        return ONE
    terms = e.terms if isinstance(e, Add) else (e,)
    powers = []
    rest = []
    for t in terms:
        (_, n, d), mono = _coefficient_rat(t).key, _with_coefficient(ONE, t)
        if isinstance(mono, Func) and mono.name == "ln" and d == 1:
            powers.append(pow_(mono.arg, n))
        else:
            rest.append(t)
    out = mul(*powers) if powers else ONE
    if rest:
        out = mul(out, func("exp", add(*rest)))
    return simplify(out)


def integrating_factor(w: Form, seed: int = 0) -> tuple[Expr, Expr] | None:
    """mu and psi with d(psi) = mu * w for a 1-form on a 2-dim chart.

    An exact form has mu = 1 and its `classify_closure` potential; for a
    nonclosed one, searches mu depending on the first coordinate only, then
    on the second; candidates are kept only when d(psi) - mu*w verifies to
    zero.  Returns None when no candidate arises; raises NotVerifiableError
    for a closed form without a table potential and for a candidate that
    cannot be confirmed.
    """
    if w.chart.dim != 2:
        raise ChartError("integrating factors implemented for 2-dim charts")
    if w.degree != 1:
        raise ChartError("integrating factors apply to 1-forms")
    xname, yname = w.chart.names
    M, N = w.get((0,)), w.get((1,))

    report = classify_closure(w, seed)
    if report.status is ClosureStatus.EXACT:
        return ONE, report.potential.get(())
    if report.status is ClosureStatus.CLOSED:
        raise NotVerifiableError(
            "form is closed but no table potential exists"
        )
    curl = neg(report.commutator[(0, 1)])

    had_candidate = False
    for ratio_den, muvar, othervar, sign in (
        (N, xname, yname, 1),
        (M, yname, xname, -1),
    ):
        if ratio_den == ZERO:
            continue
        h = simplify(mul(Rat(sign), div(curl, ratio_den)))
        if depends_on(h, othervar):
            continue
        anti = antiderivative(h, muvar)
        if anti is None:
            continue
        mu = _exp_of(anti)
        had_candidate = True
        scaled = linear_combine([mu], [w])
        report = classify_closure(scaled, seed)
        if report.status is ClosureStatus.EXACT:
            return simplify(mu), report.potential.get(())
    if had_candidate:
        raise NotVerifiableError(
            "integrating-factor candidate found but d(psi) = mu*w "
            "could not be verified"
        )
    return None


def poincare_cartan(sys: HamiltonianSystem) -> Form:
    """theta = sum_i p_i dq_i - H dt on a chart ordered (t, q..., p...)."""
    if sys.time is None:
        raise ChartError("the canonical 1-form needs a time coordinate")
    comps = {(0,): neg(sys.hamiltonian)}
    for i, p in enumerate(sys.p_names):
        comps[(1 + i,)] = Sym(p)
    return Form(sys.chart, 1, comps)


class FlowCheckReport(NamedTuple):
    """Residual of the Hamiltonian flow field contracted into d(theta), and
    the verdict of zero-testing its components."""

    residual: Form
    verdict: Verdict

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


def _flow_residual(sys: HamiltonianSystem, dtheta: Form, sign: int) -> Form:
    """i_X d(theta) for X = (1, dH/dp_i, sign * dH/dq_i); sign -1 is the
    Hamiltonian flow, +1 the corrupted-flow control."""
    # chart order is (t, q..., p...): dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i
    ordered = (
        [ONE]
        + [diff(sys.hamiltonian, p) for p in sys.p_names]
        + [mul(Rat(sign), diff(sys.hamiltonian, q)) for q in sys.q_names]
    )
    return interior_product(VectorField(sys.chart, tuple(ordered)), dtheta)


def hamilton_flow_check(sys: HamiltonianSystem, seed: int = 0) -> FlowCheckReport:
    """Verify i_X d(theta) = 0 for X = (1, dH/dp_i, -dH/dq_i): the flow
    directions span the kernel of d(theta)."""
    if sys.time is None:
        raise ChartError("the flow check needs a time coordinate")
    residual = _flow_residual(sys, ext_d(poincare_cartan(sys)), -1)
    return FlowCheckReport(residual,
                           _check_residuals(residual.components, seed)[0])

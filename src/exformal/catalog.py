"""Named verifiers for the degree-k correspondences.

Degree 1 (Hamiltonian), degree 2 (Maxwell), and degree 3 (Einstein) ship
machine checks; degree 0 (wave-function / bra-ket operators) is carried
as metadata only, since there is no formula to compute.  Every verifier
has a bundled reference scenario expected to Pass and a falsification
control expected to Fail, so zero-residual checks cannot pass vacuously.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .connection import bianchi_residual, einstein_tensor
from .errors import ChartError
from .exterior import Form, ext_d, form_to_text
from .geometry import Metric, build_em_form, maxwell_residual, minkowski_metric
from ._linalg import grid
from .symbolic import (
    Chart,
    Expr,
    ONE,
    Rat,
    Sym,
    Verdict,
    ZERO,
    ZeroVerdict,
    _check_residuals,
    _fold_verdicts,
    add,
    diff,
    mul,
    parse_expr,
    pow_,
    simplify,
    sub,
    to_text,
)
from .transform import (
    HamiltonianSystem,
    _canonical_chart,
    _flow_residual,
    poincare_cartan,
    poisson_bracket,
)

__all__ = [
    "Verdict",
    "CheckResult",
    "VerificationReport",
    "CorrespondenceEntry",
    "Verifiability",
    "ENGINE_CONVENTIONS",
    "correspondence_table",
    "verify_maxwell",
    "verify_hamiltonian",
    "verify_einstein",
    "reference_report",
    "control_report",
    "VERIFIER_IDS",
]


ENGINE_CONVENTIONS = {
    "signature": "mostly-plus; Minkowski diag(-1,1,1,1) with time first",
    "hodge": "*a raises indices with g^-1, contracts Levi-Civita, scales by "
             "sqrt|det g|; **a = det_sign*(-1)^(p(n-p)) a",
    "codifferential": "delta = det_sign*(-1)^(n(p+1)+1) * d *",
    "em_form": "F = (E1 dx + E2 dy + E3 dz)^dt + B1 dy^dz + B2 dz^dx "
               "+ B3 dx^dy (c = 1); dF=0 is Faraday+no-monopole, "
               "d*F = *J is Gauss+Ampere with J contravariant (rho, J^i)",
    "gamma_index": "A_{beta;alpha} = d_alpha A_beta "
                   "- Gamma^sigma_{alpha beta} A_sigma",
    "riemann_sign": "R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} "
                    "- d_nu Gamma^rho_{mu sigma} + GG - GG; unit 2-sphere "
                    "R^theta_{phi theta phi} = +sin(theta)^2",
}


class CheckResult(NamedTuple):
    name: str
    residual_summary: str
    verdict: Verdict


class VerificationReport:
    """A verifier's checks, the values it shows and its notes, appended to
    as the verifier runs."""

    __slots__ = ("checks", "values", "notes")

    def __init__(self):
        self.checks = []
        self.values = {}
        self.notes = []

    @property
    def verdict(self) -> Verdict:
        return _fold_verdicts(c.verdict for c in self.checks)


def _residual_check(name: str, residuals: dict, seed: int) -> CheckResult:
    """Verdict from a {label: Expr} residual map, by `_check_residuals`.
    The summary lists every label that is not Zero: a NonZero one by its
    simplified residual, an Unknown one as `label=Unknown`."""
    verdict, bad = _check_residuals(residuals, seed)
    summary = "; ".join(
        f"{label}={to_text(simplify(residuals[label]))}"
        if v is ZeroVerdict.NONZERO else f"{label}=Unknown"
        for label, v in bad.items()
    )
    return CheckResult(name, summary or "all residuals zero", verdict)


# ---------------------------------------------------------------------------
# Degree 2: Maxwell
# ---------------------------------------------------------------------------


def verify_maxwell(E: Sequence[Expr], B: Sequence[Expr], J: Sequence[Expr],
                   metric: Metric, seed: int = 0) -> VerificationReport:
    """Check dF = 0, d*F = *J, and the Poynting energy balance.

    J carries contravariant current components (rho, J^1, J^2, J^3); it
    is lowered with the metric before dualizing.
    """
    chart = metric.chart
    if chart.dim != 4:
        raise ChartError("Maxwell verification needs a 4-dimensional chart")
    if len(J) != 4:
        raise ChartError("current needs four components (rho, J^i)")
    F = build_em_form(E, B, chart)
    j_low = [
        add(*(mul(metric.g[m][v], J[v]) for v in range(4))) for m in range(4)
    ]
    j_form = Form(chart, 1, {(m,): j_low[m] for m in range(4)})
    r1, r2 = maxwell_residual(F, j_form, metric)

    tname = chart.names[0]
    space = chart.names[1:]
    e_sq = add(*(mul(E[i], E[i]) for i in range(3)))
    b_sq = add(*(mul(B[i], B[i]) for i in range(3)))
    u = mul(pow_(Rat(2), -1), add(e_sq, b_sq))
    poynting = (
        sub(mul(E[1], B[2]), mul(E[2], B[1])),
        sub(mul(E[2], B[0]), mul(E[0], B[2])),
        sub(mul(E[0], B[1]), mul(E[1], B[0])),
    )
    balance = add(
        diff(u, tname),
        *(diff(poynting[i], space[i]) for i in range(3)),
        *(mul(E[i], J[1 + i]) for i in range(3)),
    )

    report = VerificationReport()
    report.checks.append(
        _residual_check("dF = 0 (Faraday + no monopoles)", r1.components, seed)
    )
    report.checks.append(
        _residual_check("d*F = *J (Gauss + Ampere)", r2.components, seed)
    )
    report.checks.append(
        _residual_check("energy balance d_t u + div(ExB) + E.J = 0",
                        {"scalar": balance}, seed)
    )
    report.values["F"] = form_to_text(F)
    return report


# ---------------------------------------------------------------------------
# Degree 1: Hamiltonian
# ---------------------------------------------------------------------------


def verify_hamiltonian(H: Expr, k: int = 1,
                       corrupted: bool = False,
                       seed: int = 0) -> VerificationReport:
    """Flow-kernel check for the canonical 1-form, plus d(d theta) = 0
    and {H, H} = 0 sanity.

    With corrupted=True the momentum equations get the wrong sign -- the
    bundled falsification control.
    """
    sys = HamiltonianSystem(_canonical_chart(k), H)
    theta = poincare_cartan(sys)
    dtheta = ext_d(theta)
    residual = _flow_residual(sys, dtheta, 1 if corrupted else -1)
    report = VerificationReport()
    report.checks.append(
        _residual_check("flow field lies in ker(d theta)", residual.components,
                        seed)
    )
    dd = ext_d(dtheta)
    report.checks.append(
        _residual_check("d(d theta) = 0", dd.components, seed)
    )
    hh = poisson_bracket(sys.hamiltonian, sys.hamiltonian, sys.chart)
    report.checks.append(
        _residual_check("{H, H} = 0", {"bracket": hh}, seed)
    )
    report.values["theta"] = form_to_text(theta)
    return report


# ---------------------------------------------------------------------------
# Degree 3: Einstein
# ---------------------------------------------------------------------------


def _nonzero_text(t) -> str:
    """`(i, j)=text; ...` over the nonzero components of `t`, else `0`."""
    nz = t.nonzero()
    return "; ".join(f"{idx}={to_text(c)}" for idx, c in nz.items()) or "0"


def verify_einstein(g: Metric, T=None, kappa_name: str = "kappa",
                    seed: int = 0) -> VerificationReport:
    """Einstein tensor report: the contracted Bianchi residual div G, and
    optionally G - kappa*T (T as rows T[m][v])."""
    try:
        Chart(g.chart.names + (kappa_name,))
    except ValueError:
        raise ChartError(f"kappa_name must be an identifier that is not a "
                         f"coordinate, got {kappa_name!r}") from None
    report = VerificationReport()
    n = g.chart.dim
    G = einstein_tensor(g)

    bianchi = {g.chart.names[v]: e for v, e in enumerate(bianchi_residual(g))}
    report.checks.append(
        _residual_check("contracted Bianchi identity div G = 0", bianchi, seed)
    )
    if T is not None:
        kappa = Sym(kappa_name)
        residuals = {
            (m, v): (G.comp(m, v) if T[m][v] is ZERO
                     else sub(G.comp(m, v), mul(kappa, T[m][v])))
            for m in range(n)
            for v in range(n)
        }
        report.checks.append(
            _residual_check(f"G - {kappa_name}*T = 0", residuals, seed)
        )
    report.values["G_nonzero"] = _nonzero_text(G)
    if n == 2:
        report.notes.append(
            "dim-2 identity: R_{mu nu} = (1/2) g_{mu nu} R makes G vanish"
        )
    return report


# ---------------------------------------------------------------------------
# Correspondence table and bundled scenarios
# ---------------------------------------------------------------------------


class Verifiability(Enum):
    METADATA = "Metadata"
    VERIFIABLE = "Verifiable"


class CorrespondenceEntry(NamedTuple):
    degree: int
    family: str
    interaction: str
    verifiability: Verifiability
    verifier_id: str | None = None
    note: str = ""


VERIFIER_IDS = ("hamiltonian", "maxwell", "einstein")


def correspondence_table() -> list[CorrespondenceEntry]:
    """The four degree-k rows; k = 0 carries no computable content."""
    return [
        CorrespondenceEntry(
            0,
            "quantum-mechanics wave function (Dirac bra-/ket- vectors, "
            "Schrodinger equation)",
            "strong",
            Verifiability.METADATA,
            None,
            "operators correspond to closed forms of zero degree; "
            "metadata only, no formula to check",
        ),
        CorrespondenceEntry(
            1,
            "Hamiltonian formalism (action-functional equation)",
            "weak",
            Verifiability.VERIFIABLE,
            "hamiltonian",
        ),
        CorrespondenceEntry(
            2,
            "Maxwell equations (electromagnetic field tensor)",
            "electromagnetic",
            Verifiability.VERIFIABLE,
            "maxwell",
        ),
        CorrespondenceEntry(
            3,
            "Einstein equation (tensors derived from degree-3 "
            "conservation-law forms)",
            "gravitational",
            Verifiability.VERIFIABLE,
            "einstein",
        ),
    ]


def _maxwell_scenario(control: bool, seed: int) -> VerificationReport:
    chart = Chart(("t", "x", "y", "z"))
    g = minkowski_metric(chart)
    zero = ZERO
    if control:
        E = (Sym("x"), zero, zero)
        B = (zero, zero, zero)
    else:
        f = parse_expr("f(z - t)", chart)
        E = (f, zero, zero)
        B = (zero, f, zero)
    return verify_maxwell(E, B, (zero, zero, zero, zero), g, seed)


def _hamiltonian_scenario(control: bool, seed: int) -> VerificationReport:
    chart = _canonical_chart(1)
    H = parse_expr("(p^2 + q^2)/2", chart)
    return verify_hamiltonian(H, 1, corrupted=control, seed=seed)


def _einstein_scenario(control: bool, seed: int) -> VerificationReport:
    if control:
        g = minkowski_metric(Chart(("t", "x", "y", "z")))
        T = grid(4, 2, lambda m, v: ONE if m == v == 0 else ZERO)
        return verify_einstein(g, T, seed=seed)
    zeroT = grid(4, 2, lambda m, v: ZERO)
    chart = Chart(("t", "r", "th", "ph"))
    rows = [["-(1 - 2*m/r)", "0", "0", "0"], ["0", "1/(1 - 2*m/r)", "0", "0"],
            ["0", "0", "r^2", "0"], ["0", "0", "0", "r^2*sin(th)^2"]]
    g = Metric(chart, [[parse_expr(e, chart, ("m",)) for e in row]
                       for row in rows], det_sign=-1)
    return verify_einstein(g, zeroT, seed=seed)


_SCENARIOS = {
    "maxwell": _maxwell_scenario,
    "hamiltonian": _hamiltonian_scenario,
    "einstein": _einstein_scenario,
}


def reference_report(verifier_id: str, seed: int = 0) -> VerificationReport:
    """Bundled scenario expected to Pass for the named verifier."""
    return _SCENARIOS[verifier_id](False, seed)


def control_report(verifier_id: str, seed: int = 0) -> VerificationReport:
    """Bundled falsification control expected to Fail."""
    return _SCENARIOS[verifier_id](True, seed)

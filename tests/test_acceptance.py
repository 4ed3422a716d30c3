"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here: the zero test checks 20 seeded points at |residual| <= 1e-9 (fixed
in `exformal.symbolic`; the seed is its only setting), and the FRW
numeric cross-check demands |residual| < 1e-8.
"""

import random
import subprocess
import sys
import time

import pytest

from exformal.catalog import Verdict, control_report, reference_report
from exformal.connection import (
    bianchi_residual,
    christoffel,
    covariant_derivative_1form,
    einstein_tensor,
    evolutionary_commutator,
    ricci_and_scalar,
)
from exformal.errors import DegenerateLagrangianError
from exformal.exterior import (
    ClosureStatus,
    Form,
    classify_closure,
    ext_d,
    linear_combine,
    pullback,
    wedge,
)
from exformal.geometry import (
    Metric,
    euclidean_metric,
    hodge,
    minkowski_metric,
)
from exformal.symbolic import (
    Chart,
    Rat,
    Sym,
    ZERO,
    ZeroVerdict,
    add,
    eval_at,
    is_zero,
    mul,
    parse_expr,
    simplify,
    sub,
    substitute_function,
)
from exformal.transform import (
    HamiltonianSystem,
    QuadraticLagrangian,
    hamilton_flow_check,
    integrating_factor,
    inverse_legendre,
    legendre,
    poisson_bracket,
)

from helpers import (
    CHARTS,
    rand_connection,
    rand_diag_metric,
    rand_form,
    rand_poly,
    rand_poly_map,
)
from test_transform import rand_quadratic_lagrangian

import os

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _announce(num, label, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {budget}s)")


def _zero_form(f: Form) -> bool:
    return all(is_zero(c) is ZeroVerdict.ZERO for c in f.components.values())


def _forms_equal_zero(a: Form, b: Form) -> bool:
    return _zero_form(linear_combine([Rat(1), Rat(-1)], [a, b]))


def test_criterion_1_dd_zero():
    budget = 30.0
    t0 = time.perf_counter()
    rng = random.Random(20240801)
    for i in range(200):
        n = rng.choice((2, 3, 4))
        chart = CHARTS[n]
        p = rng.randint(0, n - 2)
        a = rand_form(rng, chart, p)
        dd = ext_d(ext_d(a))
        assert all(
            is_zero(c) is ZeroVerdict.ZERO for c in dd.components.values()
        ), f"dd != 0 at instance {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(1, "dd = 0 on 200 randomized forms", elapsed, budget)


def test_criterion_2_leibniz_commutativity_naturality():
    budget = 60.0
    t0 = time.perf_counter()

    rng = random.Random(20240802)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        chart = CHARTS[n]
        p = rng.randint(0, n - 1)
        q = rng.randint(0, n - 1 - p) if p < n - 1 else 0
        a = rand_form(rng, chart, p, rand_poly)
        b = rand_form(rng, chart, q, rand_poly)
        lhs = ext_d(wedge(a, b))
        rhs = linear_combine(
            [Rat(1), Rat((-1) ** p)],
            [wedge(ext_d(a), b), wedge(a, ext_d(b))],
        )
        assert _forms_equal_zero(lhs, rhs), "Leibniz failed"

    rng = random.Random(20240803)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        chart = CHARTS[n]
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a = rand_form(rng, chart, p, rand_poly)
        b = rand_form(rng, chart, q, rand_poly)
        lhs = wedge(a, b)
        rhs = linear_combine([Rat((-1) ** (p * q))], [wedge(b, a)])
        assert _forms_equal_zero(lhs, rhs), "graded commutativity failed"

    rng = random.Random(20240804)
    for _ in range(100):
        src = CHARTS[rng.choice((2, 3))]
        tgt = CHARTS[rng.choice((2, 3))]
        phi = rand_poly_map(rng, src, tgt)
        p = rng.randint(0, tgt.dim - 1)
        a = rand_form(rng, tgt, p, rand_poly)
        assert _forms_equal_zero(
            pullback(phi, ext_d(a)), ext_d(pullback(phi, a))
        ), "naturality failed"

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(2, "Leibniz + graded commutativity + naturality, 100 each",
              elapsed, budget)


def test_criterion_3_hodge_involution():
    budget = 30.0
    t0 = time.perf_counter()
    spaces = [
        (CHARTS[2], euclidean_metric(CHARTS[2]), 1),
        (CHARTS[3], euclidean_metric(CHARTS[3]), 1),
        (CHARTS[4], minkowski_metric(CHARTS[4]), -1),
    ]
    rng = random.Random(20240805)
    for chart, g, s in spaces:
        n = chart.dim
        for p in range(n + 1):
            for _ in range(50):
                a = rand_form(rng, chart, p, rand_poly)
                twice = hodge(hodge(a, g), g)
                expected = linear_combine(
                    [Rat(s * (-1) ** (p * (n - p)))], [a]
                )
                assert _forms_equal_zero(twice, expected), (
                    f"involution failed n={n} p={p}"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(3, "Hodge involution, all degrees, 50 forms per (space, p)",
              elapsed, budget)


def test_criterion_4_commutator():
    budget = 30.0
    t0 = time.perf_counter()

    # (i) torsion-free connections: commutator reduces to the curl part
    rng = random.Random(20240806)
    for _ in range(50):
        chart = CHARTS[rng.choice((2, 3))]
        g = rand_diag_metric(rng, chart)
        conn = christoffel(g)
        a = rand_form(rng, chart, 1, rand_poly)
        assert _forms_equal_zero(
            evolutionary_commutator(a, conn), ext_d(a)
        ), "christoffel case failed"

    # (ii) constant-torsion scenario: K_12 = -c exactly
    from exformal.connection import Connection

    ch2 = CHARTS[2]
    gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][0][1] = Sym("c")
    conn = Connection(ch2, gamma)
    a = Form(ch2, 1, {(0,): Rat(1)})
    K = evolutionary_commutator(a, conn)
    assert K.get((0, 1)) == mul(Rat(-1), Sym("c")), "K_12 != -c"

    # (iii) torsionful connections match antisymmetrized covariant
    # derivatives
    rng = random.Random(20240807)
    for _ in range(50):
        chart = CHARTS[rng.choice((2, 3))]
        conn = rand_connection(rng, chart, density=0.5)
        a = rand_form(rng, chart, 1, rand_poly)
        K = evolutionary_commutator(a, conn)
        cd = covariant_derivative_1form(a, conn)
        for al in range(chart.dim):
            for be in range(al + 1, chart.dim):
                anti = sub(cd.comp(al, be), cd.comp(be, al))
                assert is_zero(sub(K.get((al, be)), anti)) is ZeroVerdict.ZERO
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(4, "evolutionary commutator: curl part, -c scenario, "
                 "covariant antisymmetrization", elapsed, budget)


def test_criterion_5_maxwell_scenarios():
    budget = 10.0
    t0 = time.perf_counter()
    from exformal.catalog import verify_maxwell

    g = minkowski_metric(CHARTS[4])
    z = ZERO
    wave = reference_report("maxwell")
    assert wave.verdict is Verdict.PASS, "plane wave should pass"

    const = verify_maxwell(
        [parse_expr("E0", CHARTS[4], ["E0"]), z, z],
        [z, z, parse_expr("B0", CHARTS[4], ["B0"])],
        [z, z, z, z],
        g,
    )
    assert const.verdict is Verdict.PASS, "constant fields should pass"

    control = control_report("maxwell")
    assert control.verdict is Verdict.FAIL
    gauss = next(c for c in control.checks if "Gauss" in c.name)
    assert gauss.verdict is Verdict.FAIL
    assert "(1, 2, 3)=1" in gauss.residual_summary, (
        "documented residual component missing"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(5, "Maxwell: plane wave + constant Pass, static-E control "
                 "Fails on d*F", elapsed, budget)


def test_criterion_6_curvature_stack():
    budget = 60.0
    t0 = time.perf_counter()
    ch4 = CHARTS[4]

    g_mink = minkowski_metric(ch4)
    assert not einstein_tensor(g_mink).nonzero(), "Minkowski G != 0"

    ch_s = Chart(("theta", "phi"))
    g_s = Metric(
        ch_s,
        [[Rat(1), ZERO], [ZERO, parse_expr("sin(theta)^2", ch_s)]],
        det_sign=1,
    )
    _, scalar = ricci_and_scalar(g_s)
    assert scalar == Rat(2), "2-sphere scalar curvature != 2"
    assert not einstein_tensor(g_s).nonzero(), "2-sphere G != 0"

    a2 = parse_expr("a(t)^2", ch4)
    g_frw = Metric(
        ch4,
        [
            [Rat(-1), ZERO, ZERO, ZERO],
            [ZERO, a2, ZERO, ZERO],
            [ZERO, ZERO, a2, ZERO],
            [ZERO, ZERO, ZERO, a2],
        ],
        det_sign=-1,
    )
    G = einstein_tensor(g_frw)
    expected_tt = parse_expr("3*a'(t)^2/a(t)^2", ch4)
    assert simplify(sub(G.comp(0, 0), expected_tt)) == ZERO, (
        "FRW G_tt != 3(a'/a)^2"
    )

    residuals = bianchi_residual(g_frw)
    assert all(is_zero(e) is ZeroVerdict.ZERO for e in residuals), (
        "FRW Bianchi residual not symbolically zero"
    )

    rng = random.Random(20240808)
    profile = parse_expr("u^2", Chart(("u",)))
    for e in residuals:
        concrete = substitute_function(e, "a", "u", profile)
        for _ in range(10):
            env = {n: rng.uniform(0.5, 2.0) for n in ch4.names}
            assert abs(eval_at(concrete, env)) < 1e-8, (
                "numeric Bianchi cross-check failed"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(6, "curvature stack: Minkowski, 2-sphere, FRW with a(t)=t^2 "
                 "cross-check", elapsed, budget)


def test_criterion_7_legendre():
    budget = 20.0
    t0 = time.perf_counter()

    V = parse_expr("V(q)", Chart(("q",)))
    L = QuadraticLagrangian(["q"], ["v"], [[Sym("m")]], [ZERO], V)
    H, _ = legendre(L)
    expected = parse_expr("p^2/(2*m) + V(q)", H.chart, ["m"])
    assert simplify(sub(H.hamiltonian, expected)) == ZERO, (
        "textbook Legendre identity failed"
    )

    rng = random.Random(20240809)
    for _ in range(50):
        k = rng.randint(1, 3)
        Lr = rand_quadratic_lagrangian(rng, k)
        Hr, _ = legendre(Lr)
        back = inverse_legendre(Hr)
        for i in range(k):
            for j in range(k):
                assert is_zero(sub(back.mass[i][j], Lr.mass[i][j])) is ZeroVerdict.ZERO
            assert is_zero(sub(back.linear[i], Lr.linear[i])) is ZeroVerdict.ZERO
        assert is_zero(sub(back.potential, Lr.potential)) is ZeroVerdict.ZERO

    with pytest.raises(DegenerateLagrangianError):
        legendre(QuadraticLagrangian(["q"], ["v"], [[ZERO]], [Rat(1)], ZERO))

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(7, "Legendre: textbook identity, 50 round trips, degenerate "
                 "rejection", elapsed, budget)


def test_criterion_8_identical_relation():
    budget = 5.0
    t0 = time.perf_counter()

    ch = Chart(("T", "V"))
    w = Form(
        ch,
        1,
        {
            (0,): parse_expr("Cv", ch, ["Cv", "R"]),
            (1,): parse_expr("R*T/V", ch, ["Cv", "R"]),
        },
    )
    mu, psi = integrating_factor(w)
    assert mu == parse_expr("1/T", ch), "thermo mu != 1/T"
    assert psi == parse_expr("Cv*ln(T) + R*ln(V)", ch, ["Cv", "R"])
    scaled = linear_combine([mu], [w])
    assert classify_closure(scaled).status is ClosureStatus.EXACT

    ch2 = CHARTS[2]
    w2 = Form(ch2, 1, {(0,): parse_expr("2*y", ch2), (1,): Sym("x")})
    mu2, psi2 = integrating_factor(w2)
    assert mu2 == Sym("x") and psi2 == parse_expr("x^2*y", ch2)
    scaled2 = linear_combine([mu2], [w2])
    assert classify_closure(scaled2).status is ClosureStatus.EXACT

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(8, "integrating factors: first-law/entropy and x^2 y cases, "
                 "both Exact", elapsed, budget)


def test_criterion_9_hamiltonian_degree_one():
    budget = 20.0
    t0 = time.perf_counter()

    ch = Chart(("t", "q", "p"))
    assert hamilton_flow_check(
        HamiltonianSystem(ch, parse_expr("(p^2 + q^2)/2", ch))
    ).passed
    assert hamilton_flow_check(
        HamiltonianSystem(ch, parse_expr("p^2/(2*m)", ch, ["m"]))
    ).passed
    assert control_report("hamiltonian").verdict is Verdict.FAIL

    chc = Chart(("q1", "q2", "p1", "p2"))
    for i, qi in enumerate(("q1", "q2")):
        for j, pj in enumerate(("p1", "p2")):
            expected = Rat(1) if i == j else ZERO
            assert poisson_bracket(Sym(qi), Sym(pj), chc) == expected
    assert poisson_bracket(Sym("q1"), Sym("q2"), chc) == ZERO
    assert poisson_bracket(Sym("p1"), Sym("p2"), chc) == ZERO

    rng = random.Random(20240810)
    for _ in range(50):
        f = rand_poly(rng, chc.names, terms=2, max_deg=2)
        g = rand_poly(rng, chc.names, terms=2, max_deg=2)
        h = rand_poly(rng, chc.names, terms=2, max_deg=2)
        jac = add(
            poisson_bracket(f, poisson_bracket(g, h, chc), chc),
            poisson_bracket(g, poisson_bracket(h, f, chc), chc),
            poisson_bracket(h, poisson_bracket(f, g, chc), chc),
        )
        assert is_zero(jac) is ZeroVerdict.ZERO, "Jacobi identity failed"

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(9, "flow checks + canonical brackets + 50 Jacobi triples",
              elapsed, budget)


def test_criterion_10_cli_determinism_and_exit_codes():
    budget = 5.0
    t0 = time.perf_counter()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "exformal.cli", *argv],
            capture_output=True,
            text=True,
        )

    ref = os.path.join(SCENARIOS, "reference.json")
    a = run("run", ref, "--format", "json", "--seed", "3")
    b = run("run", ref, "--format", "json", "--seed", "3")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout, "reports not byte-identical"

    fail = run("run", os.path.join(SCENARIOS, "expect_fail.json"))
    assert fail.returncode == 1

    bad = run("run", os.path.join(SCENARIOS, "malformed.json"))
    assert bad.returncode == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _announce(10, "CLI byte-identical reports and 0/1/2 exit codes",
              elapsed, budget)

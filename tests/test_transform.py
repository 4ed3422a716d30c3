"""Legendre transform, Poisson brackets, degeneracy loci, integrating
factors, and the canonical 1-form flow check."""

import random
from fractions import Fraction

import pytest

from exformal._linalg import grid, minors
from exformal.errors import (
    ChartError,
    DegenerateLagrangianError,
    PatternMismatchError,
)
from exformal.exterior import (
    ClosureStatus,
    Form,
    SubmanifoldMap,
    classify_closure,
    linear_combine,
)
from exformal.symbolic import (
    Chart,
    Rat,
    Sym,
    Verdict,
    ZERO,
    ZeroVerdict,
    add,
    diff,
    is_zero,
    mul,
    neg,
    parse_expr,
    pow_,
    simplify,
    sub,
)
from exformal.transform import (
    DegeneracyClass,
    HamiltonianSystem,
    QuadraticLagrangian,
    hamilton_flow_check,
    integrating_factor,
    inverse_legendre,
    jacobian_degeneracy,
    legendre,
    poincare_cartan,
    poisson_bracket,
)

from helpers import CHARTS, rand_poly, rand_trig_poly

CH2 = CHARTS[2]


def rand_quadratic_lagrangian(rng: random.Random, k: int) -> QuadraticLagrangian:
    """Random nonsingular constant mass matrix, polynomial b and V."""
    qs = tuple(f"q{i+1}" for i in range(k))
    vs = tuple(f"v{i+1}" for i in range(k))
    while True:
        m = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                val = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                m[i][j] = val
                m[j][i] = val
        # quick numeric determinant check
        def det(mat):
            n = len(mat)
            if n == 1:
                return mat[0][0]
            return sum(
                (-1) ** j * mat[0][j] * det(
                    [row[:j] + row[j + 1 :] for row in mat[1:]]
                )
                for j in range(n)
            )

        if det(m) != 0:
            break
    mass = [[Rat(m[i][j]) for j in range(k)] for i in range(k)]
    linear = [rand_poly(rng, qs, terms=2, max_deg=1) for _ in range(k)]
    potential = rand_poly(rng, qs, terms=2, max_deg=2)
    return QuadraticLagrangian(qs, vs, mass, linear, potential)


class TestLegendre:
    def test_free_unit_mass(self):
        L = QuadraticLagrangian(["q"], ["v"], [[Rat(1)]], [ZERO], ZERO)
        H, rep = legendre(L)
        assert H.hamiltonian == parse_expr("p^2/2", H.chart)
        assert rep.classification is DegeneracyClass.NONDEGENERATE

    def test_textbook(self):
        V = parse_expr("V(q)", Chart(("q",)))
        L = QuadraticLagrangian(["q"], ["v"], [[Sym("m")]], [ZERO], V)
        H, rep = legendre(L)
        expected = parse_expr("p^2/(2*m) + V(q)", H.chart, ["m"])
        assert simplify(sub(H.hamiltonian, expected)) == ZERO
        assert rep.classification is DegeneracyClass.CONDITIONALLY_DEGENERATE

    def test_degenerate_raises(self):
        L = QuadraticLagrangian(["q"], ["v"], [[ZERO]], [Rat(1)], ZERO)
        with pytest.raises(DegenerateLagrangianError) as exc:
            legendre(L)
        rep = exc.value.report
        assert rep.classification is DegeneracyClass.DEGENERATE_EVERYWHERE
        assert rep.determinant == ZERO
        assert rep.locus_status is ZeroVerdict.ZERO

    def test_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(15):
            k = rng.randint(1, 3)
            L = rand_quadratic_lagrangian(rng, k)
            H, _ = legendre(L)
            back = inverse_legendre(H)
            for i in range(k):
                for j in range(k):
                    assert is_zero(sub(back.mass[i][j], L.mass[i][j])) is ZeroVerdict.ZERO
                assert is_zero(sub(back.linear[i], L.linear[i])) is ZeroVerdict.ZERO
            assert is_zero(sub(back.potential, L.potential)) is ZeroVerdict.ZERO

    def test_velocity_dependence_rejected(self):
        with pytest.raises(ChartError):
            QuadraticLagrangian(["q"], ["v"], [[Sym("v")]], [ZERO], ZERO)

    def test_momentum_names_avoid_the_symbols_of_M_b_V(self):
        # p is the mass parameter, so the momentum of v becomes p_
        ch = Chart(("x",))
        L = QuadraticLagrangian(["x"], ["v"], [[Sym("p")]], [ZERO],
                                parse_expr("p*x", ch, ["p"]))
        assert L.p_names == ("p_",)
        H, _ = legendre(L)
        assert H.chart.names == ("x", "p_")
        assert H.hamiltonian == parse_expr("p_^2/2/p + p*x", H.chart, ["p"])

    def test_momentum_names_avoid_each_other(self):
        # the stems are p and p_; p is taken by V, so p_ goes to the first
        ch = Chart(("x", "y"))
        L = QuadraticLagrangian(
            ["x", "y"], ["v", "v_"], [[Rat(1), ZERO], [ZERO, Rat(1)]],
            [ZERO, ZERO], parse_expr("p*x", ch, ["p"]))
        assert L.p_names == ("p_", "p__")

    @pytest.mark.parametrize("q, v", [
        (["q", "r"], ["v", "v"]),
        (["q"], ["q"]),
        (["q"], ["1v"]),
    ])
    def test_names_must_be_distinct_identifiers(self, q, v):
        mass = [[Rat(int(i == j)) for j in q] for i in q]
        with pytest.raises(ChartError, match="q and v names"):
            QuadraticLagrangian(q, v, mass, [ZERO] * len(q), ZERO)


class TestInverseLegendre:
    def test_simple(self):
        chart = Chart(("q", "p"))
        L = inverse_legendre(HamiltonianSystem(chart, parse_expr("p^2/2", chart)))
        assert L.mass[0][0] == Rat(1)
        assert L.linear[0] == ZERO
        assert L.potential == ZERO

    def test_textbook(self):
        chart = Chart(("q", "p"))
        H = parse_expr("p^2/(2*m) + V(q)", chart, ["m"])
        L = inverse_legendre(HamiltonianSystem(chart, H))
        assert L.mass[0][0] == Sym("m")
        assert L.potential == parse_expr("V(q)", chart)

    def test_velocity_names_avoid_the_symbols_of_H(self):
        # v is a parameter of H, so the velocity of p becomes v_
        chart = Chart(("x", "p"))
        H = parse_expr("p^2/2 + v*p + x", chart, ["v"])
        L = inverse_legendre(HamiltonianSystem(chart, H))
        assert L.v_names == ("v_",)
        assert L.linear == (neg(Sym("v")),)
        assert L.potential == parse_expr("x - v^2/2", chart, ["v"])

    def test_quartic_rejected(self):
        chart = Chart(("q", "p"))
        with pytest.raises(PatternMismatchError):
            inverse_legendre(HamiltonianSystem(chart, parse_expr("p^4", chart)))


class TestPoissonBracket:
    CH = Chart(("q", "p"))

    def test_canonical(self):
        assert poisson_bracket(Sym("q"), Sym("p"), self.CH) == Rat(1)

    def test_antisymmetry_diagonal(self):
        H = parse_expr("(p^2 + q^2)/2", self.CH)
        assert poisson_bracket(H, H, self.CH) == ZERO

    def test_square(self):
        assert poisson_bracket(parse_expr("q^2", self.CH), Sym("p"), self.CH) == mul(
            Rat(2), Sym("q")
        )

    def test_canonical_pairs_k2(self):
        ch = Chart(("q1", "q2", "p1", "p2"))
        for i, qi in enumerate(("q1", "q2")):
            for j, pj in enumerate(("p1", "p2")):
                expected = Rat(1) if i == j else ZERO
                assert poisson_bracket(Sym(qi), Sym(pj), ch) == expected
        assert poisson_bracket(Sym("q1"), Sym("q2"), ch) == ZERO
        assert poisson_bracket(Sym("p1"), Sym("p2"), ch) == ZERO

    def test_antisymmetry_bilinearity_jacobi_random(self):
        rng = random.Random(67)
        ch = Chart(("q1", "q2", "p1", "p2"))
        names = ch.names
        for _ in range(12):
            f = rand_poly(rng, names, terms=2, max_deg=2)
            g = rand_poly(rng, names, terms=2, max_deg=2)
            h = rand_poly(rng, names, terms=2, max_deg=2)
            anti = add(poisson_bracket(f, g, ch), poisson_bracket(g, f, ch))
            assert is_zero(anti) is ZeroVerdict.ZERO
            lin = sub(
                poisson_bracket(add(f, mul(Rat(3), g)), h, ch),
                add(poisson_bracket(f, h, ch),
                    mul(Rat(3), poisson_bracket(g, h, ch))),
            )
            assert is_zero(lin) is ZeroVerdict.ZERO
            jac = add(
                poisson_bracket(f, poisson_bracket(g, h, ch), ch),
                poisson_bracket(g, poisson_bracket(h, f, ch), ch),
                poisson_bracket(h, poisson_bracket(f, g, ch), ch),
            )
            assert is_zero(jac) is ZeroVerdict.ZERO


class TestJacobianDegeneracy:
    def test_identity(self):
        rep = jacobian_degeneracy(SubmanifoldMap.identity(CH2))
        assert rep.determinant == Rat(1)
        assert rep.classification is DegeneracyClass.NONDEGENERATE

    def test_polar(self):
        src = Chart(("r", "theta"))
        phi = SubmanifoldMap(
            src,
            CH2,
            (parse_expr("r*cos(theta)", src), parse_expr("r*sin(theta)", src)),
        )
        rep = jacobian_degeneracy(phi)
        assert rep.determinant == Sym("r")
        assert rep.classification is DegeneracyClass.CONDITIONALLY_DEGENERATE

    def test_constant(self):
        rep = jacobian_degeneracy(SubmanifoldMap(CH2, CH2, (Rat(1), Rat(2))))
        assert rep.classification is DegeneracyClass.DEGENERATE_EVERYWHERE

    def test_requires_square(self):
        src = Chart(("u",))
        with pytest.raises(ChartError):
            jacobian_degeneracy(
                SubmanifoldMap(src, CH2, (Sym("u"), Sym("u")))
            )

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["poly", "trig", "rational"])
    def test_determinant_is_the_simplified_jacobian_det(self, n, kind):
        # the reference builds the Jacobian J[i][j] = d x^i / d u^j itself
        rng = random.Random(f"{n}:{kind}")
        chart = CHARTS[n]

        def component():
            if kind == "poly":
                return rand_poly(rng, chart.names, terms=2, max_deg=2)
            if kind == "trig":
                return rand_trig_poly(rng, chart.names, terms=2)
            den = add(Rat(rng.randint(1, 3)), pow_(Sym(rng.choice(chart.names)), 2))
            return mul(rand_poly(rng, chart.names, terms=2, max_deg=1),
                       pow_(den, -1))

        for _ in range(6):
            phi = SubmanifoldMap(chart, chart, tuple(component() for _ in range(n)))
            J = grid(n, 2, lambda i, j: diff(phi.exprs[i], chart.names[j]))
            assert jacobian_degeneracy(phi).determinant == simplify(minors(J)())


class TestIntegratingFactor:
    def test_already_exact(self):
        w = Form(CH2, 1, {(0,): Sym("x"), (1,): Sym("y")})
        mu, psi = integrating_factor(w)
        assert mu == Rat(1)
        assert psi == parse_expr("(x^2 + y^2)/2", CH2)

    def test_mu_depending_on_x(self):
        # oracle: h = (2 - 1)/x so mu = x; check d(x^2 y) = 2xy dx + x^2 dy
        w = Form(CH2, 1, {(0,): parse_expr("2*y", CH2), (1,): Sym("x")})
        mu, psi = integrating_factor(w)
        assert mu == Sym("x")
        assert psi == parse_expr("x^2*y", CH2)

    def test_first_law_entropy(self):
        # oracle: d(Cv ln T + R ln V) = Cv/T dT + R/V dV = (1/T) w
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
        assert mu == parse_expr("1/T", ch)
        assert psi == parse_expr("Cv*ln(T) + R*ln(V)", ch, ["Cv", "R"])

    def test_success_implies_exact_scaled_form(self):
        w = Form(CH2, 1, {(0,): parse_expr("2*y", CH2), (1,): Sym("x")})
        mu, psi = integrating_factor(w)
        scaled = linear_combine([mu], [w])
        rep = classify_closure(scaled)
        assert rep.status is ClosureStatus.EXACT

    def test_mu_depending_on_y(self):
        # w = y dx + 2xy dy: the x-ratio depends on both coordinates, the
        # y-ratio gives mu = exp(2y)/y; check d(x exp(2y)) = mu * w
        w = Form(CH2, 1, {(0,): Sym("y"), (1,): parse_expr("2*x*y", CH2)})
        mu, psi = integrating_factor(w)
        assert mu == parse_expr("exp(2*y)/y", CH2)
        assert psi == parse_expr("x*exp(2*y)", CH2)

    def test_absent_when_no_candidate(self):
        # y^2 dx + x^2 dy: both curl ratios depend on both coordinates,
        # so neither single-variable factor exists
        w = Form(
            CH2,
            1,
            {(0,): parse_expr("y^2", CH2), (1,): parse_expr("x^2", CH2)},
        )
        assert integrating_factor(w) is None

    def test_dimension_guard(self):
        ch3 = CHARTS[3]
        w = Form(ch3, 1, {(0,): Sym("x")})
        with pytest.raises(ChartError):
            integrating_factor(w)


class TestPoincareCartan:
    def test_zero_hamiltonian(self):
        ch = Chart(("t", "q", "p"))
        theta = poincare_cartan(HamiltonianSystem(ch, ZERO))
        assert theta == Form(ch, 1, {(1,): Sym("p")})

    def test_harmonic(self):
        ch = Chart(("t", "q", "p"))
        H = parse_expr("(p^2 + q^2)/2", ch)
        theta = poincare_cartan(HamiltonianSystem(ch, H))
        assert theta == Form(ch, 1, {(0,): neg(H), (1,): Sym("p")})

    def test_kinetic_potential(self):
        ch = Chart(("t", "q", "p"))
        H = parse_expr("p^2/(2*m) + V(q)", ch, ["m"])
        theta = poincare_cartan(HamiltonianSystem(ch, H))
        assert theta.get((0,)) == simplify(neg(H))
        assert theta.get((1,)) == Sym("p")

    def test_requires_time(self):
        with pytest.raises(ChartError):
            poincare_cartan(HamiltonianSystem(Chart(("q", "p")), ZERO))


class TestHamiltonFlow:
    def test_harmonic_oscillator(self):
        ch = Chart(("t", "q", "p"))
        fc = hamilton_flow_check(
            HamiltonianSystem(ch, parse_expr("(p^2 + q^2)/2", ch))
        )
        assert fc.passed and fc.residual.is_zero_form
        assert fc.verdict is Verdict.PASS

    def test_free_particle(self):
        ch = Chart(("t", "q", "p"))
        fc = hamilton_flow_check(
            HamiltonianSystem(ch, parse_expr("p^2/(2*m)", ch, ["m"]))
        )
        assert fc.passed

    def test_legendre_systems_pass(self):
        rng = random.Random(71)
        for _ in range(8):
            L = rand_quadratic_lagrangian(rng, rng.randint(1, 2))
            H, _ = legendre(L)
            fc = hamilton_flow_check(H.with_time())
            assert fc.passed

    def test_wrong_sign_fails(self):
        from exformal.exterior import VectorField, ext_d, interior_product
        from exformal.symbolic import diff, ONE

        ch = Chart(("t", "q", "p"))
        H = parse_expr("(p^2 + q^2)/2", ch)
        sys_ = HamiltonianSystem(ch, H)
        theta = poincare_cartan(sys_)
        bad = VectorField(
            ch, (ONE, diff(H, "p"), diff(H, "q"))  # wrong sign on dp/dt
        )
        residual = interior_product(bad, ext_d(theta))
        assert any(
            is_zero(c) is ZeroVerdict.NONZERO
            for c in residual.components.values()
        )

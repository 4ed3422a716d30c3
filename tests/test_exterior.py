"""Forms: wedge, exterior derivative, pullback, interior product, and the
closure classifier with verified potentials."""

import random

import pytest

from exformal import exterior
from exformal._antideriv import antiderivative
from exformal.errors import ChartMismatchError, DegreeError
from exformal.exterior import (
    ClosureReport,
    ClosureStatus,
    Form,
    SubmanifoldMap,
    VectorField,
    _summed,
    classify_closure,
    dcoord,
    ext_d,
    interior_product,
    linear_combine,
    pullback,
    wedge,
)
from exformal.symbolic import (
    Chart,
    Rat,
    Sym,
    ZeroVerdict,
    add,
    diff,
    is_zero,
    mul,
    neg,
    parse_expr,
    sub,
    to_text,
)

from helpers import (
    CHARTS,
    eval_with_interp,
    numeric_env,
    rand_form,
    rand_poly,
    rand_poly_map,
)

CH2 = CHARTS[2]
CH3 = CHARTS[3]


def zero_residual(a: Form, b: Form) -> bool:
    r = linear_combine([Rat(1), Rat(-1)], [a, b])
    return all(is_zero(c) is ZeroVerdict.ZERO for c in r.components.values())


class TestFormContainer:
    def test_rejects_unsorted_index(self):
        with pytest.raises(DegreeError):
            Form(CH2, 2, {(1, 0): Rat(1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(DegreeError):
            Form(CH2, 1, {(5,): Rat(1)})

    def test_drops_zero_components(self):
        f = Form(CH2, 1, {(0,): parse_expr("x - x", CH2)})
        assert f.is_zero_form

    def test_degree_zero_uses_empty_key(self):
        f = Form.scalar(CH2, Sym("x"))
        assert f.get(()) == Sym("x")


class TestWedge:
    def test_self_wedge_vanishes(self):
        dx = dcoord(CH2, 0)
        assert wedge(dx, dx).is_zero_form

    def test_antisymmetry(self):
        dx, dy = dcoord(CH2, 0), dcoord(CH2, 1)
        assert wedge(dx, dy) == linear_combine([Rat(-1)], [wedge(dy, dx)])

    def test_coefficient_product(self):
        a = Form(CH3, 1, {(1,): Sym("x")})   # x dy
        b = Form(CH3, 1, {(2,): Sym("y")})   # y dz
        out = wedge(a, b)
        assert out == Form(CH3, 2, {(1, 2): mul(Sym("x"), Sym("y"))})

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            wedge(dcoord(CH2, 0), dcoord(CH3, 0))

    def test_overflow_degree_is_zero_form(self):
        two = wedge(dcoord(CH2, 0), dcoord(CH2, 1))
        out = wedge(two, dcoord(CH2, 0))
        assert out.is_zero_form

    def test_graded_commutativity_random(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.choice((2, 3, 4))
            chart = CHARTS[n]
            p = rng.randint(0, n)
            q = rng.randint(0, n - p)
            a = rand_form(rng, chart, p, rand_poly)
            b = rand_form(rng, chart, q, rand_poly)
            sign = Rat((-1) ** (p * q))
            lhs = wedge(a, b)
            rhs = linear_combine([sign], [wedge(b, a)])
            assert zero_residual(lhs, rhs)


class TestExtD:
    def test_scalar(self):
        f = Form.scalar(CH2, parse_expr("x*y", CH2))
        assert ext_d(f) == Form(CH2, 1, {(0,): Sym("y"), (1,): Sym("x")})

    def test_one_form_sign(self):
        f = Form(CH2, 1, {(0,): Sym("y")})  # y dx
        assert ext_d(f) == Form(CH2, 2, {(0, 1): Rat(-1)})

    def test_differentiates_only_by_held_coordinates(self, monkeypatch):
        chart = Chart(tuple(f"x{i}" for i in range(12)))
        f = Form(chart, 1, {(0,): parse_expr("x1*x2", chart), (3,): Sym("x5")})
        by = []
        real = exterior.diff

        def counting(e, name):
            by.append(name)
            return real(e, name)

        monkeypatch.setattr(exterior, "diff", counting)
        out = ext_d(f)
        assert sorted(by) == ["x1", "x2", "x5"]
        assert out == Form(chart, 2, {(0, 1): neg(Sym("x2")),
                                      (0, 2): neg(Sym("x1")),
                                      (3, 5): Rat(-1)})

    def test_top_degree_flagged_zero(self):
        top = wedge(dcoord(CH2, 0), dcoord(CH2, 1))
        out = ext_d(top)
        assert out.is_zero_form

    def test_dd_zero_random(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            chart = CHARTS[n]
            p = rng.randint(0, max(0, n - 2))
            a = rand_form(rng, chart, p)
            dd = ext_d(ext_d(a))
            assert all(
                is_zero(c) is ZeroVerdict.ZERO for c in dd.components.values()
            )

    def test_leibniz_random(self):
        rng = random.Random(23)
        for _ in range(25):
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
            assert zero_residual(lhs, rhs)


class TestSummed:
    def test_repeated_index_is_summed(self):
        x, y = Sym("x"), Sym("y")
        out = _summed(CH2, 1, [((0,), x), ((1,), y), ((0,), y)])
        assert out == Form(CH2, 1, {(0,): add(x, y), (1,): y})

    def test_cancelling_terms_leave_no_component(self):
        x = Sym("x")
        out = _summed(CH2, 1, [((0,), x), ((1,), x), ((0,), neg(x))])
        assert out.components == {(1,): x}

    def test_no_terms_is_the_zero_form(self):
        assert _summed(CH2, 2, []) == Form.zero(CH2, 2)


class TestLinearCombine:
    def test_sum(self):
        dx = dcoord(CH2, 0)
        assert linear_combine([Rat(1), Rat(1)], [dx, dx]) == Form(
            CH2, 1, {(0,): Rat(2)}
        )

    def test_cancel(self):
        dx = dcoord(CH2, 0)
        assert linear_combine([Rat(1), Rat(-1)], [dx, dx]).is_zero_form

    def test_collects_coefficients(self):
        dy = dcoord(CH2, 1)
        out = linear_combine([Sym("x"), Sym("y")], [dy, dy])
        assert out == Form(CH2, 1, {(1,): add(Sym("x"), Sym("y"))})

    def test_degree_mismatch(self):
        with pytest.raises(DegreeError):
            linear_combine([Rat(1), Rat(1)],
                           [dcoord(CH2, 0), Form.scalar(CH2, Sym("x"))])


class TestPullback:
    def test_circle_pullback(self):
        # oracle: x dy - y dx pulled along u -> (cos u, sin u) gives
        # (cos^2 u + sin^2 u) du = du  (hand expansion)
        chu = Chart(("u",))
        phi = SubmanifoldMap(
            chu, CH2, (parse_expr("cos(u)", chu), parse_expr("sin(u)", chu))
        )
        alpha = Form(CH2, 1, {(0,): neg(Sym("y")), (1,): Sym("x")})
        assert pullback(phi, alpha) == Form(chu, 1, {(0,): Rat(1)})

    @pytest.mark.parametrize("n", [1, 3])
    def test_needs_one_expression_per_target_coordinate(self, n):
        with pytest.raises(DegreeError):
            SubmanifoldMap(Chart(("u",)), CH2, (Sym("u"),) * n)

    def test_identity_map(self):
        rng = random.Random(3)
        a = rand_form(rng, CH2, 1, rand_poly)
        assert pullback(SubmanifoldMap.identity(CH2), a) == a

    def test_constant_map_kills_positive_degree(self):
        phi = SubmanifoldMap(CH2, CH2, (Rat(1), Rat(2)))
        rng = random.Random(4)
        a = rand_form(rng, CH2, 1, rand_poly)
        assert pullback(phi, a).is_zero_form

    def test_naturality_random(self):
        rng = random.Random(29)
        for _ in range(25):
            tgt_n = rng.choice((2, 3))
            src_n = rng.choice((2, 3))
            src, tgt = CHARTS[src_n], CHARTS[tgt_n]
            phi = rand_poly_map(rng, src, tgt)
            p = rng.randint(0, tgt_n - 1)
            a = rand_form(rng, tgt, p, rand_poly)
            lhs = pullback(phi, ext_d(a))
            rhs = ext_d(pullback(phi, a))
            assert zero_residual(lhs, rhs)

    @pytest.mark.parametrize("src_n, tgt_n", [(3, 2), (2, 3), (3, 3)])
    def test_commutes_with_wedge(self, src_n, tgt_n):
        # wedge is an independent oracle for the Jacobian-minor rule:
        # phi*(a ^ b) = phi*a ^ phi*b
        rng = random.Random(53 + 10 * src_n + tgt_n)
        src, tgt = CHARTS[src_n], CHARTS[tgt_n]
        for _ in range(4):
            phi = rand_poly_map(rng, src, tgt)
            a = rand_form(rng, tgt, 1)
            b = rand_form(rng, tgt, 1)
            assert pullback(phi, wedge(a, b)) == wedge(pullback(phi, a),
                                                       pullback(phi, b))

    def test_pullback_numeric_oracle(self):
        # independent check: evaluate the pulled-back 1-form against the
        # jacobian-transport of the original at sample points
        rng = random.Random(31)
        chu = Chart(("u", "v"))
        phi = rand_poly_map(rng, chu, CH2)
        a = rand_form(rng, CH2, 1, rand_poly)
        pulled = pullback(phi, a)
        from exformal.symbolic import diff

        for _ in range(5):
            env = numeric_env(rng, chu.names)
            xy = {
                CH2.names[i]: eval_with_interp(phi.exprs[i], env)
                for i in range(2)
            }
            for j in range(2):
                direct = eval_with_interp(pulled.get((j,)), env)
                via = sum(
                    eval_with_interp(a.get((i,)), xy)
                    * eval_with_interp(diff(phi.exprs[i], chu.names[j]), env)
                    for i in range(2)
                )
                assert abs(direct - via) < 1e-8 * max(1.0, abs(via))


class TestInteriorProduct:
    def test_basis_contractions(self):
        two = wedge(dcoord(CH2, 0), dcoord(CH2, 1))
        ex = VectorField(CH2, (Rat(1), Rat(0)))
        ey = VectorField(CH2, (Rat(0), Rat(1)))
        assert interior_product(ex, two) == dcoord(CH2, 1)
        assert interior_product(ey, two) == linear_combine(
            [Rat(-1)], [dcoord(CH2, 0)]
        )

    def test_on_one_form(self):
        v = VectorField(CH2, (Sym("x"), Sym("y")))
        out = interior_product(v, dcoord(CH2, 0))
        assert out == Form.scalar(CH2, Sym("x"))

    def test_degree_zero_rejected(self):
        v = VectorField(CH2, (Rat(1), Rat(0)))
        with pytest.raises(DegreeError):
            interior_product(v, Form.scalar(CH2, Sym("x")))

    @pytest.mark.parametrize("n", [1, 3])
    def test_needs_one_component_per_coordinate(self, n):
        with pytest.raises(DegreeError):
            VectorField(CH2, (Rat(1),) * n)


class TestClassifyClosure:
    def test_report_defaults(self):
        rep = ClosureReport(ClosureStatus.CLOSED)
        assert rep.status is ClosureStatus.CLOSED
        assert rep.potential is None
        assert rep.commutator is None
        assert rep.uncertain is False

    def test_exact_with_potential(self):
        w = Form(CH2, 1, {(0,): Sym("y"), (1,): Sym("x")})
        rep = classify_closure(w)
        assert rep.status is ClosureStatus.EXACT
        assert rep.potential == Form.scalar(CH2, mul(Sym("x"), Sym("y")))

    def test_nonclosed_commutator(self):
        rep = classify_closure(Form(CH2, 1, {(0,): Sym("y")}))
        assert rep.status is ClosureStatus.NONCLOSED
        assert rep.commutator == {(0, 1): Rat(-1)}

    def test_radial_exact(self):
        w = Form(CH2, 1, {(0,): Sym("x"), (1,): Sym("y")})
        rep = classify_closure(w)
        assert rep.status is ClosureStatus.EXACT
        expected = parse_expr("(x^2 + y^2)/2", CH2)
        assert rep.potential == Form.scalar(CH2, expected)

    def test_potential_reverified_on_random_exact_forms(self):
        rng = random.Random(37)
        hits = 0
        for _ in range(30):
            n = rng.choice((2, 3))
            chart = CHARTS[n]
            psi = rand_poly(rng, chart.names)
            a = ext_d(Form.scalar(chart, psi))
            if a.is_zero_form:
                continue
            rep = classify_closure(a)
            assert rep.status is ClosureStatus.EXACT
            residual = linear_combine(
                [Rat(1), Rat(-1)], [ext_d(rep.potential), a]
            )
            assert all(
                is_zero(c) is ZeroVerdict.ZERO
                for c in residual.components.values()
            )
            hits += 1
        assert hits > 10

    def test_degree_two_homotopy(self):
        # dx^dy is exact on the plane: potential found and verified
        chart = CH2
        area = wedge(dcoord(chart, 0), dcoord(chart, 1))
        rep = classify_closure(area)
        assert rep.status is ClosureStatus.EXACT

    def test_singular_at_origin_uses_shifted_base(self):
        # Cv/T dT + R/V dV is closed with potential Cv ln T + R ln V;
        # the origin-based homotopy diverges, the shifted base succeeds
        ch = Chart(("T", "V"))
        w = Form(
            ch,
            1,
            {
                (0,): parse_expr("Cv/T", ch, ["Cv", "R"]),
                (1,): parse_expr("R/V", ch, ["Cv", "R"]),
            },
        )
        rep = classify_closure(w)
        assert rep.status is ClosureStatus.EXACT
        expected = parse_expr("Cv*ln(T) + R*ln(V)", ch, ["Cv", "R"])
        assert rep.potential == Form.scalar(ch, expected)

    def test_closed_without_table_potential_stays_closed(self):
        # the plane-wave profile keeps the integrand out of the table:
        # honest answer is Closed, potential absent
        ch = CHARTS[4]
        f = parse_expr("f(z - t)", ch)
        F = Form(ch, 2, {(0, 1): neg(f), (1, 3): neg(f)})
        rep = classify_closure(F)
        assert rep.status is ClosureStatus.CLOSED
        assert rep.potential is None

    def test_zero_form_is_exact(self):
        rep = classify_closure(Form.zero(CH2, 1))
        assert rep.status is ClosureStatus.EXACT

    def test_uncertain_only_when_no_component_is_nonzero(self):
        # ln(y - 10) and sqrt(-1 - x^2) are undefined on the whole sampling
        # box, so every zero test of a component holding one is Unknown
        mixed = Form(CH3, 1, {(1,): Sym("x"),
                              (2,): parse_expr("x*ln(y - 10)", CH3)})
        rep = classify_closure(mixed)
        assert rep.status is ClosureStatus.NONCLOSED
        assert sorted(rep.commutator) == [(0, 1), (0, 2), (1, 2)]
        assert rep.commutator[(0, 1)] == Rat(1)
        assert not rep.uncertain  # (0, 1) is exactly 1
        unknown = Form(CH3, 1, {(2,): parse_expr("y*sqrt(-1 - x^2)", CH3)})
        rep = classify_closure(unknown)
        assert rep.status is ClosureStatus.NONCLOSED
        assert sorted(rep.commutator) == [(0, 2), (1, 2)]
        assert rep.uncertain


class TestAntiderivative:
    # powers of an affine base, the log at exponent -1 included
    @pytest.mark.parametrize("text, expected", [
        ("(x + 1)^-1", "ln(1 + x)"),
        ("(2*x + 1)^-3", "-1/4/(1 + 2*x)^2"),
        ("y*(x + y)^-2", "-y/(x + y)"),
    ])
    def test_affine_base_powers(self, text, expected):
        e = parse_expr(text, CH2)
        anti = antiderivative(e, "x")
        assert to_text(anti) == expected
        assert is_zero(sub(diff(anti, "x"), e)) is ZeroVerdict.ZERO

"""Metric structure, Hodge duality, and the Maxwell residuals."""

import random
from itertools import combinations

import pytest

import exformal.geometry
import exformal._linalg
from exformal._linalg import mat_inverse, minors
from exformal.errors import (
    ChartError,
    MetricValidationError,
    SingularMetricError,
)
from exformal.exterior import (
    ClosureStatus,
    Form,
    classify_closure,
    dcoord,
    linear_combine,
    wedge,
)
from exformal.geometry import (
    Metric,
    build_em_form,
    codifferential,
    euclidean_metric,
    hodge,
    maxwell_residual,
    minkowski_metric,
)
from exformal.symbolic import (
    Chart,
    Rat,
    Sym,
    ZERO,
    ZeroVerdict,
    add,
    diff,
    is_zero,
    neg,
    parse_expr,
)

from helpers import CHARTS, rand_form, rand_poly

CH2 = CHARTS[2]
CH4 = CHARTS[4]


class TestMetric:
    def test_symmetry_enforced(self):
        with pytest.raises(MetricValidationError):
            Metric(CH2, [[Rat(1), Sym("x")], [ZERO, Rat(1)]], det_sign=1)

    def test_singular_rejected(self):
        with pytest.raises(SingularMetricError):
            Metric(CH2, [[Rat(1), Rat(1)], [Rat(1), Rat(1)]], det_sign=1)

    def test_wrong_det_sign_rejected(self):
        with pytest.raises(MetricValidationError):
            Metric(CH2, [[Rat(1), ZERO], [ZERO, Rat(1)]], det_sign=-1)

    def test_wrong_mirrored_inverse_entry_is_caught(self, monkeypatch):
        # g^-1 is built on one triangle; g * g^-1 = I is still checked in full
        def mirrored_wrong(m, minor):
            inv = [list(row) for row in mat_inverse(m, minor)]
            inv[1][0] = add(inv[1][0], Rat(1))
            return tuple(tuple(row) for row in inv)

        monkeypatch.setattr(exformal.geometry, "mat_inverse", mirrored_wrong)
        rows = [["2", "x"], ["x", "3"]]
        with pytest.raises(MetricValidationError, match="g \\* g\\^-1"):
            Metric(CH2, [[parse_expr(e, CH2) for e in row] for row in rows],
                   det_sign=1)

    def test_inverse_cached(self):
        g = Metric(CH2, [[Rat(2), ZERO], [ZERO, Rat(1)]], det_sign=1)
        from fractions import Fraction

        assert g.inverse[0][0] == Rat(Fraction(1, 2))

    def test_frw_sqrt_abs_det(self):
        a2 = parse_expr("a(t)^2", CH4)
        g = Metric(
            CH4,
            [
                [Rat(-1), ZERO, ZERO, ZERO],
                [ZERO, a2, ZERO, ZERO],
                [ZERO, ZERO, a2, ZERO],
                [ZERO, ZERO, ZERO, a2],
            ],
            det_sign=-1,
        )
        assert g.sqrt_abs_det == parse_expr("a(t)^3", CH4)

    def test_sphere_det_sign_sampled_off_center(self):
        # det = sin(theta)^2 vanishes at the box center; the validator
        # must fall back to sampled points
        ch = Chart(("theta", "phi"))
        g = Metric(
            ch,
            [[Rat(1), ZERO], [ZERO, parse_expr("sin(theta)^2", ch)]],
            det_sign=1,
        )
        assert g.det == parse_expr("sin(theta)^2", ch)

    @pytest.mark.parametrize("rows, det_sign, value", [
        # y is drawn although det = x^2 does not hold it
        ((("1", "y"), ("y", "y^2 + x^2")), 1, 1.8980225889270765),
        # det vanishes at the box center
        ((("1", "0"), ("0", "sin(x)^2")), 1, 0.9631701870203005),
        # a denominator in det, evaluated with no singular guard
        ((("-1/(1 - x)", "0"), ("0", "1")), -1, -1.0),
        ((("1", "0"), ("0", "x^2 + 1")), 1, 1.0),
    ])
    def test_sampled_det_pinned(self, rows, det_sign, value):
        ch = Chart(("x", "y"))
        g = Metric(ch, [[parse_expr(e, ch) for e in row] for row in rows],
                   det_sign)
        assert g._sample_det() == value


class TestHodge2D:
    def test_convention_on_basis(self):
        g = euclidean_metric(CH2)
        assert hodge(dcoord(CH2, 0), g) == dcoord(CH2, 1)
        assert hodge(dcoord(CH2, 1), g) == linear_combine(
            [Rat(-1)], [dcoord(CH2, 0)]
        )
        one = Form.scalar(CH2, Rat(1))
        assert hodge(one, g) == wedge(dcoord(CH2, 0), dcoord(CH2, 1))

    def test_scalar_coefficient(self):
        g = euclidean_metric(CH2)
        f = Form.scalar(CH2, parse_expr("x*y", CH2))
        out = hodge(f, g)
        assert out == Form(CH2, 2, {(0, 1): parse_expr("x*y", CH2)})


class TestHodgeMinkowski:
    def test_dx_wedge_dy(self):
        # oracle: expand the Levi-Civita contraction by hand;
        # *(dx^dy) = dt^dz = -(dz^dt), and ** must give -1 on 2-forms
        g = minkowski_metric(CH4)
        F = Form(CH4, 2, {(1, 2): Rat(1)})
        out = hodge(F, g)
        assert out == Form(CH4, 2, {(0, 3): Rat(1)})
        again = hodge(out, g)
        assert again == Form(CH4, 2, {(1, 2): Rat(-1)})

    def test_one_minor_table_per_star(self, monkeypatch):
        # every compound minor of g^-1 is read from one table per call
        g = minkowski_metric(CH4)
        x = [Sym(name) for name in CH4.names]
        F = Form(CH4, 2, {(i, j): add(x[i], x[j])
                          for i, j in combinations(range(4), 2)})
        tables = []

        def counted(m):
            tables.append(m)
            return minors(m)

        monkeypatch.setattr(exformal._linalg, "minors", counted)
        monkeypatch.setattr(exformal.geometry, "minors", counted)
        hodge(F, g)
        assert tables == [g.inverse]


class TestHodgeInvolution:
    @pytest.mark.parametrize(
        "n,sign", [(2, 1), (3, 1), (4, -1)], ids=["euclid2", "euclid3", "mink4"]
    )
    def test_double_star(self, n, sign):
        chart = CHARTS[n]
        g = euclidean_metric(chart) if sign == 1 else minkowski_metric(chart)
        rng = random.Random(100 + n)
        for p in range(n + 1):
            for _ in range(8):
                a = rand_form(rng, chart, p, rand_poly)
                twice = hodge(hodge(a, g), g)
                expected = linear_combine([Rat(sign * (-1) ** (p * (n - p)))], [a])
                residual = linear_combine([Rat(1), Rat(-1)], [twice, expected])
                assert all(
                    is_zero(c) is ZeroVerdict.ZERO
                    for c in residual.components.values()
                )

    def test_linearity(self):
        g = euclidean_metric(CH2)
        rng = random.Random(55)
        a = rand_form(rng, CH2, 1, rand_poly)
        b = rand_form(rng, CH2, 1, rand_poly)
        c = Rat(3)
        lhs = hodge(linear_combine([c, Rat(1)], [a, b]), g)
        rhs = linear_combine([c, Rat(1)], [hodge(a, g), hodge(b, g)])
        residual = linear_combine([Rat(1), Rat(-1)], [lhs, rhs])
        assert all(
            is_zero(x) is ZeroVerdict.ZERO for x in residual.components.values()
        )


class TestCodifferential:
    def test_constant_coefficients(self):
        g = euclidean_metric(CH2)
        assert codifferential(dcoord(CH2, 0), g).is_zero_form

    def test_matches_negative_divergence(self):
        # oracle: on Euclidean 1-forms delta = -div of the metric-dual
        # vector field; for x dx that divergence is 1, so delta = -1
        g = euclidean_metric(CH2)
        out = codifferential(Form(CH2, 1, {(0,): Sym("x")}), g)
        assert out == Form.scalar(CH2, Rat(-1))

    def test_divergence_oracle_random(self):
        g = euclidean_metric(CH2)
        rng = random.Random(77)
        for _ in range(10):
            comps = {(i,): rand_poly(rng, CH2.names) for i in range(2)}
            a = Form(CH2, 1, comps)
            divergence = add(
                *(diff(a.get((i,)), CH2.names[i]) for i in range(2))
            )
            out = codifferential(a, g)
            assert is_zero(add(out.get(()), divergence)) is ZeroVerdict.ZERO

    def test_scalar_is_zero(self):
        g = euclidean_metric(CH2)
        assert codifferential(Form.scalar(CH2, parse_expr("x*y", CH2)), g).is_zero_form


class TestEmForm:
    def test_zero_fields(self):
        z = ZERO
        assert build_em_form([z, z, z], [z, z, z], CH4).is_zero_form

    def test_constant_e_field(self):
        z = ZERO
        E0 = parse_expr("E0", CH4, ["E0"])
        F = build_em_form([E0, z, z], [z, z, z], CH4)
        # E0 dx^dt = -E0 dt^dx
        assert F == Form(CH4, 2, {(0, 1): neg(E0)})

    def test_plane_wave_layout(self):
        # oracle: substitute and collect -> f(z-t)(dx^dt + dz^dx)
        z = ZERO
        f = parse_expr("f(z - t)", CH4)
        F = build_em_form([f, z, z], [z, f, z], CH4)
        assert F == Form(CH4, 2, {(0, 1): neg(f), (1, 3): neg(f)})

    def test_requires_dim_4(self):
        with pytest.raises(ChartError):
            build_em_form([ZERO] * 3, [ZERO] * 3, CH2)


class TestMaxwellResidual:
    def test_zero_scenario(self):
        g = minkowski_metric(CH4)
        F = Form.zero(CH4, 2)
        J = Form.zero(CH4, 1)
        r1, r2 = maxwell_residual(F, J, g)
        assert r1.is_zero_form and r2.is_zero_form

    def test_constant_field(self):
        g = minkowski_metric(CH4)
        z = ZERO
        F = build_em_form([parse_expr("E0", CH4, ["E0"]), z, z], [z, z, z], CH4)
        r1, r2 = maxwell_residual(F, Form.zero(CH4, 1), g)
        assert r1.is_zero_form and r2.is_zero_form

    def test_plane_wave(self):
        # oracle: hand expansion; d of f(z-t)(dx^dt + dz^dx) cancels by
        # the chain rule, and so does the dual -- both residuals vanish
        g = minkowski_metric(CH4)
        z = ZERO
        f = parse_expr("f(z - t)", CH4)
        F = build_em_form([f, z, z], [z, f, z], CH4)
        r1, r2 = maxwell_residual(F, Form.zero(CH4, 1), g)
        assert all(is_zero(c) is ZeroVerdict.ZERO for c in r1.components.values())
        assert all(is_zero(c) is ZeroVerdict.ZERO for c in r2.components.values())

    def test_gauss_violation_detected(self):
        g = minkowski_metric(CH4)
        z = ZERO
        F = build_em_form([Sym("x"), z, z], [z, z, z], CH4)
        r1, r2 = maxwell_residual(F, Form.zero(CH4, 1), g)
        assert r1.is_zero_form
        assert r2.get((1, 2, 3)) == Rat(1)

    def test_residual_zero_implies_closed(self):
        # cross-module consistency: zero residuals => classify_closure
        # says Closed or Exact
        g = minkowski_metric(CH4)
        z = ZERO
        f = parse_expr("f(z - t)", CH4)
        F = build_em_form([f, z, z], [z, f, z], CH4)
        r1, r2 = maxwell_residual(F, Form.zero(CH4, 1), g)
        assert r1.is_zero_form and r2.is_zero_form
        status = classify_closure(F).status
        assert status in (ClosureStatus.CLOSED, ClosureStatus.EXACT)

"""Connections, torsion, the evolutionary commutator, and the curvature
stack through the Einstein tensor and contracted Bianchi residual.

Hand-computed expected values (the derivations follow the documented
index conventions):

* unit 2-sphere g = diag(1, sin^2 th): Gamma^th_phph = -sin th cos th,
  Gamma^ph_thph = cos th / sin th, R^th_phthph = sin^2 th,
  Ricci = diag(1, sin^2 th), R = 2, G = 0 (dim-2 identity).
* flat FRW g = diag(-1, a^2, a^2, a^2): Gamma^t_xx = a a',
  Gamma^x_tx = a'/a, R_tt = -3 a''/a, G_tt = 3 (a'/a)^2.
"""

import gc
import glob
import inspect
import json
import os
import random
import weakref
from fractions import Fraction

import pytest

import exformal.cli
import exformal.connection
import exformal.symbolic
from exformal._linalg import grid
from exformal.catalog import verify_einstein
from exformal.cli import main, run_scenario
from exformal.connection import (
    Connection,
    Tensor,
    bianchi_residual,
    christoffel,
    covariant_derivative_1form,
    einstein_tensor,
    evolutionary_commutator,
    ricci_and_scalar,
    riemann,
    torsion,
)
from exformal.errors import DegreeError
from exformal.exterior import Form, ext_d, linear_combine
from exformal.geometry import Metric, minkowski_metric
from exformal.symbolic import (
    Chart,
    Expr,
    Rat,
    Sym,
    Verdict,
    ZERO,
    ZeroVerdict,
    _fold_verdicts,
    add,
    diff,
    eval_at,
    is_zero,
    mul,
    neg,
    parse_expr,
    pow_,
    simplify,
    sub,
    substitute_function,
)

from helpers import (
    CHARTS,
    laplace,
    off_domain_constants,
    rand_connection,
    rand_diag_metric,
    rand_form,
    rand_poly,
    submatrix,
)

CH2 = CHARTS[2]
CH4 = CHARTS[4]


def sphere_metric():
    ch = Chart(("theta", "phi"))
    return Metric(
        ch, [[Rat(1), ZERO], [ZERO, parse_expr("sin(theta)^2", ch)]], det_sign=1
    )


def frw_metric():
    a2 = parse_expr("a(t)^2", CH4)
    return Metric(
        CH4,
        [
            [Rat(-1), ZERO, ZERO, ZERO],
            [ZERO, a2, ZERO, ZERO],
            [ZERO, ZERO, a2, ZERO],
            [ZERO, ZERO, ZERO, a2],
        ],
        det_sign=-1,
    )


class TestChristoffel:
    def test_flat_vanishes(self):
        g = minkowski_metric(CH4)
        c = christoffel(g)
        assert all(
            c.gamma[s][a][b] == ZERO
            for s in range(4)
            for a in range(4)
            for b in range(4)
        )

    def test_two_sphere(self):
        g = sphere_metric()
        ch = g.chart
        c = christoffel(g)
        assert c.gamma[0][1][1] == parse_expr("-sin(theta)*cos(theta)", ch)
        expected = parse_expr("cos(theta)/sin(theta)", ch)
        assert c.gamma[1][0][1] == expected
        assert c.gamma[1][1][0] == expected
        others = [
            (s, a, b)
            for s in range(2)
            for a in range(2)
            for b in range(2)
            if (s, a, b) not in ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        ]
        assert all(c.gamma[s][a][b] == ZERO for s, a, b in others)

    def test_frw(self):
        g = frw_metric()
        c = christoffel(g)
        assert c.gamma[0][1][1] == parse_expr("a(t)*a'(t)", CH4)
        assert c.gamma[1][0][1] == parse_expr("a'(t)/a(t)", CH4)

    def test_symmetric_in_lower_pair(self):
        rng = random.Random(9)
        g = rand_diag_metric(rng, CH2)
        c = christoffel(g)
        for s in range(2):
            for a in range(2):
                for b in range(2):
                    assert c.gamma[s][a][b] == c.gamma[s][b][a]

    @pytest.mark.parametrize("make", [sphere_metric, frw_metric],
                             ids=["sphere", "frw"])
    def test_lower_pair_is_one_object(self, make):
        gamma = christoffel(make()).gamma
        n = len(gamma)
        pairs = [(s, a, b) for s in range(n) for a in range(n)
                 for b in range(a + 1, n)]
        for s, a, b in pairs:
            assert gamma[s][b][a] is gamma[s][a][b]
        assert any(gamma[s][a][b] != ZERO for s, a, b in pairs)


class TestTensor:
    @pytest.mark.parametrize("comps", [
        [Sym("x"), Sym("y")],                  # a rank-1 array
        [[Sym("x"), Sym("y")], [Sym("x")]],    # a ragged one
        [[Sym("x"), "y"], [Sym("x"), Sym("y")]],  # an entry not an Expr
        Sym("x"),
    ], ids=["rank_1", "ragged", "not_expr", "scalar"])
    def test_malformed_array_is_a_degree_error(self, comps):
        with pytest.raises(DegreeError, match="must be 2\\^2 of Expr"):
            Tensor(Chart(["x", "y"]), "ll", comps)


class TestTorsion:
    def test_christoffel_torsion_free(self):
        rng = random.Random(13)
        for chart in (CH2, CHARTS[3]):
            g = rand_diag_metric(rng, chart)
            t = torsion(christoffel(g))
            assert not t.nonzero()

    def test_single_coefficient(self):
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[0][0][1] = Sym("c")
        t = torsion(Connection(CH2, gamma))
        assert t.comp(0, 0, 1) == Sym("c")
        assert t.comp(0, 1, 0) == neg(Sym("c"))

    def test_zero_connection(self):
        assert not torsion(Connection.zero(CH2)).nonzero()

    def test_nonsymmetric_connection_keeps_both_entries(self):
        # a user-supplied connection is kept as given, so two different
        # coefficients in the pair (0, 1) and (1, 0) give nonzero torsion
        # at both positions
        x, y = Sym("x"), Sym("y")
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[1][0][1], gamma[1][1][0] = x, y
        c = Connection(CH2, gamma)
        assert c.gamma[1][0][1] is x and c.gamma[1][1][0] is y
        t = torsion(c)
        assert t.comp(1, 0, 1) == sub(x, y) != ZERO
        assert t.comp(1, 1, 0) == sub(y, x) != ZERO
        assert set(t.nonzero()) == {(1, 0, 1), (1, 1, 0)}

    def test_one_object_in_both_slots_is_the_shared_zero(self):
        # an entry whose two coefficients are one object is ZERO with no
        # algebra; on canonical trees add(a, neg(a)) gives the same
        rng = random.Random(2026)
        for chart in (CH2, CHARTS[3]):
            c = rand_connection(rng, chart, symmetric=True, density=0.7)
            t = torsion(c)
            n = chart.dim
            shared = 0
            for s in range(n):
                for a in range(n):
                    for b in range(n):
                        ab = c.gamma[s][a][b]
                        if ab is c.gamma[s][b][a]:
                            shared += ab is not ZERO
                            assert t.comp(s, a, b) is ZERO
                            assert add(ab, neg(ab)) is ZERO
            assert shared

    def test_one_sum_past_the_budget_in_both_slots_is_zero(self):
        # add(a, neg(a)) would raise here, since neg of a sum of more than
        # 10,000 terms goes past the expansion budget
        big = add(*(pow_(Sym("x"), k) for k in range(1, 10_002)))
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[0][0][1] = gamma[0][1][0] = big
        assert not torsion(Connection(CH2, gamma)).nonzero()


class TestCovariantDerivative:
    def test_zero_connection_gives_partials(self):
        a = Form(CH2, 1, {(0,): parse_expr("x*y", CH2)})
        t = covariant_derivative_1form(a, Connection.zero(CH2))
        assert t.comp(0, 0) == Sym("y")
        assert t.comp(1, 0) == Sym("x")

    def test_substitution_example(self):
        # a = dx, Gamma^1_12 = c: A_{2;1} = -c (1-based indices)
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[0][0][1] = Sym("c")
        a = Form(CH2, 1, {(0,): Rat(1)})
        t = covariant_derivative_1form(a, Connection(CH2, gamma))
        assert t.comp(0, 1) == neg(Sym("c"))

    def test_constant_form_zero_connection(self):
        a = Form(CH2, 1, {(0,): Rat(2), (1,): Rat(-1)})
        t = covariant_derivative_1form(a, Connection.zero(CH2))
        assert not t.nonzero()


class TestEvolutionaryCommutator:
    def test_matches_ext_d_for_zero_connection(self):
        a = Form(CH2, 1, {(0,): Sym("y")})
        K = evolutionary_commutator(a, Connection.zero(CH2))
        assert K == Form(CH2, 2, {(0, 1): Rat(-1)})
        assert K == ext_d(a)

    def test_constant_torsion_scenario(self):
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[0][0][1] = Sym("c")
        a = Form(CH2, 1, {(0,): Rat(1)})
        K = evolutionary_commutator(a, Connection(CH2, gamma))
        assert K.get((0, 1)) == neg(Sym("c"))

    def test_symmetric_connection_reduces_to_curl(self):
        rng = random.Random(21)
        for _ in range(15):
            chart = CHARTS[rng.choice((2, 3))]
            c = rand_connection(rng, chart, symmetric=True)
            a = rand_form(rng, chart, 1, rand_poly)
            K = evolutionary_commutator(a, c)
            residual = linear_combine([Rat(1), Rat(-1)], [K, ext_d(a)])
            assert all(
                is_zero(x) is ZeroVerdict.ZERO
                for x in residual.components.values()
            )

    def test_torsion_obstructs_closure_of_constant_form(self):
        # with nonzero torsion there is a constant-component 1-form whose
        # commutator is nonzero even though ext_d vanishes
        gamma = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        gamma[0][0][1] = Rat(3)
        c = Connection(CH2, gamma)
        a = Form(CH2, 1, {(0,): Rat(1)})
        assert ext_d(a).is_zero_form
        K = evolutionary_commutator(a, c)
        assert not K.is_zero_form

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_tree_equals_the_explicit_formula(self, symmetric):
        # K_ab = d_a A_b - d_b A_a + (Gamma^s_ba - Gamma^s_ab) A_s, summed
        # here by hand and simplified once by the Form
        rng = random.Random(41 + symmetric)
        for _ in range(10):
            chart = CHARTS[rng.choice((2, 3))]
            n, names = chart.dim, chart.names
            c = rand_connection(rng, chart, density=0.5, symmetric=symmetric)
            a = rand_form(rng, chart, 1)
            A = [a.get((i,)) for i in range(n)]
            g = c.gamma
            expected = Form(chart, 2, {
                (al, be): add(
                    diff(A[be], names[al]), neg(diff(A[al], names[be])),
                    *(mul(sub(g[s][be][al], g[s][al][be]), A[s])
                      for s in range(n)))
                for al in range(n) for be in range(al + 1, n)
            })
            assert evolutionary_commutator(a, c) == expected

    def test_equals_antisymmetrized_covariant_derivative(self):
        rng = random.Random(33)
        for _ in range(15):
            chart = CHARTS[rng.choice((2, 3))]
            c = rand_connection(rng, chart, density=0.5)
            a = rand_form(rng, chart, 1, rand_poly)
            K = evolutionary_commutator(a, c)
            cd = covariant_derivative_1form(a, c)
            for al in range(chart.dim):
                for be in range(al + 1, chart.dim):
                    anti = sub(cd.comp(al, be), cd.comp(be, al))
                    assert is_zero(sub(K.get((al, be)), anti)) is ZeroVerdict.ZERO


class TestRiemann:
    def test_flat(self):
        assert not riemann(christoffel(minkowski_metric(CH4))).nonzero()

    def test_zero_connection(self):
        assert not riemann(Connection.zero(CH2)).nonzero()

    def test_two_sphere_component(self):
        R4 = riemann(christoffel(sphere_metric()))
        assert R4.comp(0, 1, 0, 1) == parse_expr(
            "sin(theta)^2", sphere_metric().chart
        )

    def test_antisymmetry_last_pair(self):
        rng = random.Random(41)
        c = rand_connection(rng, CH2, density=0.6)
        R4 = riemann(c)
        for idx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            r, s = idx
            for m in range(2):
                for v in range(2):
                    assert is_zero(
                        add(R4.comp(r, s, m, v), R4.comp(r, s, v, m))
                    ) is ZeroVerdict.ZERO

    def test_builds_only_mu_below_nu(self, monkeypatch):
        """A 4D `riemann` evaluates the curvature rule for the 96 components
        with mu < nu and fills those with mu > nu by negation."""
        calls = []
        rule = exformal.connection._riemann_component

        def counted(gamma, names, r, s, m, v):
            calls.append((m, v))
            return rule(gamma, names, r, s, m, v)

        monkeypatch.setattr(exformal.connection, "_riemann_component", counted)
        R4 = riemann(christoffel(frw_metric()))
        assert sum(m < v for m, v in calls) == 96
        assert not [(m, v) for m, v in calls if m > v]
        assert R4.comp(0, 1, 1, 0) == simplify(neg(R4.comp(0, 1, 0, 1))) != ZERO

    def test_first_bianchi_symmetric_connection(self):
        rng = random.Random(43)
        c = rand_connection(rng, CHARTS[3], symmetric=True, density=0.5)
        R4 = riemann(c)
        n = 3
        for r in range(n):
            for s in range(n):
                for m in range(n):
                    for v in range(n):
                        cyc = add(
                            R4.comp(r, s, m, v),
                            R4.comp(r, m, v, s),
                            R4.comp(r, v, s, m),
                        )
                        assert is_zero(cyc) is ZeroVerdict.ZERO


class TestRicciEinstein:
    def test_flat(self):
        g = minkowski_metric(CH4)
        ric, scal = ricci_and_scalar(g)
        assert not ric.nonzero()
        assert scal == ZERO
        assert not einstein_tensor(g).nonzero()

    def test_two_sphere(self):
        g = sphere_metric()
        ric, scal = ricci_and_scalar(g)
        assert ric.comp(0, 0) == Rat(1)
        assert ric.comp(1, 1) == parse_expr("sin(theta)^2", g.chart)
        assert scal == Rat(2)
        assert not einstein_tensor(g).nonzero()

    @pytest.mark.parametrize("diagonal", [("1", "1/cos(x)^2"),
                                          ("1/cos(y)^2", "1/cos(x)^2")])
    def test_two_dimensions_with_cos_denominators(self, diagonal):
        # G vanishes identically in 2D; the curvature of these metrics
        # holds negative powers of cos, which simplify must bring to 0
        a, b = (parse_expr(t, CH2) for t in diagonal)
        g = Metric(CH2, [[a, ZERO], [ZERO, b]], 1)
        assert not einstein_tensor(g).nonzero()

    def test_frw_ricci_tt(self):
        g = frw_metric()
        ric, _ = ricci_and_scalar(g)
        assert ric.comp(0, 0) == parse_expr("-3*a''(t)/a(t)", CH4)

    def test_frw_einstein_tt(self):
        g = frw_metric()
        G = einstein_tensor(g)
        assert simplify(
            sub(G.comp(0, 0), parse_expr("3*a'(t)^2/a(t)^2", CH4))
        ) == ZERO

    @pytest.mark.parametrize("make", [
        sphere_metric,
        frw_metric,
        lambda: rand_diag_metric(random.Random(47), CHARTS[3]),
    ], ids=["sphere", "frw", "random_diagonal"])
    def test_direct_contraction_matches_full_riemann(self, make):
        """The Ricci stage builds only the n^3 components R^r_{m r v}; it
        equals the contraction of the whole tensor, built on an equal
        metric that shares no stage with the first."""
        ric, scal = ricci_and_scalar(make())
        g = make()
        n = g.chart.dim
        R4 = riemann(christoffel(g))
        full_ric = Tensor(g.chart, "ll", grid(n, 2, lambda m, v: add(
            *(R4.comp(r, m, r, v) for r in range(n)))))
        full_scal = simplify(add(*(mul(g.inverse[m][v], full_ric.comp(m, v))
                                   for m in range(n) for v in range(n))))
        assert ric == full_ric
        assert scal == full_scal

    @pytest.mark.parametrize("make", [lambda: full_symmetric_metric(),
                                      lambda: rotating_metric()],
                             ids=["full_3d", "t_phi_block"])
    def test_mirrored_entries_are_one_object(self, make):
        g = make()
        ricci, _ = ricci_and_scalar(g)
        G = einstein_tensor(g)
        n = g.chart.dim
        pairs = [(m, v) for m in range(n) for v in range(m + 1, n)]
        for m, v in pairs:
            assert ricci.comp(v, m) is ricci.comp(m, v)
            assert G.comp(v, m) is G.comp(m, v)
        assert any(G.comp(m, v) != ZERO for m, v in pairs)

    def test_ricci_stage_builds_only_mu_up_to_nu(self, monkeypatch):
        """On a 4D chart the Ricci stage evaluates the curvature rule for
        the 4 * 10 components R^r_{m r v} with m <= v, 40 instead of 64."""
        calls = []
        rule = exformal.connection._riemann_component

        def counted(gamma, names, r, s, m, v):
            calls.append((s, v))
            return rule(gamma, names, r, s, m, v)

        monkeypatch.setattr(exformal.connection, "_riemann_component", counted)
        ricci, _ = ricci_and_scalar(frw_metric())
        assert len(calls) == 40
        assert all(m <= v for m, v in calls)
        assert ricci.comp(0, 0) != ZERO

    def test_einstein_symmetry_random(self):
        rng = random.Random(47)
        g = rand_diag_metric(rng, CHARTS[3])
        G = einstein_tensor(g)
        for m in range(3):
            for v in range(3):
                assert is_zero(sub(G.comp(m, v), G.comp(v, m))) is ZeroVerdict.ZERO


class TestBianchi:
    def test_minkowski(self):
        assert all(e == ZERO for e in bianchi_residual(minkowski_metric(CH4)))

    def test_two_sphere(self):
        assert all(
            is_zero(e) is ZeroVerdict.ZERO
            for e in bianchi_residual(sphere_metric())
        )

    def test_frw_symbolic(self):
        res = bianchi_residual(frw_metric())
        assert all(is_zero(e) is ZeroVerdict.ZERO for e in res)

    def test_frw_numeric_profile(self):
        # cross-check with the concrete profile a(t) = t^2 at sample points
        res = bianchi_residual(frw_metric())
        rng = random.Random(59)
        prof = parse_expr("u^2", Chart(("u",)))
        for e in res:
            concrete = substitute_function(e, "a", "u", prof)
            for _ in range(10):
                env = {n: rng.uniform(0.5, 2.0) for n in CH4.names}
                assert abs(eval_at(concrete, env)) < 1e-8


SPHERICAL = Chart(("t", "r", "th", "ph"))


def spherical_metric(f, g_thth="r^2", params=("m",)):
    """diag(-f, 1/f, g_thth, r^2 sin(th)^2) with f given as text."""
    rows = [[f"-({f})", "0", "0", "0"], ["0", f"1/({f})", "0", "0"],
            ["0", "0", g_thth, "0"], ["0", "0", "0", "r^2*sin(th)^2"]]
    return Metric(SPHERICAL, [[parse_expr(e, SPHERICAL, params) for e in row]
                              for row in rows], det_sign=-1)


def matrix(rows, params):
    return tuple(tuple(parse_expr(e, SPHERICAL, params) for e in row)
                 for row in rows)


class TestCurvedVacuum:
    """Schwarzschild and de Sitter, as the curvature benchmark states them:
    the Einstein equations and the contracted Bianchi identity are true, so
    they must Pass for every engine seed; a perturbed Schwarzschild breaks
    the vacuum equations but, like every Levi-Civita metric, still has
    div G = 0."""

    SEEDS = range(10)
    ZERO_T = (("0",) * 4,) * 4
    DE_SITTER_T = (("3*L*(1 - L*r^2)/kappa", "0", "0", "0"),
                   ("0", "-3*L/(kappa*(1 - L*r^2))", "0", "0"),
                   ("0", "0", "-3*L*r^2/kappa", "0"),
                   ("0", "0", "0", "-3*L*r^2*sin(th)^2/kappa"))

    @staticmethod
    def verdicts(g, T, seed):
        einstein = verify_einstein(g, T, seed=seed).verdict
        bianchi = _fold_verdicts(is_zero(e, seed) for e in bianchi_residual(g))
        return einstein, bianchi

    @pytest.mark.parametrize("f, params, T", [
        ("1 - 2*m/r", ("m", "kappa"), ZERO_T),
        ("1 - L*r^2", ("L", "kappa"), DE_SITTER_T),
    ], ids=["schwarzschild", "de_sitter"])
    def test_true_identities_pass_on_every_seed(self, f, params, T):
        g = spherical_metric(f, params=params)
        T = matrix(T, params)
        for seed in self.SEEDS:
            assert self.verdicts(g, T, seed) == (Verdict.PASS, Verdict.PASS)

    @pytest.mark.parametrize("f, g_thth, params", [
        ("1 - 2*m/r", "r^2", ("m",)),
        ("1 - L*r^2", "r^2", ("L",)),
        ("1 - 2*m/r", "r^2 + m^2", ("m",)),
    ], ids=["schwarzschild", "de_sitter", "perturbed"])
    def test_integral_constants_are_ints(self, f, g_thth, params):
        # every constant of the curvature stack is an int when integral and
        # a Fraction only with a denominator above 1
        g = spherical_metric(f, g_thth=g_thth, params=params)
        gamma = christoffel(g)
        R4 = riemann(gamma)
        ricci, scalar = ricci_and_scalar(g)
        stages = [gamma.comps, R4.comps, ricci.comps, scalar,
                  einstein_tensor(g).comps]
        assert off_domain_constants(stages) == []

    def test_schwarzschild_einstein_tensor_cancels(self):
        assert einstein_tensor(spherical_metric("1 - 2*m/r")).nonzero() == {}

    def test_perturbed_schwarzschild_fails_vacuum_keeps_bianchi(self):
        g = spherical_metric("1 - 2*m/r", g_thth="r^2 + m^2",
                             params=("m", "kappa"))
        T = matrix(self.ZERO_T, ("m", "kappa"))
        for seed in self.SEEDS:
            assert self.verdicts(g, T, seed) == (Verdict.FAIL, Verdict.PASS)


class TestSharedStack:
    """Each Levi-Civita stage is built once per Metric object and kept on
    that object only."""

    @staticmethod
    def watch_ricci_stage(monkeypatch):
        """Every result of `ricci_and_scalar`, through each binding that
        calls it: `connection`'s own, which `einstein_tensor` reads, and
        `cli`'s, patched as the benchmark's tracer patches them.  A build
        returns a new pair and a reuse the kept one, so the distinct
        results count the builds."""
        results = []
        stage = exformal.connection.ricci_and_scalar

        def watched(g):
            results.append(stage(g))
            return results[-1]

        for module in (exformal.connection, exformal.cli):
            monkeypatch.setattr(module, "ricci_and_scalar", watched)
        return results

    @staticmethod
    def builds(results):
        return len({id(r) for r in results})

    def test_riemann_built_once_per_scenario(self, monkeypatch, tmp_path):
        results = self.watch_ricci_stage(monkeypatch)
        scenario = {
            "chart": ["theta", "phi"],
            "metric": {"matrix": [["1", "0"], ["0", "sin(theta)^2"]],
                       "det_sign": 1},
            "tasks": [{"op": op} for op in (
                "christoffel", "verify_einstein", "bianchi_residual",
                "ricci_and_scalar", "einstein_tensor")],
        }
        p = tmp_path / "sphere.json"
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, report = run_scenario(str(p))
        assert code == 0, report
        assert len(results) > 1
        assert self.builds(results) == 1

    def test_equal_metrics_do_not_share(self, monkeypatch):
        results = self.watch_ricci_stage(monkeypatch)
        g1, g2 = sphere_metric(), sphere_metric()
        assert christoffel(g1) is christoffel(g1)
        assert christoffel(g1) is not christoffel(g2)
        assert einstein_tensor(g1) is not einstein_tensor(g2)
        assert bianchi_residual(g1) is bianchi_residual(g1)
        assert self.builds(results) == 2

    def test_engine_and_cli_run_the_public_stage(self, monkeypatch, capsys):
        # the Einstein tensor and the `ricci_and_scalar` op both reach the
        # Ricci stage through a binding the tracer can see
        results = self.watch_ricci_stage(monkeypatch)
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench", "corpus", "curvature",
            "de_sitter.json")
        assert main(["run", path]) == 0, capsys.readouterr().out
        assert len(results) > 1
        assert self.builds(results) == 1

    def test_bianchi_residual_is_a_tuple(self):
        assert isinstance(bianchi_residual(sphere_metric()), tuple)

    def test_stack_dies_with_its_metric(self):
        g = sphere_metric()
        bianchi_residual(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_a_corpus_pass_leaves_no_cycles(self, capsys):
        # every minor table, sampling plan and component array the engine
        # builds is freed by reference counting, with the collector off;
        # the collector finds what is left in `gc.garbage`
        corpus = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench", "corpus", "curvature")
        paths = sorted(glob.glob(os.path.join(corpus, "*.json")))
        assert paths
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for path in paths:
                main(["run", path])
            gc.collect()
            ours = [o for o in gc.garbage if isinstance(o, Expr) or (
                inspect.isfunction(o) and o.__module__.startswith("exformal"))]
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert ours == []


def dense_stack(g):
    """The curvature stack as the formulas read, with no product skipped:
    g^-1 from the full adjugate, all n^3 Gamma, every Gamma*Gamma and
    Gamma*G product, and -a*b as neg(mul(a, b)); the engine must build
    the same trees while it skips the products with a zero factor."""
    n, names = g.chart.dim, g.chart.names
    half = Rat(Fraction(1, 2))
    det_inv = pow_(g.det, -1)
    inv = grid(n, 2, lambda i, j: simplify(
        mul(Rat((-1) ** (i + j)), laplace(submatrix(g.g, j, i)), det_inv)))

    def gamma_entry(s, a, b):
        return simplify(mul(half, add(*(
            mul(inv[s][r], add(diff(g.g[r][b], names[a]),
                               diff(g.g[r][a], names[b]),
                               neg(diff(g.g[a][b], names[r]))))
            for r in range(n)))))

    gamma = grid(n, 3, gamma_entry)

    def riemann_entry(r, s, m, v):
        if m == v:
            return ZERO
        if m > v:
            return simplify(neg(riemann_entry(r, s, v, m)))
        parts = [diff(gamma[r][v][s], names[m]), neg(diff(gamma[r][m][s], names[v]))]
        for lam in range(n):
            parts.append(mul(gamma[r][m][lam], gamma[lam][v][s]))
            parts.append(neg(mul(gamma[r][v][lam], gamma[lam][m][s])))
        return simplify(add(*parts))

    R4 = grid(n, 4, riemann_entry)
    ricci = grid(n, 2, lambda m, v: simplify(add(*(R4[r][m][r][v] for r in range(n)))))
    scalar = simplify(add(*(mul(inv[m][v], ricci[m][v])
                            for m in range(n) for v in range(n))))
    G = grid(n, 2, lambda m, v: simplify(
        add(ricci[m][v], neg(mul(half, g.g[m][v], scalar)))))

    def divergence(v):
        parts = []
        for m in range(n):
            for r in range(n):
                inner = [diff(G[m][v], names[r])]
                for lam in range(n):
                    inner.append(neg(mul(gamma[lam][r][m], G[lam][v])))
                    inner.append(neg(mul(gamma[lam][r][v], G[m][lam])))
                parts.append(mul(inv[m][r], add(*inner)))
        return simplify(add(*parts))

    torsion_t = grid(n, 3, lambda s, a, b: simplify(
        add(gamma[s][a][b], neg(gamma[s][b][a]))))
    return (inv, gamma, torsion_t, R4, (ricci, scalar), G,
            grid(n, 1, divergence))


def full_symmetric_metric():
    """3D symmetric, every entry nonzero; det 6 at the origin."""
    rows = [["2 + x^2", "1", "y"], ["1", "2", "x"], ["y", "x", "2 + z^2"]]
    ch = CHARTS[3]
    return Metric(ch, [[parse_expr(e, ch) for e in row] for row in rows],
                  det_sign=1)


def rotating_metric():
    """Schwarzschild with a t-phi off-diagonal block."""
    rows = [["-(1 - 2*m/r)", "0", "0", "w*r*sin(th)^2"],
            ["0", "1/(1 - 2*m/r)", "0", "0"], ["0", "0", "r^2", "0"],
            ["w*r*sin(th)^2", "0", "0", "r^2*sin(th)^2"]]
    return Metric(SPHERICAL, [[parse_expr(e, SPHERICAL, ("m", "w")) for e in row]
                              for row in rows], det_sign=-1)


class TestSparseStack:
    """The curvature loops skip every product with a factor that is the
    shared ZERO and build g^-1 on one triangle; neither may change a tree."""

    @pytest.mark.parametrize("make", [
        lambda: spherical_metric("1 - 2*m/r"), full_symmetric_metric,
        rotating_metric,
    ], ids=["schwarzschild", "full_3d", "t_phi_block"])
    def test_equals_the_dense_formulas(self, make):
        g = make()
        inv, gamma, T, R4, ricci, G, div = dense_stack(g)
        assert g.inverse == inv
        assert christoffel(g).gamma == gamma
        assert torsion(christoffel(g)).comps == T
        assert riemann(christoffel(g)).comps == R4
        got_ricci, got_scalar = ricci_and_scalar(g)
        assert (got_ricci.comps, got_scalar) == ricci
        assert einstein_tensor(g).comps == G
        assert bianchi_residual(g) == div

    def test_no_product_has_a_zero_factor(self, monkeypatch):
        # every multiplication the stack makes: its own, and those inside
        # `neg` and the kernel, which look `mul` up in `symbolic`
        zero_factors = []

        def watch(module):
            real = module.mul

            def mul(*args):
                if any(isinstance(a, Rat) and a.value == 0 for a in args):
                    zero_factors.append(args)
                return real(*args)

            monkeypatch.setattr(module, "mul", mul)

        g = spherical_metric("1 - 2*m/r")
        watch(exformal.connection)
        watch(exformal.symbolic)
        einstein_tensor(g)
        bianchi_residual(g)
        assert zero_factors == []

    @pytest.mark.parametrize("make", [
        lambda: spherical_metric("1 - 2*m/r"), full_symmetric_metric,
    ], ids=["schwarzschild", "full_3d"])
    def test_no_derivative_of_zero_or_twice_of_a_metric_entry(
            self, make, monkeypatch):
        g = make()
        positions = {}  # id of a metric entry -> how many positions hold it
        for row in g.g:
            for e in row:
                positions[id(e)] = positions.get(id(e), 0) + 1
        of_zero, of_entry = [], {}
        real = exformal.connection.diff

        def watched(e, var):
            if e is ZERO:
                of_zero.append(var)
            if id(e) in positions:
                of_entry[id(e), var] = of_entry.get((id(e), var), 0) + 1
            return real(e, var)

        monkeypatch.setattr(exformal.connection, "diff", watched)
        einstein_tensor(g)
        bianchi_residual(g)
        torsion(christoffel(g))
        assert of_zero == []
        assert of_entry
        assert all(count <= positions[key[0]]
                   for key, count in of_entry.items())

    def test_zero_shortcuts_return_the_shared_zero(self):
        x = Sym("x")
        assert neg(ZERO) is ZERO
        assert add() is ZERO
        assert add(ZERO, ZERO) is ZERO
        assert add(ZERO, x) is x
        assert mul(x, ZERO) is ZERO
        assert mul(Rat(0), x) is ZERO
        # zero before a product that would pass the expansion budget
        A = add(*(pow_(x, k) for k in range(200)))
        assert mul(ZERO, A, A, A) is ZERO

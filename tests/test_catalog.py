"""Correspondence table rows and the three named verifiers with their
bundled reference / falsification scenarios."""

import pytest

import exformal._linalg
import exformal.catalog
import exformal.geometry
from exformal.catalog import (
    CorrespondenceEntry,
    Verdict,
    Verifiability,
    VERIFIER_IDS,
    control_report,
    correspondence_table,
    reference_report,
    verify_einstein,
    verify_hamiltonian,
    verify_maxwell,
)
from exformal.errors import ChartError
from exformal.geometry import Metric, minkowski_metric
from exformal.symbolic import (
    Chart,
    Rat,
    Sym,
    ZERO,
    parse_expr,
)

CH4 = Chart(("t", "x", "y", "z"))


class TestCorrespondenceTable:
    def test_four_entries(self):
        assert len(correspondence_table()) == 4

    def test_degree_interaction_pairing(self):
        pairs = {
            e.degree: e.interaction for e in correspondence_table()
        }
        assert pairs == {
            0: "strong",
            1: "weak",
            2: "electromagnetic",
            3: "gravitational",
        }

    def test_maxwell_entry(self):
        entry = next(e for e in correspondence_table() if e.degree == 2)
        assert entry.verifiability is Verifiability.VERIFIABLE
        assert entry.verifier_id == "maxwell"
        assert "Maxwell" in entry.family

    def test_degree_zero_is_metadata(self):
        entry = next(e for e in correspondence_table() if e.degree == 0)
        assert entry.verifiability is Verifiability.METADATA
        assert entry.verifier_id is None
        assert "zero degree" in entry.note

    def test_entry_defaults(self):
        entry = CorrespondenceEntry(4, "family", "interaction",
                                    Verifiability.METADATA)
        assert entry.verifier_id is None
        assert entry.note == ""

    def test_only_k0_is_metadata(self):
        for e in correspondence_table():
            expected = (
                Verifiability.METADATA if e.degree == 0
                else Verifiability.VERIFIABLE
            )
            assert e.verifiability is expected


class TestMaxwellVerifier:
    def test_plane_wave_passes(self):
        rep = reference_report("maxwell")
        assert rep.verdict is Verdict.PASS
        assert len(rep.checks) == 3

    def test_zero_fields_pass(self):
        z = ZERO
        rep = verify_maxwell([z] * 3, [z] * 3, [z] * 4, minkowski_metric(CH4))
        assert rep.verdict is Verdict.PASS

    def test_static_field_control_fails_on_gauss(self):
        rep = control_report("maxwell")
        assert rep.verdict is Verdict.FAIL
        by_name = {c.name: c for c in rep.checks}
        gauss = by_name["d*F = *J (Gauss + Ampere)"]
        assert gauss.verdict is Verdict.FAIL
        assert "(1, 2, 3)=1" in gauss.residual_summary
        assert by_name["dF = 0 (Faraday + no monopoles)"].verdict is Verdict.PASS

    def test_sourced_scenario(self):
        # static E = (x, 0, 0) with charge density rho = 1 satisfies
        # d*F = *J: the control failure disappears once the source is on
        z = ZERO
        rep = verify_maxwell(
            [Sym("x"), z, z], [z, z, z], [Rat(1), z, z, z],
            minkowski_metric(CH4),
        )
        assert rep.verdict is Verdict.PASS

    @pytest.mark.parametrize("seed", range(10))
    def test_current_past_the_float_range_is_never_a_pass(self, seed):
        # d*F = *J fails: F = 0 and rho is not 0.  Both of its terms
        # overflow a float at every point, so no point can be sampled
        z = ZERO
        rho = parse_expr("17*10^307*exp(x^2 + 1) - 17*10^307*exp(y^2 + 1)",
                         CH4)
        rep = verify_maxwell([z] * 3, [z] * 3, [rho, z, z, z],
                             minkowski_metric(CH4), seed)
        assert rep.verdict is Verdict.UNKNOWN


class TestHamiltonianVerifier:
    def test_harmonic_oscillator(self):
        rep = reference_report("hamiltonian")
        assert rep.verdict is Verdict.PASS
        assert len(rep.checks) == 3

    def test_free_particle(self):
        chart = Chart(("t", "q", "p"))
        H = parse_expr("p^2/(2*m)", chart, ["m"])
        rep = verify_hamiltonian(H, 1)
        assert rep.verdict is Verdict.PASS

    def test_corrupted_flow_control(self):
        rep = control_report("hamiltonian")
        assert rep.verdict is Verdict.FAIL
        flow = rep.checks[0]
        assert flow.verdict is Verdict.FAIL

    def test_k2_chart(self):
        chart = Chart(("t", "q1", "q2", "p1", "p2"))
        H = parse_expr("(p1^2 + p2^2 + q1^2 + q2^2)/2", chart)
        rep = verify_hamiltonian(H, 2)
        assert rep.verdict is Verdict.PASS


class TestEinsteinVerifier:
    def test_minkowski_vacuum(self):
        zero_T = tuple(tuple(ZERO for _ in range(4)) for _ in range(4))
        rep = verify_einstein(minkowski_metric(CH4), zero_T)
        assert rep.verdict is Verdict.PASS
        assert rep.values["G_nonzero"] == "0"

    @pytest.mark.parametrize("seed", [0, 7])
    def test_schwarzschild_reference_passes_dust_control_fails(self, seed):
        rep = reference_report("einstein", seed)
        assert rep.verdict is Verdict.PASS
        assert all(c.verdict is Verdict.PASS for c in rep.checks)
        # the Einstein tensor cancels to exact zeros, no sampling needed
        assert rep.values["G_nonzero"] == "0"
        control = control_report("einstein", seed)
        assert control.verdict is Verdict.FAIL

    def test_reports_only_the_checks_it_computes(self):
        bianchi = "contracted Bianchi identity div G = 0"
        rep = reference_report("einstein")
        assert [c.name for c in rep.checks] == [bianchi, "G - kappa*T = 0"]
        rep = verify_einstein(minkowski_metric(CH4))
        assert [c.name for c in rep.checks] == [bianchi]

    def test_dust_control_fails(self):
        rep = control_report("einstein")
        assert rep.verdict is Verdict.FAIL
        coupling = [c for c in rep.checks if "kappa" in c.name]
        assert coupling and coupling[0].verdict is Verdict.FAIL

    @pytest.mark.parametrize("kappa_name", ["x", "1 + x"])
    def test_kappa_name_must_be_a_new_identifier(self, kappa_name):
        ch = Chart(("t", "x"))
        identity = [[Rat(1), ZERO], [ZERO, Rat(1)]]
        g = Metric(ch, identity, det_sign=1)
        with pytest.raises(ChartError, match="kappa_name"):
            verify_einstein(g, identity, kappa_name)

    def test_no_product_has_a_zero_factor(self, monkeypatch):
        # Metric's det, cofactors and g * g^-1 check, and G - kappa*T at
        # T = 0, skip every product with a zero factor
        zero_factors = []
        for module in (exformal.geometry, exformal.catalog, exformal._linalg):
            def mul(*args, real=module.mul):
                if any(isinstance(a, Rat) and a.value == 0 for a in args):
                    zero_factors.append(args)
                return real(*args)

            monkeypatch.setattr(module, "mul", mul)
        ch = Chart(("t", "r", "th", "ph"))
        rows = [["-(1 - 2*m/r)", "0", "0", "0"], ["0", "1/(1 - 2*m/r)", "0", "0"],
                ["0", "0", "r^2", "0"], ["0", "0", "0", "r^2*sin(th)^2"]]
        g = Metric(ch, [[parse_expr(e, ch, ("m",)) for e in row] for row in rows],
                   det_sign=-1)
        zero_T = tuple(tuple(ZERO for _ in range(4)) for _ in range(4))
        assert verify_einstein(g, zero_T).verdict is Verdict.PASS
        assert zero_factors == []

    def test_two_sphere_notes_dim2_identity(self):
        ch = Chart(("theta", "phi"))
        g = Metric(
            ch,
            [[Rat(1), ZERO], [ZERO, parse_expr("sin(theta)^2", ch)]],
            det_sign=1,
        )
        rep = verify_einstein(g)
        assert rep.verdict is Verdict.PASS
        assert rep.values["G_nonzero"] == "0"
        assert any("dim-2" in n for n in rep.notes)

    def test_frw_reports_g_tt(self):
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
        rep = verify_einstein(g)
        assert rep.verdict is Verdict.PASS
        assert "(0, 0)=3*a'(t)^2/a(t)^2" in rep.values["G_nonzero"]


class TestNoVacuousPasses:
    @pytest.mark.parametrize("verifier_id", VERIFIER_IDS)
    def test_reference_passes_control_fails(self, verifier_id):
        assert reference_report(verifier_id).verdict is Verdict.PASS
        assert control_report(verifier_id).verdict is Verdict.FAIL


class TestDeterminism:
    def test_reports_stable_for_seed(self):
        a = reference_report("maxwell", 99)
        b = reference_report("maxwell", 99)
        assert [
            (c.name, c.residual_summary, c.verdict) for c in a.checks
        ] == [(c.name, c.residual_summary, c.verdict) for c in b.checks]
        assert a.values == b.values

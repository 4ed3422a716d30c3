"""Scenario file execution: exit codes, determinism, operation coverage,
and the auxiliary subcommands."""

import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from exformal import cli
from exformal.cli import ENGINE_OPS, main, run_scenario
from exformal.symbolic import Chart

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "exformal.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_reference_exits_zero(self):
        code, out, err = run_cli("run", scenario_path("reference.json"))
        assert code == 0, err
        assert "verdict=Exact" in out
        assert "potential: y*z" in out

    def test_expectation_mismatch_exits_one(self):
        code, out, _ = run_cli("run", scenario_path("expect_fail.json"))
        assert code == 1
        assert "verdict=Fail" in out
        assert "expected 'Closed'" in out

    def test_malformed_expression_exits_two(self):
        code, _, err = run_cli("run", scenario_path("malformed.json"))
        assert code == 2
        assert "syntax error at position 3" in err

    def test_missing_file_exits_two(self):
        code, _, err = run_cli("run", scenario_path("missing.json"))
        assert code == 2
        assert "file not found" in err

    def test_directory_exits_two(self, tmp_path):
        code, out, err = run_cli("run", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_bad_json_exits_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli("run", str(p))
        assert code == 2
        assert "ParseError" in err
        assert "line 1" in err

    def test_non_utf8_file_exits_two(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"chart": ["x"], "tasks": []\xff}')
        code, out, err = run_cli("run", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError") and "Traceback" not in err

    def test_deeply_nested_json_exits_two(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text('{"chart": ' + "[" * 100000 + "]" * 100000 + "}",
                     encoding="utf-8")
        code, out, err = run_cli("run", str(p))
        assert code == 2 and out == ""
        assert err == (f"error: ParseError in {p}: line 1 column 1: "
                       "arrays and objects nested too deeply\n")

    def test_unresolved_name_exits_two(self, tmp_path):
        p = tmp_path / "unresolved.json"
        p.write_text(
            json.dumps(
                {
                    "chart": ["x", "y"],
                    "tasks": [{"op": "classify_closure", "form": "nope"}],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run_cli("run", str(p))
        assert code == 2
        assert "unresolved" in err


class TestDeterminism:
    def test_json_reports_byte_identical(self):
        code1, out1, _ = run_cli(
            "run", scenario_path("reference.json"), "--format", "json",
            "--seed", "11",
        )
        code2, out2, _ = run_cli(
            "run", scenario_path("reference.json"), "--format", "json",
            "--seed", "11",
        )
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 11
        assert payload["summary"]["failed"] == 0

    def test_parallel_matches_sequential(self):
        _, seq, _ = run_cli(
            "run", scenario_path("reference.json"), "--format", "json"
        )
        _, par, _ = run_cli(
            "run", scenario_path("reference.json"), "--format", "json",
            "--parallel",
        )
        assert seq == par

    def test_package_runs_as_a_module(self):
        argv = ["run", scenario_path("reference.json"), "--format", "json"]
        via_cli = subprocess.run([sys.executable, "-m", "exformal.cli", *argv],
                                 capture_output=True, text=True)
        via_package = subprocess.run([sys.executable, "-m", "exformal", *argv],
                                     capture_output=True, text=True)
        assert via_package.returncode == 0, via_package.stderr
        assert via_package.stdout == via_cli.stdout

    def test_env_seed_fallback(self):
        env = dict(os.environ, EXFORMAL_SEED="23")
        proc = subprocess.run(
            [sys.executable, "-m", "exformal.cli", "run",
             scenario_path("reference.json"), "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert json.loads(proc.stdout)["seed"] == 23

    def test_bad_env_seed_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("EXFORMAL_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["run", scenario_path("reference.json")])
        assert exc.value.code == 2
        assert "--seed: invalid int value: 'abc'" in capsys.readouterr().err

    def test_explicit_seed_overrides_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("EXFORMAL_SEED", "abc")
        code = main(["run", scenario_path("reference.json"),
                     "--format", "json", "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5


# Characters a report string may hold: quotes, backslashes, control
# characters, non-ASCII, an astral character and a lone surrogate.
_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\b", "é", "€",
          " ", "\U0001d11e", "\ud800", "a", "Z", "0", " ", ":", ","]


def _random_report_value(rng, depth=0):
    """A seeded value of the shape reports have: dicts with `str` keys,
    lists, `str`, `int`, `True`, `False` and `None`."""
    pick = rng.randrange(8 if depth < 4 else 6)
    if pick == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if pick == 1:
        return rng.randrange(-10, 10)
    if pick == 2:
        return rng.randrange(-2 ** 80, 2 ** 80)
    if pick == 3:
        return rng.choice((True, False, None))
    if pick == 4:
        return {}
    if pick == 5:
        return []
    size = rng.randrange(1, 5)
    if pick == 6:
        return [_random_report_value(rng, depth + 1) for _ in range(size)]
    return {"".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))):
            _random_report_value(rng, depth + 1) for _ in range(size)}


class TestJsonWriter:
    """`_emit_json` writes what `json.dumps(v, sort_keys=True, indent=2)`
    writes, plus a newline, and refuses what a report never holds."""

    def test_matches_json_dumps_on_random_values(self):
        rng = random.Random(1009)
        for _ in range(500):
            value = _random_report_value(rng)
            out = io.StringIO()
            cli._emit_json(value, out)
            assert out.getvalue() == \
                json.dumps(value, sort_keys=True, indent=2) + "\n", value

    @pytest.mark.parametrize("value, kind", [
        (1.5, "float"),
        ({"a": [1, (2, 3)]}, "tuple"),
        ({"a": {1: "b"}}, "int"),
    ])
    def test_refuses_what_no_report_holds(self, value, kind):
        out = io.StringIO()
        with pytest.raises(TypeError, match=kind):
            cli._emit_json(value, out)
        assert out.getvalue() == ""


class TestOperationCoverage:
    def test_every_engine_operation_has_a_task_kind(self):
        expected = {
            # symbolic
            "parse_expr", "diff", "simplify", "eval_at", "is_zero",
            # exterior
            "wedge", "ext_d", "linear_combine", "pullback",
            "interior_product", "classify_closure",
            # geometry
            "hodge", "codifferential", "build_em_form", "maxwell_residual",
            # connection
            "christoffel", "torsion", "covariant_derivative_1form",
            "evolutionary_commutator", "riemann", "ricci_and_scalar",
            "einstein_tensor", "bianchi_residual",
            # transform
            "legendre", "inverse_legendre", "poisson_bracket",
            "jacobian_degeneracy", "integrating_factor", "poincare_cartan",
            "hamilton_flow_check",
            # catalog
            "verify_maxwell", "verify_hamiltonian", "verify_einstein",
            "correspondence_table",
        }
        assert set(ENGINE_OPS) == expected

    def test_kitchen_sink_scenario(self, tmp_path):
        # one task per op family that is not already exercised by the
        # bundled fixtures
        scenario = {
            "chart": ["t", "q", "p"],
            "params": ["m"],
            "forms": {
                "dq": {"degree": 1, "components": {"1": "1"}},
                "dp": {"degree": 1, "components": {"2": "1"}},
            },
            "vectors": {"X": ["1", "p", "-q"]},
            "maps": {
                "emb": {"source": ["u"], "exprs": ["u", "u^2", "u^3"]}
            },
            "tasks": [
                {"op": "parse_expr", "expr": "q^2 + sin(t)"},
                {"op": "diff", "expr": "q^2*p", "by": "q",
                 "expect": "2*p*q"},
                {"op": "simplify", "expr": "q + q", "expect": "2*q"},
                {"op": "eval_at", "expr": "q^2", "at": {"q": 3.0},
                 "expect": "9.0"},
                {"op": "is_zero", "expr": "q*p - p*q", "expect": "Zero"},
                {"op": "wedge", "a": "dq", "b": "dp"},
                {"op": "ext_d", "form": "dq"},
                {"op": "linear_combine", "coeffs": ["1", "-1"],
                 "forms": ["dq", "dq"], "expect": "0"},
                {"op": "pullback", "map": "emb", "form": "dq"},
                {"op": "interior_product", "vector": "X", "form": "dq",
                 "expect": "p"},
                {"op": "poisson_bracket", "f": "q", "g": "p",
                 "expect": "1"},
                {"op": "poincare_cartan",
                 "hamiltonian": "p^2/(2*m) + q^2/2"},
                {"op": "hamilton_flow_check",
                 "hamiltonian": "p^2/(2*m) + q^2/2", "expect": "Pass"},
                {"op": "legendre", "q": ["q"], "v": ["v"],
                 "mass": [["m"]], "linear": ["0"], "potential": "q^2/2",
                 "expect": "ConditionallyDegenerate"},
                {"op": "inverse_legendre", "q": ["q"], "p": ["p"],
                 "hamiltonian": "p^2/2"},
                {"op": "correspondence_table", "expect": "4"},
            ],
        }
        p = tmp_path / "sink.json"
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli("run", str(p))
        assert code == 0, out + err

    def test_connection_and_metric_ops(self, tmp_path):
        scenario = {
            "chart": ["x", "y"],
            "metric": {
                "matrix": [["1", "0"], ["0", "1"]],
                "det_sign": 1,
            },
            "connection": [
                [["0", "c"], ["0", "0"]],
                [["0", "0"], ["0", "0"]],
            ],
            "params": ["c"],
            "forms": {
                "a": {"degree": 1, "components": {"0": "1"}},
                "w": {"degree": 1, "components": {"0": "x"}},
            },
            "tasks": [
                {"op": "christoffel", "expect": "0"},
                {"op": "torsion"},
                {"op": "covariant_derivative_1form", "form": "a"},
                {"op": "evolutionary_commutator", "form": "a"},
                {"op": "riemann"},
                {"op": "ricci_and_scalar", "expect": "0"},
                {"op": "einstein_tensor", "expect": "0"},
                {"op": "bianchi_residual", "expect": "Pass"},
                {"op": "hodge", "form": "w"},
                {"op": "codifferential", "form": "w", "expect": "-1"},
                {"op": "integrating_factor", "form": "w",
                 "expect": "found"},
                {"op": "jacobian_degeneracy", "map": "id",
                 "expect": "Nondegenerate"},
            ],
            "maps": {"id": {"source": ["u", "v"], "exprs": ["u", "v"]}},
        }
        p = tmp_path / "conn.json"
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli("run", str(p))
        assert code == 0, out + err

    def test_em_tasks(self, tmp_path):
        scenario = {
            "chart": ["t", "x", "y", "z"],
            "metric": {
                "matrix": [
                    ["-1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
                "det_sign": -1,
            },
            "forms": {
                "F": {"degree": 2,
                      "components": {"0,1": "-f(z - t)", "1,3": "-f(z - t)"}}
            },
            "tasks": [
                {"op": "build_em_form",
                 "E": ["f(z - t)", "0", "0"], "B": ["0", "f(z - t)", "0"]},
                {"op": "maxwell_residual", "form": "F", "expect": "Pass"},
                {"op": "verify_maxwell",
                 "E": ["f(z - t)", "0", "0"], "B": ["0", "f(z - t)", "0"],
                 "J": ["0", "0", "0", "0"], "expect": "Pass"},
                {"op": "verify_einstein", "expect": "Pass"},
                {"op": "verify_hamiltonian",
                 "hamiltonian": "(p^2 + q^2)/2", "k": 1, "expect": "Pass"},
            ],
        }
        p = tmp_path / "em.json"
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli("run", str(p))
        assert code == 0, out + err


class TestSubcommands:
    # the help texts users see; reading the command line differently must
    # not change them
    @pytest.mark.parametrize("command", ["", "run", "table", "check-expr"])
    def test_help_text_is_pinned(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        name = os.path.join(GOLDEN, f"help_{command or 'exformal'}.txt")
        with open(name, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @staticmethod
    def _table_matches(golden, *argv):
        proc = subprocess.run([sys.executable, "-m", "exformal.cli", "table",
                               *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(GOLDEN, golden), "rb") as fh:
            assert proc.stdout == fh.read()

    def test_table_text(self):
        self._table_matches("table.txt")

    def test_table_json(self):
        self._table_matches("table.json", "--format", "json")

    def test_check_expr_ok(self):
        code, out, _ = run_cli(
            "check-expr", "x^2 + sin(t)", "--chart", "t,x,y,z"
        )
        assert code == 0
        assert out.strip() == "sin(t) + x^2"

    def test_check_expr_syntax_error(self):
        code, _, err = run_cli("check-expr", "x +", "--chart", "t,x")
        assert code == 2
        assert "SyntaxError" in err

    def test_check_expr_unknown_symbol(self):
        code, _, err = run_cli("check-expr", "x + w", "--chart", "t,x")
        assert code == 2
        assert "UnknownSymbol" in err

    @pytest.mark.parametrize("params, message", [
        ("x,y", "'x' is a chart coordinate"),
        ("m,m", "duplicate parameter name 'm'"),
        ("1a", "parameter name '1a' is not a valid identifier"),
        ("a b", "parameter name 'a b' is not a valid identifier"),
        (",m", "parameter name '' is not a valid identifier")])
    def test_check_expr_refuses_a_bad_parameter(self, params, message):
        # the rule a scenario's `params` follows, and a parameter may not
        # name a coordinate, as a scenario's root chart may not
        code, out, err = run_cli("check-expr", "x*y", "--chart", "x",
                                 "--params", params)
        assert (code, out, err) == (2, "", f"error: params: {message}\n")

    @pytest.mark.parametrize("chart, params, message", [
        ("x,,", ",m,", "chart: coordinate name '' is not a valid identifier"),
        (",x", "", "chart: coordinate name '' is not a valid identifier"),
        ("x,", "m", "chart: coordinate name '' is not a valid identifier"),
        ("", "", "chart: chart needs at least one coordinate")])
    def test_check_expr_refuses_an_empty_coordinate(self, chart, params,
                                                    message):
        # an empty name is refused as a scenario's chart refuses it, not
        # dropped
        code, out, err = run_cli("check-expr", "x*m", "--chart", chart,
                                 "--params", params)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_check_expr_takes_declared_parameters(self):
        code, out, err = run_cli("check-expr", "m*x + m", "--chart", "x",
                                 "--params", "m,c")
        assert (code, out, err) == (0, "m + m*x\n", "")

    def test_check_expr_integer_past_digit_limit(self):
        code, out, err = run_cli("check-expr", "2^99999", "--chart", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_check_expr_literal_past_digit_limit(self):
        # 5000 digits are past the interpreter's 4300-digit conversion limit
        code, out, err = run_cli("check-expr", "1" * 5000, "--chart", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: SyntaxError at position 0: ")

    def test_check_expr_names_the_position_once(self):
        code, out, err = run_cli("check-expr", "x**2", "--chart", "x")
        assert (code, out) == (2, "")
        assert err == ("error: SyntaxError at position 2: expected an operand, "
                       "found *\n  expected: number, identifier, '(', '-'\n")

    def test_check_expr_nested_too_deeply(self):
        text = "(" * 300 + "x" + ")" * 300
        code, out, err = run_cli("check-expr", text, "--chart", "x")
        assert code == 2 and out == ""
        assert re.match(r"error: SyntaxError at position \d+: expression "
                        r"nested too deeply", err)
        assert "Traceback" not in err

    def test_check_expr_large_negative_power_of_a_sum(self):
        code, out, err = run_cli("check-expr", "1 + (x+1)^-1200",
                                 "--chart", "x")
        assert (code, out, err) == (0, "1 + 1/(1 + x)^1200\n", "")

    def test_check_expr_reads_back_a_negative_power_of_a_sum(self):
        # the text to_text prints for Pow(1 + x, -100); it used to expand
        # (x + 1)^100 past the budget before inverting it
        code, out, err = run_cli("check-expr", "1/(x + 1)^100", "--chart", "x")
        assert (code, out, err) == (0, "1/(1 + x)^100\n", "")

    def test_check_expr_inverts_a_parenthesised_power_inside(self):
        # the inversion reaches into the parentheses, so (x + 1)^100 is
        # never expanded
        code, out, err = run_cli("check-expr", "1/((x + 1)^100)",
                                 "--chart", "x")
        assert (code, out, err) == (0, "1/(1 + x)^100\n", "")

    def test_check_expr_power_of_a_sum_past_the_budget(self, capsys):
        # expanding (x+1)^5000 would take about 25 million term products;
        # it stops at the expansion budget instead
        code, out, err = run_cli("check-expr", "(x+1)^5000", "--chart", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: expanding a sum of 2 terms to the power "
                              "5000 takes more than ")
        assert "Traceback" not in err
        start = time.perf_counter()
        assert main(["check-expr", "(x+1)^5000", "--chart", "x"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("text, power", [
        ("3^30000000", 30000000),
        ("x^2*3^30000000*3^-30000000", 30000000),
        ("(2/3)^-30000000", -30000000)])
    def test_check_expr_power_of_a_constant_past_the_bound(self, text, power,
                                                           capsys):
        # 3^30000000 has 47.5 million bits; computing it used to stall, only
        # to fail when printed
        code, out, err = run_cli("check-expr", text, "--chart", "x")
        assert (code, out) == (2, "")
        assert err == (f"error: raising a constant of 2 bits to the power "
                       f"{power} takes more than 1000000 bits\n")
        start = time.perf_counter()
        assert main(["check-expr", text, "--chart", "x"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == err

    def test_strict_flag_accepted(self):
        code, _, _ = run_cli(
            "run", scenario_path("reference.json"), "--strict"
        )
        assert code == 0

    def test_strict_turns_unknown_into_failure(self, tmp_path):
        # the component's evaluations always leave the sqrt domain, so
        # sampling exhausts its redraws and the verdict is Unknown
        scenario = {
            "chart": ["t", "x", "y", "z"],
            "metric": {
                "matrix": [
                    ["-1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
                "det_sign": -1,
            },
            "forms": {
                "F": {"degree": 2,
                      "components": {"0,1": "-sqrt(-1 - x^2)"}}
            },
            "tasks": [{"op": "maxwell_residual", "form": "F"}],
        }
        p = tmp_path / "unknown.json"
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, _ = run_cli("run", str(p))
        assert code == 0 and "verdict=Unknown" in out
        code, _, _ = run_cli("run", str(p), "--strict")
        assert code == 1


class TestInProcessMain:
    def test_main_returns_exit_code(self, capsys):
        code = main(["run", scenario_path("reference.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "summary: 8 tasks, 0 failed" in out

    def test_run_scenario_api(self):
        code, report = run_scenario(scenario_path("reference.json"), seed=5)
        assert code == 0
        assert report["seed"] == 5
        assert report["summary"]["tasks"] == 8


class TestRepeatedCalls:
    def test_repeated_calls_load_no_parser_module(self, capsys):
        reference = scenario_path("reference.json")
        assert main(["table", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["table", "--format", "json"]) == 0
        assert capsys.readouterr().out == first
        # the command table needs no parser module: neither importing the
        # front-end nor calling it twice loads argparse or what it pulls in
        code = "\n".join([
            "import contextlib, io, sys",
            "import exformal.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    for _ in range(2):",
            f"        exformal.cli.main(['run', {reference!r}, '--format', 'json'])",
            "print(*sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_env_seed_is_read_on_every_call(self, monkeypatch, capsys):
        seeds = []
        for env_seed in ("23", "5"):
            monkeypatch.setenv("EXFORMAL_SEED", env_seed)
            assert main(["run", scenario_path("reference.json"),
                         "--format", "json"]) == 0
            seeds.append(json.loads(capsys.readouterr().out)["seed"])
        assert seeds == [23, 5]

    def test_good_call_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert "the following arguments are required: file" in \
            capsys.readouterr().err
        assert main(["run", scenario_path("reference.json")]) == 0
        assert "summary: 8 tasks, 0 failed" in capsys.readouterr().out


class TestCommandLine:
    """The command table reads argv as argparse (Python 3.11) does.  The
    error rows were recorded from an argparse front-end: each exits 2 and
    prints its parser's usage lines, then the last line given."""

    USAGE = {"exformal": "help_exformal.txt", "exformal run": "help_run.txt",
             "exformal table": "help_table.txt",
             "exformal check-expr": "help_check-expr.txt"}

    @pytest.mark.parametrize("argv, last", [
        ([], "exformal: error: the following arguments are required: "
             "command"),
        (["foo"], "exformal: error: argument command: invalid choice: 'foo' "
                  "(choose from 'run', 'table', 'check-expr')"),
        (["foo", "-h"], "exformal: error: argument command: invalid choice: "
                        "'foo' (choose from 'run', 'table', 'check-expr')"),
        (["run"], "exformal run: error: the following arguments are "
                  "required: file"),
        (["run", "--seed", "3"], "exformal run: error: the following "
                                 "arguments are required: file"),
        (["run", "x.json", "--format", "xml"],
         "exformal run: error: argument --format: invalid choice: 'xml' "
         "(choose from 'text', 'json')"),
        (["run", "x.json", "--format", "xml", "-h"],
         "exformal run: error: argument --format: invalid choice: 'xml' "
         "(choose from 'text', 'json')"),
        (["run", "x.json", "--seed"],
         "exformal run: error: argument --seed: expected one argument"),
        (["run", "x.json", "--seed", "--strict"],
         "exformal run: error: argument --seed: expected one argument"),
        (["run", "x.json", "--seed", "-h"],
         "exformal run: error: argument --seed: expected one argument"),
        (["run", "x.json", "--format", "--"],
         "exformal run: error: argument --format: expected one argument"),
        (["run", "x.json", "--seed", "abc"],
         "exformal run: error: argument --seed: invalid int value: 'abc'"),
        (["run", "x.json", "--seed="],
         "exformal run: error: argument --seed: invalid int value: ''"),
        (["run", "x.json", "--s", "3"], "exformal run: error: ambiguous "
                                        "option: --s could match --seed, "
                                        "--strict"),
        (["run", "x.json", "--s=3"], "exformal run: error: ambiguous option: "
                                     "--s=3 could match --seed, --strict"),
        (["run", "x.json", "--strict=1"], "exformal run: error: argument "
                                          "--strict: ignored explicit "
                                          "argument '1'"),
        (["run", "x.json", "--help=1"], "exformal run: error: argument "
                                        "-h/--help: ignored explicit "
                                        "argument '1'"),
        (["run", "x.json", "extra"],
         "exformal: error: unrecognized arguments: extra"),
        (["run", "x.json", "-x"],
         "exformal: error: unrecognized arguments: -x"),
        (["run", "x.json", "extra", "-x"],
         "exformal: error: unrecognized arguments: extra -x"),
        (["run", "x.json", "--", "-h"],
         "exformal: error: unrecognized arguments: -h"),
        (["check-expr", "x"], "exformal check-expr: error: the following "
                              "arguments are required: --chart"),
        (["check-expr"], "exformal check-expr: error: the following "
                         "arguments are required: expr, --chart"),
        (["check-expr", "x", "--chart"],
         "exformal check-expr: error: argument --chart: expected one "
         "argument"),
        (["check-expr", "--", "-x", "--chart", "x"],
         "exformal check-expr: error: the following arguments are "
         "required: --chart"),
        (["check-expr", "x", "y", "--chart", "x"],
         "exformal: error: unrecognized arguments: y"),
        (["table", "--format"],
         "exformal table: error: argument --format: expected one argument"),
        (["table", "--f", "xml"], "exformal table: error: argument --format: "
                                  "invalid choice: 'xml' (choose from "
                                  "'text', 'json')"),
        (["table", "extra"], "exformal: error: unrecognized arguments: "
                             "extra"),
    ])
    def test_errors_match_argparse(self, argv, last, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        prog = last.partition(": error: ")[0]
        with open(os.path.join(GOLDEN, self.USAGE[prog]),
                  encoding="utf-8") as fh:
            usage = fh.read().partition("\n\n")[0]
        assert (out, err) == ("", f"{usage}\n{last}\n")

    @pytest.mark.parametrize("argv, same_as", [
        (["run", "R", "--seed=7", "--format=json"],
         ["run", "R", "--seed", "7", "--format", "json"]),
        (["run", "R", "--form", "json", "--se", "3"],
         ["run", "R", "--format", "json", "--seed", "3"]),
        (["run", "R", "--seed", "-1"], ["run", "R", "--seed=-1"]),
        (["run", "--", "R"], ["run", "R"]),
        (["run", "--seed", "3", "R"], ["run", "R", "--seed", "3"]),
        (["run", "R", "--format", "json", "--format", "text"], ["run", "R"]),
        (["run", "R", "--st", "--par"], ["run", "R", "--strict",
                                         "--parallel"]),
        (["table", "--fo", "json"], ["table", "--format", "json"]),
        (["check-expr", "--chart", "x", "x*m", "--pa", "m"],
         ["check-expr", "x*m", "--chart", "x", "--params", "m"]),
        (["check-expr", "-1", "--chart=x"], ["check-expr", "--chart", "x",
                                             "--", "-1"]),
    ])
    def test_spellings_argparse_accepted(self, argv, same_as, capsys):
        def output(words):
            reference = scenario_path("reference.json")
            code = main([reference if w == "R" else w for w in words])
            return code, *capsys.readouterr()
        code, out, err = output(argv)
        assert (code, err) == (0, "") and out
        assert output(same_as) == (code, out, err)

    @pytest.mark.parametrize("argv, golden", [
        (["run", "R", "-h"], "help_run.txt"),
        (["run", "R", "--seed", "3", "--help"], "help_run.txt"),
        (["run", "x.json", "--format", "json", "-h", "extra"],
         "help_run.txt"),
        (["run", "x.json", "--strict", "-h", "--seed"], "help_run.txt"),
        (["run", "R", "--he"], "help_run.txt"),
        (["--he"], "help_exformal.txt"),
        (["-h", "run"], "help_exformal.txt"),
        (["check-expr", "x", "-h"], "help_check-expr.txt"),
    ])
    def test_help_after_other_arguments(self, argv, golden, capsys):
        reference = scenario_path("reference.json")
        with pytest.raises(SystemExit) as exc:
            main([reference if w == "R" else w for w in argv])
        assert exc.value.code == 0
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
            assert capsys.readouterr() == (fh.read(), "")

    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_help_does_not_follow_the_terminal_width(self, columns,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        with open(os.path.join(GOLDEN, "help_run.txt"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.parametrize("expr, printed", [
        ("-x^2", "-x^2"), ("-x", "-x"), ("-(x + 1)", "-1 - x")])
    def test_a_leading_minus_is_an_expression(self, expr, printed):
        # a token that names no option is a positional, even when it
        # starts with `-` and holds no space
        code, out, err = run_cli("check-expr", expr, "--chart", "x")
        assert (code, out, err) == (0, f"{printed}\n", "")


class TestImportCost:
    # stdlib modules the engine does not need; `dataclasses` alone pulls
    # in `inspect`, `ast`, `dis` and `tokenize` at import, and `argparse`
    # pulls in `gettext`
    UNNEEDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy",
                "argparse", "gettext"}

    def test_import_loads_no_unneeded_stdlib_module(self):
        code = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "import exformal.cli",
            "print(*sorted(set(sys.modules) - before))",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "exformal.cli" in loaded
        assert not loaded & self.UNNEEDED, sorted(loaded & self.UNNEEDED)


class TestOnChart:
    def test_new_scope_shares_the_named_objects(self):
        ctx = cli.load_scenario({
            "chart": ["x", "y"], "params": ["a"],
            "forms": {"w": {"degree": 1, "components": {"0": "a*y"}}},
            "maps": {"m": {"source": ["u"], "exprs": ["u", "a"]}},
            "vectors": {"v": ["1", "0"]},
            "tasks": [{"op": "ext_d", "form": "w"}],
        })
        chart = ctx.chart
        scope = cli._on_chart(ctx, Chart(("p", "q")), "here")
        assert scope is not ctx
        assert scope.chart == Chart(("p", "q"))
        assert ctx.chart is chart
        assert scope.params == ("a",)
        for section in ("metric", "connection", "forms", "maps", "vectors",
                        "tasks"):
            assert getattr(scope, section) is getattr(ctx, section)


def run_in_process(tmp_path, scenario, *argv):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(scenario), encoding="utf-8")
    return main(["run", str(p), *argv])


EUCLIDEAN2 = {"matrix": [["1", "0"], ["0", "1"]], "det_sign": 1}

# Inputs of the wrong shape, and the field each error message must name.
MALFORMED = {
    "forms_list": ({"chart": ["x", "y"],
                    "forms": [{"degree": 1, "components": {"0": "y"}}]},
                   "forms"),
    "metric_rows": ({"chart": ["x", "y"], "metric": [["1", "0"], ["0", "1"]]},
                    "metric"),
    "components_list": ({"chart": ["x", "y"], "forms": {
        "w": {"degree": 1, "components": ["y"]}}}, "form 'w' components"),
    "eval_at_text": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": "abc"}}]}, "at"),
    "eval_at_nan_text": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": "nan"}}]}, "at"),
    "eval_at_number_text": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": "1"}}]}, "at"),
    "eval_at_bool": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": True}}]}, "at"),
    "eval_at_past_float_range": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": 1e400}}]}, "at"),
    "eval_at_unknown_name": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x^2", "at": {"x": 2, "X": 5, "zz": 1}}]},
        "at"),
    "eval_at_undeclared_parameter": ({"chart": ["x"], "tasks": [
        {"op": "eval_at", "expr": "x", "at": {"x": 1, "m": 2}}]}, "at"),
    "short_T_row": ({"chart": ["x", "y"], "metric": EUCLIDEAN2, "tasks": [
        {"op": "verify_einstein", "T": [["0", "0"], ["0"]]}]}, "T[1]"),
    "kappa_coordinate": ({"chart": ["t", "x"], "metric": EUCLIDEAN2, "tasks": [
        {"op": "verify_einstein", "T": [["1", "0"], ["0", "1"]],
         "kappa": "t"}]}, "kappa"),
    "kappa_expression": ({"chart": ["t", "x"], "metric": EUCLIDEAN2, "tasks": [
        {"op": "verify_einstein", "T": [["1", "0"], ["0", "1"]],
         "kappa": "1 + x"}]}, "kappa"),
    "k_text": ({"chart": ["t"], "tasks": [
        {"op": "verify_hamiltonian", "hamiltonian": "p^2/2", "k": "two"}]},
        "k"),
    "k_zero": ({"chart": ["t"], "tasks": [
        {"op": "verify_hamiltonian", "hamiltonian": "t^2/2", "k": 0}]}, "k"),
    "connection_null": ({"chart": ["x", "y"], "connection": None},
                        "connection"),
    "chart_text": ({"chart": "xy"}, "chart"),
    "params_text": ({"chart": ["x"], "params": "ab"}, "params"),
    "params_repeated": ({"chart": ["x"], "params": ["m", "m"], "tasks": [
        {"op": "parse_expr", "expr": "m*x"}]},
        "params: duplicate parameter name 'm'"),
    "params_leading_digit": ({"chart": ["x"], "params": ["1a"]},
                             "params: parameter name '1a' is not a valid "
                             "identifier"),
    "params_with_space": ({"chart": ["x"], "params": ["a b"]},
                          "params: parameter name 'a b' is not a valid "
                          "identifier"),
    "params_empty_name": ({"chart": ["x"], "params": [""]},
                          "params: parameter name '' is not a valid "
                          "identifier"),
    "legendre_q_text": ({"chart": ["x"], "tasks": [
        {"op": "legendre", "q": "q", "v": ["v"], "mass": [["1"]]}]}, "q"),
    "legendre_q_param": ({"chart": ["x"], "params": ["m"], "tasks": [
        {"op": "legendre", "q": ["m"], "v": ["v"], "mass": [["m"]]}]},
        "bad chart"),
    "verify_hamiltonian_q_param": ({"chart": ["t"], "params": ["q"], "tasks": [
        {"op": "verify_hamiltonian", "hamiltonian": "p^2/2"}]}, "bad chart"),
    "map_source_param": ({"chart": ["x", "y"], "params": ["u"], "maps": {
        "m": {"source": ["u"], "exprs": ["u", "2*u"]}}},
        "map 'm' source: bad chart: 'u' is a declared parameter"),
    "root_chart_param": ({"chart": ["x", "y"], "params": ["x"], "tasks": [
        {"op": "diff", "expr": "x*y", "by": "x"}]},
        "chart: bad chart: 'x' is a declared parameter"),
    "diff_by_undeclared": ({"chart": ["x"], "tasks": [
        {"op": "diff", "expr": "x^2", "by": "q"}]}, "by"),
    # 5000 digits are past the interpreter's 4300-digit conversion limit
    "literal_past_digit_limit": ({"chart": ["x"], "tasks": [
        {"op": "parse_expr", "expr": "1" * 5000}]}, "expr"),
    "exponent_past_digit_limit": ({"chart": ["x"], "tasks": [
        {"op": "parse_expr", "expr": "x^" + "1" * 5000}]}, "expr"),
    "nested_parentheses": ({"chart": ["x"], "tasks": [
        {"op": "parse_expr", "expr": "(" * 300 + "x" + ")" * 300}]}, "expr"),
    "degree_zero_key": ({"chart": ["x", "y"], "forms": {
        "f": {"degree": 0, "components": {"0": "x"}}}},
        "degree-0 component key must be empty"),
    "hodge_without_metric": ({"chart": ["x", "y"], "forms": {
        "w": {"degree": 1, "components": {"0": "x"}}},
        "tasks": [{"op": "hodge", "form": "w"}]},
        "task[0] op 'hodge' needs a 'metric' section"),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_two_naming_the_field(self, name, tmp_path, capsys):
        scenario, field = MALFORMED[name]
        assert run_in_process(tmp_path, scenario) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f": {field}" in captured.err or f" {field}:" in captured.err

    def test_an_eval_at_point_names_coordinates_and_parameters(self, tmp_path,
                                                                capsys):
        scenario = {"chart": ["x"], "params": ["m"], "tasks": [
            {"op": "eval_at", "expr": "m*x^2", "at": {"x": 2, "m": 3},
             "expect": "12.0"}]}
        assert run_in_process(tmp_path, scenario) == 0
        scenario["tasks"][0]["at"]["X"] = 5
        assert run_in_process(tmp_path, scenario) == 2
        assert capsys.readouterr().err.endswith(
            "task[0] op 'eval_at' at: 'X' is neither a coordinate nor a "
            "parameter\n")


class TestRejectedInputs:
    @pytest.mark.parametrize("first, second", [("0", " 0"), ("0,1", "0, 1")])
    def test_component_keys_naming_one_index(self, first, second, tmp_path,
                                             capsys):
        scenario = {"chart": ["x", "y"], "forms": {"w": {
            "degree": len(first.split(",")),
            "components": {first: "x", second: "y"}}},
            "tasks": [{"op": "ext_d", "form": "w"}]}
        assert run_in_process(tmp_path, scenario) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"form 'w': component keys {first!r} and {second!r} "
            "name the same index\n")

    @pytest.mark.parametrize("det_sign, code", [(1, 0), (-1, 2)])
    def test_constant_det_past_float_range_signed_exactly(
            self, det_sign, code, tmp_path, capsys):
        # det = 10^400 cannot be evaluated in floats, but its sign is exact
        scenario = {"chart": ["x", "y"],
                    "metric": {"matrix": [["10^400", "0"], ["0", "1"]],
                               "det_sign": det_sign},
                    "tasks": [{"op": "christoffel"}]}
        assert run_in_process(tmp_path, scenario) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "contradicts" in err
        else:
            assert err == ""

    def test_json_number_past_digit_limit(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"chart": ["x"], "params": ' + "1" * 5000 + "}",
                     encoding="utf-8")
        code, out, err = run_cli("run", str(p))
        assert code == 2 and out == ""
        assert err == (f"error: ValidationError in {p}: a JSON number has "
                       f"more than {sys.get_int_max_str_digits()} digits\n")


class TestTaskErrors:
    def test_engine_error_is_reported_against_its_task(self, tmp_path,
                                                       capsys):
        scenario = {"chart": ["x"], "tasks": [
            {"op": "eval_at", "expr": "ln(x)", "at": {"x": -1}},
            {"op": "simplify", "expr": "x + x", "expect": "2*x"},
        ]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 2
        captured = capsys.readouterr()
        tasks = json.loads(captured.out)["tasks"]
        assert tasks[0]["verdict"] == "Error"
        assert tasks[0]["values"] == {
            "error": "DomainError: ln of a non-positive value"}
        assert tasks[1]["verdict"] == "Pass"
        assert tasks[1]["values"] == {"result": "2*x"}
        assert captured.err.splitlines() == [
            "error: task[0] op=eval_at: DomainError: ln of a non-positive value"
        ]

    @pytest.mark.parametrize("task, error", [
        ({"op": "eval_at", "expr": "x^3", "at": {"x": 1e200}},
         "DomainError: power overflow"),
        ({"op": "eval_at", "expr": "1/x^200", "at": {"x": 1e-200}},
         "DomainError: power overflow"),
        ({"op": "parse_expr", "expr": "2^99999"},
         "ExformalError: an integer of 100000 bits is too long to print"),
        ({"op": "eval_at", "expr": "10^400*x", "at": {"x": 1}},
         "DomainError: constant too large for a float"),
        ({"op": "eval_at", "expr": "sin(2*x)", "at": {"x": 1e308}},
         "DomainError: sin of an infinite value"),
    ])
    def test_overflowing_values_are_task_errors(self, task, error, tmp_path,
                                                capsys):
        scenario = {"chart": ["x"], "tasks": [task]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 2
        captured = capsys.readouterr()
        (report,) = json.loads(captured.out)["tasks"]
        assert report["verdict"] == "Error"
        assert report["values"] == {"error": error}
        assert captured.err == f"error: task[0] op={task['op']}: {error}\n"

    def test_a_sum_past_the_float_range_is_a_task_error(self, tmp_path,
                                                        capsys):
        # each product overflows to inf, and inf - inf is nan: an Error,
        # not a Value of nan
        scenario = {"chart": ["x", "y"], "tasks": [
            {"op": "eval_at",
             "expr": "17*10^307*exp(x^2 + 1) - 17*10^307*exp(y^2 + 1)",
             "at": {"x": 0.5, "y": 0.25}}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 2
        captured = capsys.readouterr()
        (report,) = json.loads(captured.out)["tasks"]
        assert report["verdict"] == "Error"
        assert report["values"] == {"error": "DomainError: value is not finite"}
        assert captured.err == ("error: task[0] op=eval_at: DomainError: "
                                "value is not finite\n")


    def test_legendre_names_must_be_distinct_identifiers(self, tmp_path,
                                                         capsys):
        scenario = {"chart": ["x"], "tasks": [
            {"op": "legendre", "q": ["q", "r"], "v": ["v", "v"],
             "mass": [["1", "0"], ["0", "1"]]}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 2
        captured = capsys.readouterr()
        (report,) = json.loads(captured.out)["tasks"]
        assert report["verdict"] == "Error"
        assert captured.err == ("error: task[0] op=legendre: ChartError: q and "
                                "v names: duplicate coordinate name 'v'\n")

    def test_outcomes_without_an_exception_escaping(self, tmp_path, capsys):
        # a singular mass, a Hamiltonian that is not quadratic, a closed
        # form with no table potential, and a factor found by its exp path
        scenario = {"chart": ["x", "y"], "forms": {
            "closed": {"degree": 1, "components": {"0": "1/(1 + x^2)"}},
            "inexact": {"degree": 1, "components": {"0": "y", "1": "1"}}},
            "tasks": [
                {"op": "legendre", "q": ["q1", "q2"], "v": ["v1", "v2"],
                 "mass": [["1", "1"], ["1", "1"]]},
                {"op": "inverse_legendre", "q": ["q"], "p": ["p"],
                 "hamiltonian": "p^3 + q"},
                {"op": "integrating_factor", "form": "closed"},
                {"op": "integrating_factor", "form": "inexact"}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 0
        tasks = json.loads(capsys.readouterr().out)["tasks"]
        assert [(t["verdict"], t["values"]) for t in tasks] == [
            ("Value", {"degeneracy": "DegenerateEverywhere",
                       "error": "velocity Hessian is identically singular"}),
            ("Value", {"result": "PatternMismatch"}),
            ("Value", {"found": "not-verifiable",
                       "error": "form is closed but no table potential exists"}),
            ("Value", {"found": "found", "mu": "exp(x)", "psi": "y*exp(x)"}),
        ]

    def test_huge_constant_zero_test_is_unknown(self, tmp_path, capsys):
        # every sample leaves the float range, so the redraws run out
        scenario = {"chart": ["x"], "tasks": [
            {"op": "is_zero", "expr": "10^400*x"}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 0
        (report,) = json.loads(capsys.readouterr().out)["tasks"]
        assert report["values"] == {"verdict": "Unknown"}


class TestGeneratedNames:
    """Momentum and velocity names that an op makes up avoid the symbols
    its expressions already hold, parameters included."""

    def test_legendre_momentum_avoids_a_parameter(self, tmp_path, capsys):
        scenario = {"chart": ["t"], "params": ["p"], "tasks": [
            {"op": "legendre", "q": ["x"], "v": ["v"], "mass": [["p"]],
             "potential": "p*x"}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 0
        (report,) = json.loads(capsys.readouterr().out)["tasks"]
        assert report["values"]["H"] == "p_^2/2/p + p*x"
        assert report["values"]["chart"] == "x,p_"

    def test_inverse_legendre_velocity_avoids_a_parameter(self, tmp_path,
                                                          capsys):
        scenario = {"chart": ["t"], "params": ["v"], "tasks": [
            {"op": "inverse_legendre", "q": ["x"], "p": ["p"],
             "hamiltonian": "p^2/2 + v*p + x"}]}
        assert run_in_process(tmp_path, scenario, "--format", "json") == 0
        (report,) = json.loads(capsys.readouterr().out)["tasks"]
        assert report["verdict"] == "Value"
        assert report["values"]["linear"] == "-v"


class TestVerdictFold:
    # (0, 2, 3) of dF is 1 (NonZero); the sqrt of the negative -1 - x^2
    # leaves the domain at every sample, so d*F's component is Unknown
    SCENARIO = {
        "chart": ["t", "x", "y", "z"],
        "metric": {"matrix": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                   "det_sign": -1},
        "forms": {"F": {"degree": 2, "components": {
            "0,1": "-sqrt(-1 - x^2)", "2,3": "t"}}},
        "tasks": [
            {"op": "maxwell_residual", "form": "F"},
            {"op": "verify_maxwell", "E": ["sqrt(-1 - x^2)", "0", "0"],
             "B": ["t", "0", "0"]},
        ],
    }

    def test_fail_beats_unknown(self, tmp_path, capsys):
        assert run_in_process(tmp_path, self.SCENARIO, "--format", "json") == 1
        residual, maxwell = json.loads(capsys.readouterr().out)["tasks"]
        assert residual["verdict"] == "Fail"
        assert maxwell["verdict"] == "Fail"
        assert maxwell["details"] == [
            "Fail: dF = 0 (Faraday + no monopoles) [(0, 2, 3)=1]",
            "Unknown: d*F = *J (Gauss + Ampere) [(1, 2, 3)=Unknown]",
            "Fail: energy balance d_t u + div(ExB) + E.J = 0 [scalar=t]",
        ]

    # every component of dw takes sqrt(-1 - x^2), outside the domain at
    # each sample, so no zero test is NonZero and none is Zero
    UNKNOWN_CLOSURE = {
        "chart": ["x", "y", "z"],
        "forms": {"w": {"degree": 1, "components": {"2": "y*sqrt(-1 - x^2)"}}},
        "tasks": [{"op": "classify_closure", "form": "w"}],
    }

    def test_closure_with_only_unknown_components_is_unknown(self, tmp_path,
                                                              capsys):
        assert run_in_process(tmp_path, self.UNKNOWN_CLOSURE,
                              "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == {"failed": 0, "tasks": 1, "unknown": 1}
        task, = report["tasks"]
        assert task["verdict"] == "Unknown"
        assert task["values"]["status"] == "NonClosed"
        assert task["values"]["uncertain"] == "true"

    def test_unknown_closure_fails_under_strict(self, tmp_path, capsys):
        assert run_in_process(tmp_path, self.UNKNOWN_CLOSURE, "--strict") == 1
        assert "verdict=Unknown" in capsys.readouterr().out

    # an Unknown outcome decided nothing that an expectation could match
    @pytest.mark.parametrize("expect", ["Closed", "NonClosed", "Unknown"])
    def test_unknown_closure_stays_unknown_whatever_its_expect(
            self, expect, tmp_path, capsys):
        scenario = dict(self.UNKNOWN_CLOSURE, tasks=[
            {"op": "classify_closure", "form": "w", "expect": expect}])
        assert run_in_process(tmp_path, scenario, "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == {"failed": 0, "tasks": 1, "unknown": 1}
        task, = report["tasks"]
        assert task["verdict"] == "Unknown"
        assert task["details"] == []
        assert run_in_process(tmp_path, scenario, "--strict") == 1
        out = capsys.readouterr().out
        assert "verdict=Unknown" in out
        assert "summary: 1 tasks, 0 failed, 1 unknown" in out


class TestReadme:
    def test_readme_example_runs(self, tmp_path, capsys):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            example = re.search(r"```json\n(.*?)```", fh.read(), re.S)
        assert run_in_process(tmp_path, json.loads(example.group(1))) == 0
        assert "summary: 2 tasks, 0 failed" in capsys.readouterr().out

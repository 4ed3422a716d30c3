"""Golden reports: the exact stdout bytes and exit code of `exformal run`
on fixed scenarios at seed 0.

`test_cli` checks that two runs agree with each other; these tests check
that a run agrees with the report the engine printed when the golden was
written, so a change that must keep reports as they are is held to every
byte.  The scenarios are `scenarios/reference.json` and
`scenarios/expect_fail.json` (JSON reports, and the reference one also as
a text report), the three every-op scenarios of `test_fuzz`, and the
curvature stack with zero tests and evaluations on two curved metrics:
the unit 2-sphere and a flat FRW universe with an opaque scale factor
a(t); the same curvature ops with `verify_einstein` on the two
heavy metrics, Schwarzschild and de Sitter; and `einstein_tensor` of the
Kerr-Newman metric, which has a t-phi block: there, summing a Ricci
component's raw Riemann terms before one `simplify` goes past the
expansion budget; and `christoffel` with `verify_einstein` at T = 0 on
the Kerr metric, whose cofactors share 2x2 minors and whose terms have
cos(th)^2 inside their denominators.

After a change that is meant to alter reports, rewrite the goldens from
the repository root with

    PYTHONPATH=src python tests/test_golden.py

review `git diff tests/golden`, and update an exit code in CASES by hand
if one changed on purpose.

The goldens pin a handful of reports in full.  Every report of the bundled
and benchmark scenarios is pinned by its sha256 in
`golden/report_digest.txt`, one line per file, format and seed, as
`tests/report_digest.py` prints them.  After a deliberate report change,
rewrite that file from the repository root with

    python tests/report_digest.py > tests/golden/report_digest.txt

and name each changed line's file in the change's description.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from exformal.cli import main
from report_digest import digest_lines
from test_fuzz import PHASE, PLANE, SPACETIME

# every curvature op, then zero tests that need sampling and an evaluation
CURVATURE_OPS = ["christoffel", "riemann", "ricci_and_scalar", "einstein_tensor",
                 "bianchi_residual"]
SPHERE = {
    "chart": ["th", "ph"],
    "metric": {"matrix": [["1", "0"], ["0", "sin(th)^2"]], "det_sign": 1},
    "tasks": [{"op": op} for op in CURVATURE_OPS] + [
        {"op": "verify_einstein", "T": [["0", "0"], ["0", "0"]]},
        {"op": "is_zero", "expr": "(sin(th)^2 - 1)/(sin(th) - 1) - sin(th) - 1"},
        {"op": "is_zero", "expr": "sin(th)^2/(cos(th) + 2) - sin(th)/(cos(th) + 2)"},
        {"op": "eval_at", "expr": "(sin(th) + ph)^2/(cos(th) + 2) + sin(th) + ph",
         "at": {"th": 0.5, "ph": 1.25}},
    ],
}
FRW = {
    "chart": ["t", "x", "y", "z"],
    "params": ["kappa"],
    "metric": {"matrix": [["-1", "0", "0", "0"], ["0", "a(t)^2", "0", "0"],
                          ["0", "0", "a(t)^2", "0"], ["0", "0", "0", "a(t)^2"]],
               "det_sign": -1},
    "tasks": [{"op": op} for op in CURVATURE_OPS] + [
        {"op": "verify_einstein", "kappa": "kappa",
         "T": [["3*a'(t)^2/(kappa*a(t)^2)", "0", "0", "0"],
               ["0", "-(2*a(t)*a''(t) + a'(t)^2)/kappa", "0", "0"],
               ["0", "0", "-(2*a(t)*a''(t) + a'(t)^2)/kappa", "0"],
               ["0", "0", "0", "-(2*a(t)*a''(t) + a'(t)^2)/kappa"]]},
        {"op": "is_zero", "expr": "(a(t)^2 - 1)/(a(t) - 1) - a(t) - 1"},
        {"op": "is_zero", "expr": "a'(t)/(a(t)^2 + 1) - a(t)/(a(t)^2 + 1)"},
        {"op": "eval_at", "expr": "(x + t)^2/(y - 1) + 1/(x + t) + z",
         "at": {"t": 0.5, "x": 1.5, "y": 3.0, "z": -2.0}},
    ],
}


def _spherical(f: str, params: list, T: list) -> dict:
    """diag(-f, 1/f, r^2, r^2 sin(th)^2) with f given as text: every
    curvature op, then `verify_einstein` against the stress tensor T."""
    return {
        "chart": ["t", "r", "th", "ph"],
        "params": params,
        "metric": {"matrix": [[f"-({f})", "0", "0", "0"],
                              ["0", f"1/({f})", "0", "0"],
                              ["0", "0", "r^2", "0"],
                              ["0", "0", "0", "r^2*sin(th)^2"]],
                   "det_sign": -1},
        "tasks": [{"op": op} for op in CURVATURE_OPS] + [
            {"op": "verify_einstein", "T": T}],
    }


SCHWARZSCHILD = _spherical("1 - 2*m/r", ["m", "kappa"], [["0"] * 4] * 4)
DE_SITTER = _spherical("1 - L*r^2", ["L", "kappa"], [
    ["3*L*(1 - L*r^2)/kappa", "0", "0", "0"],
    ["0", "-3*L/(kappa*(1 - L*r^2))", "0", "0"],
    ["0", "0", "-3*L*r^2/kappa", "0"],
    ["0", "0", "0", "-3*L*r^2*sin(th)^2/kappa"]])

# Kerr-Newman in Boyer-Lindquist coordinates, S = r^2 + a^2 cos(th)^2 and
# 2mr - q^2 in place of Kerr's 2mr; its G is a nonzero Value (no zero test)
_S = "(r^2 + a^2*cos(th)^2)"
_W = "(2*m*r - q^2)"
KERR_NEWMAN = {
    "chart": ["t", "r", "th", "ph"],
    "params": ["m", "a", "q"],
    "metric": {"matrix": [
        [f"-(1 - {_W}/{_S})", "0", "0", f"-{_W}*a*sin(th)^2/{_S}"],
        ["0", f"{_S}/(r^2 - 2*m*r + q^2 + a^2)", "0", "0"],
        ["0", "0", _S, "0"],
        [f"-{_W}*a*sin(th)^2/{_S}", "0", "0",
         f"(r^2 + a^2 + {_W}*a^2*sin(th)^2/{_S})*sin(th)^2"]],
        "det_sign": -1},
    "tasks": [{"op": "einstein_tensor"}],
}

# Kerr in Boyer-Lindquist coordinates, S = r^2 + a^2 cos(th)^2: a vacuum
# solution, so `verify_einstein` at T = 0 Passes
_K = "(2*m*r)"
KERR = {
    "chart": ["t", "r", "th", "ph"],
    "params": ["m", "a", "kappa"],
    "metric": {"matrix": [
        [f"-(1 - {_K}/{_S})", "0", "0", f"-{_K}*a*sin(th)^2/{_S}"],
        ["0", f"{_S}/(r^2 - 2*m*r + a^2)", "0", "0"],
        ["0", "0", _S, "0"],
        [f"-{_K}*a*sin(th)^2/{_S}", "0", "0",
         f"(r^2 + a^2 + {_K}*a^2*sin(th)^2/{_S})*sin(th)^2"]],
        "det_sign": -1},
    "tasks": [{"op": "christoffel"}, {"op": "verify_einstein", "T": [["0"] * 4] * 4}],
}

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SCENARIOS = os.path.join(HERE, "..", "scenarios")

# golden file -> (bundled file name or scenario dict, report format, exit code)
CASES = {
    "reference.json": ("reference.json", "json", 0),
    "reference.txt": ("reference.json", "text", 0),
    "expect_fail.json": ("expect_fail.json", "json", 1),
    "plane.json": (PLANE, "json", 0),
    "phase.json": (PHASE, "json", 0),
    "spacetime.json": (SPACETIME, "json", 0),
    "sphere.json": (SPHERE, "json", 0),
    "frw.json": (FRW, "json", 0),
    "schwarzschild.json": (SCHWARZSCHILD, "json", 0),
    "de_sitter.json": (DE_SITTER, "json", 0),
    "kerr_newman.json": (KERR_NEWMAN, "json", 0),
    "kerr.json": (KERR, "json", 0),
}


def _report(golden: str, folder: str) -> tuple[int, bytes]:
    """Exit code and stdout of the run a golden file records; scenario
    dicts are written to `folder` under the golden's stem, which the
    report names as its file."""
    source, fmt, _ = CASES[golden]
    if isinstance(source, dict):
        path = os.path.join(folder, golden.split(".")[0] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(source, fh)
    else:
        path = os.path.join(SCENARIOS, source)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", path, "--format", fmt, "--seed", "0"])
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path):
    code, out = _report(golden, str(tmp_path))
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out == fh.read()
    assert code == CASES[golden][2]


def test_every_report_matches_the_digest():
    with open(os.path.join(GOLDEN, "report_digest.txt"), encoding="utf-8") as fh:
        assert list(digest_lines()) == fh.read().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        for name in sorted(CASES):
            code, out = _report(name, folder)
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(out)
            print(f"{name}: exit {code}", file=sys.stderr)

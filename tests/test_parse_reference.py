"""The parser against the reference parser kept in `helpers`: every
expression string of the bundled scenarios, of the `curvature` benchmark
corpus and of the `forms` corpus at generator seeds 0, 7 and 101, and a
table of malformed texts, parse to equal trees or raise the same error
with the same message and position.  The one exception is the position
at which a too-deep nesting stops, which depends on the parser's
recursion; its type and message still match.
Like `report_digest.py`, this only reads `bench/`.
"""

import contextlib
import glob
import io
import os
import sys

import pytest

from exformal import cli
from exformal.errors import ExformalError
from exformal.symbolic import Chart, parse_expr

from helpers import reference_parse_expr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import forms  # noqa: E402

FORMS_SEEDS = (0, 7, 101)
FILES = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json"))
               + glob.glob(os.path.join(ROOT, "bench", "corpus", "curvature",
                                        "*.json")))


def outcome(parse, text, chart, params):
    """The tree `parse` gives, or its error as (type, message, position,
    expected)."""
    try:
        return parse(text, chart, params)
    except ExformalError as e:
        return (type(e), str(e), getattr(e, "position", None),
                getattr(e, "expected", None))


def assert_same(text, chart, params=()):
    got = outcome(parse_expr, text, chart, params)
    want = outcome(reference_parse_expr, text, chart, params)
    if isinstance(want, tuple) and "nested too deeply" in want[1]:
        assert isinstance(got, tuple) and got[0] is want[0], text
        assert got[1].startswith("expression nested too deeply at position ")
        return
    assert type(got) is type(want) and got == want, (text, got, want)


def parsed_texts(paths, monkeypatch):
    """(text, chart, params) of every expression the scenario files hand to
    the parser when each runs through `main`."""
    seen = []

    def record(text, chart, params=()):
        seen.append((text, chart, tuple(params)))
        return parse_expr(text, chart, params)

    monkeypatch.setattr(cli, "parse_expr", record)
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["run", path, "--format", "json"])
    return seen


def test_every_corpus_expression_parses_as_the_reference(monkeypatch,
                                                         tmp_path):
    paths = list(FILES)
    for seed in FORMS_SEEDS:
        out = tmp_path / f"forms-{seed}"
        out.mkdir()
        paths += [p for p, _ in forms.generate(seed, str(out))]
    texts = parsed_texts(paths, monkeypatch)
    assert len(texts) > 3000
    for text, chart, params in texts:
        assert_same(text, chart, params)


CH = Chart(("x", "y"))

MALFORMED = [
    # syntax errors
    "", "   ", "x +", "+ x", "* x", "x * * y", "x y", "2 3", "(x", "x)",
    "((x + y)", "x + (", "()", "x^", "x^y", "x^-", "x^--2", "x^1.5",
    "x^-1.5", "2^(3)", "1.", "1.5.3", ".5", "x @ y", "x $", "#", "x, y",
    "x\u200b", "sin", "sin x", "sin()", "f(x", "f(x,y)", "x^2^3",
    # unknown symbols
    "w", "x + w", "2*w^2", "sin(w)", "f(w - x)", "m*x",
    # primes without a call, and on a built-in
    "a'", "a' + x", "a''^2", "sin'(x)", "cos''(y)",
    # too many digits for the interpreter
    "1" * 5000, "x^" + "1" * 5000, "x + " + "2" * 5000 + ".5",
    "x^-" + "3" * 5000, "0." + "1" * 5000,
    # zero divisors and constants past their bounds
    "1/(0^-1*x)", "1/0", "x/(y*0)", "0^-2", "(0)^-1", "1/(2 - 2)",
    "1/(x - x)", "y/(0*x)^2", "(x - x)^-3", "3^30000000",
    "x^2*3^30000000*3^-30000000", "(2/3)^-30000000", "(x + 1)^5000",
    "0*(x + 1)^5000", "3^30000000*(x + 1)^5000", "(x + 1)^5000*3^30000000",
    "(1/" + "/".join(f"(x + {i})" for i in range(1, 101)) + ")^-1",
    # nesting past the recursion
    "(" * 300 + "x" + ")" * 300, "-" * 2000 + "x", "sin(" * 300 + "x" + ")" * 300,
]

WELL_FORMED = [
    "0", "1", "-1", "0.0", "1.0", "2*1/2", "2/4*x", "x*1", "1*(x + 1)",
    "-(x + 1)", "-(-(x + y))", "2*(x + y)/2", "(-1)^2", "(-2)^-3*x",
    "3/5*x/2*y*7", "x - x + y", "x + 2 - 2", "x/(2*y)^2", "1/(x/y)",
    "-x^2 - -x^2", "23/5 - 23/5*x^2*y + 0.25*x", "(x + y)^3 - (x - y)^3",
    "2^99999 - 2^99999", "a''(x)*f(x - y) - 2*a''(x)*f(x - y)",
    "sin(x)^2 + cos(x)^2 - 1", "1/(x + 1)^100", "1/((x + 1)^100)",
    "m*x + 7*m/3", "-m/(x - m)^2",
    # other whitespace and digits that the tokens' classes take
    "\t x \n+\r y ", "x\u00a0+ y", "\u0663*x",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_fails_as_the_reference(text):
    assert isinstance(outcome(parse_expr, text, CH, ()), tuple)
    assert_same(text, CH)


@pytest.mark.parametrize("text", WELL_FORMED)
def test_text_parses_as_the_reference(text):
    assert_same(text, CH, ("m",))

"""Seed independence: a true identity never comes out as Fail, and a
falsification control never as Pass, whatever the sampling seed.

Every file of the `curvature` benchmark corpus, and one file of each kind
that the `forms` generator writes at generator seed 0, runs in process on
seeds 0-9; each report is checked with the benchmark's own `corpus.check`
against the known answers `bench/corpus.py` and `bench/forms.py` keep
(none is taken from engine output).  Every bundled scenario runs on the
same seeds, and each run must give the exit code and the task verdicts of
its seed-0 run.  `verify_einstein` at T = 0 on the Kerr metric of
`test_golden`, a vacuum solution, must Pass on every seed.
Like `report_digest.py`, this only reads `bench/`.
"""

import contextlib
import functools
import glob
import io
import json
import os
import sys

import pytest

from exformal.cli import main
from test_golden import KERR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import corpus  # noqa: E402
import forms  # noqa: E402

SEEDS = range(10)
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))


def run(path: str, seed: int) -> dict:
    """One `exformal run --format json` in process, as the benchmark's
    child records it for `corpus.check`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", path, "--seed", str(seed), "--format", "json"])
    text = out.getvalue()
    tasks = [{"verdict": t["verdict"], "values": t["values"]}
             for t in json.loads(text)["tasks"]] if text else None
    return {"code": code, "crash": None, "tasks": tasks,
            "stderr": err.getvalue()}


def assert_known_answers(entries, seed: int):
    for path, answer in entries:
        attempted, wrong, unsound = corpus.check(answer, run(path, seed))
        assert (wrong, unsound) == (0, []), (
            f"{os.path.basename(path)} at seed {seed}: {wrong} of "
            f"{attempted} checks wrong, controls passed at {unsound}")


@pytest.mark.parametrize("seed", SEEDS)
def test_curvature_corpus_matches_its_known_answers(seed):
    assert_known_answers(corpus.curvature(), seed)


@pytest.fixture(scope="module")
def forms_share(tmp_path_factory):
    """The first file of each kind of the forms corpus, generator seed 0."""
    share = {}
    for path, answer in forms.generate(0, str(tmp_path_factory.mktemp("forms"))):
        share.setdefault(answer["kind"], (path, answer))
    return list(share.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_forms_share_matches_its_known_answers(forms_share, seed):
    assert_known_answers(forms_share, seed)


@functools.lru_cache(maxsize=None)
def outcome(path: str, seed: int):
    """The exit code and the task verdicts of one run."""
    result = run(path, seed)
    return result["code"], [t["verdict"] for t in result["tasks"] or ()]


@pytest.mark.parametrize("seed", SEEDS[1:])
@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_scenario_outcome_is_the_seed_zero_outcome(path, seed):
    assert outcome(path, seed) == outcome(path, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_kerr_vacuum_passes(seed, tmp_path):
    path = tmp_path / "kerr.json"
    path.write_text(json.dumps(dict(KERR, tasks=[
        {"op": "verify_einstein", "T": [["0"] * 4] * 4}])), encoding="utf-8")
    result = run(str(path), seed)
    assert (result["code"], [t["verdict"] for t in result["tasks"]]) == (
        0, ["Pass"]), result["stderr"]

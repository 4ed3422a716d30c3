"""Workload corpora and their known answers.

A known answer is stored here, never taken from engine output.  Each entry
is ``(path, {"exit": code, "tasks": [{"verdicts": [...], "values": {...}}]})``:
a task check passes when the reported verdict is one of ``verdicts`` and
every listed value matches; the file check passes when ``main`` returned
``exit`` without an escaping exception (and, for exit 2, printed an error
message).
"""

from __future__ import annotations

import os

import forms
from forms import known

CURVATURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "corpus", "curvature")

PASS, FAIL, VALUE = known("Pass"), known("Fail"), known("Value")

# The physics fixes each answer.  Schwarzschild is a vacuum solution and de
# Sitter solves G = -3L g, so both verify and div G = 0 holds identically;
# FRW with the perfect-fluid T it generates verifies and fails with T = 0;
# flat space with dust fails.  On the unit 2-sphere the scalar curvature is
# 2, dph is co-closed (the azimuth is harmonic), the geodesic Lagrangian's
# mass matrix diag(1, sin^2 th) degenerates at the poles only, and
# cos(th) dth = d(sin th) needs no integrating factor beyond 1.
# reference.json carries hand-written "expect" fields, so a matched task
# reports Pass (or its closure status).
CURVATURE = (
    ("schwarzschild.json", 0, [VALUE, PASS, PASS]),
    ("de_sitter.json", 0, [PASS, PASS, VALUE]),
    ("frw.json", 0, [PASS]),
    ("frw_vacuum_control.json", 1, [FAIL]),
    ("two_sphere.json", 0, [
        known("Value", scalar="2"), known("Value", result="0"),
        known("Value", degeneracy="ConditionallyDegenerate"),
        known("Value", found="found", mu="1")]),
    ("minkowski_dust.json", 1, [FAIL]),
    ("reference.json", 0, [known("Exact")] + [PASS] * 7),
)

# One generated file of each light kind (every degree-1/2 kind of
# ``forms.PLAN``, not the surfaces or the malformed files) rides along in
# ``parallel``, so that p50 falls among light files (the pool's fixed cost)
# and p90 on the two heavy curvature files (where a pool could win).  They
# come from a fixed generator seed: with so few light files, content drawn
# per workload seed would move the median more than the code does.
PARALLEL_FORMS_KINDS = tuple(kind for kind, _ in forms.PLAN
                             if kind not in ("surface", "malformed"))
PARALLEL_FORMS_SEED = 0


def curvature() -> list[tuple[str, dict]]:
    return [(os.path.join(CURVATURE_DIR, name), {"exit": code, "tasks": tasks})
            for name, code, tasks in CURVATURE]


def build(workload: str, seed: int, work_dir: str) -> list[tuple[str, dict]]:
    """Corpus of ``workload``; generated files go under ``work_dir``."""
    if workload == "curvature":
        return curvature()
    if workload == "forms":
        return forms.generate(seed, work_dir)
    if workload == "parallel":
        generated = forms.generate(PARALLEL_FORMS_SEED, work_dir)
        light = [next(e for e in generated if e[1]["kind"] == kind)
                 for kind in PARALLEL_FORMS_KINDS]
        # light files go before each curvature file in turn, so that their
        # samples spread over the pass instead of coming in one burst
        heavy = curvature()
        entries = []
        for i, entry in enumerate(heavy):
            entries += light[i * len(light) // len(heavy):
                             (i + 1) * len(light) // len(heavy)]
            entries.append(entry)
        return entries
    raise ValueError(f"unknown workload {workload!r}")


def check(answer: dict, result: dict) -> tuple[int, int, list[int]]:
    """Checks attempted, checks wrong, and the indices of falsification
    controls reported as a success, for one file's result."""
    tasks = answer["tasks"]
    attempted = 1 + len(tasks)
    if result["crash"] is not None:
        return attempted, attempted, []
    wrong, unsound = 0, []
    code = result["code"]
    if code != answer["exit"] or (code == 2 and "error" not in result["stderr"]):
        wrong += 1
    reported = result["tasks"] or []
    for i, want in enumerate(tasks):
        got = reported[i] if i < len(reported) else None
        if got is None or got["verdict"] not in want["verdicts"] or any(
            got["values"].get(k) != v for k, v in want["values"].items()
        ):
            wrong += 1
            if got is not None and set(want["verdicts"]) <= forms.CONTROL \
                    and got["verdict"] in forms.SUCCESS:
                unsound.append(i)
    return attempted, wrong, unsound

"""exformal benchmark: time to verdict for `exformal run`, checked answers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload curvature|forms|parallel \
        --seed N --seconds S --trace 0|1

Each timed pass is one fresh child interpreter (``bench/child.py``) that
imports ``exformal.cli`` from this checkout's ``src/`` and calls
``main(["run", file, "--seed", "0", "--format", "json"])`` once per corpus
file.  Passes repeat, one after another, until ``--seconds`` have gone by.
``--seed`` drives the ``forms`` generator; the engine seed stays 0.
Times are in reference seconds, corrected for the drifting speed of a
shared CPU (see ``child.py`` and ``README.md``).

Every verdict and exit code is checked against a known answer kept by the
benchmark (``bench/corpus.py``, ``bench/forms.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
(checks made / checks that disagreed with the known answer) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``correct`` is false when a
self-check breaks: verdicts that differ between passes, ``--parallel``
verdicts that differ from a sequential pass, counters that differ between
traced passes, or a falsification control that comes out as a success.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("curvature", "forms", "parallel")
ENGINE_SEED = 0
SETUP_SAMPLES = 5        # import-only children besides the timed passes
RUN_DEADLINE_S = 170.0   # a run never outlives this, children included


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, files, work_dir, deadline, pin):
        self.files = files
        self.pin = pin
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def child(self, **job) -> dict:
        job_path = os.path.join(self.work_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(dict(job, files=self.files, engine_seed=ENGINE_SEED), fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), SRC, job_path,
                 "pin" if self.pin else "nopin"],
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a child pass ran past the run deadline") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child failed ({proc.returncode}):\n"
                             f"{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        module = os.path.abspath(result["module"])
        if not module.startswith(os.path.join(SRC, "exformal") + os.sep):
            raise BenchError(f"imported exformal from {module}, not {SRC}")
        return result


def verdict_list(result) -> list:
    """What must repeat between passes: exit code, crash, task verdicts."""
    return [
        [f["code"], f["crash"] is not None,
         [t["verdict"] for t in f["tasks"] or []]]
        for f in result["files"]
    ]


def pass_ref_s(result) -> float:
    return sum(f["ref_s"] for f in result["files"])


def percentile_90(samples):
    return statistics.quantiles(samples, n=10)[8]


def measure(args) -> tuple[dict, dict, list[str]]:
    if not os.path.isfile(os.path.join(SRC, "exformal", "cli.py")):
        raise BenchError(f"no exformal sources under {SRC}")
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        entries = corpus.build(args.workload, args.seed, work_dir)
        parallel = args.workload == "parallel"
        # the sequential workloads run on one CPU, which steadies them;
        # --parallel keeps every CPU so that a pool can use them
        runner = Runner([p for p, _ in entries], work_dir, deadline,
                        pin=not parallel)
        notes = []

        runner.child(import_only=True)   # compiles bytecode; not measured
        imports = [runner.child(import_only=True)["import_ref_s"]
                   for _ in range(SETUP_SAMPLES)]
        reference = None
        if parallel:
            reference = verdict_list(runner.child(parallel=False))

        spans_out = os.path.join(WORK, f"spans-{args.workload}.json")
        passes, traced = [], []
        t0 = time.monotonic()
        while (time.monotonic() - t0 < args.seconds
               or not passes or (args.trace and len(traced) < 2)):
            trace_now = bool(args.trace) and len(passes) > len(traced)
            res = runner.child(parallel=parallel, trace=trace_now,
                               spans_out=spans_out)
            (traced if trace_now else passes).append(res)
            imports.append(res["import_ref_s"])

        everything = passes + traced
        first = verdict_list(everything[0])
        checks = {"correct": True, "attempted": 0, "failed": 0}
        for res in everything:
            if verdict_list(res) != first:
                checks["correct"] = False
                notes.append("verdicts differ between passes")
            for (path, answer), f in zip(entries, res["files"]):
                n, wrong, unsound = corpus.check(answer, f)
                checks["attempted"] += n
                checks["failed"] += wrong
                for i in unsound:
                    checks["correct"] = False
                    notes.append("control reported as success: "
                                 f"{os.path.basename(path)} task {i}")
        if reference is not None and reference != first:
            checks["correct"] = False
            notes.append("--parallel verdicts differ from a sequential pass")

        for i, (path, answer) in enumerate(entries):
            ref = statistics.median(r["files"][i]["ref_s"] for r in passes)
            wall = statistics.median(r["files"][i]["elapsed"] for r in passes)
            n, wrong, _ = corpus.check(answer, passes[0]["files"][i])
            notes.append(f"file {os.path.basename(path)}: median ref_s={ref:.6f}"
                         f" wall_s={wall:.6f} wrong={wrong}/{n}")
        if args.trace:
            metrics = layer_metrics(traced, passes, checks, notes)
        else:
            metrics = end_to_end(passes, imports, checks, notes)
        notes.append(f"passes={len(passes)} traced={len(traced)} "
                     f"files/pass={len(entries)} "
                     f"measured_s={time.monotonic() - t0:.1f}")
        return checks, metrics, list(dict.fromkeys(notes))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end(passes, imports, checks, notes) -> dict:
    samples = [f["ref_s"] for res in passes for f in res["files"]]
    p90 = percentile_90(samples)
    beyond = sum(1 for s in samples if s > p90)
    wrong_ratio = checks["failed"] / checks["attempted"]
    notes.append(f"verdict samples={len(samples)} beyond_p90={beyond} "
                 f"setup samples={len(imports)} wrong_ratio={wrong_ratio:.6f}")
    tasks_per_s = [
        sum(len(f["tasks"]) for f in res["files"] if f["tasks"])
        / pass_ref_s(res)
        for res in passes
    ]
    return {
        "setup_s": (statistics.median(imports), "s"),
        "verdict_s_p50": (statistics.median(samples), "s"),
        "verdict_s_p90": (p90, "s"),
        "tasks_per_s": (statistics.median(tasks_per_s), "1/s"),
        "right_ratio": (1.0 - wrong_ratio, "ratio"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in passes) / 1024,
                        "MB"),
    }


def layer_counts(res) -> dict:
    counts = dict(res["counters"])
    for name, (calls, _, _) in res["stats"].items():
        counts[f"{name}.calls"] = calls
    counts["cli.report_bytes"] = sum(f["report_bytes"] for f in res["files"])
    return counts


def layer_metrics(traced, passes, checks, notes) -> dict:
    counts = layer_counts(traced[0])
    if any(layer_counts(res) != counts for res in traced[1:]):
        checks["correct"] = False
        notes.append("layer counters differ between traced passes")
    metrics = {}
    # spans are wall time; scale each pass by its reference/wall ratio
    scale = [pass_ref_s(r) / sum(f["elapsed"] for f in r["files"])
             for r in traced]
    for name in tracer.FUNCTIONS:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        for i, stat in ((1, "total_s"), (2, "self_s")):
            metrics[f"{name}.{stat}"] = (statistics.median(
                r["stats"][name][i] * k for r, k in zip(traced, scale)), "s")
    # ``is_zero.unknown`` is 0 at baseline, so it is a note, not a metric
    notes.append("symbolic.is_zero.unknown = "
                 f"{counts['symbolic.is_zero.unknown']} count")
    for name in tracer.COUNTERS:
        if name != "symbolic.is_zero.unknown" \
                and not name.startswith("exterior.classify_closure."):
            metrics[name] = (counts[name], "count")
    exact = counts["exterior.classify_closure.exact"]
    closed = counts["exterior.classify_closure.closed"]
    metrics["exterior.classify_closure.exact_ratio"] = (
        exact / (exact + closed) if exact + closed else 0.0, "ratio")
    metrics["cli.report_bytes"] = (counts["cli.report_bytes"], "bytes")
    metrics["trace.overhead"] = (
        statistics.median(pass_ref_s(r) for r in traced)
        / statistics.median(pass_ref_s(r) for r in passes) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checks, metrics, notes = measure(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        **checks,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

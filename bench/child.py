"""One timed pass over a corpus in a fresh interpreter.

Usage: python3 bench/child.py SRC_DIR JOB.json pin|nopin

SRC_DIR is the checkout's ``src`` directory; the job names the corpus
files, the engine seed and the flags.  The child times
``import exformal.cli`` first (only ``gc``, ``os``, ``signal``, ``sys``
and ``time`` are imported before it), then calls
``exformal.cli.main(["run", file, ...])`` once per file, in order, with
stdout and stderr captured in memory.  An exception escaping ``main`` is
caught and recorded.  One JSON object with the results goes to stdout.

Every timing is reported twice: as wall time, and in reference seconds.
The machine's speed drifts (other tenants share the CPU), so a fixed
pure-Python probe samples it before each file, after the last one, and
every ``PROBE_INTERVAL_S`` from a timer signal while a file runs.  A
reference time is the wall time, less the probes' own time, times the mean
of ``PROBE_REF_S / probe`` over the samples of that interval: the time the
same work takes on a CPU that runs the probe in ``PROBE_REF_S``.  With
``pin`` the child first pins itself to one CPU, so the probe samples the
CPU that does the work; with ``nopin`` (``run --parallel``) it keeps every
CPU it inherited, so that a pool can spread over them, and each probe
sample visits all of them in turn.
"""

import gc
import os
import signal
import sys
import time

PROBE_REF_S = 80e-6        # the probe's time on an idle 2.0 GHz Xeon core
PROBE_INTERVAL_S = 0.05


def _probe_loop() -> int:
    d = {}
    for i in range(600):
        d[(i, i & 7)] = (i * 31) % 17
    return len(d)


class SpeedProbe:
    """Samples how fast the CPUs of this process run ``_probe_loop``.

    A sample is the mean, over the allowed CPUs, of ``PROBE_REF_S`` over
    the best of three probe times on that CPU: when the process may use
    several CPUs, the calling thread visits each of them in turn.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = []   # speed factor of each sample
        self.cost = 0.0     # wall time spent in samples so far
        self.busy = False

    def sample(self, *_signal_args) -> None:
        if self.busy:       # the timer fired inside an explicit sample
            return
        self.busy = True
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        speed = 0.0
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(3):
                t = time.perf_counter()
                _probe_loop()
                best = min(best, time.perf_counter() - t)
            speed += PROBE_REF_S / best
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)
        if enabled:
            gc.enable()
        self.samples.append(speed / len(self.cpus))
        self.cost += time.perf_counter() - start
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run ``fn`` between probes; return (result, wall_s, ref_s).

        The probe just before ``fn`` must already be taken; the one after
        it is taken here and also serves as the next call's "before".
        """
        first = len(self.samples) - 1
        cost0 = self.cost
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0 - (self.cost - cost0)
        self.sample()
        window = self.samples[first:]
        speed = sum(window) / len(window)
        return out, wall, wall * speed


def main() -> int:
    src, job_path, pin = sys.argv[1:4]
    sys.path.insert(0, src)
    if pin == "pin":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    probe = SpeedProbe()
    probe.sample()
    probe.start()

    def load():
        import exformal.cli
        return exformal.cli

    cli, _, import_ref = probe.timed(load)

    import contextlib
    import io
    import json
    import resource
    import traceback

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"import_ref_s": import_ref, "module": cli.__file__}
    if job.get("import_only"):
        probe.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    extra = ["--seed", str(job["engine_seed"]), "--format", "json"]
    if job.get("parallel"):
        extra.append("--parallel")
    files = []
    for index, path in enumerate(job["files"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index

        def call():
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    return cli.main(["run", path, *extra]), None
            except SystemExit as e:
                return e.code, None
            except Exception:
                return None, traceback.format_exc()

        (code, crash), wall, ref = probe.timed(call)
        text = out.getvalue()
        tasks = None
        if crash is None and text:
            try:
                tasks = [
                    {"verdict": t["verdict"], "values": t["values"]}
                    for t in json.loads(text)["tasks"]
                ]
            except (ValueError, KeyError, TypeError):
                tasks = None
        files.append({
            "code": code,
            "elapsed": wall,
            "ref_s": ref,
            "tasks": tasks,
            "crash": crash,
            "stderr": err.getvalue(),
            "report_bytes": len(text.encode("utf-8")),
        })
    probe.stop()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["files"] = files

    if tracer is not None:
        tracer.uninstall()
        stats, counters = tracer.totals()
        result["stats"] = stats
        result["counters"] = counters
        result["spans"] = tracer.write_spans(job["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print one sha256 per report of `exformal run`, to show that a change
keeps every report byte for byte.

Each line digests stdout, stderr and the exit code of one run, and names
the file, the format and the seed.  The files are `scenarios/*.json`,
`bench/corpus/curvature/*.json` and the forms corpus that
`bench.forms.generate` writes for seeds 0, 7 and 101 into a temporary
directory; each is run under `--format json --seed 0` and
`--format text --seed 3`.  `tests/golden/report_digest.txt` holds the
lines it prints, and `test_golden.test_every_report_matches_the_digest`
compares them with a fresh run, so a change that alters any report fails
there.  After a deliberate report change, rewrite the file from the
repository root and review its diff:

    python tests/report_digest.py > tests/golden/report_digest.txt

The file name keeps pytest from collecting it.  It only reads `bench/`.
"""

import contextlib
import glob
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench.forms import generate  # noqa: E402
from exformal.cli import main  # noqa: E402

RUNS = (("json", 0), ("text", 3))
FORMS_SEEDS = (0, 7, 101)


def digest(path: str, fmt: str, seed: int) -> str:
    """Run from the file's directory, so that a message naming the file
    reads the same in every checkout and temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(os.path.dirname(path))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", os.path.basename(path), "--format", fmt,
                         "--seed", str(seed)])
    finally:
        os.chdir(cwd)
    blob = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _lines(files):
    """A digest line for each (label, path) pair under every run."""
    for label, path in files:
        for fmt, seed in RUNS:
            yield f"{digest(path, fmt, seed)}  {label}  {fmt}  {seed}"


def digest_lines():
    """The digest line of every report, in the order the file holds them."""
    for pattern in ("scenarios/*.json", "bench/corpus/curvature/*.json"):
        paths = sorted(glob.glob(os.path.join(ROOT, pattern)))
        yield from _lines((os.path.relpath(p, ROOT), p) for p in paths)
    for seed in FORMS_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            generate(seed, tmp)
            names = sorted(os.listdir(tmp))
            yield from _lines((f"forms-{seed}/{name}", os.path.join(tmp, name))
                              for name in names)


if __name__ == "__main__":
    for line in digest_lines():
        print(line)

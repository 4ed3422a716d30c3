import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# Run from a checkout without installing: the package lives under src/, and
# the CLI tests start `python -m exformal.cli` in subprocesses, which find it
# through PYTHONPATH.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

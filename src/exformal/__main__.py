"""`python -m exformal`: the same command line as the `exformal` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

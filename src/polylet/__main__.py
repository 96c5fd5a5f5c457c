"""`python -m polylet`: the same command line as the `polylet` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

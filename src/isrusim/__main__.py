"""`python -m isrusim`: the same command line as the `isrusim` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

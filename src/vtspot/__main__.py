"""``python -m vtspot``: the same command line as the ``vtspot`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m honeyflow``: the same command line as the ``honeyflow`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

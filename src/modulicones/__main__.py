"""``python -m modulicones``: the same command as the ``modulicones`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

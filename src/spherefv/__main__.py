"""``python -m spherefv``: the command-line driver of :mod:`spherefv.cli`."""

import sys

from .cli import main

sys.exit(main())

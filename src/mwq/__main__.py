"""`python -m mwq ...`: the same command line as the `mwq` script."""

import sys

from .cli import main

sys.exit(main())

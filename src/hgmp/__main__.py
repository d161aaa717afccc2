"""`python -m hgmp`: the hgmp command line."""

import sys

from .cli import main

sys.exit(main())

"""`python -m peftlab`: the same command line as `peftlab`."""

import sys

from .cli import main

sys.exit(main())

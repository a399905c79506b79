"""``python -m torsorkit``: the batch front end of ``torsorkit.cli``."""

import sys

from .cli import main

sys.exit(main())

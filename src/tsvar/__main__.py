"""``python -m tsvar``: run the command-line frontend."""

import sys

from .cli import main

sys.exit(main())

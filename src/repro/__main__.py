"""``python -m repro``: the ``repro`` console script, no install needed."""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())

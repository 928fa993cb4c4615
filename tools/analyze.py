#!/usr/bin/env python
"""Repo-root entry point for the determinism lint.

Equivalent to the ``colt-analyze`` console script, but runnable straight
from a checkout with no install step:

    python tools/analyze.py src tools
    python tools/analyze.py --check-docs

See ``repro.analysis.static`` for the rules and the pragma.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.static.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

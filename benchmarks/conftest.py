"""Shared benchmark configuration.

Set ``REPRO_FULL=1`` to run the paper's complete case lists (the largest
chemistry/neutrino instances take minutes to hours); the default subset
finishes on a laptop in a few minutes while covering every table and figure.
"""

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
# src/ for the package, tests/ for the reference oracles the speedup floors
# are measured against (``from oracles import ...``).
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

FULL = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


def full_run() -> bool:
    return FULL

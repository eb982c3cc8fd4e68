"""Let ``pytest`` run from a checkout without an install.

The checkout's ``src`` goes first on ``sys.path`` and on the ``PYTHONPATH``
that the tests' fresh interpreters (``test_cli``, ``fresh.py``) inherit.
Nothing from fockbox is imported here, so the cold-start tests still see
the package load from nothing.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

"""Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` from the
repository root (not part of the tier-1 suite)."""

import os
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

"""``python -m benchmarks.e2e run|compare|manifest`` (from the repository
root, with ``src`` on ``PYTHONPATH``)."""

import sys

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())

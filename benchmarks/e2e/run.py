"""The benchmark driver's entry point: one workload, one process.

    python3 benchmarks/e2e/run.py --workload fanout_mem --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON object the driver reads.  The
script finds the repository from its own location (``src/`` must be beside
``benchmarks/``) and re-executes itself with ``PYTHONHASHSEED=0`` so that
set and dict iteration orders — and with them the counts a traced run
reports — are the same in every run.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _bootstrap() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        command = [sys.executable, os.path.abspath(__file__)] + sys.argv[1:]
        os.execve(sys.executable, command, environment)
    # This directory is sys.path[0] when run as a script; its module names
    # (trace, metrics...) must not shadow anything, so it makes way for the
    # repository root (the ``benchmarks`` package) and ``src`` (``repro``).
    sys.path[:] = [entry for entry in sys.path if os.path.abspath(entry or ".") != _HERE]
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.e2e.cli import single_main

    sys.exit(single_main())

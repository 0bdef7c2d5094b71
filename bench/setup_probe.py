"""Set-up time of blockspot in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR [TRANSCRIPT]

Imports the package and its command-line module, builds the replay backend
when a transcript is given, and prints the seconds that took.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import blockspot  # noqa: E402
import blockspot.cli  # noqa: E402,F401

if len(sys.argv) > 2:
    blockspot.ReplayBackend(sys.argv[2])
print(time.perf_counter() - started)

"""Set-up time of one workload in a fresh interpreter.

Usage: python perfbench/probe.py <workload>

Prints the seconds taken to import gfinv's CLI and to load the workload's
inputs (parse its programs, initial measures, templates and candidates).
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gfinv.cli  # noqa: E402,F401
import inputs  # noqa: E402

inputs.build(sys.argv[1])
print(time.perf_counter() - T0)

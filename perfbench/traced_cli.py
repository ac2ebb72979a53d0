"""`python -m gfinv.cli` with gfinv's layers traced.

Usage: PERFBENCH_TRACE_FILE=<path> python perfbench/traced_cli.py <gfinv arguments>

Imports gfinv's CLI, wraps the layer functions (see tracer.TARGETS), runs the
command exactly as `python -m gfinv.cli` would, and writes the spans to the
trace file on exit.  Standard output, standard error and the exit code are
the CLI's own.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gfinv.cli  # noqa: E402  (must be loaded before its functions are wrapped)
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return gfinv.cli.run(sys.argv[1:])
    finally:
        tracer.active = False
        tracer.dump(os.environ["PERFBENCH_TRACE_FILE"])


if __name__ == "__main__":
    sys.exit(main())

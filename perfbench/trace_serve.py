"""Run ``repro.cli`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/trace_serve.py serve [serve options]`` with
``src`` on ``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR`` naming the
directory that receives one ``spans-<pid>.json`` per process.
"""

import os
import sys

from tracer import install

if __name__ == "__main__":
    install(os.environ["PERFBENCH_TRACE_DIR"])
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))

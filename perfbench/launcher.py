"""Traced stand-in for `python -m dirichlet_j ARGS`, used by the traced
cli-session phase.

Environment: PERFBENCH_SPAWN is the parent's time.perf_counter() just before
it started this process (CLOCK_MONOTONIC, shared by all processes on Linux),
PERFBENCH_OP the op id and PERFBENCH_SPANS where to write the spans.  The
root span `import` runs from the spawn to the end of `import dirichlet_j.cli`,
so it holds interpreter start plus import.
"""

import os
import sys
import time

import dirichlet_j.cli

imported = time.perf_counter()

import tracer as tracing  # noqa: E402  (after the import span on purpose)

if __name__ == "__main__":
    op = int(os.environ["PERFBENCH_OP"])
    tracer = tracing.Tracer()
    tracer.op = op
    tracer.span("import", float(os.environ["PERFBENCH_SPAWN"]), imported, op)
    tracing.install(tracer)
    try:
        code = dirichlet_j.cli.run(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)

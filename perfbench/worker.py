"""The program process of the in-process workloads.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                               --workdir DIR --out RESULT.json --setup-only 0|1

Imports dirichlet_j (from PYTHONPATH) and runs the workload's warm-up calls;
the time from just before the import to the end of the warm-up is the set-up
time.  Until then the process holds only what the interpreter loads at start:
the benchmark's own modules, and the standard modules they share with
dirichlet_j, are imported after the set-up timer stops.  Then the timed loop
of loops.py runs.  With --trace 1 it runs untraced for half the time, then
again from the first op with the tracer installed for the other half; spans
are written to DIR/spans.json.
"""

import os
import sys
import time


def _warm_up(workload: str, workdir: str) -> None:
    """Fill the caches a long-running caller would have filled."""
    import dirichlet_j as dj

    if workload == "numeric-sweep":
        # deepest quadrature level, the longest Euler table, pi_fraction(23)
        dj.j_quadrature(0.05)
        dj.j_euler_series(1)
        dj.j_closed_odd(2)
        dj.j_closed_even(2)
        dj.lambda_numeric(2.5)
        dj.beta_numeric(2.5)
    elif workload == "deep-series":
        dj.fourier_partial("sine", 3, 0.5, 1000)
        dj.fourier_closed("sine", 1, 0.5)
        dj.log_tan_series(0.5, 1000)
    elif workload == "exact-wide":
        from dirichlet_j import cli

        cli.run(["verify", "remark1", "--range", "1..2", "--format", "json", "-o", os.path.join(workdir, "warm.json")])


def main() -> None:
    opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))  # "--name value" pairs; argparse would preload modules
    workload, workdir = opts["--workload"], opts["--workdir"]
    start = time.perf_counter()
    import dirichlet_j  # noqa: F401  (timed: part of set-up)

    _warm_up(workload, workdir)
    result = {"setup_s": time.perf_counter() - start, "phases": []}

    import json

    import loops
    import tracer as tracing

    seed, seconds = int(opts["--seed"]), float(opts["--seconds"])
    if opts["--setup-only"] == "0":
        if opts["--trace"] == "1":
            result["phases"].append(loops.run(workload, seconds / 2, seed, workdir, None))
            tracer = tracing.Tracer()
            tracing.install(tracer)
            result["phases"].append(loops.run(workload, seconds / 2, seed, workdir, tracer))
            tracer.dump(os.path.join(workdir, "spans.json"))
        else:
            result["phases"].append(loops.run(workload, seconds, seed, workdir, None))
    with open(opts["--out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

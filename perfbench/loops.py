"""The timed closed loops of the in-process workloads, run by worker.py after
set-up.  One caller calls the program for a given number of seconds, one op
after the other, timing each call alone.  Peak memory is read when the loop
ends, before the records are written out.
"""

from __future__ import annotations

import math
import os
import resource
import time
from array import array

import speed
import tracer as tracing
import workloads

CHUNK = 4096  # numeric-sweep ops per write of the record file


def _numeric_loop(seconds: float, seed: int, tracer: tracing.Tracer | None, rows_path: str) -> dict:
    """Records stream to rows_path as (latency, value, estimate, work) doubles,
    so the process's memory does not grow with the number of ops."""
    import dirichlet_j as dj

    modules = {"lambda_numeric": dj.special, "beta_numeric": dj.special}
    rows = array("d")
    errors: dict[int, str] = {}
    ops = workloads.stream("numeric-sweep", seed)
    probe = speed.Probe("numeric-sweep")
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    with open(rows_path, "wb") as fh:
        while clock() < deadline:
            kind, arg, _ = next(ops)
            fn = getattr(modules.get(kind, dj.jfun), kind)
            if tracer:
                tracer.op = index
            start = clock()
            try:
                result = fn(arg)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                latency = clock() - start
                errors[index] = repr(exc)
                rows.extend((latency, math.nan, math.nan, 0.0))
            else:
                latency = clock() - start
                rows.extend((latency, result.value, result.error_estimate, result.work))
            if len(rows) >= 4 * CHUNK:
                rows.tofile(fh)
                del rows[:]
            probe.due(latency)
            index += 1
        rows.tofile(fh)
    return {"rows": rows_path, "errors": errors, "speed": probe.samples, "peak_rss_kb": _peak_rss_kb()}


def read_numeric_rows(phase: dict) -> dict:
    """The latency list and per-op records of a numeric-sweep phase."""
    rows = array("d")
    with open(phase["rows"], "rb") as fh:
        rows.frombytes(fh.read())
    errors = {int(k): v for k, v in phase["errors"].items()}
    records = [
        [rows[i + 1], rows[i + 2], int(rows[i + 3]), errors.get(i // 4)] for i in range(0, len(rows), 4)
    ]
    return {**phase, "latency": list(rows[0::4]), "records": records}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _deep_call(op: tuple):
    import dirichlet_j as dj

    kind, m, x = op
    if kind == "log_tan":
        return dj.linalg.log_tan_series(x, workloads.DEEP_TERMS)
    return dj.identities.check_fourier(kind, m, x, workloads.DEEP_TERMS)


def _deep_record(result) -> list:
    if isinstance(result, float):
        return [result, None, None, None]
    return [result.lhs, result.rhs, result.passed, None]


def _generic_loop(workload: str, seconds: float, seed: int, workdir: str, tracer: tracing.Tracer | None, label: str) -> dict:
    from dirichlet_j import cli

    latency, records = [], []
    ops = workloads.stream(workload, seed)
    probe = speed.Probe(workload)
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while clock() < deadline:
        op = next(ops)
        if workload == "exact-wide":
            suite, a, b, fmt = op
            path = os.path.join(workdir, f"report.{fmt}")
            argv = ["verify", suite, "--range", f"{a}..{b}", "--format", fmt, "-o", path]
            call = lambda: cli.run(argv)  # noqa: E731
        else:
            call = lambda: _deep_call(op)  # noqa: E731
        if tracer:
            tracer.op = index
        start = clock()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency.append(clock() - start)
            records.append([None, None, None, repr(exc)] if workload == "deep-series" else [None, "", repr(exc)])
        else:
            latency.append(clock() - start)
            if workload == "exact-wide":
                # the report stays on disk for the checker, out of this process
                kept = os.path.join(workdir, f"report-{label}-{index}.{fmt}")
                os.replace(path, kept)
                records.append([result, kept, None])
            else:
                records.append(_deep_record(result))
        probe.due(latency[-1])
        index += 1
    return {"latency": latency, "records": records, "speed": probe.samples, "peak_rss_kb": _peak_rss_kb()}


def run(workload: str, seconds: float, seed: int, workdir: str, tracer: tracing.Tracer | None) -> dict:
    label = "traced" if tracer else "untraced"
    if workload == "numeric-sweep":
        return _numeric_loop(seconds, seed, tracer, os.path.join(workdir, f"rows-{label}.bin"))
    return _generic_loop(workload, seconds, seed, workdir, tracer, label)

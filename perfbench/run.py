"""Benchmark of dirichlet_j: four seeded workloads, each op checked against an
independent mpmath reference.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout holding src/dirichlet_j.  With --trace 0 the
last line of stdout is one JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics instead.  The
lines before it print every metric by name with its unit and sample count,
plus the run's metadata; the full record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import loops  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15  # fresh interpreters per run; setup_s is their median
IMPORT_SAMPLES = 3
OP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 120.0


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes ----------------------------------------------------------------


def _on_alarm(signum, frame):
    raise TimeoutError


def run_process(cmd: list[str], env: dict, stdout_path: str, stderr_path: str, timeout: float):
    """Run cmd to completion; returns (exit code, rusage).  Killed after timeout."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- probes -------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_probe(workdir: str) -> dict[str, float]:
    """import.dirichlet_j_s and import.numpy_s: median cumulative import time
    from `python -X importtime` in fresh interpreters."""
    samples: dict[str, list[float]] = {"dirichlet_j": [], "numpy": []}
    out, err = os.path.join(workdir, "probe.out"), os.path.join(workdir, "probe.err")
    for _ in range(IMPORT_SAMPLES):
        code, _ = run_process(
            [sys.executable, "-X", "importtime", "-c", "import dirichlet_j"], program_env(), out, err, OP_TIMEOUT_S
        )
        if code != 0:
            raise BenchmarkError(f"import dirichlet_j failed: {_read(err)[-500:]}")
        for line in _read(err).splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e6)
    return {f"import.{name}_s": statistics.median(values) if values else 0.0 for name, values in samples.items()}


def load_phase(workload: str, phase: dict) -> dict:
    """Bring in the records the worker left on disk."""
    if workload == "numeric-sweep":
        return loops.read_numeric_rows(phase)
    if workload == "exact-wide":
        for record in phase["records"]:
            if record[2] is None:
                record[1] = _read(record[1])
    return phase


def run_worker(workload: str, seed: int, seconds: float, trace: int, workdir: str, setup_only: bool):
    out = os.path.join(workdir, "worker.json")
    err = os.path.join(workdir, "worker.err")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--workdir", workdir, "--out", out, "--setup-only", str(int(setup_only)),
    ]
    code, _ = run_process(cmd, program_env(), os.path.join(workdir, "worker.out"), err, WORKER_TIMEOUT_S)
    if code != 0:
        raise BenchmarkError(f"worker exited {code}: {_read(err)[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def setup_samples(workload: str, seed: int, workdir: str, count: int, probe: speed.Probe) -> list[float]:
    """Set-up seconds of `count` fresh program processes, each after a probe."""
    out = []
    for _ in range(count):
        probe.sample()
        out.append(run_worker(workload, seed, 0.0, 0, workdir, True)["setup_s"])
    return out


# -- cli-session ----------------------------------------------------------------


def cli_phase(seed: int, seconds: float, workdir: str, traced: bool, rss_kb: list[int]) -> dict:
    """Closed loop of fresh `python -m dirichlet_j` processes (or the traced launcher)."""
    env = program_env()
    out, err = os.path.join(workdir, "op.out"), os.path.join(workdir, "op.err")
    ops = workloads.stream("cli-session", seed)
    probe = speed.Probe("cli-session")
    latency, records, spans = [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while clock() < deadline:
        argv, _kind = next(ops)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), *argv]
            span_path = os.path.join(workdir, f"spans-{index}.json")
            env["PERFBENCH_OP"] = str(index)
            env["PERFBENCH_SPANS"] = span_path
        else:
            cmd = [sys.executable, "-m", "dirichlet_j", *argv]
        start = clock()
        if traced:
            env["PERFBENCH_SPAWN"] = repr(start)
        code, usage = run_process(cmd, env, out, err, OP_TIMEOUT_S)
        latency.append(clock() - start)
        rss_kb.append(usage.ru_maxrss)
        records.append([code, _read(out), _read(err)])
        if traced and os.path.exists(span_path):
            tracing.extend(spans, tracing.load(span_path))
            os.remove(span_path)
        probe.due(latency[-1])
        index += 1
    return {"latency": latency, "records": records, "spans": spans, "speed": probe.samples}


# -- checking and metrics ---------------------------------------------------------


def check_phase(workload: str, seed: int, phase: dict, oracle) -> dict:
    import checks

    checker = checks.CHECKERS[workload]
    ops = workloads.first_ops(workload, seed, len(phase["records"]))
    failures, missed_ops, misses, digits, estimate_ok = [], [], [], [], []
    for index, (op, record) in enumerate(zip(ops, phase["records"])):
        verdict = checker(op, record, oracle)
        if verdict.failure:
            failures.append(f"op {index}: {verdict.failure}")
        elif verdict.misses:
            missed_ops.append(index)
        misses.extend(f"op {index}: {m}" for m in verdict.misses)
        digits.extend(verdict.digits)
        estimate_ok.extend(verdict.estimate_ok)
    return {
        "failures": failures,
        "missed_ops": missed_ops,
        "misses": misses,
        "digits": digits,
        "estimate_ok": estimate_ok,
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(phase: dict, kind: str, setup: dict, normalise: bool) -> dict:
    """Throughput, latency percentiles and set-up time.

    With `normalise`, latencies are divided by the host slowdown probed during
    the timed phase and set-up times by the one probed before each set-up
    process (see speed.py).
    """
    factor = speed.slowdown(phase["speed"], kind) if normalise else 1.0
    setup_factor = speed.slowdown(setup["speed"], "python") if normalise else 1.0
    ms = [t * 1e3 / factor for t in phase["latency"]]
    n = len(ms)
    out = {
        "ops_per_s": (n * 1e3 / sum(ms), "1/s", n),
        "op_ms.p50": (percentile(ms, 50), "ms", n),
        "op_ms.p90": (percentile(ms, 90), "ms", n),
        "setup_s": (statistics.median(setup["seconds"]) / setup_factor, "s", len(setup["seconds"])),
    }
    if n >= 1000:  # ten samples beyond the 99th percentile
        out["op_ms.p99"] = (percentile(ms, 99), "ms", n)
    return out


def end_to_end(phase: dict, kind: str, setup: dict, rss_kb: int, checked: dict, attempted: int):
    """Gated and reported end-to-end metrics; `checked` pools the checks of all
    `attempted` ops, the timings come from `phase` alone."""
    if not checked["digits"] or not checked["estimate_ok"]:
        raise BenchmarkError("no op returned a value to check against the reference; run longer")
    measured = timings(phase, kind, setup, normalise=True)
    values = {
        **{name: measured[name] for name in ("ops_per_s", "op_ms.p50", "setup_s")},
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        "accuracy_digits.mean": (statistics.fmean(checked["digits"]), "digits", len(checked["digits"])),
        "estimate_ok_ratio": (
            sum(checked["estimate_ok"]) / len(checked["estimate_ok"]), "ratio", len(checked["estimate_ok"])
        ),
    }
    # reported, not gated: zero on some workloads, or (p90) fewer than ten
    # samples beyond it on the workloads with slow ops
    extra = {
        "op_ms.p90": measured["op_ms.p90"],
        "accuracy_digits.min": (min(checked["digits"]), "digits", len(checked["digits"])),
        "fail_ratio": ((len(checked["failures"]) + len(checked["missed_ops"])) / attempted, "ratio", attempted),
    }
    if "op_ms.p99" in measured:
        extra["op_ms.p99"] = measured["op_ms.p99"]
    # the same timings before dividing by the host slowdown
    raw = {f"raw.{name}": value for name, value in timings(phase, kind, setup, normalise=False).items()}
    return values, {**extra, **raw}


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run prints.  BENCHMARK.json lists
    them without the per-function error counts, which it pools per layer to
    stay within its metric limit."""
    names = []
    for fn in tracing.FUNCTIONS:
        stats = ("calls", "self_s", "work") + (("total_s",) if fn in tracing.CROSS_LAYER else ()) + ("errors",)
        names += [f"{fn}.{stat}" for stat in stats]
    names += [f"{layer}.self_s" for layer in tracing.LAYERS]
    names += [f"{layer}.errors" for layer in tracing.LAYERS]
    names += [
        "exact.table_useful_ratio",
        "import.dirichlet_j_s",
        "import.numpy_s",
        "trace.overhead_ratio",
        "trace.unattributed_s",
        "trace.focus_share",
    ]
    return names


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def per_layer(workload: str, untraced: list[float], traced: list[float], spans: list, imports: dict) -> dict:
    stats = tracing.aggregate(spans)
    out: dict[str, float] = {}
    for fn in tracing.FUNCTIONS:
        entry = stats.get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0, "errors": 0})
        for stat, value in entry.items():
            out[f"{fn}.{stat}"] = value
    for layer in tracing.LAYERS:
        members = [e for name, e in stats.items() if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(e["self_s"] for e in members)
        out[f"{layer}.errors"] = sum(e["errors"] for e in members)
    built = out["exact.euler_numbers.work"] + out["exact.bernoulli_numbers.work"]
    closed = out["special.lambda_even_closed.calls"] + out["special.beta_odd_closed.calls"]
    out["exact.table_useful_ratio"] = closed / built if built else 0.0
    out.update(imports)
    n = min(len(untraced), len(traced))
    out["trace.overhead_ratio"] = sum(traced[:n]) / sum(untraced[:n]) - 1.0 if n else 0.0
    roots = tracing.root_time_by_op(spans)
    out["trace.unattributed_s"] = sum(t - roots.get(i, 0.0) for i, t in enumerate(traced))
    out["trace.focus_share"] = focus_share(workload, out, traced, spans)
    return out


def focus_share(workload: str, m: dict, traced: list[float], spans: list) -> float:
    """Share of the traced ops' time spent where the workload is meant to work."""
    total = sum(traced)
    if not total:
        return 0.0
    if workload == "exact-wide":
        return m["exact.self_s"] / total
    if workload == "numeric-sweep":
        return (m["special.self_s"] + m["jfun.self_s"] + m["exact.PiPoly.evalf.total_s"]) / total
    if workload == "deep-series":
        return (m["identities.fourier_partial.total_s"] + m["linalg.log_tan_series.total_s"]) / total
    # cli-session: interpreter start plus import, as a share of the median op
    imports = {s[tracing.OP]: s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == "import"}
    return statistics.median(imports.get(i, 0.0) / t for i, t in enumerate(traced))


# -- orchestration ----------------------------------------------------------------


def metadata_record(seed: int, imports: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "seed": seed,
        **imports,
    }


def pin_to_one_cpu() -> None:
    """Run the speed probe and every program process on one CPU, so that the
    probe sees the contention the program sees; children inherit this."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "dirichlet_j", "__init__.py")):
        raise BenchmarkError(f"no src/dirichlet_j under {ROOT}: run from the root of a checkout")
    try:
        import mpmath  # noqa: F401
    except ImportError as exc:
        raise BenchmarkError("mpmath (the test extra) is needed for the reference values") from exc


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from oracle import Oracle

    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        imports = import_probe(workdir)
        meta = metadata_record(seed, imports)
        rss_kb: list[int] = []
        # set-up samples before and after the timed phase, as the host speed drifts
        setup_probe = speed.Probe("set-up")
        setup = setup_samples(workload, seed, workdir, SETUP_SAMPLES // 2, setup_probe)
        if workload == "cli-session":
            phases = [cli_phase(seed, seconds / 2 if trace else seconds, workdir, False, rss_kb)]
            if trace:
                phases.append(cli_phase(seed, seconds / 2, workdir, True, rss_kb))
            spans = phases[-1]["spans"] if trace else []
        else:
            result = run_worker(workload, seed, seconds, trace, workdir, False)
            phases = [load_phase(workload, phase) for phase in result["phases"]]
            rss_kb.append(phases[0]["peak_rss_kb"])
            spans = tracing.load(os.path.join(workdir, "spans.json")) if trace else []
        setup += setup_samples(workload, seed, workdir, SETUP_SAMPLES - len(setup), setup_probe)
        oracle = Oracle(os.path.join(HERE, ".cache", "references.json"))
        checked = [check_phase(workload, seed, phase, oracle) for phase in phases]
        oracle.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    merged = {key: [x for c in checked for x in c[key]] for key in checked[0]}
    setup_record = {"seconds": setup, "speed": setup_probe.samples}
    attempted = sum(len(p["latency"]) for p in phases)
    kind = speed.KERNEL.get(workload, "python")
    gated, extra = end_to_end(phases[0], kind, setup_record, max(rss_kb), merged, attempted)
    layers = per_layer(workload, phases[0]["latency"], phases[-1]["latency"], spans, imports) if trace else {}
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "meta": meta,
        "attempted": attempted,
        "failed": len(merged["failures"]),
        "failures": merged["failures"][:50],
        "estimate_misses": len(merged["misses"]),
        "miss_examples": merged["misses"][:20],
        "end_to_end": gated,
        "reported": extra,
        "per_layer": layers,
        "references_computed": oracle.computed,
    }


def print_report(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}: {record['attempted']} ops, closed loop, 1 caller, {record['seconds']:g} s, trace {record['trace']}")
    for name, (value, unit, n) in {**record["end_to_end"], **record["reported"]}.items():
        print(f"  {w:<14} {name:<22} {value:>14.6g} {unit:<7} n={n}")
    print(f"  {w:<14} failed ops {record['failed']}, estimate misses {record['estimate_misses']}")
    for line in record["failures"][:5] + record["miss_examples"][:5]:
        print(f"    {line}")
    if record["per_layer"]:
        for name in per_layer_names():
            print(f"  {w:<14} {name:<40} {record['per_layer'][name]:>14.6g} {_unit(name)}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))


def result_line(record: dict, bench: dict) -> str:
    if record["trace"]:
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {
            m["name"]: {"value": record["end_to_end"][m["name"]][0], "unit": m["unit"]} for m in bench["end_to_end"]
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        pin_to_one_cpu()
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            path = os.path.join(HERE, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print_report(record)
            print(result_line(record, bench), flush=True)
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

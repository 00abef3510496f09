"""Tests of the benchmark itself: seeded op streams, failure accounting,
tracer arithmetic and the names a traced run reports.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from mpmath import mp, mpf

import checks
import run
import tracer as tracing
import workloads
from oracle import Oracle, pipoly_value

from conftest import BENCH, ROOT

OP_COUNTS = {"numeric-sweep": 3000, "exact-wide": 40, "deep-series": 100, "cli-session": 100}


def _ops_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(workloads.first_ops(workload, seed, OP_COUNTS[workload])).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_stream_is_byte_identical_across_runs(workload):
    script = (
        "import json, sys, workloads; "
        f"sys.stdout.write(json.dumps(workloads.first_ops({workload!r}, 7, {OP_COUNTS[workload]})))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    fresh = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=env, capture_output=True, check=True)
    assert fresh.stdout == _ops_bytes(workload, 7) == _ops_bytes(workload, 7)
    assert _ops_bytes(workload, 8) != _ops_bytes(workload, 7)


def test_numeric_sweep_arguments_are_distinct_and_open_with_the_known_defects():
    ops = workloads.first_ops("numeric-sweep", 3, 40000)
    real = [(kind, arg) for kind, arg, bracket in ops if bracket is not None]
    assert len(set(real)) == len(real)
    assert ops[0][:2] == ("lambda_numeric", 1.0 + 1e-7)
    assert [arg for kind, arg, _ in ops if kind == "j_quadrature"][:2] == [18.0, 40.0]
    for kind, arg, bracket in ops:
        if bracket is not None:
            assert bracket[0] <= arg <= bracket[1]


def test_bracketed_references_match_direct_ones():
    ops = [op for op in workloads.first_ops("numeric-sweep", 4, 5000) if op[2] is not None and op[1] != op[2][0]]
    oracle = Oracle()
    fn = {"lambda_numeric": "lambda", "beta_numeric": "beta", "j_quadrature": "J"}
    for kind, arg, (lo, hi) in ops[::97]:
        direct = oracle.value(fn[kind], arg)
        assert abs(oracle.bracketed(fn[kind], lo, hi, arg) - direct) <= abs(direct) * 1e-19


def test_exact_wide_reaches_the_top_of_each_range():
    cycle = len(workloads.EXACT_ENDS["remark1"]) + len(workloads.EXACT_ENDS["collapse"])
    ops = workloads.first_ops("exact-wide", 5, 3 * cycle)
    for start in range(0, len(ops), cycle):
        ends = {(suite, b) for suite, _, b, _ in ops[start : start + cycle]}
        assert {("remark1", 60), ("collapse", 24)} <= ends


# -- failure accounting --------------------------------------------------------------


def _cli_output(argv):
    from dirichlet_j import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return [code, out.getvalue(), ""]


def _first(kind, fmt=None):
    """The first cli-session op of `kind` (and format), skipping the slow
    verify suites and the riemann method, which returns no checked value."""
    for argv, op_kind in workloads.first_ops("cli-session", 0, 200):
        skip = argv[1] in ("all", "lemmas") or argv[-1] == "riemann"
        if op_kind == kind and (fmt is None or argv[-1] == fmt) and not skip:
            return (argv, op_kind)
    raise AssertionError("no such op")


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def test_correct_cli_outputs_pass(oracle):
    for op in (_first("compute"), _first("table", "json"), _first("verify", "csv"), _first("verify", "text")):
        verdict = checks.check_cli(op, _cli_output(op[0]), oracle)
        assert verdict.failure is None, verdict.failure
        # text reports carry pass marks but no values
        assert bool(verdict.digits) == (op[0][-1] != "text")


def test_planted_failures_count_in_fail_ratio(oracle):
    compute = _first("compute")
    verify = _first("verify", "json")
    good_verify = _cli_output(verify[0])
    planted = [
        (compute, [3, "", "convergence failure"]),  # unexpected exit code
        (verify, [0, good_verify[1][:-5], ""]),  # JSON that does not parse
        (verify, [0, good_verify[1].replace('"pass": true', '"pass": false', 1), ""]),  # failed check
    ]
    for op, record in planted:
        assert checks.check_cli(op, record, oracle).failure, record

    # a wrong value with an estimate that does not cover it is an estimate miss
    kind, arg, bracket = op = workloads.first_ops("numeric-sweep", 1, 2)[1]
    assert kind == "beta_numeric"
    wrong = float(oracle.bracketed("beta", bracket[0], bracket[1], arg)) * (1 + 1e-9)
    verdict = checks.check_numeric(op, [wrong, 1e-15, 10, None], oracle)
    assert verdict.failure is None and verdict.misses

    # through the per-run accounting: 2 failed ops and 1 miss out of 4 ops
    import dirichlet_j

    kind, arg, _ = workloads.first_ops("numeric-sweep", 1, 4)[3]
    good = getattr(dirichlet_j, kind)(arg)
    records = [
        [float("nan"), 1e-15, 10, None],  # non-finite value
        [wrong, 1e-15, 10, None],  # planted wrong value
        [None, None, None, "ValueError('boom')"],  # raised
        [good.value, good.error_estimate, good.work, None],
    ]
    checked = run.check_phase("numeric-sweep", 1, {"records": records}, oracle)
    assert len(checked["failures"]) == 2 and checked["missed_ops"] == [1]
    phase = {"latency": [1e-3] * 4, "speed": [1e-3]}
    _, extra = run.end_to_end(phase, "python", {"seconds": [0.1], "speed": [1e-3]}, 1024, checked, 4)
    assert extra["fail_ratio"][0] == pytest.approx(3 / 4)


def test_exact_report_values_are_checked(oracle):
    op = ("collapse", 3, 4, "json")
    code, text, _ = _cli_output(["verify", "collapse", "--range", "3..4", "--format", "json"])
    verdict = checks.check_exact(op, [code, text, None], oracle)
    assert verdict.failure is None and not verdict.misses
    # an exact side that is off in one coefficient is an estimate miss
    rows = json.loads(text)
    odd = next(r for r in rows if r["params"][1] % 2)
    coeff, rest = odd["lhs"].split("*", 1)
    odd["lhs"] = f"{coeff}1*{rest}"
    verdict = checks.check_exact(op, [0, json.dumps(rows), None], oracle)
    assert verdict.misses


# -- tracer -----------------------------------------------------------------------------


def test_tracer_self_times_are_exact_on_a_nested_call():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("toy.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("toy.outer", body)
    tracer.op = 7
    outer()
    # outer 0..5 holds inner 1..2 and 3..4
    stats = tracing.aggregate(tracer.spans)
    assert stats["toy.outer"] == {"calls": 1, "self_s": 3, "total_s": 5, "work": 0, "errors": 0}
    assert stats["toy.inner"] == {"calls": 2, "self_s": 2, "total_s": 2, "work": 0, "errors": 0}
    assert tracing.root_time_by_op(tracer.spans) == {7: 5}


def test_tracer_counts_errors_and_rebases_merged_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("planted")

    wrapped = tracer.wrap("toy.fail", fail)
    with pytest.raises(ValueError):
        wrapped()
    merged = [["other.root", 0, 10, -1, 0, 0, 0]]
    tracing.extend(merged, [["a", 0, 4, -1, 1, 0, 0], ["b", 1, 2, 0, 1, 0, 0]])
    assert merged[2][tracing.PARENT] == 1
    assert tracing.aggregate(tracer.spans)["toy.fail"]["errors"] == 1
    assert tracing.aggregate(merged)["a"]["self_s"] == 3


def test_install_rebinds_every_module_global():
    script = """
import dirichlet_j, tracer as t
from dirichlet_j import exact, special
tr = t.Tracer()
t.install(tr)
assert special.bernoulli_numbers is exact.bernoulli_numbers is dirichlet_j.bernoulli_numbers
assert special.bernoulli_numbers.__wrapped__ is not None
special.lambda_even_closed(3).evalf()
names = [s[0] for s in tr.spans]
assert names[:2] == ["special.lambda_even_closed", "exact.bernoulli_numbers"], names
assert "exact.PiPoly.evalf" in names and "exact.pi_fraction" in names, names
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "ok", done.stderr


# -- oracle -------------------------------------------------------------------------------


def test_oracle_routes_agree_with_closed_forms(oracle):
    assert abs(oracle.value("lambda", 2.0) - mp.pi**2 / 8) < mpf(10) ** -32
    assert abs(oracle.value("beta", 3.0) - mp.pi**3 / 32) < mpf(10) ** -32
    # at the float nearest pi/2 the sine series of order 3 is beta(3) to first order
    assert abs(oracle.value("sine", 3, float(mp.pi / 2)) - mp.pi**3 / 32) < mpf(10) ** -15
    assert abs(pipoly_value("1/2*pi - 3/4*pi^3 + 5") - (mp.pi / 2 - 3 * mp.pi**3 / 4 + 5)) < mpf(10) ** -32
    # J(1) = (2/pi) * integral_0^{pi/2} x / sin x dx = (2/pi) * 2 Catalan
    assert abs(oracle.value("J", 1.0) - 4 * mp.catalan / mp.pi) < mpf(10) ** -30


# -- end to end ------------------------------------------------------------------------


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_name(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result_line(done.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in bench["per_layer"]]
    with open(os.path.join(BENCH, "results", f"{workload}-seed3-trace1.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert set(run.per_layer_names()) <= set(record["per_layer"])
    for name in run.per_layer_names():
        assert f"{name} " in done.stdout


def test_untraced_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-series", "--seed", "2", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    result = _result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for metric in bench["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    for name in ("fail_ratio", "accuracy_digits.min", "op_ms.p50", "import.numpy_s", "git_sha"):
        assert name in done.stdout


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".cache", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Per-op verdicts: parse what the program produced and compare every value
with the independent reference.

An op *fails* when it raises, exits with an unexpected code, prints JSON or
CSV that does not parse, reports a failed check, or returns a value that is
missing or not finite.  Separately, every returned value is scored:

* its correct significant digits against the reference (capped at 17);
* whether it lies within its own error estimate of the reference (an
  *estimate miss* otherwise).  Exact values must match the reference to its
  precision; values printed without an estimate claim the requested digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

from mpmath import mpf

from oracle import Oracle, compare, exact_tolerance, pipoly_value, remark1_value

EXACT = "exact"
CLAIMED_DIGITS = 15  # the CLI's default --digits
NUMERIC_TOL = 1e-10  # the CLI's default verify --tol
FOURIER_TOL = 1e-5  # check_fourier's tolerance in the CLI suites
LEMMA7_TOL = 1e-3  # lemma7 tolerance without --deep
DEEP_LEMMA7_TOL = 1e-5  # lemma7 tolerance with --deep


@dataclass
class Verdict:
    failure: str | None = None
    digits: list[float] = field(default_factory=list)
    estimate_ok: list[bool] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason

    def score(self, value, ref, estimate, label: str = "") -> None:
        """Score one value; estimate is an absolute bound, EXACT, or None (digits only)."""
        if isinstance(value, float) and not math.isfinite(value):
            self.fail(f"non-finite value {value} {label}")
            return
        err, digits = compare(value, ref)
        self.digits.append(digits)
        if estimate is None:
            return
        bound = exact_tolerance(ref) if estimate == EXACT else estimate
        ok = err <= bound
        self.estimate_ok.append(ok)
        if not ok:
            self.misses.append(f"{label} error {err:.3g} > estimate {bound:.3g}")


# -- in-process library calls -------------------------------------------------

_NUMERIC_REF = {
    "lambda_numeric": ("lambda", lambda n: n),
    "beta_numeric": ("beta", lambda n: n),
    "j_quadrature": ("J", lambda n: n),
    "j_euler_series": ("J", lambda n: n),
    "j_closed_odd": ("J", lambda n: 2 * n - 1),
    "j_closed_even": ("J", lambda n: 2 * n),
}


def check_numeric(op: tuple, record: list, oracle: Oracle) -> Verdict:
    """op = (function, argument, bracket); record = [value, error_estimate, work, error]."""
    kind, arg, bracket = op
    value, estimate, _work, error = record
    verdict = Verdict()
    if error is not None:
        verdict.fail(f"{kind}({arg!r}) raised {error}")
        return verdict
    fn, order = _NUMERIC_REF[kind]
    if bracket is None:
        ref = oracle.value(fn, float(order(arg)))
    else:
        ref = oracle.bracketed(fn, bracket[0], bracket[1], arg)
    verdict.score(value, ref, estimate, f"{kind}({arg!r})")
    return verdict


def check_deep(op: tuple, record: list, oracle: Oracle) -> Verdict:
    """op = (kind, m, x); record = [lhs, rhs, passed, error] (rhs, passed None for log_tan)."""
    kind, m, x = op
    lhs, rhs, passed, error = record
    verdict = Verdict()
    if error is not None:
        verdict.fail(f"{kind} m={m} x={x!r} raised {error}")
        return verdict
    if kind == "log_tan":
        verdict.score(lhs, oracle.value("log_tan", x), DEEP_LEMMA7_TOL, f"log_tan_series({x!r})")
        return verdict
    if not passed:
        verdict.fail(f"check_fourier({kind}, {m}, {x!r}) reported failed")
    order = 2 * m + 1 if kind == "sine" else 2 * m
    ref = oracle.value(kind, order, x)
    verdict.score(lhs, ref, FOURIER_TOL, f"fourier_partial({kind}, {order}, {x!r})")
    verdict.score(rhs, ref, None, f"fourier_closed({kind}, {m}, {x!r})")
    return verdict


# -- identity reports (verify) ----------------------------------------------


def _identity_reference(ident: str, params: list[int], oracle: Oracle):
    """(reference, estimate) for one report row, or None where the row's sides
    are not values of a known function (random trig sums, matrix residuals)."""
    if ident == "thm1":
        return oracle.value("lambda", float(2 * params[0] + 1)), NUMERIC_TOL
    if ident == "thm2":
        return oracle.value("beta", float(2 * params[0])), NUMERIC_TOL
    if ident == "thm4_odd":
        return oracle.value("J", float(2 * params[0] - 1)), NUMERIC_TOL
    if ident == "thm4_even":
        return oracle.value("J", float(2 * params[0])), NUMERIC_TOL
    if ident in ("remark1_a", "remark1_b"):
        return remark1_value(ident, params[0]), EXACT
    if ident == "collapse":
        m, q = params
        if q % 2 == 0:
            return mpf(0), EXACT
        k = (q + 1) // 2
        return (-1) ** (k - 1) * oracle.value("beta", float(2 * m - 2 * k + 1)), EXACT
    if ident == "eq_a2":
        return oracle.value("sine", 3, params[1] * (math.pi / 2) / 15), FOURIER_TOL
    if ident in ("eq_a3", "eq_a4"):
        m, idx = params
        kind, order = ("sine", 2 * m + 1) if ident == "eq_a3" else ("cosine", 2 * m)
        return oracle.value(kind, order, idx * math.pi / 8), FOURIER_TOL
    if ident == "lemma7":
        return oracle.value("log_tan", (1.0, math.pi / 3)[params[0]]), LEMMA7_TOL
    return None


def _check_rows(rows: list[dict], oracle: Oracle, verdict: Verdict) -> None:
    if not rows:
        verdict.fail("empty report")
    for row in rows:
        label = f"{row['identity_id']}{tuple(row['params'])}"
        if not row["pass"]:
            verdict.fail(f"{label} reported failed")
        found = _identity_reference(row["identity_id"], row["params"], oracle)
        if found is None:
            continue
        reference, estimate = found
        for side in ("lhs", "rhs"):
            value = pipoly_value(row[side]) if row["exact"] else row[side]
            verdict.score(value, reference, estimate, f"{label} {side}")


def _rows_from_json(text: str) -> list[dict]:
    rows = json.loads(text)
    for row in rows:
        if not isinstance(row["pass"], bool) or not isinstance(row["exact"], bool):
            raise ValueError("pass/exact must be booleans")
        for side in ("lhs", "rhs"):
            if not row["exact"] and not isinstance(row[side], (int, float)):
                raise ValueError(f"numeric {side} is not a number")
    return rows


def _rows_from_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    expected = ["identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "pass"]
    if reader.fieldnames != expected:
        raise ValueError(f"csv header {reader.fieldnames}")
    rows = []
    for raw in reader:
        exact = {"true": True, "false": False}[raw["exact"]]
        rows.append(
            {
                "identity_id": raw["identity_id"],
                "params": [int(p) for p in raw["params"].split(";")],
                "lhs": raw["lhs"] if exact else float(raw["lhs"]),
                "rhs": raw["rhs"] if exact else float(raw["rhs"]),
                "exact": exact,
                "pass": {"true": True, "false": False}[raw["pass"]],
            }
        )
    return rows


_SUMMARY = re.compile(r"^(\d+)/(\d+) passed, max abs_diff = \S+$")


def _check_text_report(text: str, verdict: Verdict) -> None:
    lines = text.splitlines()
    summary = next((m for m in map(_SUMMARY.match, lines) if m), None)
    if summary is None:
        raise ValueError("no summary line")
    passed, total = int(summary.group(1)), int(summary.group(2))
    marks = [line.rstrip()[-1] for line in lines[1:] if line.rstrip().endswith(("✓", "✗"))]
    if total == 0 or len(marks) != total:
        raise ValueError(f"{len(marks)} rows for {total} checks")
    if passed != total or marks.count("✓") != total:
        verdict.fail(f"{total - passed} of {total} checks reported failed")


def check_report(text: str, fmt: str, oracle: Oracle, verdict: Verdict) -> None:
    """Parse a verify report in `fmt` and check each row."""
    try:
        if fmt == "text":
            _check_text_report(text, verdict)
            return
        rows = _rows_from_json(text) if fmt == "json" else _rows_from_csv(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.fail(f"unparsable {fmt} report: {exc}")
        return
    _check_rows(rows, oracle, verdict)


def check_exact(op: tuple, record: list, oracle: Oracle) -> Verdict:
    """op = (suite, a, b, format); record = [exit_code, report_text, error]."""
    suite, a, b, fmt = op
    code, text, error = record
    verdict = Verdict()
    if error is not None:
        verdict.fail(f"verify {suite} {a}..{b} raised {error}")
    elif code != 0:
        verdict.fail(f"verify {suite} {a}..{b} exited {code}")
    else:
        check_report(text, fmt, oracle, verdict)
    return verdict


# -- cli-session ------------------------------------------------------------

_COMPUTE = re.compile(r"^\w+\(\S+\) = (\S+)\nmethod: \w+(?:\s+error estimate: (\S+))?(?:\s+work: \d+)?\n$")


def _check_compute(argv: list[str], stdout: str, oracle: Oracle, verdict: Verdict) -> None:
    fn, arg, method = argv[1], float(argv[2]), argv[4]
    match = _COMPUTE.match(stdout)
    try:
        value = float(match.group(1))
        estimate = float(match.group(2)) if match.group(2) else None
    except (AttributeError, ValueError):
        verdict.fail(f"unparsable compute output {stdout!r}")
        return
    if method == "riemann":
        # a diagnostic approximant: the program claims no accuracy for it
        if not math.isfinite(value):
            verdict.fail(f"non-finite riemann value {value}")
        return
    bound = abs(value) * 10.0**-CLAIMED_DIGITS if estimate is None else estimate
    verdict.score(value, oracle.value(fn, arg), bound, " ".join(argv))


def _table_rows(text: str, fmt: str) -> list[tuple[int, float, float]]:
    if fmt == "json":
        return [(int(r["s"]), float(r["value"]), float(r["error_estimate"])) for r in json.loads(text)]
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != ["s", "value", "error_estimate", "method"]:
            raise ValueError(f"csv header {reader.fieldnames}")
        return [(int(r["s"]), float(r["value"]), float(r["error_estimate"])) for r in reader]
    rows = []
    for line in text.splitlines()[1:]:
        s, value, err, _method = line.split()
        rows.append((int(s), float(value), float(err)))
    return rows


def _check_table(argv: list[str], stdout: str, oracle: Oracle, verdict: Verdict) -> None:
    fn, (lo, hi), fmt = argv[1], map(int, argv[3].split("..")), argv[5]
    try:
        rows = _table_rows(stdout, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(f"unparsable {fmt} table: {exc}")
        return
    if [s for s, _, _ in rows] != list(range(lo, hi + 1)):
        verdict.fail(f"table rows {[s for s, _, _ in rows]} for range {lo}..{hi}")
        return
    for s, value, estimate in rows:
        verdict.score(value, oracle.value(fn, float(s)), estimate, f"table {fn} s={s}")


def check_cli(op: tuple, record: list, oracle: Oracle) -> Verdict:
    """op = (argv, kind); record = [exit_code, stdout, stderr]."""
    argv, kind = op
    code, stdout, stderr = record
    verdict = Verdict()
    if code != 0:
        verdict.fail(f"{' '.join(argv)} exited {code}: {stderr.strip()[-200:]}")
        return verdict
    if kind == "compute":
        _check_compute(argv, stdout, oracle, verdict)
    elif kind == "table":
        _check_table(argv, stdout, oracle, verdict)
    else:
        check_report(stdout, argv[argv.index("--format") + 1], oracle, verdict)
    return verdict


CHECKERS = {
    "numeric-sweep": check_numeric,
    "deep-series": check_deep,
    "exact-wide": check_exact,
    "cli-session": check_cli,
}

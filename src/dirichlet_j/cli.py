"""Command-line front end: compute values, run verification suites, emit tables.

Grammar:
  dirichlet-j compute <lambda|beta|J> <arg> [--method M]
  dirichlet-j verify <thm1|thm2|thm4|remark1|collapse|lemmas|fourier|all>
              [--range a..b] [--tol T] [--seed S] [--deep] [--format F] [-o PATH]
  dirichlet-j table <lambda|beta|J> --range a..b [--format F] [-o PATH]

Exit codes: 0 success (verify: all checks passed), 1 failed identity, 2 usage
error or an unwritable -o path or stdout, 3 evaluator convergence failure.
--tol (thm1/thm2/thm4 only) defaults to max(1e-10, 100 x error budget).
`compute lambda|beta --method closed` takes arguments up to CLOSED_MAX = 1000
(the exact forms cost about s^3: 0.3 s at 1000); a larger one is a usage error.
No command takes a precision setting: J by quadrature and by the Euler series
stops on one fixed target, and every other route sums a fixed 24-term series
or rounds an exact form once.
json and csv output go through the stdlib `json` and `csv` modules; json
writes non-finite floats as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from typing import Callable, Sequence

import dirichlet_j as dj  # identities and linalg load through it on first use: on the verify path only

from .jfun import ConvergenceError, j_closed_even, j_closed_odd, j_euler_series, j_quadrature, j_riemann_sum
from .special import beta_numeric, beta_odd_closed, lambda_even_closed, lambda_numeric

__all__ = ["SUITES", "run", "main", "emit_report", "suite_reports", "THM1_NOTE"]

DEFAULT_SEED = 0x5EED
CLOSED_MAX = 1000
_INVOLUTION_SIZES = (1, 2, 4, 8, 16, 32, 64)
_RANDOM_TRIG_CASES = 100
THM1_NOTE = ("note: thm1 is checked in its proof form (J factors inside the sum); "
             "the literal statement form fails numerically.\n")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, tuple):
        return ";".join(str(p) for p in v)
    return v


def _json_cell(v):
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v


def _serialize(fields: tuple[str, ...], rows: list[tuple], format: str) -> str:
    """rows as a JSON array of objects keyed by `fields`, or as CSV under a
    header of `fields`."""
    if format == "json":
        import json

        return json.dumps([dict(zip(fields, map(_json_cell, row))) for row in rows], default=str)
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(map(_csv_cell, row) for row in rows)
    return out.getvalue()


_REPORT_FIELDS = ("identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "pass")


def emit_report(reports: Sequence[dj.IdentityReport], format: str = "text") -> str:
    """Deterministic serialization of identity reports.

    json: one array of objects with keys identity_id, params, lhs, rhs,
    abs_diff, exact, pass; numbers are shortest round-trip floats and the
    non-finite ones the strings "inf", "-inf" and "nan".  csv: a header row
    with the same names, floats with 17 significant digits.  Exact sides
    serialize as pi-monomial strings.
    """
    if format in ("json", "csv"):
        rows = [(r.identity_id, r.params, r.lhs, r.rhs, r.abs_diff, r.exact, r.passed) for r in reports]
        return _serialize(_REPORT_FIELDS, rows, format)

    if format == "text":
        if not reports:
            return "no checks run\n"
        lines = [f"{'identity':<12} {'params':<10} {'abs_diff':>12} {'kind':>8}  status"]
        for r in reports:
            params = ",".join(str(p) for p in r.params)
            kind = "exact" if r.exact else "numeric"
            mark = "✓" if r.passed else "✗"
            lines.append(f"{r.identity_id:<12} {params:<10} {r.abs_diff:>12.3e} {kind:>8}  {mark}")
        n_pass = sum(r.passed for r in reports)
        max_diff = max(r.abs_diff for r in reports)
        lines.append(f"{n_pass}/{len(reports)} passed, max abs_diff = {max_diff:.3e}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like a..b")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range endpoints must be integers") from exc
    if a > b:
        raise argparse.ArgumentTypeError("empty range")
    return a, b


def _m_range(span: tuple[int, int] | None, default_hi: int) -> range:
    lo, hi = span or (1, default_hi)
    return range(lo, hi + 1)


def _lemmas(span, tol, seed, deep) -> list[dj.IdentityReport]:
    import random

    reports = [dj.check_involution(n, kind) for n in _INVOLUTION_SIZES for kind in ("sine", "cosine")]
    rng = random.Random(seed)
    for variant in ("1_cos", "1_sin", "2_altcos"):
        for case in range(_RANDOM_TRIG_CASES):
            n = rng.randint(1, 50)
            x = rng.uniform(0.05, math.pi / 2 - 0.05)
            reports.append(dj.trig_sum_check(variant, n, x, case=case))
    for case, x in enumerate((1.0, math.pi / 3)):
        closed = -0.5 * math.log(math.tan(x / 2.0))
        if deep:  # 1e6 terms: the tail is at most 1/((2e6 + 1) sin x), below 1e-5
            series, log_tol = dj.log_tan_series(x, 10**6), 1e-5
        else:  # the full series; tol adds its estimate and the closed side's rounding
            full = dj.odd_harmonic_series("cosine", 1, x)
            series, log_tol = full.value, full.error_estimate + 4 * math.ulp(1.0 + abs(closed))
        reports.append(dj.IdentityReport("lemma7", (case,), series, closed, tol=log_tol))
    reports.append(dj.csc_taylor_check(8))
    return reports


def _fourier(span, tol, seed, deep) -> list[dj.IdentityReport]:
    terms = 10**6 if deep else None  # None: the full series, at its own error estimate
    reports = []
    for i in range(16):
        x = i * (math.pi / 2) / 15
        reports.append(dj.check_fourier("sine", 1, x, terms, params=(1, i), identity_id="eq_a2"))
    for m in (1, 2, 3):
        for idx in (1, 2, 3, 4):
            x = idx * math.pi / 8
            reports.append(dj.check_fourier("sine", m, x, terms, params=(m, idx)))
            reports.append(dj.check_fourier("cosine", m, x, terms, params=(m, idx)))
    return reports


# Each suite maps (range or None, tol, seed, deep) to its reports; --range
# sets m (or n) for the first five.  lemmas and fourier run fixed points at
# tolerances of their own, so `verify lemmas|fourier` rejects --tol and --range;
# remark1 and collapse are exact, so `verify remark1|collapse` rejects --tol.
_FIXED_SUITES = ("lemmas", "fourier")
_EXACT_SUITES = ("remark1", "collapse")
SUITES: dict[str, Callable[..., list[dj.IdentityReport]]] = {
    "thm1": lambda span, tol, seed, deep: [dj.check_theorem1(m, tol) for m in _m_range(span, 5)],
    "thm2": lambda span, tol, seed, deep: [dj.check_theorem2(m, tol) for m in _m_range(span, 5)],
    "thm4": lambda span, tol, seed, deep: [r for n in _m_range(span, 5) for r in dj.check_theorem4(n, tol)],
    "remark1": lambda span, tol, seed, deep: [r for m in _m_range(span, 20) for r in dj.check_remark1(m)],
    "collapse": lambda span, tol, seed, deep: [r for m in _m_range(span, 8) for r in dj.check_collapse(m)],
    "lemmas": _lemmas,
    "fourier": _fourier,
}


def suite_reports(
    suite: str,
    range: tuple[int, int] | None = None,
    tol: float | None = None,
    seed: int = DEFAULT_SEED,
    deep: bool = False,
) -> list[dj.IdentityReport]:
    """The reports of `verify <suite>` ("all" runs every entry of SUITES),
    sorted by identity id and params."""
    names = SUITES if suite == "all" else (suite,)
    reports = [r for name in names for r in SUITES[name](range, tol, seed, deep)]
    reports.sort(key=lambda r: (r.identity_id, r.params))
    return reports


# ---------------------------------------------------------------------------
# compute / table
# ---------------------------------------------------------------------------


def _parse_arg(text: str) -> float | int:
    value = _checked(text, float, math.isfinite, "argument must be a finite number")
    return int(value) if value.is_integer() else value


def _compute(fn: str, s: float | int, method: str) -> tuple[float, str, float | None, int]:
    """Returns (value, method, error_estimate, work)."""
    if fn != "J":
        odd = fn == "beta"  # the closed forms give lambda(2m) and beta(2m - 1): s = 2m - odd
        numeric, closed = (beta_numeric, beta_odd_closed) if odd else (lambda_numeric, lambda_even_closed)
        if method in ("auto", "series"):
            r = numeric(s)
            return r.value, r.method, r.error_estimate, r.work
        if method != "closed":
            raise ValueError(f"method {method!r} not available for {fn}")
        if not (isinstance(s, int) and s >= 2 - odd and s % 2 == odd):
            raise ValueError(f"closed form for {fn} needs an {'odd' if odd else 'even'} integer argument >= {2 - odd}")
        if s > CLOSED_MAX:
            raise ValueError(f"closed form for {fn} needs an argument <= {CLOSED_MAX}")
        return closed((s + odd) // 2).evalf(), "closed_form", None, 0

    # J
    if method == "riemann":
        n = 10**4
        return j_riemann_sum(s, n), "riemann_sum", None, n
    if method in ("euler_series", "closed") and (not isinstance(s, int) or s < 1):
        raise ValueError(f"{method} method needs an integer argument >= 1")
    if method in ("auto", "quadrature"):
        r = j_quadrature(s)
    elif method == "euler_series":
        r = j_euler_series(s)
    elif method == "closed":
        r = j_closed_odd((s + 1) // 2) if s % 2 else j_closed_even(s // 2)
    else:
        raise ValueError(f"method {method!r} not available for J")
    return r.value, r.method, r.error_estimate, r.work


_TABLE_FIELDS = ("s", "value", "error_estimate", "method")


def _table(fn: str, span: tuple[int, int], format: str) -> str:
    rows = []
    for s in range(span[0], span[1] + 1):
        value, method, err, _ = _compute(fn, s, "auto")
        rows.append((s, value, err, method))
    if format in ("json", "csv"):
        return _serialize(_TABLE_FIELDS, rows, format)
    lines = [f"{'s':>4}  {'value':<22} {'error':>10}  method"]
    lines += [f"{s:>4}  {_fmt_float(v):<22} {e:>10.2e}  {m}" for s, v, e, m in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _checked(text: str, convert: Callable, ok: Callable, message: str):
    """convert(text) if that parses and passes `ok`, else argparse's error
    `message` (a ValueError would make argparse name the function instead)."""
    try:
        value = convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not ok(value):
        raise argparse.ArgumentTypeError(message)
    return value


def positive_float(text: str) -> float:
    return _checked(text, float, lambda v: 0 < v < math.inf, "tol must be a finite number > 0")


def seed_type(text: str) -> int:
    return _checked(text, lambda t: int(t, 0), lambda v: True, "seed must be an integer")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once and reused, since parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dirichlet-j",
        description="Dirichlet lambda/beta values, the integral J(s), and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate lambda, beta, or J at one argument")
    p_compute.add_argument("function", choices=["lambda", "beta", "J"])
    p_compute.add_argument("arg", type=_parse_arg)
    p_compute.add_argument(
        "--method",
        default="auto",
        choices=["auto", "closed", "series", "quadrature", "euler_series", "riemann"],
    )

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.add_argument("--range", type=_parse_range, default=None, metavar="a..b")
    p_verify.add_argument("--tol", type=positive_float, help="thm1/2/4 tolerance (default max(1e-10, 100 x error budget))")
    p_verify.add_argument("--seed", type=seed_type, default=DEFAULT_SEED)
    p_verify.add_argument("--deep", action="store_true", help="full 1e6-term series checks")
    p_verify.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_verify.add_argument("-o", "--output", default=None)

    p_table = sub.add_parser("table", help="tabulate a function over an integer range")
    p_table.add_argument("function", choices=["lambda", "beta", "J"])
    p_table.add_argument("--range", type=_parse_range, required=True, metavar="a..b")
    p_table.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_table.add_argument("-o", "--output", default=None)

    return parser


def _write_out(text: str, path: str | None) -> None:
    """text to `path`, or to stdout ending in a newline.  A failed write is a
    ValueError (exit 2); stdout then goes to devnull, as the Python docs advise
    for SIGPIPE, so the interpreter's exit flush fails no more."""
    try:
        if path is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write {'stdout' if path is None else repr(path)}: {exc.strerror or exc}") from None


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "compute":
            value, method, err, work = _compute(args.function, args.arg, args.method)
            arg = float(args.arg) if abs(args.arg) >= 1e16 else args.arg  # 1e+308, not 309 digits
            line = f"{args.function}({arg}) = {_fmt_float(value)}\n"
            line += f"method: {method}"
            if err is not None:
                line += f"   error estimate: {err:.2e}"
            if work:
                line += f"   work: {work}"
            _write_out(line + "\n", None)
            return 0

        if args.command == "verify":
            if args.suite in _FIXED_SUITES and (args.tol is not None or args.range is not None):
                raise ValueError(f"verify {args.suite} has fixed tolerances and points; it takes no --tol or --range")
            if args.suite in _EXACT_SUITES and args.tol is not None:
                raise ValueError(f"verify {args.suite} is exact (zero tolerance); it takes no --tol")
            reports = suite_reports(args.suite, args.range, args.tol, args.seed, args.deep)
            text = emit_report(reports, args.format)
            if args.suite in ("thm1", "all") and args.format == "text" and args.output is None:
                text += THM1_NOTE
            _write_out(text, args.output)
            return 0 if all(r.passed for r in reports) else 1

        _write_out(_table(args.function, args.range, args.format), args.output)
        return 0

    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())

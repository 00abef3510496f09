"""Command-line front end: compute values, run verification suites, emit tables.

Grammar:
  dirichlet-j compute <lambda|beta|J> <arg> [--method M] [--digits D]
  dirichlet-j verify <thm1|thm2|thm4|remark1|collapse|lemmas|fourier|all>
              [--range a..b] [--tol T] [--seed S] [--deep] [--format F] [-o PATH]
  dirichlet-j table <lambda|beta|J> --range a..b [--format F] [-o PATH]

Exit codes: 0 success (verify: all checks passed), 1 failed identity,
2 usage error, 3 evaluator convergence failure.
The environment variable DIRICHLET_J_DIGITS overrides the default digits (15).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from .exact import PiPoly
from .identities import (
    IdentityReport,
    check_collapse,
    check_fourier,
    check_remark1,
    check_theorem1,
    check_theorem2,
    check_theorem4,
    fourier_closed,
)
from .jfun import (
    ConvergenceError,
    QuadratureConfig,
    j_closed_even,
    j_closed_odd,
    j_euler_series,
    j_quadrature,
    j_riemann_sum,
)
from .linalg import check_involution, csc_taylor_check, log_tan_series, trig_sum_check
from .special import beta_numeric, beta_odd_closed, lambda_even_closed, lambda_numeric

__all__ = ["RunConfig", "run", "main", "emit_report", "suite_reports", "THM1_NOTE"]

DEFAULT_SEED = 0x5EED
DEFAULT_DIGITS = 15
_INVOLUTION_SIZES = (1, 2, 4, 8, 16, 32, 64)
_RANDOM_TRIG_CASES = 100
THM1_NOTE = ("note: thm1 is checked in its proof form (J factors inside the sum); "
             "the literal statement form fails numerically.\n")


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; range applies to verify/table only."""

    command: str
    function: str | None = None
    method: str = "auto"
    s_or_m: float | int | None = None
    suite: str | None = None
    range: tuple[int, int] | None = None
    digits: int = DEFAULT_DIGITS
    tol: float = 1e-10
    seed: int = DEFAULT_SEED
    deep: bool = False
    format: str = "text"
    output_path: str | None = None

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError("digits must be >= 15")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.range is not None and self.command == "compute":
            raise ValueError("range is only valid with verify/table")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    common = dict(command=args.command, format=getattr(args, "format", "text"))
    if args.command == "compute":
        return RunConfig(function=args.function, method=args.method, s_or_m=args.arg,
                         digits=args.digits, **common)
    if args.command == "verify":
        return RunConfig(suite=args.suite, range=args.range, tol=args.tol, seed=args.seed,
                         deep=args.deep, output_path=args.output, **common)
    return RunConfig(function=args.function, range=args.range, digits=args.digits,
                     output_path=args.output, **common)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _side_json(side) -> str:
    if isinstance(side, PiPoly):
        return '"' + str(side) + '"'
    return _fmt_float(side)


def _side_text(side) -> str:
    if isinstance(side, PiPoly):
        return str(side)
    return _fmt_float(side)


def emit_report(reports: Sequence[IdentityReport], format: str = "text") -> str:
    """Deterministic serialization of identity reports.

    json: array of objects with keys identity_id, params, lhs, rhs, abs_diff,
    exact, pass; csv: header row with the same names; floats rendered with 17
    significant digits.  Exact sides serialize as pi-polynomial strings.
    """
    if format == "json":
        rows = []
        for r in reports:
            rows.append(
                "{"
                + f'"identity_id": "{r.identity_id}", '
                + f'"params": [{", ".join(str(p) for p in r.params)}], '
                + f'"lhs": {_side_json(r.lhs)}, '
                + f'"rhs": {_side_json(r.rhs)}, '
                + f'"abs_diff": {_fmt_float(r.abs_diff)}, '
                + f'"exact": {"true" if r.exact else "false"}, '
                + f'"pass": {"true" if r.passed else "false"}'
                + "}"
            )
        if not rows:
            return "[]"
        return "[\n  " + ",\n  ".join(rows) + "\n]"

    if format == "csv":
        lines = ["identity_id,params,lhs,rhs,abs_diff,exact,pass"]
        for r in reports:
            params = ";".join(str(p) for p in r.params)
            lhs = _side_text(r.lhs).replace(",", ";")
            rhs = _side_text(r.rhs).replace(",", ";")
            lines.append(
                f"{r.identity_id},{params},{lhs},{rhs},"
                f"{_fmt_float(r.abs_diff)},{'true' if r.exact else 'false'},"
                f"{'true' if r.passed else 'false'}"
            )
        return "\n".join(lines) + "\n"

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


def suite_reports(cfg: RunConfig) -> list[IdentityReport]:
    """The reports of `verify cfg.suite`, sorted by identity id and params."""
    suite = cfg.suite
    tol = cfg.tol
    reports: list[IdentityReport] = []

    def mrange(default_hi: int, default_lo: int = 1):
        lo, hi = cfg.range if cfg.range else (default_lo, default_hi)
        return range(lo, hi + 1)

    if suite in ("thm1", "all"):
        reports += [check_theorem1(m, tol) for m in mrange(5)]
    if suite in ("thm2", "all"):
        reports += [check_theorem2(m, tol) for m in mrange(5)]
    if suite in ("thm4", "all"):
        for n in mrange(5):
            reports += list(check_theorem4(n, tol))
    if suite in ("remark1", "all"):
        for m in mrange(20):
            reports += list(check_remark1(m))
    if suite in ("collapse", "all"):
        for m in mrange(8):
            reports += check_collapse(m)
    if suite in ("lemmas", "all"):
        for n in _INVOLUTION_SIZES:
            reports.append(check_involution(n, "sine"))
            reports.append(check_involution(n, "cosine"))
        rng = random.Random(cfg.seed)
        for variant in ("1_cos", "1_sin", "2_altcos"):
            for case in range(_RANDOM_TRIG_CASES):
                n = rng.randint(1, 50)
                x = rng.uniform(0.05, math.pi / 2 - 0.05)
                reports.append(trig_sum_check(variant, n, x, case=case))
        terms = 10**6 if cfg.deep else 10**4
        log_tol = 1e-5 if cfg.deep else 1e-3
        for case, x in enumerate((1.0, math.pi / 3)):
            partial = log_tan_series(x, terms)
            closed = -0.5 * math.log(math.tan(x / 2.0))
            diff = abs(partial - closed)
            reports.append(
                IdentityReport(
                    "lemma7", (case,), partial, closed, diff, exact=False,
                    passed=diff <= log_tol, tol=log_tol,
                )
            )
        reports.append(csc_taylor_check(8))
    if suite in ("fourier", "all"):
        terms = 10**6 if cfg.deep else 2 * 10**4
        for i in range(16):
            x = i * (math.pi / 2) / 15
            reports.append(
                check_fourier("sine", 1, x, terms, tol=1e-5, params=(1, i), identity_id="eq_a2")
            )
        for m in (1, 2, 3):
            for idx in (1, 2, 3, 4):
                x = idx * math.pi / 8
                reports.append(check_fourier("sine", m, x, terms, tol=1e-5, params=(m, idx)))
                reports.append(check_fourier("cosine", m, x, terms, tol=1e-5, params=(m, idx)))

    reports.sort(key=lambda r: (r.identity_id, r.params))
    return reports


# ---------------------------------------------------------------------------
# compute / table
# ---------------------------------------------------------------------------


def _parse_arg(text: str) -> float | int:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("argument must be a finite number")
    return int(value) if value.is_integer() else value


def _compute(cfg: RunConfig) -> tuple[float, str, float | None, int]:
    """Returns (value, method, error_estimate, work)."""
    fn, s, method, digits = cfg.function, cfg.s_or_m, cfg.method, cfg.digits

    if fn == "lambda":
        if method in ("auto", "series"):
            r = lambda_numeric(s, digits)
            return r.value, r.method, r.error_estimate, r.work
        if method == "closed":
            if isinstance(s, int) and s >= 2 and s % 2 == 0:
                return lambda_even_closed(s // 2).evalf(digits), "closed_form", None, 0
            raise SystemExit2("closed form for lambda needs an even integer argument >= 2")
        raise SystemExit2(f"method {method!r} not available for lambda")

    if fn == "beta":
        if method in ("auto", "series"):
            r = beta_numeric(s, digits)
            return r.value, r.method, r.error_estimate, r.work
        if method == "closed":
            if isinstance(s, int) and s >= 1 and s % 2 == 1:
                return beta_odd_closed((s + 1) // 2).evalf(digits), "closed_form", None, 0
            raise SystemExit2("closed form for beta needs an odd integer argument >= 1")
        raise SystemExit2(f"method {method!r} not available for beta")

    # J
    if method in ("auto", "quadrature"):
        r = j_quadrature(s, QuadratureConfig(target_abs_tol=10.0 ** (1 - digits)))
        return r.value, r.method, r.error_estimate, r.work
    if method == "euler_series":
        if not isinstance(s, int) or s < 1:
            raise SystemExit2("euler_series method needs an integer argument >= 1")
        r = j_euler_series(s, abs_tol=10.0 ** (1 - digits))
        return r.value, r.method, r.error_estimate, r.work
    if method == "closed":
        if not isinstance(s, int) or s < 1:
            raise SystemExit2("closed method needs an integer argument >= 1")
        r = j_closed_odd((s + 1) // 2, digits) if s % 2 else j_closed_even(s // 2, digits)
        return r.value, r.method, r.error_estimate, r.work
    if method == "riemann":
        n = 10**4
        return j_riemann_sum(s, n), "riemann_sum", None, n
    raise SystemExit2(f"method {method!r} not available for J")


def _table(cfg: RunConfig) -> str:
    lo, hi = cfg.range
    rows = []
    for s in range(lo, hi + 1):
        if cfg.function == "lambda":
            r = lambda_numeric(s, cfg.digits)
        elif cfg.function == "beta":
            r = beta_numeric(s, cfg.digits)
        else:
            r = j_quadrature(s, QuadratureConfig(target_abs_tol=10.0 ** (1 - cfg.digits)))
        rows.append((s, r.value, r.error_estimate, r.method))

    if cfg.format == "json":
        body = ",\n  ".join(
            "{"
            + f'"s": {s}, "value": {_fmt_float(v)}, '
            + f'"error_estimate": {_fmt_float(e)}, "method": "{m}"'
            + "}"
            for s, v, e, m in rows
        )
        return "[\n  " + body + "\n]" if rows else "[]"
    if cfg.format == "csv":
        lines = ["s,value,error_estimate,method"]
        lines += [f"{s},{_fmt_float(v)},{_fmt_float(e)},{m}" for s, v, e, m in rows]
        return "\n".join(lines) + "\n"
    lines = [f"{'s':>4}  {'value':<22} {'error':>10}  method"]
    lines += [f"{s:>4}  {_fmt_float(v):<22} {e:>10.2e}  {m}" for s, v, e, m in rows]
    return "\n".join(lines) + "\n"


class SystemExit2(Exception):
    """Usage error discovered after argparse; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser(default_digits: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-j",
        description="Dirichlet lambda/beta values, the integral J(s), and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def digits_type(text: str) -> int:
        value = int(text)
        if value < 15:
            raise argparse.ArgumentTypeError("digits must be >= 15")
        return value

    p_compute = sub.add_parser("compute", help="evaluate lambda, beta, or J at one argument")
    p_compute.add_argument("function", choices=["lambda", "beta", "J"])
    p_compute.add_argument("arg", type=_parse_arg)
    p_compute.add_argument(
        "--method",
        default="auto",
        choices=["auto", "closed", "series", "quadrature", "euler_series", "riemann"],
    )
    p_compute.add_argument("--digits", type=digits_type, default=default_digits)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "suite",
        choices=["thm1", "thm2", "thm4", "remark1", "collapse", "lemmas", "fourier", "all"],
    )
    p_verify.add_argument("--range", type=_parse_range, default=None, metavar="a..b")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--seed", type=lambda t: int(t, 0), default=DEFAULT_SEED)
    p_verify.add_argument("--deep", action="store_true", help="full 1e6-term series checks")
    p_verify.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_verify.add_argument("-o", "--output", default=None)

    p_table = sub.add_parser("table", help="tabulate a function over an integer range")
    p_table.add_argument("function", choices=["lambda", "beta", "J"])
    p_table.add_argument("--range", type=_parse_range, required=True, metavar="a..b")
    p_table.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_table.add_argument("--digits", type=digits_type, default=default_digits)
    p_table.add_argument("-o", "--output", default=None)

    return parser


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv: Sequence[str] | None = None) -> int:
    env_digits = os.environ.get("DIRICHLET_J_DIGITS")
    try:
        default_digits = int(env_digits) if env_digits else DEFAULT_DIGITS
    except ValueError:
        sys.stderr.write(f"invalid DIRICHLET_J_DIGITS={env_digits!r}\n")
        return 2
    parser = _build_parser(default_digits)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        cfg = _config_from_args(args)
        if cfg.command == "compute":
            value, method, err, work = _compute(cfg)
            line = f"{cfg.function}({cfg.s_or_m}) = {_fmt_float(value)}\n"
            line += f"method: {method}"
            if err is not None:
                line += f"   error estimate: {err:.2e}"
            if work:
                line += f"   work: {work}"
            _write_out(line + "\n", None)
            return 0

        if cfg.command == "verify":
            reports = suite_reports(cfg)
            _write_out(emit_report(reports, cfg.format), cfg.output_path)
            if cfg.suite in ("thm1", "all") and cfg.format == "text" and cfg.output_path is None:
                sys.stdout.write(THM1_NOTE)
            return 0 if all(r.passed for r in reports) else 1

        # table
        _write_out(_table(cfg), cfg.output_path)
        return 0

    except SystemExit2 as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())

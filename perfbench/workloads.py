"""Seeded op streams for the four benchmark workloads.

Each stream is an infinite, deterministic function of (workload, seed): the
program process and the checking process regenerate the same ops on their
own, so only the seed crosses the process boundary.

An op is a plain tuple of JSON-serialisable values:

* numeric-sweep: (function, argument, bracket).  Real arguments are drawn as
  a pool centre plus a fresh offset inside a narrow bracket, so no argument
  repeats within a run while the reference is computed only at the bracket
  ends (see Oracle.bracketed).  Integer arguments
  cycle through their domain; bracket is None for them.
* exact-wide:    (suite, a, b, format) for `verify <suite> --range a..b`.
* deep-series:   ("sine" | "cosine", m, x) for check_fourier, or
                 ("log_tan", 0, x) for log_tan_series.
* cli-session:   (argv, kind), argv being the arguments after
                 `python -m dirichlet_j`.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

WORKLOADS = ("cli-session", "exact-wide", "numeric-sweep", "deep-series")

# -- numeric-sweep ----------------------------------------------------------

NUMERIC_KINDS = (
    "lambda_numeric",
    "beta_numeric",
    "j_quadrature",
    "j_euler_series",
    "j_closed_odd",
    "j_closed_even",
)
POOL = 96
BRACKET = 1e-10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
J_MAX = 40  # matches `table J --range 1..40`
# Fixed arguments that open every run, so the known defects always show:
# lambda(1 + 1e-7) misses its own error estimate, and J(18), J(40) from
# quadrature are 2.4% and 7.0% off while inside their absolute estimates.
LAMBDA_ANCHORS = (1.0 + 1e-7,)
J_ANCHORS = (18.0, 40.0)

# -- exact-wide -------------------------------------------------------------

# Cost model of one `m` of each exact suite on the commit that defined the
# benchmark: ms(m) = TOP_MS * (m / TOP_M) ** 2.7.  Windows a..b are grown
# downwards from b until they would exceed OP_BUDGET_MS, so every op costs
# roughly the same and the latency percentiles are steady.  The model is
# fixed: it never adapts to the speed of the program under test.
EXACT_SUITES = {"remark1": (60, 484.0), "collapse": (24, 326.0)}
EXACT_ENDS = {"remark1": (30, 40, 50, 60), "collapse": (16, 20, 24)}
OP_BUDGET_MS = 500.0
FORMATS = ("text", "json", "csv")

# -- deep-series ------------------------------------------------------------

DEEP_TERMS = 10**6
DEEP_KINDS = (("sine", 1), ("sine", 2), ("sine", 3), ("cosine", 1), ("cosine", 2), ("cosine", 3), ("log_tan", 0))
FOURIER_X = (0.0, math.pi / 2)  # the fourier suite's interval
LOG_TAN_X = (0.05, math.pi / 2 - 0.05)  # the lemmas suite's interval
STRATA = 16


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


def _stratified(rng: random.Random, lo: float, hi: float, count: int, log: bool) -> list[float]:
    """One point from each of `count` equal strata of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    points = [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]
    rng.shuffle(points)
    return [math.exp(p) for p in points] if log else points


def _cycle_shuffled(rng: random.Random, items) -> Iterator:
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _numeric(seed: int) -> Iterator[tuple]:
    rng = _rng("numeric-sweep", seed, "pools")
    # lambda: s - 1 log-uniform over [1e-7, 39]; beta and J: s log-uniform over [0.05, 40]
    lam = [1.0 + d for d in _stratified(rng, 1e-7, J_MAX - 1.0, POOL, log=True)]
    lam[: len(LAMBDA_ANCHORS)] = LAMBDA_ANCHORS
    beta = _stratified(rng, 0.05, J_MAX, POOL, log=True)
    jq = _stratified(rng, 0.05, J_MAX, POOL, log=True)
    jq[: len(J_ANCHORS)] = J_ANCHORS
    pools = {"lambda_numeric": lam, "beta_numeric": beta, "j_quadrature": jq}
    integers = {
        "j_euler_series": _cycle_shuffled(_rng("numeric-sweep", seed, "euler"), range(1, J_MAX + 1)),
        "j_closed_odd": _cycle_shuffled(_rng("numeric-sweep", seed, "odd"), range(1, J_MAX // 2 + 1)),
        "j_closed_even": _cycle_shuffled(_rng("numeric-sweep", seed, "even"), range(1, J_MAX // 2 + 1)),
    }
    phase = _rng("numeric-sweep", seed, "offsets").random()
    for cycle in itertools.count():
        # the k-th visit of a centre sits at frac(phase + k * golden ratio) of
        # its bracket: these never coincide, unlike random draws
        visit = cycle // POOL
        u = (phase + visit * GOLDEN) % 1.0 if visit else 0.0
        for kind in NUMERIC_KINDS:
            if kind in pools:
                centre = pools[kind][cycle % POOL]
                # J has a pole at 0; near it the bracket narrows with s
                width = BRACKET * (1.0 if kind == "lambda_numeric" else min(centre, 1.0))
                yield (kind, centre + u * width, (centre, centre + width))
            else:
                yield (kind, next(integers[kind]), None)


def _exact_window(suite: str, b: int) -> int:
    top_m, top_ms = EXACT_SUITES[suite]

    def cost(m: int) -> float:
        return top_ms * (m / top_m) ** 2.7

    a, total = b, cost(b)
    while a > 1 and total + cost(a - 1) <= OP_BUDGET_MS:
        a -= 1
        total += cost(a)
    return a


def _exact(seed: int) -> Iterator[tuple]:
    rng = _rng("exact-wide", seed, "ops")
    # json first: a text report carries pass marks but no values to check
    formats = itertools.cycle(("json", "csv", "text"))
    while True:
        # every cycle holds the same windows up to a jitter of the lower ends
        # b, so runs on different seeds carry the same mix of op costs; the
        # top of each range (m = 60, m = 24) is in every cycle
        ends = [(suite, b - (0 if b == top else rng.randint(0, 2))) for suite, (top, _) in EXACT_SUITES.items()
                for b in EXACT_ENDS[suite]]
        rng.shuffle(ends)
        for suite, b in ends:
            yield (suite, _exact_window(suite, b), b, next(formats))


def _deep(seed: int) -> Iterator[tuple]:
    rng = _rng("deep-series", seed, "x")
    xs = {kind: iter(()) for kind in DEEP_KINDS}
    while True:
        for kind in DEEP_KINDS:
            x = next(xs[kind], None)
            if x is None:
                lo, hi = LOG_TAN_X if kind[0] == "log_tan" else FOURIER_X
                xs[kind] = iter(_stratified(rng, lo, hi, STRATA, log=False))
                x = next(xs[kind])
            yield (kind[0], kind[1], x)


# compute variants: (function, method, argument domain)
COMPUTE_VARIANTS = (
    ("lambda", "auto", "lambda_real"),
    ("lambda", "series", "lambda_real"),
    ("lambda", "closed", "even"),
    ("beta", "auto", "real"),
    ("beta", "series", "real"),
    ("beta", "closed", "odd"),
    ("J", "auto", "real"),
    ("J", "quadrature", "real"),
    ("J", "euler_series", "int"),
    ("J", "closed", "int"),
    ("J", "riemann", "real"),
)
VERIFY_SUITES = ("thm1", "thm2", "thm4", "lemmas", "fourier", "all")
TABLE_FUNCTIONS = ("lambda", "beta", "J")
# every other op is a compute, then verify and table alternate
CLI_PATTERN = ("compute", "verify", "compute", "table")


def _cli_argument(rng: random.Random, domain: str) -> str:
    if domain == "lambda_real":
        return repr(1.0 + math.exp(rng.uniform(math.log(1e-7), math.log(J_MAX - 1.0))))
    if domain == "real":
        return repr(math.exp(rng.uniform(math.log(0.05), math.log(J_MAX))))
    if domain == "even":
        return str(2 * rng.randint(1, J_MAX // 2))
    if domain == "odd":
        return str(2 * rng.randint(1, J_MAX // 2) - 1)
    return str(rng.randint(1, J_MAX))


def _cli(seed: int) -> Iterator[tuple]:
    rng = _rng("cli-session", seed, "args")
    computes = _cycle_shuffled(_rng("cli-session", seed, "compute"), COMPUTE_VARIANTS)
    verifies = _cycle_shuffled(_rng("cli-session", seed, "verify"), itertools.product(VERIFY_SUITES, FORMATS))
    # functions in a fixed rotation so every run holds the same share of J tables
    tables = zip(itertools.cycle(TABLE_FUNCTIONS), _cycle_shuffled(_rng("cli-session", seed, "table"), FORMATS * 2))
    while True:
        for kind in CLI_PATTERN:
            if kind == "compute":
                fn, method, domain = next(computes)
                argv = ["compute", fn, _cli_argument(rng, domain), "--method", method]
            elif kind == "verify":
                suite, fmt = next(verifies)
                argv = ["verify", suite, "--format", fmt]
            else:
                fn, fmt = next(tables)
                # lambda needs s > 1; ranges stay wide so each table spans the domain
                lo = rng.randint(2 if fn == "lambda" else 1, 5)
                argv = ["table", fn, "--range", f"{lo}..{rng.randint(J_MAX - 4, J_MAX)}", "--format", fmt]
            yield (argv, kind)


_STREAMS = {"numeric-sweep": _numeric, "exact-wide": _exact, "deep-series": _deep, "cli-session": _cli}


def stream(workload: str, seed: int) -> Iterator[tuple]:
    """The infinite op stream of `workload` for `seed`."""
    return _STREAMS[workload](seed)


def first_ops(workload: str, seed: int, count: int) -> list[tuple]:
    return list(itertools.islice(stream(workload, seed), count))

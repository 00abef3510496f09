"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or -rA)
and then asserts, so a red test pinpoints the violated criterion.
"""

import math
import random
import time

from dirichlet_j.exact import euler_numbers
from dirichlet_j.identities import (
    check_collapse,
    check_fourier,
    check_remark1,
    check_theorem1,
    check_theorem2,
)
from dirichlet_j.jfun import (
    j_closed_even,
    j_closed_odd,
    j_euler_series,
    j_quadrature,
    j_riemann_sum,
)
from dirichlet_j.linalg import check_involution, csc_taylor_check, log_tan_series, trig_sum_check
from dirichlet_j.special import beta_numeric, beta_odd_closed, lambda_even_closed, lambda_numeric


def _report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> bool:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:2d}: {status}  ({elapsed:6.2f}s < {limit:g}s)  {detail}")
    return ok and elapsed < limit


def test_criterion_1_euler_numbers():
    start = time.perf_counter()
    table = euler_numbers(6)
    ok = table == [1, -1, 5, -61, 1385, -50521]
    # independent binomial-recurrence oracle
    for k in range(1, 6):
        ok &= sum(math.comb(2 * k, 2 * j) * table[j] for j in range(k + 1)) == 0
    elapsed = time.perf_counter() - start
    assert _report(1, ok, elapsed, 1.0, f"E_0..E_10 = {table}")


def test_criterion_2_closed_form_cross_check():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for m in range(1, 7):
        b_num = beta_numeric(2 * m - 1).value
        b_closed = beta_odd_closed(m).evalf()
        rel_b = abs(b_num - b_closed) / abs(b_closed)
        l_num = lambda_numeric(2 * m).value
        l_closed = lambda_even_closed(m).evalf()
        rel_l = abs(l_num - l_closed) / abs(l_closed)
        worst = max(worst, rel_b, rel_l)
        ok &= rel_b <= 1e-13 and rel_l <= 1e-13
    elapsed = time.perf_counter() - start
    assert _report(2, ok, elapsed, 5.0, f"worst relative deviation {worst:.2e} (<= 1e-13)")


def test_criterion_3_j_cross_method():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        quad = j_quadrature(n, 14).value
        series = j_euler_series(n, 14).value
        closed = (j_closed_odd((n + 1) // 2) if n % 2 else j_closed_even(n // 2)).value
        worst = max(
            worst, abs(quad - series), abs(quad - closed), abs(series - closed)
        )
    ok = worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert _report(3, ok, elapsed, 30.0, f"worst pairwise |diff| {worst:.2e} (<= 1e-9)")


def test_criterion_4_theorem2_examples():
    start = time.perf_counter()
    diffs = [check_theorem2(m, tol=1e-10) for m in range(1, 5)]
    ok = all(r.passed for r in diffs)
    worst = max(r.abs_diff for r in diffs)
    elapsed = time.perf_counter() - start
    assert _report(4, ok, elapsed, 10.0, f"beta(2..8) identities, worst |diff| {worst:.2e}")


def test_criterion_5_theorem1_proof_form_and_typo():
    start = time.perf_counter()
    proof = [check_theorem1(m, tol=1e-10) for m in range(1, 6)]
    ok = all(r.passed for r in proof)
    literal = check_theorem1(2, tol=1e-3, use_proof_form=False)
    ok &= (not literal.passed) and literal.abs_diff > 1e-3
    elapsed = time.perf_counter() - start
    assert _report(
        5,
        ok,
        elapsed,
        10.0,
        f"proof form worst {max(r.abs_diff for r in proof):.2e}; "
        f"literal form off by {literal.abs_diff:.2e} at m=2",
    )


def test_criterion_6_remark1_exact():
    start = time.perf_counter()
    ok = True
    for m in range(1, 21):
        a, b = check_remark1(m)
        ok &= a.passed and b.passed and a.abs_diff == 0.0 and b.abs_diff == 0.0
    elapsed = time.perf_counter() - start
    assert _report(6, ok, elapsed, 5.0, "both identities exactly equal for m = 1..20")


def test_criterion_6_remark1_exact_to_m100():
    start = time.perf_counter()
    ok = all(a.passed and b.passed for a, b in map(check_remark1, range(1, 101)))
    elapsed = time.perf_counter() - start
    assert _report(6, ok, elapsed, 5.0, "both identities exactly equal for m = 1..100")


def test_criterion_7_collapse_exact():
    start = time.perf_counter()
    ok = True
    for m in range(1, 9):
        for r in check_collapse(m):
            _, q = r.params
            if q % 2 == 0:
                ok &= r.passed and r.lhs.is_zero
            else:
                ok &= r.passed and not r.lhs.is_zero
    elapsed = time.perf_counter() - start
    assert _report(7, ok, elapsed, 5.0, "even-q coefficients vanish, odd-q match beta, m = 1..8")


def test_criterion_8_involutions():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64):
        for kind in ("sine", "cosine"):
            r = check_involution(n, kind, tol=n * 1e-13)
            ok &= r.passed
            worst = max(worst, r.abs_diff / n)
    elapsed = time.perf_counter() - start
    assert _report(8, ok, elapsed, 5.0, f"worst scaled deviation {worst:.2e} (<= 1e-13)")


def test_criterion_9_trig_sums_random():
    start = time.perf_counter()
    rng = random.Random(0x5EED)
    ok = True
    for variant in ("1_cos", "1_sin", "2_altcos"):
        for _ in range(100):
            n = rng.randint(1, 50)
            x = rng.uniform(0.05, math.pi / 2 - 0.05)
            r = trig_sum_check(variant, n, x)
            ok &= r.passed and r.abs_diff <= n * 1e-13
    elapsed = time.perf_counter() - start
    assert _report(9, ok, elapsed, 1.0, "3 x 100 seeded cases within n*1e-13")


def test_criterion_10_riemann_convergence():
    start = time.perf_counter()
    ok = True
    finals = {}
    for s in (1, 2, 3.5):
        ref = j_quadrature(s, 14).value
        errs = [abs(j_riemann_sum(s, n) - ref) for n in (100, 200, 400, 800)]
        ok &= all(b < a for a, b in zip(errs, errs[1:]))
        ok &= errs[-1] < 1e-5
        finals[s] = errs[-1]
    elapsed = time.perf_counter() - start
    assert _report(10, ok, elapsed, 5.0, f"final errors at n=800: {finals}")


def test_criterion_11_series_expansions():
    start = time.perf_counter()
    ok = csc_taylor_check(8).passed

    deep_terms = 10**6
    for case_x in (1.0, math.pi / 3):
        partial = log_tan_series(case_x, deep_terms)
        closed = -0.5 * math.log(math.tan(case_x / 2.0))
        ok &= abs(partial - closed) <= 1e-5

    for i in range(16):
        x = i * (math.pi / 2) / 15
        ok &= check_fourier("sine", 1, x, deep_terms, tol=1e-5).passed
    for m in (1, 2, 3):
        for x in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            ok &= check_fourier("sine", m, x, deep_terms, tol=1e-5).passed
            ok &= check_fourier("cosine", m, x, deep_terms, tol=1e-5).passed
    elapsed = time.perf_counter() - start

    # default-scale rerun must fit the 10 s budget
    start_default = time.perf_counter()
    default_ok = csc_taylor_check(8).passed
    for m in (1, 2, 3):
        for x in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            default_ok &= check_fourier("sine", m, x, 2 * 10**4, tol=1e-5).passed
            default_ok &= check_fourier("cosine", m, x, 2 * 10**4, tol=1e-5).passed
    default_elapsed = time.perf_counter() - start_default

    ok &= default_ok and default_elapsed < 10.0
    assert _report(
        11,
        ok,
        elapsed,
        60.0,
        f"1e6-term checks at 1e-5; default scale in {default_elapsed:.2f}s < 10s",
    )

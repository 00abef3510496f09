"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or -rA)
and then asserts, so a red test pinpoints the violated criterion.  Criteria
with a verification suite read their reports from `cli.suite_reports`, the
catalogue behind `verify`, and their time budget covers that call.
"""

import math
import time

from dirichlet_j.cli import suite_reports
from dirichlet_j.exact import euler_numbers
from dirichlet_j.identities import check_theorem1
from dirichlet_j.jfun import (
    j_closed_even,
    j_closed_odd,
    j_euler_series,
    j_quadrature,
    j_riemann_sum,
)
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
        quad = j_quadrature(n).value
        series = j_euler_series(n).value
        closed = (j_closed_odd((n + 1) // 2) if n % 2 else j_closed_even(n // 2)).value
        worst = max(
            worst, abs(quad - series), abs(quad - closed), abs(series - closed)
        )
    ok = worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert _report(3, ok, elapsed, 30.0, f"worst pairwise |diff| {worst:.2e} (<= 1e-9)")


def _timed(*calls):
    """The reports of suite_reports(suite, **options) for each (suite, options),
    concatenated, and the seconds they took."""
    start = time.perf_counter()
    reports = [r for suite, options in calls for r in suite_reports(suite, **options)]
    return reports, time.perf_counter() - start


def test_criterion_4_theorem2_examples():
    diffs, elapsed = _timed(("thm2", {"range": (1, 4), "tol": 1e-10}))
    ok = len(diffs) == 4 and all(r.passed for r in diffs)
    worst = max(r.abs_diff for r in diffs)
    assert _report(4, ok, elapsed, 10.0, f"beta(2..8) identities, worst |diff| {worst:.2e}")


def test_criterion_5_theorem1_proof_form_and_typo():
    start = time.perf_counter()
    proof = suite_reports("thm1", range=(1, 5), tol=1e-10)
    ok = len(proof) == 5 and all(r.passed for r in proof)
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
    reports, elapsed = _timed(("remark1", {"range": (1, 20)}))
    ok = len(reports) == 40 and all(r.passed and r.abs_diff == 0.0 for r in reports)
    assert _report(6, ok, elapsed, 5.0, "both identities exactly equal for m = 1..20")


def test_criterion_6_remark1_exact_to_m100():
    reports, elapsed = _timed(("remark1", {"range": (1, 100)}))
    ok = len(reports) == 200 and all(r.passed for r in reports)
    assert _report(6, ok, elapsed, 5.0, "both identities exactly equal for m = 1..100")


def test_criterion_7_collapse_exact():
    reports, elapsed = _timed(("collapse", {"range": (1, 8)}))
    ok = len(reports) == sum(2 * m for m in range(1, 9))
    for r in reports:
        _, q = r.params
        if q % 2 == 0:
            ok &= r.passed and r.lhs.coeff == 0
        else:
            ok &= r.passed and r.lhs.coeff != 0
    assert _report(7, ok, elapsed, 5.0, "even-q coefficients vanish, odd-q match beta, m = 1..8")


def test_criterion_8_involutions():
    reports, elapsed = _timed(("lemmas", {}))
    # check_involution's tolerance is n * 1e-13
    involutions = [r for r in reports if r.identity_id in ("lemma3", "lemma4")]
    ok = len(involutions) == 14 and {r.params[0] for r in involutions} == {1, 2, 4, 8, 16, 32, 64}
    ok &= all(r.passed and r.tol == r.params[0] * 1e-13 for r in involutions)
    worst = max(r.abs_diff / r.params[0] for r in involutions)
    assert _report(8, ok, elapsed, 5.0, f"worst scaled deviation {worst:.2e} (<= 1e-13)")


def test_criterion_9_trig_sums_random():
    # the lemmas suite draws its cases from random.Random(seed)
    reports, elapsed = _timed(("lemmas", {"seed": 0x5EED}))
    sums = [r for r in reports if r.identity_id in ("lemma1_cos", "lemma1_sin", "lemma2")]
    ok = len(sums) == 300 and all(r.passed and r.abs_diff <= r.params[0] * 1e-13 for r in sums)
    assert _report(9, ok, elapsed, 1.0, "3 x 100 seeded cases within n*1e-13")


def test_criterion_10_riemann_convergence():
    start = time.perf_counter()
    ok = True
    finals = {}
    for s in (1, 2, 3.5):
        ref = j_quadrature(s).value
        errs = [abs(j_riemann_sum(s, n) - ref) for n in (100, 200, 400, 800)]
        ok &= all(b < a for a, b in zip(errs, errs[1:]))
        ok &= errs[-1] < 1e-5
        finals[s] = errs[-1]
    elapsed = time.perf_counter() - start
    assert _report(10, ok, elapsed, 5.0, f"final errors at n=800: {finals}")


def test_criterion_11_series_expansions():
    # deep: csc Taylor coefficients, log-tan at 1e6 terms within 1e-5, and the
    # Fourier series at 1e6 terms within 1e-5
    reports, elapsed = _timed(("lemmas", {"deep": True}), ("fourier", {"deep": True}))
    deep = [r for r in reports if r.identity_id in ("lemma7", "lemma8", "eq_a2", "eq_a3", "eq_a4")]
    ok = len(deep) == 43 and all(r.passed for r in deep)
    ok &= all(r.tol == 1e-5 for r in deep if r.identity_id != "lemma8")

    # default-scale rerun must fit the 10 s budget
    reports, default_elapsed = _timed(("lemmas", {}), ("fourier", {}))
    default = [r for r in reports if r.identity_id in ("lemma8", "eq_a2", "eq_a3", "eq_a4")]
    default_ok = len(default) == 41 and all(r.passed for r in default)

    ok &= default_ok and default_elapsed < 10.0
    assert _report(
        11,
        ok,
        elapsed,
        60.0,
        f"1e6-term checks at 1e-5; default scale in {default_elapsed:.2f}s < 10s",
    )

import hashlib
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dirichlet_j.exact import PiPoly, bernoulli_numbers, euler_numbers
from dirichlet_j.special import (
    EvalResult,
    _accelerated_alternating,
    _beta_even,
    _chebyshev_weights,
    beta_numeric,
    beta_odd_closed,
    lambda_even_closed,
    lambda_numeric,
)

# reference values: mpmath mp.dps=30
LAMBDA_REF = {
    2: 1.2337005501361698,
    3: 1.051799790264645,
    4: 1.0146780316041921,
    5: 1.0045237627951396,
    7: 1.0004715486523766,
    9: 1.0000513451838438,
    11: 1.0000056660510901,
    12: 1.0000018858485831,
    # near the pole at s = 1, at the double nearest each s
    1 + 1e-7: 5000000.6322620985,
    1 + 1e-5: 50000.635182258592,
    1.001: 500.63529774639529,
}
BETA_REF = {
    1: 0.78539816339744831,
    2: 0.91596559417721902,  # Catalan's constant
    3: 0.96894614625936938,
    5: 0.99615782807708806,
    7: 0.99955450789053991,
    8: 0.99984999024682966,
}


def _lambda_from_bernoulli(m):
    # lambda(2m) = (2^{2m}-1) (-1)^{m-1} B_{2m} / (2 (2m)!) pi^{2m}
    b2m = bernoulli_numbers(m + 1)[m]
    return PiPoly.term((4**m - 1) * (-1) ** (m - 1) * b2m / (2 * math.factorial(2 * m)), 2 * m)


def _beta_from_euler(m):
    # beta(2m-1) = (-1)^{m-1} E_{2m-2} / (2 (2m-2)!) (pi/2)^{2m-1}
    e = euler_numbers(m)[m - 1]
    return PiPoly.term(Fraction((-1) ** (m - 1) * e, 2 * math.factorial(2 * m - 2) * 2 ** (2 * m - 1)), 2 * m - 1)


class TestClosedForms:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (1, PiPoly.term(Fraction(1, 8), 2)),
            (2, PiPoly.term(Fraction(1, 96), 4)),
            (3, PiPoly.term(Fraction(1, 960), 6)),
        ]
        + [(m, _lambda_from_bernoulli(m)) for m in range(1, 121)],
    )
    def test_lambda_even(self, m, expected):
        assert lambda_even_closed(m) == expected

    @pytest.mark.parametrize(
        "m,expected",
        [
            (1, PiPoly.term(Fraction(1, 4), 1)),
            (2, PiPoly.term(Fraction(1, 32), 3)),
            (3, PiPoly.term(Fraction(5, 1536), 5)),
        ]
        + [(m, _beta_from_euler(m)) for m in range(1, 121)],
    )
    def test_beta_odd(self, m, expected):
        assert beta_odd_closed(m) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_even_closed(0)
        with pytest.raises(ValueError):
            beta_odd_closed(0)

    @pytest.mark.parametrize("closed", [lambda_even_closed, beta_odd_closed])
    def test_warm_cache_keeps_argument_checks(self, closed):
        # an untyped cache would answer closed(1.0) from the entry of True
        assert closed(2) is closed(2) and closed(True) == closed(1)
        for bad in (2.0, 1.0):
            with pytest.raises(TypeError):
                closed(bad)
        with pytest.raises(ValueError):
            closed(0)


class TestLambdaNumeric:
    def test_at_two(self):
        r = lambda_numeric(2, digits=15)
        assert r.value == pytest.approx(LAMBDA_REF[2], abs=1e-14)
        assert abs(r.value - LAMBDA_REF[2]) <= r.error_estimate

    def test_at_three_thirteen_digits(self):
        r = lambda_numeric(3, digits=13)
        assert r.value == pytest.approx(LAMBDA_REF[3], abs=1e-13)

    def test_closed_form_consistency(self):
        r = lambda_numeric(4, digits=15)
        closed = lambda_even_closed(2).evalf(15)
        assert abs(r.value - closed) <= 2 * math.ulp(closed)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_consistency_even_orders(self, m):
        r = lambda_numeric(2 * m, digits=15)
        closed = lambda_even_closed(m).evalf(15)
        assert abs(r.value - closed) <= 10 * 1e-15 * abs(closed)

    def test_non_integer_argument(self):
        r = lambda_numeric(2.5)
        assert 1.0 < r.value < LAMBDA_REF[2]

    def test_domain(self):
        for s in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                lambda_numeric(s)

    def test_monotone_decreasing(self):
        grid = [1.1 + 0.35 * i for i in range(26)]
        values = [lambda_numeric(s).value for s in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_result_fields(self):
        r = lambda_numeric(3)
        assert isinstance(r, EvalResult)
        assert r.method == "accelerated_series"
        assert r.work > 0 and r.error_estimate > 0


class TestBetaNumeric:
    def test_at_one(self):
        r = beta_numeric(1, digits=15)
        assert r.value == pytest.approx(BETA_REF[1], abs=1e-15)
        closed = beta_odd_closed(1).evalf(15)
        assert abs(r.value - closed) <= 1e-14

    def test_catalan(self):
        r = beta_numeric(2, digits=15)
        assert r.value == pytest.approx(BETA_REF[2], abs=1e-14)

    def test_closed_form_consistency_one_ulp_scale(self):
        r = beta_numeric(3, digits=15)
        closed = beta_odd_closed(2).evalf(15)
        assert abs(r.value - closed) <= 2 * math.ulp(closed)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_consistency_odd_orders(self, m):
        r = beta_numeric(2 * m - 1, digits=15)
        closed = beta_odd_closed(m).evalf(15)
        assert abs(r.value - closed) <= 10 * 1e-15 * abs(closed)

    def test_domain(self):
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                beta_numeric(s)

    def test_monotone_increasing(self):
        grid = [0.5 + 0.38 * i for i in range(26)]
        values = [beta_numeric(s).value for s in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


def _recurrence_alternating(a, terms):
    # the Chebyshev weights rebuilt inside the summation loop, per call
    d = (3.0 + math.sqrt(8.0)) ** terms
    d = (d + 1.0 / d) / 2.0
    b, c, s = -1.0, -d, 0.0
    for k in range(terms):
        c = b - c
        s += c * a(k)
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    return s / d


@pytest.mark.parametrize("step,s", [(2.0, 0.5), (2.0, 2.0), (1.0, 3.0)], ids=["beta-0.5", "beta-2", "eta-3"])
def test_cached_weights_match_recurrence(step, s):
    for terms in range(1, 251):
        expected = _recurrence_alternating(lambda k: (step * k + 1.0) ** -s, terms)
        assert _accelerated_alternating(step, s, terms) == expected, terms


def _callable_alternating(a, terms):
    # the kernel as it was: the cached weights, one call of a per term
    weights, d = _chebyshev_weights(terms)
    s = 0.0
    for k, c in enumerate(weights):
        s += c * a(k)
    return s / d


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1.0, 2.0]),
    st.floats(0.0, 300.0, exclude_min=True) | st.integers(1, 300),
    st.integers(1, 250),
)
def test_kernel_matches_callable_form(step, s, terms):
    # the old callers passed lambda k: (k + 1.0) ** (-s) and (2.0 * k + 1.0) ** (-s)
    a = (lambda k: (k + 1.0) ** (-s)) if step == 1.0 else (lambda k: (2.0 * k + 1.0) ** (-s))
    assert _accelerated_alternating(step, s, terms) == _callable_alternating(a, terms)


@pytest.mark.parametrize("n", [1, 2, 7, 85])
@pytest.mark.parametrize("digits", [1, 15, 40, 400])
def test_beta_even_matches_beta_numeric(n, digits):
    values, trunc, terms = _beta_even(n, digits)
    assert len(values) == n
    for k, value in enumerate(values):
        b = beta_numeric(2 * n - 2 * k, digits)
        assert (value, trunc + 16.0 * math.ulp(1.0) * abs(value), terms) == (b.value, b.error_estimate, b.work)
    with pytest.raises(ValueError, match="digits"):
        _beta_even(n, 0)


def _brute_alternating(a_fn, n_terms):
    # endpoint-averaged partial sums: error ~ |a'(N)| instead of |a(N)|
    k = np.arange(n_terms + 1, dtype=float)
    terms = a_fn(k) * np.where(k % 2 == 0, 1.0, -1.0)
    s_n = float(np.sum(terms[:-1]))
    return 0.5 * (s_n + s_n + float(terms[-1]))


class TestBruteForceOracles:
    def test_beta2_against_million_term_sum(self):
        oracle = _brute_alternating(lambda k: (2 * k + 1) ** -2.0, 10**6)
        assert beta_numeric(2).value == pytest.approx(oracle, abs=1e-14)

    def test_lambda3_against_brute_eta(self):
        eta3 = _brute_alternating(lambda k: (k + 1) ** -3.0, 10**5)
        oracle = eta3 * (1 - 2**-3.0) / (1 - 2**-2.0)
        assert lambda_numeric(3).value == pytest.approx(oracle, abs=1e-14)


class TestErrorEstimateHonesty:
    # doubling the accelerated-series work must move the value by less than
    # the reported estimate
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.5, 10.0])
    def test_lambda(self, s):
        base = lambda_numeric(s, digits=15)
        refined = lambda_numeric(s, digits=34)  # ~2x terms
        assert refined.work >= 2 * base.work
        assert abs(base.value - refined.value) <= base.error_estimate

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5, 8.0])
    def test_beta(self, s):
        base = beta_numeric(s, digits=15)
        refined = beta_numeric(s, digits=34)
        assert refined.work >= 2 * base.work
        assert abs(base.value - refined.value) <= base.error_estimate

    @pytest.mark.parametrize("s,ref", sorted(LAMBDA_REF.items()))
    def test_lambda_reference_within_estimate(self, s, ref):
        r = lambda_numeric(s)
        assert abs(r.value - ref) <= r.error_estimate

    @pytest.mark.parametrize("s,ref", sorted(BETA_REF.items()))
    def test_beta_reference_within_estimate(self, s, ref):
        r = beta_numeric(s)
        assert abs(r.value - ref) <= r.error_estimate


# sha256 of (value, error_estimate, work) in hex over this grid, taken while
# the accelerated series still called a function per term: the call-free
# kernel must not move a bit
PIN_S = tuple(0.05 * 6000.0 ** (i / 2999) for i in range(3000)) + tuple(range(1, 300)) + (1 + 1e-7, 1 + 1e-5, 1.001)
PIN_SHA256 = "875d8942ae01b5366f63d1b1d2fe5a12e94cfe454151e2ba18a02e2a07960853"


def _pin_lines():
    lines = []
    for s in PIN_S:
        for digits in (1, 5, 15, 20, 40, 200):
            routes = (("l", lambda_numeric), ("b", beta_numeric)) if s > 1 else (("b", beta_numeric),)
            for tag, route in routes:
                r = route(s, digits)
                lines.append(f"{tag} {s!r} {digits} {r.value.hex()} {r.error_estimate.hex()} {r.work}")
    return lines


def test_values_pinned():
    assert hashlib.sha256("\n".join(_pin_lines()).encode()).hexdigest() == PIN_SHA256


def test_eval_result_invariants():
    with pytest.raises(ValueError):
        EvalResult(1.0, -1e-3, "quadrature", 5)
    with pytest.raises(ValueError):
        EvalResult(1.0, 1e-3, "quadrature", 0)
    EvalResult(1.0, 0.0, "closed_form", 0)

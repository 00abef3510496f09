import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_j import identities, jfun, special
from dirichlet_j.exact import PiPoly, _half_pi_term, bernoulli_numbers, euler_numbers
from dirichlet_j.jfun import (
    ConvergenceError,
    _level_nodes,
    j_closed_even,
    j_closed_odd,
    j_euler_series,
    j_quadrature,
    j_riemann_sum,
)
from dirichlet_j.special import beta_numeric, lambda_numeric

# reference values: mpmath quad of x^s/sin(x) on (0, pi/2), mp.dps=30
J_REF = {
    0.5: 1.9777153468794056,
    1: 1.1662436161232751,
    2: 0.49273810224534183,
    3: 0.17963207997691608,
    3.5: 0.10112617790114615,
    4: 0.054461779896217961,
    5: 0.013975492587115049,
    6: 0.0030972302304853132,
    7: 0.00060309612552742094,
    8: 0.00010464576244373793,
}


class TestQuadrature:
    @pytest.mark.parametrize("s,ref", sorted(J_REF.items()))
    def test_reference_values(self, s, ref):
        r = j_quadrature(s)
        assert abs(r.value - ref) <= 1e-13
        assert r.error_estimate <= 1e-13 / 2 + 4 * math.ulp(abs(r.value))
        assert r.work > 0 and r.method == "quadrature"

    def test_catalan_relation(self):
        # J(1) = 4 * beta(2) / pi
        r = j_quadrature(1)
        assert r.value == pytest.approx(4 * 0.91596559417721902 / math.pi, abs=1e-14)

    def test_j2_from_lambda_recurrence(self):
        # solve lambda(3) = lambda(2) J(1) - beta(1) J(2) for J(2), with
        # lambda(3) = (7/8) zeta(3) and J(1) = 4 beta(2)/pi as inputs
        j1 = 4 * 0.91596559417721902 / math.pi
        j2 = (1.2337005501361698 * j1 - 1.051799790264645) / 0.78539816339744831
        assert j_quadrature(2).value == pytest.approx(j2, abs=1e-13)

    def test_domain(self):
        # s <= 0, non-finite s, and s where Gamma(s+1) overflows a double
        for s in (0.0, -2.0, math.nan, math.inf, 171, 171.5, 200):
            with pytest.raises(ValueError):
                j_quadrature(s)

    def test_domain_ends_at_one_bound(self, monkeypatch):
        # Gamma(170.62 + 1) = 1.758e308 is a finite double; one step above the
        # bound both routes reject s before building a level or taking Gamma
        assert j_quadrature(170.62).value > 0.0
        assert j_riemann_sum(170.62, 10) > 0.0

        def no_work(*args):
            raise AssertionError("work done before the domain check")

        monkeypatch.setattr(jfun, "_level_nodes", no_work)
        monkeypatch.setattr(jfun, "_gamma_s_plus_1", no_work)
        s = math.nextafter(170.62, math.inf)
        with pytest.raises(ValueError, match=r"s <= 170\.62"):
            j_quadrature(s)
        with pytest.raises(ValueError, match=r"s <= 170\.62"):
            j_riemann_sum(s, 10)

    @pytest.mark.parametrize("s", [1e-8, 1e-3])
    def test_near_zero_fails_to_converge(self, s):
        with pytest.raises(ConvergenceError):
            j_quadrature(s)

    def test_convergence_failure_reported(self, monkeypatch):
        monkeypatch.setattr(jfun, "_MAX_LEVEL", 2)
        with pytest.raises(ConvergenceError):
            j_quadrature(1.0)

    @pytest.mark.parametrize("s", [0.05, 1, 5, 18, 40])
    def test_level_sums_match_numpy_reference(self, s):
        # every cached level, summed as j_quadrature sums it, against
        # w @ (x^s / sin x) over nodes rebuilt here from the tanh-sinh map
        for level in range(jfun._MAX_LEVEL + 1):
            x, w = _reference_level(level)
            ref = float(w @ (x**s / np.sin(x)))
            part = math.fsum(c * math.exp(s * log_x) for log_x, c in _level_nodes(level))
            assert abs(part - ref) <= 8 * math.ulp(ref), (level, part, ref)

    def test_estimate_bounds_error_against_mpmath(self):
        # the rounding floor grows with s: at s = 7.3 the error was 3.0 times
        # a floor of 4 ulp
        grid = [0.05 + 0.1 * i for i in range(400)] + [7.3, 8]
        results = {s: j_quadrature(s) for s in grid}
        assert [s for s, r in results.items() if abs(r.value - _mpmath_j(s)) > r.error_estimate] == []

    def test_thread_safety_of_node_cache(self):
        import dirichlet_j.jfun as jf

        jf._level_nodes.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: j_quadrature(2).value, range(16)))
        assert len(set(values)) == 1


def _reference_level(level):
    # nodes x and weights w new at `level`, from x(t) = (pi/4)(1 + tanh((pi/2) sinh t))
    h = 2.0**-level
    half_pi = math.pi / 2
    xs, ws = [], []
    for k in range(int(6.2 / h) + 1):
        if level > 0 and k % 2 == 0:
            continue
        for t in (0.0,) if k == 0 else (k * h, -k * h):
            z = half_pi * math.sinh(t)
            ez = math.exp(-2.0 * abs(z))
            w = half_pi * half_pi * math.cosh(t) * 2.0 * ez / (1.0 + ez) ** 2
            x = (half_pi if z >= 0 else half_pi * ez) / (1.0 + ez)
            if w > 0.0 and 0.0 < x < half_pi:
                xs.append(x)
                ws.append(w)
    return np.array(xs), np.array(ws)


def _series_terms(n, count):
    # the terms |E_{2k}| (pi/2)^{n+2k} / (n+2k+1)! that j_euler_series sums
    e = euler_numbers(count)
    return [
        abs(e[k]) * (math.pi / 2) ** (n + 2 * k) / math.factorial(n + 2 * k + 1)
        for k in range(count)
    ]


class TestEulerSeries:
    def test_first_term_quarter_pi(self):
        assert _series_terms(1, 1)[0] == pytest.approx(math.pi / 4, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_quadrature_tightly(self, n):
        series = j_euler_series(n)
        quad = j_quadrature(n)
        assert abs(series.value - quad.value) <= 2e-12
        assert abs(series.value - quad.value) <= series.error_estimate + quad.error_estimate

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reference_values(self, n):
        r = j_euler_series(n)
        assert abs(r.value - J_REF[n]) <= r.error_estimate

    def test_terms_all_positive(self):
        for n in (1, 2, 5):
            assert all(t > 0 for t in _series_terms(n, 40))

    def test_terms_decay(self):
        for n in (1, 3, 8):
            terms = _series_terms(n, 40)
            assert all(b < a for a, b in zip(terms, terms[1:]))

    def test_term_envelope_bound(self):
        # each term is at most 4 (pi/2)^n / pi * (2k)!/(n+2k+1)!
        for n in (1, 2, 6):
            terms = _series_terms(n, 30)
            for k, t in enumerate(terms):
                bound = (
                    4.0
                    * (math.pi / 2) ** n
                    / math.pi
                    * math.factorial(2 * k)
                    / math.factorial(n + 2 * k + 1)
                )
                assert t <= bound * (1 + 1e-12)

    def test_terminates_at_smallest_target(self):
        # the residual bound (9/8) b_{K+1} 3^-(2K+3) meets the one target
        # within 12 terms at every n
        assert max(j_euler_series(n).work for n in range(1, 171)) <= 12

    def test_thread_safety_of_euler_table(self):
        import dirichlet_j.exact as ex

        def work(start):
            # euler_numbers(309) grows the table to A_616 while others read it
            # in place through j_euler_series
            start.wait(timeout=60)
            return j_euler_series(2), tuple(euler_numbers(309)), j_euler_series(1), tuple(bernoulli_numbers(40))

        expected = work(threading.Barrier(1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                # an unlocked table loses an update in a few percent of rounds
                for _ in range(300):
                    with ex._up_down_lock:
                        del ex._up_down[1:]
                        ex._up_down_row[:] = [1]
                    results = list(pool.map(work, [threading.Barrier(8)] * 8, timeout=60))
                    assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_validation(self):
        # a non-int or bool n is rejected before any work
        for n in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                j_euler_series(n)
        with pytest.raises(ValueError, match="overflows a double"):
            j_euler_series(171)
        # (pi/2)^n overflows from n = 1572; the domain check comes first
        with pytest.raises(ValueError, match="overflows a double"):
            j_euler_series(2000)

    @pytest.mark.parametrize("n", range(1, 171))
    def test_within_estimate_against_mpmath(self, n):
        # the target is relative to J, so the relative error meets it
        ref = _mpmath_j(n)
        r = j_euler_series(n)
        assert abs(r.value - ref) <= r.error_estimate, (r, ref)
        assert abs(r.value - ref) <= 1e-14 * ref, (r, ref)


def _mpmath_j(s):
    # (2/pi)/Gamma(s+1) * integral_0^{pi/2} x^s / sin x dx at 40 digits, from
    # 1/sin x = sum_k c_k x^(2k-1): the coefficients
    # c_k = (-1)^(k+1) 2 (2^(2k-1) - 1) B_2k / (2k)! are positive, c_0 = 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s, h = mpmath.mpf(s), mpmath.pi / 2
        total, k = h**s / s, 1
        while True:
            c = (-1) ** (k + 1) * 2 * (2 ** (2 * k - 1) - 1) * mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
            term = c * h ** (s + 2 * k) / (s + 2 * k)
            total += term
            if term < mpmath.mpf(10) ** -45 * total:
                return 2 / mpmath.pi / mpmath.gamma(s + 1) * total
            k += 1


class TestRiemannSum:
    def test_single_term(self):
        assert j_riemann_sum(1, 1) == pytest.approx(math.pi / 4 * math.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize("s", [1, 2])
    def test_large_n_close_to_quadrature(self, s):
        quad = j_quadrature(s).value
        assert abs(j_riemann_sum(s, 10**4) - quad) <= 1e-6

    def test_top_of_domain_does_not_overflow(self):
        # Gamma(171) * 1e4 exceeds a double, so the sum must be divided by n
        # before Gamma(s+1); J(170) = 1.7645623769843e-276 (mpmath, 30 digits)
        assert j_riemann_sum(170, 10**4) == pytest.approx(1.7645623769843e-276, rel=1e-4)
        assert j_riemann_sum(170.62, 10**4) > 0.0

    @pytest.mark.parametrize("s", [1, 2, 3.5])
    def test_monotone_convergence(self, s):
        ref = j_quadrature(s).value
        errs = [abs(j_riemann_sum(s, n) - ref) for n in (100, 200, 400, 800)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            j_riemann_sum(0.0, 10)
        with pytest.raises(ValueError):
            j_riemann_sum(1.0, 0)
        for s in (171, 170.9, 1e6):
            with pytest.raises(ValueError, match="s <= 170.62"):
                j_riemann_sum(s, 10)

    @pytest.mark.parametrize("n", [2.5, True, 2.0])
    def test_order_must_be_an_int(self, n):
        # 2.5 once gave 1.5010 and True counted as n = 1
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            j_riemann_sum(1.0, n)


class TestClosedForms:
    def test_odd_base_case(self):
        # J(1) = (4/pi) beta(2)
        r = j_closed_odd(1)
        assert r.value == pytest.approx(4 / math.pi * 0.91596559417721902, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_odd_matches_quadrature(self, n):
        closed = j_closed_odd(n)
        quad = j_quadrature(2 * n - 1)
        assert abs(closed.value - quad.value) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_even_matches_quadrature(self, n):
        closed = j_closed_even(n)
        quad = j_quadrature(2 * n)
        assert abs(closed.value - quad.value) <= 1e-10

    def test_even_matches_euler_series(self):
        closed = j_closed_even(3)
        series = j_euler_series(6)
        assert abs(closed.value - series.value) <= 1e-9

    def test_validation(self):
        # a non-int or bool n is rejected before any work: True used to give J(2)
        for route in (j_closed_odd, j_closed_even):
            for n in (0, 1.5, 2.0, True):
                with pytest.raises(ValueError, match="n must be an integer >= 1"):
                    route(n)

    def test_domain_ends_below_171(self):
        # J(169) and J(170) are the last arguments in the domain (the values
        # there have lost every digit to cancellation, within their estimates)
        assert j_closed_odd(85).work > 0 and j_closed_even(85).work > 0
        for route, n in ((j_closed_odd, 86), (j_closed_even, 86), (j_closed_odd, 10**6)):
            with pytest.raises(ValueError, match="s <= 170.62"):
                route(n)

    @pytest.mark.parametrize("warm", [15, 17, 30])
    def test_bit_identical_to_uncached_factors(self, warm):
        # (pi/2)^j / j! evaluated afresh per term, as the closed forms state it
        def factor(j):
            return PiPoly(Fraction(1, 2**j * math.factorial(j)), j).evalf()

        # the factor cache, filled up to j = 2 warm + 1 and then grown on demand,
        # gives the same values as a cold one
        jfun._half_pi_factor.cache_clear()
        j_closed_even(warm)
        for n in range(1, 61):
            acc, err, work = 0.0, 0.0, 0
            for k in range(n):
                b = beta_numeric(2 * n - 2 * k)
                acc += (-1) ** k * b.value * factor(2 * k)
                err += b.error_estimate * factor(2 * k)
                work += b.work
            odd = j_closed_odd(n)
            assert odd.value == (-1) ** (n - 1) * acc * 4.0 / math.pi
            assert odd.error_estimate == (err + 4.0 * math.ulp(1.0) * abs(acc)) * 4.0 / math.pi
            assert odd.work == work

            lam = lambda_numeric(2 * n + 1)
            acc, err, work = lam.value, lam.error_estimate, lam.work
            for k in range(n):
                b = beta_numeric(2 * n - 2 * k)
                acc -= (-1) ** k * b.value * factor(2 * k + 1)
                err += b.error_estimate * factor(2 * k + 1)
                work += b.work
            even = j_closed_even(n)
            assert even.value == (-1) ** n * acc * 4.0 / math.pi
            assert even.error_estimate == (err + 4.0 * math.ulp(1.0) * abs(acc)) * 4.0 / math.pi
            assert even.work == work

    def test_no_evalf_once_warm(self, monkeypatch):
        j_closed_odd(20)
        j_closed_even(20)
        calls = []
        evalf = PiPoly.evalf

        def counting_evalf(self):
            calls.append(self)
            return evalf(self)

        monkeypatch.setattr(PiPoly, "evalf", counting_evalf)
        j_closed_odd(20)
        j_closed_even(20)
        assert calls == []

    def test_no_beta_numeric_call_once_warm(self, monkeypatch):
        # the betas come from the accelerated-series kernel in one pass
        j_closed_odd(20)
        j_closed_even(20)
        calls = []

        def counting_beta(s):
            calls.append(s)
            return beta_numeric(s)

        monkeypatch.setattr(special, "beta_numeric", counting_beta)
        monkeypatch.setattr(jfun, "beta_numeric", counting_beta, raising=False)
        j_closed_odd(20)
        j_closed_even(20)
        assert calls == []

    def test_values_pinned(self):
        assert hashlib.sha256("\n".join(_closed_pin_lines()).encode()).hexdigest() == CLOSED_PIN_SHA256


# sha256 of (value, error_estimate, work) in hex over this grid, taken while
# the closed forms took a digit count, from its default (15 digits, 24-term
# series): the fixed-length series must not move a bit
CLOSED_PIN_SHA256 = "5c02300ba664a7e102f323b84ab7ddbbd4de6b2ee0873a7689e99a2b4d18b26d"


def _closed_pin_lines():
    lines = []
    for n in range(1, 86):
        for tag, route in (("o", j_closed_odd), ("e", j_closed_even)):
            r = route(n)
            lines.append(f"{tag} {n} {r.value.hex()} {r.error_estimate.hex()} {r.work}")
    return lines


# sha256 of (value, error_estimate, work) in hex over these grids, taken
# while the routes took a digit count, with digits=15: the one fixed target
# must not move a bit
PIN_S = (0.05, 0.5, 1, 2, 3.7, 8, 18, 40, 150)
QUADRATURE_PIN_SHA256 = "031896ad516515c9680817439a4a10a9b8c8e088c01b1fa8575b902b8cc9e5b3"
SERIES_PIN_SHA256 = "19e3cdf95f924c0e120b4d464fc0cf62d7207ab0fbdfee8c8935fe7aab27c029"


class TestDigits:
    def test_values_pinned(self):
        lines = []
        for s in PIN_S:
            r = j_quadrature(s)
            lines.append(f"q {s!r} {r.value.hex()} {r.error_estimate.hex()} {r.work}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == QUADRATURE_PIN_SHA256

    def test_series_values_pinned(self):
        lines = []
        for n in range(1, 171):
            r = j_euler_series(n)
            lines.append(f"e {n} {r.value.hex()} {r.error_estimate.hex()} {r.work}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SERIES_PIN_SHA256

    def test_defaults(self):
        # the one target is the one that --digits 15 set, the same double
        assert jfun._TARGET == 10.0 ** -(15 - 1) == 1e-14

    @pytest.mark.parametrize("route", [j_quadrature, j_euler_series])
    @pytest.mark.parametrize("digits", [0, -3, 325, 10**6])
    def test_digits_out_of_range(self, route, digits):
        # no digit count is accepted, in range or out
        with pytest.raises(TypeError, match="digits"):
            route(3, digits=digits)
        with pytest.raises(TypeError):
            route(3, digits)


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pairwise_within_error_estimates(self, n):
        quad = j_quadrature(n)
        series = j_euler_series(n)
        closed = j_closed_odd((n + 1) // 2) if n % 2 else j_closed_even(n // 2)
        for a, b in ((quad, series), (quad, closed), (series, closed)):
            allowed = 10 * max(a.error_estimate, b.error_estimate)
            assert abs(a.value - b.value) <= allowed


def w_expansion(m):
    """The coefficients of J(0..m) in the divergent companion W(m), as
    `identities.check_collapse` reads them: (-1)^k (pi/2)^{m-k} / (m-k)!."""
    return tuple((-1) ** k * _half_pi_term(m - k) for k in range(m + 1))


class TestWExpansion:
    def test_order_zero(self):
        assert w_expansion(0) == (PiPoly(1, 0),)

    def test_order_one(self):
        assert w_expansion(1) == (
            PiPoly(Fraction(1, 2), 1),  # pi/2
            PiPoly(-1, 0),
        )

    def test_order_two(self):
        assert w_expansion(2) == (
            PiPoly(Fraction(1, 8), 2),  # pi^2/8
            PiPoly(Fraction(-1, 2), 1),  # -pi/2
            PiPoly(1, 0),
        )

    @pytest.mark.parametrize("m", range(0, 11))
    def test_top_coefficient_is_alternating_unit(self, m):
        assert w_expansion(m)[m] == PiPoly((-1) ** m, 0)

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
    def test_general_coefficient(self, m):
        w = w_expansion(m)
        for k in range(m + 1):
            e = m - k
            expected = PiPoly(Fraction((-1) ** k, 2**e * math.factorial(e)), e)
            assert w[k] == expected

    def test_validation(self):
        # J(q) has no coefficient in W(e) for q > e
        with pytest.raises(ValueError):
            _half_pi_term(-1)

    def test_warm_cache_keeps_argument_checks(self):
        # the coefficients come from the per-degree (pi/2)^j / j! table; a
        # warm collapse check, which reads them, still rejects a bool or float
        check_collapse = identities.check_collapse
        assert check_collapse(1) == check_collapse(1) and check_collapse(2) == check_collapse(2)
        for bad in (True, 1.0, 2.0):
            with pytest.raises(ValueError, match=f"^m must be an integer >= 1, not {bad!r}$"):
                check_collapse(bad)

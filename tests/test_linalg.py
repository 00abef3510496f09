import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dirichlet_j.exact import PiPoly, euler_numbers
from dirichlet_j.linalg import (
    build_matrix,
    check_involution,
    csc_taylor_check,
    log_tan_series,
    trig_sum_check,
)

SQRT_HALF = 0.70710678118654752  # sin(pi/4); mpmath mp.dps=30


class TestBuildMatrix:
    def test_single_entry_sine(self):
        m = build_matrix(1, "sine")
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == pytest.approx(SQRT_HALF, rel=1e-15)

    def test_single_entry_cosine(self):
        m = build_matrix(1, "cosine")
        assert m.entries[0, 0] == pytest.approx(SQRT_HALF, rel=1e-15)

    def test_two_by_two_angles(self):
        m = build_matrix(2, "sine")
        expected = [
            [math.sin(math.pi / 8), math.sin(3 * math.pi / 8)],
            [math.sin(3 * math.pi / 8), math.sin(9 * math.pi / 8)],
        ]
        assert np.allclose(m.entries, expected, atol=1e-15)

    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    @pytest.mark.parametrize("n", [1, 3, 8, 17, 64])
    def test_symmetric_and_bounded(self, n, kind):
        m = build_matrix(n, kind)
        assert np.array_equal(m.entries, m.entries.T)
        assert np.all(np.abs(m.entries) <= 1.0 + 1e-15)

    def test_large_index_angle_reduction(self):
        # entry (n, n) has angle numerator (2n-1)^2; reduction mod 8n must
        # keep it accurate
        n = 999
        m = build_matrix(n, "sine")
        exact = math.sin((((2 * n - 1) ** 2) % (8 * n)) * math.pi / (4 * n))
        assert m.entries[-1, -1] == pytest.approx(exact, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_matrix(0, "sine")
        with pytest.raises(ValueError):
            build_matrix(2, "secant")


class TestInvolution:
    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_square_is_half_n_identity(self, n, kind):
        r = check_involution(n, kind, tol=n * 1e-13)
        assert r.passed, r

    def test_n1_sine_exact_value(self):
        # sin(pi/4)^2 = 1/2
        m = build_matrix(1, "sine")
        assert (m.entries @ m.entries)[0, 0] == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_inverse_consequence(self, n, kind):
        m = build_matrix(n, kind).entries
        resid = np.max(np.abs(m @ (2.0 / n * m) - np.eye(n)))
        assert resid <= 2e-13 * n

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_tol_must_be_a_finite_number_above_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            check_involution(4, "sine", tol=tol)

    def test_report_ids(self):
        assert check_involution(2, "sine").identity_id == "lemma3"
        assert check_involution(2, "cosine").identity_id == "lemma4"


class TestTrigSums:
    def test_single_term_double_angle(self):
        r = trig_sum_check("1_cos", 1, 0.7)
        assert r.passed and r.abs_diff <= 1e-15

    def test_three_term_sine(self):
        r = trig_sum_check("1_sin", 3, 0.3)
        assert r.passed and r.abs_diff <= 3e-13

    def test_alternating_cosine(self):
        r = trig_sum_check("2_altcos", 4, 1.0)
        assert r.passed and r.abs_diff <= 4e-13

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            trig_sum_check("1_cos", 3, 0.0)
        with pytest.raises(ValueError):
            trig_sum_check("1_sin", 3, math.pi)
        with pytest.raises(ValueError):
            trig_sum_check("2_altcos", 3, math.pi / 2)

    @pytest.mark.parametrize("lemma", ["1_cos", "1_sin", "2_altcos"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, lemma, x):
        with pytest.raises(ValueError, match="x must be finite"):
            trig_sum_check(lemma, 3, x)

    @pytest.mark.parametrize("lemma", ["1_cos", "1_sin", "2_altcos"])
    def test_overflowing_angle_rejected(self, lemma):
        # 2nx overflows although x is finite
        with pytest.raises(ValueError, match="overflows"):
            trig_sum_check(lemma, 1, 1e308)

    def test_arguments_checked_before_any_array(self):
        import tracemalloc

        tracemalloc.start()
        try:
            for args in (("bogus", 10**7, 0.3), ("1_cos", 10**7, math.nan), ("1_sin", 10**7, 0.0)):
                with pytest.raises(ValueError):
                    trig_sum_check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["1_cos", "1_sin", "2_altcos"]),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    )
    def test_random_cases(self, lemma, n, x):
        assert trig_sum_check(lemma, n, x).passed

    def test_hundred_seeded_cases_per_variant(self):
        rng = random.Random(0x5EED)
        for variant in ("1_cos", "1_sin", "2_altcos"):
            for _ in range(100):
                n = rng.randint(1, 50)
                x = rng.uniform(0.05, math.pi / 2 - 0.05)
                r = trig_sum_check(variant, n, x)
                assert r.passed and r.abs_diff <= n * 1e-13


class TestPeriodicSequences:
    # with theta = (2p-1)pi/(4n) and a_k = sin((2k-1)theta), b_k = cos(...):
    # a_k = (-1)^{m+1} a_{2mn-(k-1)} = (-1)^m a_{2mn+k} and
    # b_k = (-1)^m b_{2mn-(k-1)} = (-1)^m b_{2mn+k}  (the b-to-b form)
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_reflection_and_shift(self, n, m, data):
        p = data.draw(st.integers(min_value=1, max_value=n))
        k = data.draw(st.integers(min_value=1, max_value=n))
        theta = (2 * p - 1) * math.pi / (4 * n)
        a = lambda i: math.sin((2 * i - 1) * theta)
        b = lambda i: math.cos((2 * i - 1) * theta)
        j = 2 * m * n - (k - 1)
        assert a(k) == pytest.approx((-1) ** (m + 1) * a(j), abs=1e-10)
        assert a(k) == pytest.approx((-1) ** m * a(2 * m * n + k), abs=1e-10)
        assert b(k) == pytest.approx((-1) ** m * b(j), abs=1e-10)
        assert b(k) == pytest.approx((-1) ** m * b(2 * m * n + k), abs=1e-10)

    def test_worked_example(self):
        # n=10: a_6 = a_15 = -a_26 and b_6 = -b_15 = -b_26
        n, p = 10, 3
        theta = (2 * p - 1) * math.pi / (4 * n)
        a = lambda i: math.sin((2 * i - 1) * theta)
        b = lambda i: math.cos((2 * i - 1) * theta)
        assert a(6) == pytest.approx(a(15), abs=1e-13)
        assert a(6) == pytest.approx(-a(26), abs=1e-13)
        assert b(6) == pytest.approx(-b(15), abs=1e-13)
        assert b(6) == pytest.approx(-b(26), abs=1e-13)


class TestLogTanSeries:
    def test_vanishes_at_half_pi(self):
        # every term is cos((2k-1)pi/2) = 0 and the closed form is 0 too
        assert abs(log_tan_series(math.pi / 2, 1000)) <= 1e-10
        assert -0.5 * math.log(math.tan(math.pi / 4)) == pytest.approx(0.0, abs=1e-16)

    def test_at_pi_over_three(self):
        # -0.5 ln(tan(pi/6)); mpmath mp.dps=30
        assert log_tan_series(math.pi / 3, 10**6) == pytest.approx(
            0.27465307216702742, abs=1e-5
        )

    def test_at_one(self):
        # -0.5 ln(tan(0.5)); mpmath mp.dps=30
        assert log_tan_series(1.0, 10**6) == pytest.approx(0.30229122297079578, abs=1e-5)

    def test_oscillation_amplitude_halves(self):
        # tail amplitude over one oscillation window decays like 1/terms
        x = 1.0
        closed = -0.5 * math.log(math.tan(x / 2))

        def amplitude(t):
            return max(abs(log_tan_series(x, t + i) - closed) for i in range(8))

        for t in (10**3, 10**4, 10**5):
            assert amplitude(2 * t) < amplitude(t)

    @pytest.mark.parametrize("x", [0.05, 1.0, 2.9])
    def test_matches_term_by_term_fsum(self, x):
        # reference summed one term at a time; each term may round by a few
        # ulp of 1/(2k-1) plus the rounding of its angle (2k-1)x, which the
        # kernel forms from two products.  1, 2, 3 and 1000 terms fill a
        # partial grid, 65536 one full chunk, 140001 a partial third chunk
        odd = range(1, 2 * 140001, 2)
        values = [math.cos(a * x) / a for a in odd]
        scales = [(1.0 + a * x) / a for a in odd]
        for n in (1, 2, 3, 1000, 65536, 65537, 140001):
            tol = 4 * math.ulp(1.0) * math.fsum(scales[:n])
            assert abs(log_tan_series(x, n) - math.fsum(values[:n])) <= tol, n

    def test_domain(self):
        with pytest.raises(ValueError):
            log_tan_series(0.0, 10)
        with pytest.raises(ValueError):
            log_tan_series(math.pi, 10)
        with pytest.raises(ValueError):
            log_tan_series(1.0, 0)


class TestCscTaylor:
    @pytest.mark.parametrize("k_max", [1, 3, 8, 100])
    def test_exact_match(self, k_max):
        r = csc_taylor_check(k_max)
        assert r.exact and r.passed and r.abs_diff == 0.0

    def test_report_shape(self):
        r = csc_taylor_check(8)
        assert r.identity_id == "lemma8" and r.params == (8,)
        assert r.lhs == r.rhs

    def test_detects_a_wrong_euler_number(self, monkeypatch):
        import dirichlet_j.linalg as la

        def off_by_one(count):
            e = euler_numbers(count)
            e[5] += 1  # E_10 = -50521 becomes -50520
            return e

        monkeypatch.setattr(la, "euler_numbers", off_by_one)
        r = csc_taylor_check(8)
        assert r.passed is False and r.abs_diff > 0
        assert r.lhs == PiPoly.term(50521, 0) and r.rhs == PiPoly.term(50520, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            csc_taylor_check(0)

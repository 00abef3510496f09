import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import dirichlet_j
from dirichlet_j.exact import PiPoly, _half_pi_term
from dirichlet_j.identities import (
    check_collapse,
    check_fourier,
    check_remark1,
    check_theorem1,
    check_theorem2,
    check_theorem4,
    cosine_value_poly_at_half_pi,
    fourier_closed,
    fourier_partial,
    sine_value_poly_at_half_pi,
)
from dirichlet_j.jfun import w_expansion
from dirichlet_j.special import beta_odd_closed, lambda_even_closed

PI_CUBED_OVER_32 = 0.96894614625936938  # beta(3); mpmath mp.dps=30
LAMBDA_2 = 1.2337005501361698
BETA_1 = 0.78539816339744831
EPS = math.ulp(1.0)
# 1, 2, 3 and 1000 fill a partial grid; 65536 is one full chunk, 65537 one
# chunk plus a single term, 140001 two chunks plus a partial third
KERNEL_TERMS = (1, 2, 3, 1000, 65536, 65537, 140001)


class TestTheorem1:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_proof_form_passes(self, m):
        r = check_theorem1(m, tol=1e-10)
        assert r.passed and r.abs_diff <= 1e-10
        assert r.identity_id == "thm1" and r.params == (m,)

    def test_default_tolerance_floor(self):
        r = check_theorem1(1)
        assert r.tol >= 1e-10 and r.passed

    @pytest.mark.parametrize("m", [1, 2])
    def test_statement_form_fails(self, m):
        # the variant without the J(2k-1) factor contradicts the identity
        r = check_theorem1(m, tol=1e-3, use_proof_form=False)
        assert not r.passed
        assert r.abs_diff > 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            check_theorem1(0)


class TestTheorem2:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_passes(self, m):
        r = check_theorem2(m, tol=1e-10)
        assert r.passed and r.abs_diff <= 1e-10

    def test_base_case_is_catalan_relation(self):
        # beta(2) = beta(1) J(1)
        r = check_theorem2(1, tol=1e-12)
        assert r.passed
        assert r.lhs == pytest.approx(0.91596559417721902, abs=1e-13)


class TestTheorem4:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_both_parities(self, n):
        odd, even = check_theorem4(n, tol=1e-10)
        assert odd.identity_id == "thm4_odd" and odd.passed
        assert even.identity_id == "thm4_even" and even.passed


@pytest.mark.parametrize("check", [check_theorem1, check_theorem2, check_theorem4])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_theorem_tol_must_be_a_finite_number_above_zero(check, tol):
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        check(2, tol=tol)


# sha256 of (lhs, rhs, abs_diff, tol) in hex over these reports, taken while
# thm1 and thm2 each summed their own J-weighted terms: sharing one sum must
# not move a bit
THEOREM_PIN_SHA256 = "60e19451bd7060bb375dc00e5f701814f97118526ef8e5362a5908052ae1a865"


class TestTheoremReportsPinned:
    def test_reports_pinned(self):
        reports = [check_theorem1(m) for m in range(1, 21)]
        reports += [check_theorem2(m) for m in range(1, 21)]
        reports += [r for n in range(1, 86) for r in check_theorem4(n)]
        reports += [check_theorem1(m, use_proof_form=False) for m in range(1, 21)]
        lines = [
            f"{r.identity_id} {r.params} {r.lhs.hex()} {r.rhs.hex()} {r.abs_diff.hex()} {r.tol.hex()} {r.passed}"
            for r in reports
        ]
        assert len(lines) == 230
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == THEOREM_PIN_SHA256


class TestRemark1:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_exact_pass(self, m):
        a, b = check_remark1(m)
        assert a.exact and a.passed and a.abs_diff == 0.0
        assert b.exact and b.passed and b.abs_diff == 0.0
        assert isinstance(a.lhs, PiPoly) and a.lhs == a.rhs
        assert isinstance(b.lhs, PiPoly) and b.lhs == b.rhs

    def test_m1_first_identity_is_lambda2(self):
        a, _ = check_remark1(1)
        # pi/4 * (pi/2) = pi^2/8 = lambda(2)
        assert a.lhs == lambda_even_closed(1)

    def test_m1_second_identity_value(self):
        _, b = check_remark1(1)
        assert b.lhs == PiPoly.term(Fraction(1, 32), 3)
        assert b.lhs.evalf(15) == pytest.approx(PI_CUBED_OVER_32, rel=1e-15)


class TestValuePolysAtHalfPi:
    @pytest.mark.parametrize("m", range(1, 12))
    def test_sine_poly_equals_beta_closed_form(self, m):
        assert sine_value_poly_at_half_pi(m) == beta_odd_closed(m + 1)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_cosine_poly_collapses_to_zero(self, m):
        assert cosine_value_poly_at_half_pi(m).is_zero


class TestCollapse:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_all_coefficients_exact(self, m):
        reports = check_collapse(m)
        assert len(reports) == 2 * m
        assert all(r.passed and r.exact for r in reports)

    def test_m1_structure(self):
        r0, r1 = check_collapse(1)
        assert r0.params == (1, 0) and isinstance(r0.lhs, PiPoly) and r0.lhs.is_zero
        assert r1.params == (1, 1) and r1.lhs == beta_odd_closed(1)

    def test_m2_odd_coefficient_sign(self):
        reports = {r.params: r for r in check_collapse(2)}
        # coefficient of J(3) is -beta(1) = -pi/4
        assert reports[(2, 3)].lhs == PiPoly.term(Fraction(-1, 4), 1)

    def test_m3_top_odd_coefficient(self):
        reports = {r.params: r for r in check_collapse(3)}
        # beta(6) = beta(5)J(1) - beta(3)J(3) + beta(1)J(5)
        assert reports[(3, 5)].lhs == beta_odd_closed(1)
        assert reports[(3, 3)].lhs == -1 * beta_odd_closed(2)
        assert reports[(3, 1)].lhs == beta_odd_closed(3)


class TestExactConstantCaches:
    CACHES = (_half_pi_term, lambda_even_closed, beta_odd_closed, w_expansion)

    def _cold_reports(self, order):
        for cache in self.CACHES:
            cache.cache_clear()
        collapse = {m: check_collapse(m) for m in sorted(range(1, 25), reverse=order == "descending")}
        remark1 = {m: check_remark1(m) for m in sorted(range(1, 61), reverse=order == "descending")}
        return collapse, remark1

    def test_reports_independent_of_cache_order(self):
        assert self._cold_reports("descending") == self._cold_reports("ascending")

    def test_no_pipoly_term_once_warm(self, monkeypatch):
        check_collapse(12)
        check_remark1(30)
        calls = []
        term = PiPoly.term.__func__

        def counting_term(cls, coeff, exp):
            calls.append(exp)
            return term(cls, coeff, exp)

        monkeypatch.setattr(PiPoly, "term", classmethod(counting_term))
        reports = [*check_collapse(12), *check_remark1(30)]
        assert calls == []
        assert all(r.passed for r in reports)

    @staticmethod
    def _pipolys_built(monkeypatch, call):
        """PiPolys made by arithmetic (every result goes through _from_sums)
        during a warm call."""
        call()
        built = []
        from_sums = PiPoly._from_sums.__func__

        def counting(cls, sums):
            built.append(len(sums))
            return from_sums(cls, sums)

        with monkeypatch.context() as patch:
            patch.setattr(PiPoly, "_from_sums", classmethod(counting))
            call()
        return len(built)

    def test_collapse_builds_no_pipoly_per_term(self, monkeypatch):
        # one sum per coefficient and one expected value per odd q, not a
        # product and a sum per term
        m = 24
        assert self._pipolys_built(monkeypatch, lambda: check_collapse(m)) <= 2 * (2 * m)

    def test_remark1_pipolys_do_not_grow_with_m(self, monkeypatch):
        counts = [self._pipolys_built(monkeypatch, lambda: check_remark1(m)) for m in (10, 60)]
        assert counts[0] == counts[1] <= 8


class TestFourierPartial:
    def test_sine_vanishes_at_zero(self):
        assert fourier_partial("sine", 3, 0.0, 1000) == 0.0

    def test_cosine_at_zero_approaches_lambda(self):
        # g_2(0) = lambda(2); tail after N terms is about 1/(4N)
        s = fourier_partial("cosine", 2, 0.0, 10**6)
        assert s == pytest.approx(LAMBDA_2, abs=1e-6)

    def test_sine_cubed_alternating_endpoint(self):
        # termwise sin((2k-1)pi/2) = (-1)^{k-1}, so the sum tends to beta(3)
        s = fourier_partial("sine", 3, math.pi / 2, 10**6)
        assert s == pytest.approx(PI_CUBED_OVER_32, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_partial("sine", 1, 0.3, 100)
        with pytest.raises(ValueError):
            fourier_partial("sine", 3, 0.3, 0)
        with pytest.raises(ValueError):
            fourier_partial("tangent", 3, 0.3, 100)
        with pytest.raises(ValueError):
            fourier_partial("sine", 3, math.nan, 10)
        with pytest.raises(ValueError):
            fourier_partial("cosine", 2, math.inf, 10)
        # (2k-1)x overflows although x is finite
        with pytest.raises(ValueError):
            fourier_partial("sine", 3, 1e308, 10)
        with pytest.raises(ValueError):
            fourier_partial("cosine", 2, -1e308, 3)
        # 3 terms fill a 2 x 2 grid: 5x is finite, the padded cell's 7x is not
        x = sys.float_info.max / 6
        assert math.isfinite(5 * x) and not math.isfinite(7 * x)
        with pytest.raises(ValueError):
            fourier_partial("sine", 3, x, 3)
        assert math.isfinite(fourier_partial("sine", 3, x, 2))

    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
    def test_matches_term_by_term_fsum(self, kind, order):
        # the reference sums sin((2k-1)x)/(2k-1)^order one term at a time;
        # each term may round by a few ulp of its weight plus the rounding
        # of its angle (2k-1)x, which the kernel forms from two products
        trig = math.sin if kind == "sine" else math.cos
        odd = range(1, 2 * KERNEL_TERMS[-1], 2)
        for x in (0.7, math.pi / 2):
            values = [trig(a * x) / a**order for a in odd]
            scales = [(1.0 + a * x) / a**order for a in odd]
            for n in KERNEL_TERMS:
                ref = math.fsum(values[:n])
                tol = 4 * EPS * math.fsum(scales[:n])
                assert abs(fourier_partial(kind, order, x, n) - ref) <= tol, (x, n)

    def test_overflow_is_checked_in_every_chunk(self):
        # 65 536 terms fill one chunk whose largest angle, 131071 x, is
        # finite; the second chunk's grid reaches 262143 x, which is not
        x = 1e303
        assert math.isfinite(fourier_partial("sine", 3, x, 65536))
        with pytest.raises(ValueError, match="overflows"):
            fourier_partial("sine", 3, x, 140001)

    def test_no_state_is_kept_between_calls(self):
        # each call fills its own buffers: after a larger and a smaller call,
        # a call still equals, bit for bit, the same call made first in a
        # fresh interpreter
        script = "import sys; from dirichlet_j import fourier_partial as f; print(f('sine', 3, 0.7, int(sys.argv[1])).hex())"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dirichlet_j.__file__)))
        for n in (140001, 3, 65537):
            fresh = subprocess.run([sys.executable, "-c", script, str(n)], env=env, capture_output=True, text=True,
                                   check=True, timeout=120).stdout.strip()
            assert fourier_partial("sine", 3, 0.7, n).hex() == fresh, n

    def test_memory_stays_chunk_sized(self):
        import tracemalloc

        fourier_partial("sine", 3, 0.7, 10)  # import numpy outside the trace
        tracemalloc.start()
        try:
            fourier_partial("sine", 3, 0.7, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6


class TestFourierClosed:
    def test_sine_m1_at_half_pi(self):
        v = fourier_closed("sine", 1, math.pi / 2)
        assert v == pytest.approx(PI_CUBED_OVER_32, rel=1e-14)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_at_half_pi_matches_exact_value(self, m):
        # each float term carries the rounding of its coefficient, of x**e
        # (which scales the rounding of pi/2 by e) and of its products, and
        # each partial sum rounds: a few ulp of the sum of the absolute terms
        x = math.pi / 2
        for kind, exact in (("sine", sine_value_poly_at_half_pi(m).evalf()), ("cosine", 0.0)):
            lambdas = [lambda_even_closed(m - k + 1).evalf() for k in range(1, m + 1)]
            shift = 1 if kind == "sine" else 2
            scale = sum(lam * x ** (2 * k - shift) / math.factorial(2 * k - shift) for k, lam in enumerate(lambdas, 1))
            scale += BETA_1 * x ** (2 * m + 1 - shift) / math.factorial(2 * m + 1 - shift)
            assert abs(fourier_closed(kind, m, x) - exact) <= 8 * EPS * scale

    def test_cosine_m1_at_half_pi_vanishes(self):
        assert fourier_closed("cosine", 1, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_sine_at_zero(self):
        assert fourier_closed("sine", 1, 0.0) == 0.0

    def test_base_closed_form_values(self):
        x = 0.4
        expected = LAMBDA_2 * x - BETA_1 * x * x / 2
        assert fourier_closed("sine", 1, x) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_closed("sine", 1, -0.1)
        with pytest.raises(ValueError):
            fourier_closed("sine", 1, 2.0)


class TestFourierEquality:
    GRID = [math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", GRID)
    def test_sine_partial_matches_closed(self, m, x):
        r = check_fourier("sine", m, x, terms=10**5, tol=1e-5)
        assert r.passed, r

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", GRID)
    def test_cosine_partial_matches_closed(self, m, x):
        r = check_fourier("cosine", m, x, terms=10**5, tol=1e-5)
        assert r.passed, r

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_tol_must_be_a_finite_number_above_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            check_fourier("sine", 1, 0.5, 10**6, tol=tol)

    def test_base_case_grid_converges(self):
        # order-3 sine series against lambda(2) x - beta(1) x^2/2
        xs = [i * (math.pi / 2) / 15 for i in range(16)]
        for x in xs:
            closed = fourier_closed("sine", 1, x)
            coarse = abs(fourier_partial("sine", 3, x, 10**3) - closed)
            fine = abs(fourier_partial("sine", 3, x, 10**5) - closed)
            assert fine <= coarse + 1e-12
            assert fine <= 1e-7

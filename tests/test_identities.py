import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import dirichlet_j
from dirichlet_j import identities
from dirichlet_j.cli import run, suite_reports
from dirichlet_j.exact import PiPoly, _half_pi_term
from dirichlet_j.identities import (
    check_collapse,
    check_fourier,
    check_remark1,
    check_theorem1,
    check_theorem2,
    check_theorem4,
    IdentityReport,
    fourier_closed,
    fourier_partial,
    odd_harmonic_series,
)
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


# sha256 of (lhs, rhs, abs_diff, tol) in hex over these reports, taken when
# the J routes lost their digit count and quadrature stopped on the one
# absolute target 1e-14: J(12), J(17) and J(18) moved, and with them five rows
# (thm1 at m = 9 in both forms, thm4_even at n = 6 and 9, thm4_odd at n = 9)
THEOREM_PIN_SHA256 = "4b8ae05f24f57ddf672d0552a1a7c49c903d3322a8c001e7c2c9b5472cb76dcc"


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


# sha256 over every field of every report of the default thm1, thm2, thm4,
# remark1, collapse and lemmas suites, less the two lemma7 rows, whose sums
# go through BLAS: their last bits can depend on the machine
REPORT_PIN_SHA256 = "8b5ed6f2136d6cc0ebe56c8f3c4367c2b6629aafe4bc06f8852c25db64c12c7d"


def test_every_report_field_pinned():
    lines = [
        f"{r.identity_id} {r.params} {r.lhs!r} {r.rhs!r} {r.abs_diff!r} {r.exact} {r.passed} {r.tol!r}"
        for suite in ("thm1", "thm2", "thm4", "remark1", "collapse", "lemmas")
        for r in suite_reports(suite)
        if r.identity_id != "lemma7"
    ]
    assert len(lines) == 447
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REPORT_PIN_SHA256


class TestIdentityReport:
    """The constructor works out abs_diff, exact and passed from the sides and tol."""

    def test_exact_when_lhs_is_a_pipoly(self):
        r = IdentityReport("remark1_a", (1,), PiPoly(Fraction(1, 3), 2), PiPoly(Fraction(1, 3), 2))
        assert (r.abs_diff, r.exact, r.passed, r.tol) == (0.0, True, True, 0.0)
        r = IdentityReport("remark1_a", (1,), PiPoly(Fraction(1, 3), 2), PiPoly(Fraction(1, 4), 2))
        assert (r.exact, r.passed) == (True, False)
        assert r.abs_diff == (PiPoly(Fraction(1, 12), 2)).evalf() > 0.0

    def test_exact_ignores_tol(self):
        # equal sides only, however large the tolerance
        assert not IdentityReport("collapse", (1, 0), PiPoly(1), PiPoly(2), tol=10.0).passed

    def test_exact_difference_past_a_double_is_inf(self):
        r = IdentityReport("lemma8", (1,), PiPoly(10**400), PiPoly(-(10**400)))
        assert (r.abs_diff, r.exact, r.passed) == (math.inf, True, False)

    @pytest.mark.parametrize("lhs,rhs,tol,passed", [(1.0, 1.5, 0.5, True), (1.0, 1.5, 0.25, False), (2.0, 2.0, 0.0, True)])
    def test_numeric_passes_within_tol(self, lhs, rhs, tol, passed):
        r = IdentityReport("thm1", (1,), lhs, rhs, tol)
        assert (r.abs_diff, r.exact, r.passed, r.tol) == (abs(lhs - rhs), False, passed, tol)

    def test_nan_side_fails(self):
        r = IdentityReport("thm1", (1,), math.nan, 1.0, tol=1.0)
        assert math.isnan(r.abs_diff) and not r.passed


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
        assert b.lhs == PiPoly(Fraction(1, 32), 3)
        assert b.lhs.evalf() == pytest.approx(PI_CUBED_OVER_32, rel=1e-15)


def _closed_form_at_half_pi(kind, m):
    # the whole closed form at x = pi/2, beta(1) term included, exactly;
    # check_remark1 checks the same sum solved for its beta(1) term
    return identities._at_half_pi(identities._closed_form_terms(kind, m))


class TestValuePolysAtHalfPi:
    @pytest.mark.parametrize("m", range(1, 12))
    def test_sine_poly_equals_beta_closed_form(self, m):
        assert _closed_form_at_half_pi("sine", m) == beta_odd_closed(m + 1)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_cosine_poly_collapses_to_zero(self, m):
        assert _closed_form_at_half_pi("cosine", m) == PiPoly()


class TestCollapse:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_all_coefficients_exact(self, m):
        reports = check_collapse(m)
        assert len(reports) == 2 * m
        assert all(r.passed and r.exact for r in reports)

    def test_m1_structure(self):
        r0, r1 = check_collapse(1)
        assert r0.params == (1, 0) and isinstance(r0.lhs, PiPoly) and r0.lhs == PiPoly()
        assert r1.params == (1, 1) and r1.lhs == beta_odd_closed(1)

    def test_m2_odd_coefficient_sign(self):
        reports = {r.params: r for r in check_collapse(2)}
        # coefficient of J(3) is -beta(1) = -pi/4
        assert reports[(2, 3)].lhs == PiPoly(Fraction(-1, 4), 1)

    def test_m3_top_odd_coefficient(self):
        reports = {r.params: r for r in check_collapse(3)}
        # beta(6) = beta(5)J(1) - beta(3)J(3) + beta(1)J(5)
        assert reports[(3, 5)].lhs == beta_odd_closed(1)
        assert reports[(3, 3)].lhs == -1 * beta_odd_closed(2)
        assert reports[(3, 1)].lhs == beta_odd_closed(3)


class TestExactConstantCaches:
    CACHES = (_half_pi_term, lambda_even_closed, beta_odd_closed)

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
        init = PiPoly.__init__

        def counting_init(self, coeff=0, exp=0):
            calls.append((coeff, exp))
            init(self, coeff, exp)

        monkeypatch.setattr(PiPoly, "__init__", counting_init)
        reports = [*check_collapse(12), *check_remark1(30)]
        assert set(calls) <= {(0, 0)}  # only the zero of the expected sides is built
        assert all(r.passed for r in reports)

    @staticmethod
    def _pipolys_built(monkeypatch, call):
        """PiPolys made by arithmetic (every result goes through _trusted)
        during a warm call."""
        call()
        built = []
        trusted = PiPoly._trusted.__func__

        def counting(cls, coeff, exp):
            built.append(exp)
            return trusted(cls, coeff, exp)

        with monkeypatch.context() as patch:
            patch.setattr(PiPoly, "_trusted", classmethod(counting))
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


class TestExactChecksCanFail:
    """A closed form off by a relative 1e-9 must fail the exact suites."""

    @pytest.fixture
    def skewed_beta(self, monkeypatch):
        exact_beta = identities.beta_odd_closed
        monkeypatch.setattr(identities, "beta_odd_closed", lambda m: exact_beta(m) * (1 + Fraction(1, 10**9)))

    def test_remark1_fails(self, skewed_beta):
        for r in check_remark1(3):
            assert r.exact and not r.passed and r.abs_diff > 0

    def test_collapse_odd_rows_fail(self, skewed_beta):
        odd = [r for r in check_collapse(3) if r.params[1] % 2]
        # rows q = 1, 3 mix beta and lambda; the top row q = 5 holds the
        # closed form's beta(1) against Leibniz's pi/4
        assert [r.params for r in odd] == [(3, 1), (3, 3), (3, 5)]
        for r in odd:
            assert r.exact and not r.passed and r.abs_diff > 0

    def test_verify_collapse_exits_1(self, skewed_beta, capsys):
        assert run(["verify", "collapse", "--range", "1..3"]) == 1
        assert "✗" in capsys.readouterr().out


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
        for kind, exact in (("sine", beta_odd_closed(m + 1).evalf()), ("cosine", 0.0)):
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


def test_check_fourier_rejects_x_before_summing(monkeypatch):
    # the closed side checks x first, so a bad x costs no 1e6-term sum
    def no_sum(*args):
        raise AssertionError("summed before x was checked")

    monkeypatch.setattr(identities, "_odd_harmonic_sum", no_sum)
    for x in (2.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"x must lie in \[0, pi/2\]"):
            check_fourier("sine", 1, x, 10**6)


class TestFourierEquality:
    GRID = [math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", GRID)
    def test_sine_partial_matches_closed(self, m, x):
        r = check_fourier("sine", m, x, terms=10**5)
        assert r.passed, r

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", GRID)
    def test_cosine_partial_matches_closed(self, m, x):
        r = check_fourier("cosine", m, x, terms=10**5)
        assert r.passed, r

    def test_base_case_grid_converges(self):
        # order-3 sine series against lambda(2) x - beta(1) x^2/2
        xs = [i * (math.pi / 2) / 15 for i in range(16)]
        for x in xs:
            closed = fourier_closed("sine", 1, x)
            coarse = abs(fourier_partial("sine", 3, x, 10**3) - closed)
            fine = abs(fourier_partial("sine", 3, x, 10**5) - closed)
            assert fine <= coarse + 1e-12
            assert fine <= 1e-7


def _chi_reference(kind, order, x):
    # Legendre's chi_order(e^{ix}) = (Li(e^{ix}) - Li(-e^{ix}))/2 at 40 digits:
    # its imaginary part is the sine series, its real part the cosine series
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.expj(mpmath.mpf(x))
        chi = (mpmath.polylog(order, z) - mpmath.polylog(order, -z)) / 2
        return chi.imag if kind == "sine" else chi.real


# the (kind, order, x) of the default eq_a2, eq_a3, eq_a4 and lemma7 rows
DEFAULT_SERIES_POINTS = (
    [("sine", 3, i * (math.pi / 2) / 15) for i in range(16)]
    + [(kind, 2 * m + (kind == "sine"), idx * math.pi / 8) for m in (1, 2, 3) for idx in (1, 2, 3, 4)
       for kind in ("sine", "cosine")]
    + [("cosine", 1, 1.0), ("cosine", 1, math.pi / 3)]
)


class TestOddHarmonicSeries:
    def test_within_estimate_at_the_default_points(self):
        assert len(DEFAULT_SERIES_POINTS) == 42
        for point in DEFAULT_SERIES_POINTS:
            r = odd_harmonic_series(*point)
            assert r.method == "euler_boole"
            assert abs(r.value - _chi_reference(*point)) <= r.error_estimate <= 2e-14, point

    def test_within_estimate_at_seeded_points(self):
        rng = random.Random(20090101)
        for _ in range(300):
            point = (rng.choice(("sine", "cosine")), rng.randint(1, 7), rng.uniform(0.01, math.pi / 2))
            r = odd_harmonic_series(*point)
            assert abs(r.value - _chi_reference(*point)) <= r.error_estimate, point

    def test_direct_terms(self):
        # the smallest power of two >= 64 with 2N sin x >= 48
        assert odd_harmonic_series("sine", 3, math.pi / 8).work == 64
        assert odd_harmonic_series("sine", 3, math.pi / 30).work == 256
        assert odd_harmonic_series("cosine", 2, 0.01).work == 4096

    def test_sine_at_zero_is_exactly_zero(self):
        r = odd_harmonic_series("sine", 3, 0.0)
        assert (r.value, r.error_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("sine", 3, math.nan), r"x must lie in \[0, pi/2\]"),
            (("sine", 3, math.inf), r"x must lie in \[0, pi/2\]"),
            (("cosine", 2, -math.inf), r"x must lie in \[0, pi/2\]"),
            (("sine", 3, -1e-300), r"x must lie in \[0, pi/2\]"),
            (("cosine", 2, math.pi / 2 + 1e-9), r"x must lie in \[0, pi/2\]"),
            (("cosine", 2, 0.0), r"x must be at least about 3.7e-4"),
            (("sine", 3, 1e-4), r"x must be at least about 3.7e-4"),
            (("sine", 0, 0.5), r"order must be an integer >= 1, not 0"),
            (("cosine", -1, 0.5), r"order must be an integer >= 1, not -1"),
            (("cosine", 1075, 0.5), r"order must be at most 1074, not 1075"),
            (("tangent", 3, 0.5), r"kind must be 'sine' or 'cosine'"),
        ],
    )
    def test_rejections(self, args, message):
        with pytest.raises(ValueError, match=message):
            odd_harmonic_series(*args)

    def test_check_fourier_default_is_the_full_series(self):
        x = 3 * math.pi / 8
        r = check_fourier("cosine", 2, x)
        series = odd_harmonic_series("cosine", 4, x)
        assert (r.identity_id, r.params, r.lhs, r.rhs) == ("eq_a4", (2,), series.value, fourier_closed("cosine", 2, x))
        assert series.error_estimate < r.tol < 2e-14 and r.passed

    @pytest.mark.parametrize(
        "args,lhs,rhs",
        [
            (("sine", 2, 3 * math.pi / 8, 1000), "0x1.d82dc686865c0p-1", "0x1.d82dc686865c1p-1"),
            (("cosine", 3, math.pi / 8, 10**5), "0x1.d94712b803885p-1", "0x1.d94712b803885p-1"),
            (("sine", 1, 0.0, 7), "0x0.0p+0", "0x0.0p+0"),
        ],
    )
    def test_check_fourier_with_terms_is_unchanged(self, args, lhs, rhs):
        # an int terms keeps the partial sum at the fixed tol 1e-5, field for
        # field; the hex values are those of the partial-sum checks before
        # the full series existed (the BLAS sum may differ in its last bit
        # on another machine, so lhs is pinned by its definition as well)
        kind, m, x, terms = args
        r = check_fourier(*args)
        order = 2 * m + 1 if kind == "sine" else 2 * m
        assert r == IdentityReport("eq_a3" if kind == "sine" else "eq_a4", (m,), fourier_partial(kind, order, x, terms),
                                   fourier_closed(kind, m, x), 1e-5)
        assert r.rhs.hex() == rhs and r.tol == 1e-5 and r.passed
        assert abs(r.lhs - float.fromhex(lhs)) <= 4 * EPS

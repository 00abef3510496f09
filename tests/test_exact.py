import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dirichlet_j.exact import (
    PiPoly,
    _half_pi_term,
    _signed_product_sum,
    bernoulli_numbers,
    euler_numbers,
    pi_fraction,
)

# reference: mpmath mp.dps=30
PI_REF = Fraction(
    31415926535897932384626433832795028841971693993751, 10 ** 49
)


class TestEulerNumbers:
    def test_first_value(self):
        assert euler_numbers(1) == [1]

    def test_first_four(self):
        assert euler_numbers(4) == [1, -1, 5, -61]

    def test_first_five(self):
        # oracle: sum_{j<=k} C(2k,2j) E_{2j} = 0 solved by hand for E_8
        assert euler_numbers(5) == [1, -1, 5, -61, 1385]

    @pytest.mark.parametrize("k", [*range(1, 9), 20, 60, 100])
    def test_binomial_recurrence_oracle(self, k):
        e = euler_numbers(k + 1)
        assert sum(math.comb(2 * k, 2 * j) * e[j] for j in range(k + 1)) == 0

    def test_signs_alternate(self):
        e = euler_numbers(12)
        assert e[0] == 1
        for k, v in enumerate(e):
            assert v != 0 and (v > 0) == (k % 2 == 0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            euler_numbers(0)

    def test_beta_odd_bracket(self):
        # |E_{2k}| = 2^{2k+2} (2k)! beta(2k+1) / pi^{2k+1} with pi/4 <= beta(2k+1) < 1,
        # checked in rationals with pi bracketed to 150 digits (1 - beta(201) ~ 3^-201)
        digits = 150
        pi_lo = pi_fraction(digits) - Fraction(1, 10**digits)
        pi_hi = pi_fraction(digits) + Fraction(1, 10**digits)
        e = euler_numbers(101)
        assert e[0] == 1  # k = 0 is the equality beta(1) = pi/4
        for k in range(1, 101):
            scale = Fraction(abs(e[k]), 2 ** (2 * k + 2) * math.factorial(2 * k))
            assert scale * pi_lo ** (2 * k + 1) >= pi_hi / 4
            assert scale * pi_hi ** (2 * k + 1) < 1


def _bernoulli_akiyama_tanigawa(n_max):
    # independent oracle: Akiyama-Tanigawa gives B_m with B_1 = +1/2;
    # even-index values agree with either sign convention
    row = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


class TestBernoulliNumbers:
    def test_base(self):
        assert bernoulli_numbers(1) == [Fraction(1)]

    def test_first_two(self):
        assert bernoulli_numbers(2) == [Fraction(1), Fraction(1, 6)]

    def test_first_four(self):
        assert bernoulli_numbers(4) == [
            Fraction(1),
            Fraction(1, 6),
            Fraction(-1, 30),
            Fraction(1, 42),
        ]

    def test_against_akiyama_tanigawa(self):
        ours = bernoulli_numbers(60)
        oracle = _bernoulli_akiyama_tanigawa(118)
        assert ours == [oracle[2 * m] for m in range(60)]

    def test_signs(self):
        b = bernoulli_numbers(9)
        for m in range(1, 9):
            assert (b[m] > 0) == (m % 2 == 1)

    def test_reduced(self):
        for b in bernoulli_numbers(12):
            assert math.gcd(abs(b.numerator), b.denominator) == 1


class TestPiFraction:
    @pytest.mark.parametrize("digits", [15, 20, 30, 45])
    def test_accuracy(self, digits):
        assert abs(pi_fraction(digits) - PI_REF) < Fraction(1, 10**digits)


coeffs = st.fractions(
    min_value=-100, max_value=100, max_denominator=100
)
polys = st.dictionaries(st.integers(min_value=0, max_value=8), coeffs, max_size=5).map(PiPoly)


class TestPiPoly:
    def test_like_term_addition(self):
        two = PiPoly.term(2, 2)
        three = PiPoly.term(3, 2)
        assert two + three == PiPoly.term(5, 2)

    def test_multiplication(self):
        a = PiPoly.term(Fraction(1, 4), 1)   # pi/4
        b = PiPoly.term(Fraction(1, 8), 2)   # pi^2/8
        assert a * b == PiPoly.term(Fraction(1, 32), 3)

    def test_scale_annihilation(self):
        assert (PiPoly.term(1, 2) * 0).is_zero

    def test_no_zero_terms_stored(self):
        p = PiPoly.term(1, 3) - PiPoly.term(1, 3)
        assert p.terms == {}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiPoly({-1: Fraction(1)})
        for exp in (-1, 1.5):
            with pytest.raises(ValueError):
                PiPoly.term(1, exp)

    def test_immutable(self):
        p = PiPoly.term(1, 1)
        with pytest.raises(AttributeError):
            p._terms = {}
        p.terms[5] = Fraction(1)
        assert p == PiPoly.term(1, 1)

    def test_str_forms(self):
        assert str(PiPoly.zero()) == "0"
        assert str(PiPoly.term(Fraction(1, 8), 2)) == "1/8*pi^2"
        assert str(PiPoly.term(1, 1) - PiPoly.term(2, 0)) == "-2 + pi"

    @given(polys, polys)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, st.one_of(st.integers(-5, 5), coeffs))
    def test_arithmetic_matches_public_constructor(self, a, b, k):
        # every result equals PiPoly(...) over the same term sums, which
        # validates and re-canonicalises each coefficient
        a_items, b_items = list(a.terms.items()), list(b.terms.items())
        cases = [
            (a + b, PiPoly(a_items + b_items)),
            (a - b, PiPoly(a_items + [(e, -c) for e, c in b_items])),
            (-a, PiPoly([(e, -c) for e, c in a_items])),
            (a * b, PiPoly([(e1 + e2, c1 * c2) for e1, c1 in a_items for e2, c2 in b_items])),
            (a * k, PiPoly([(e, c * k) for e, c in a_items])),
            (k * a, PiPoly([(e, k * c) for e, c in a_items])),
        ]
        for got, want in cases:
            assert got == want
            assert hash(got) == hash(want)
            assert got.terms == want.terms
            assert str(got) == str(want)
        for zero in (a - a, a * 0, a * Fraction(0)):
            assert zero.is_zero and zero.terms == {} and zero == PiPoly.zero()

    @given(polys)
    def test_coefficients_stay_reduced(self, a):
        for c in (a * a + a).terms.values():
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator > 0


mixed_polys = st.dictionaries(
    st.integers(min_value=0, max_value=8), st.one_of(st.integers(-50, 50), coeffs), max_size=4
).map(PiPoly)
signed_products = st.lists(st.tuples(st.sampled_from([1, -1]), mixed_polys, mixed_polys), max_size=8)


def _naive_signed_sum(triples):
    acc = PiPoly.zero()
    for sign, a, b in triples:
        acc = acc + (a * b if sign > 0 else -(a * b))
    return acc


class TestSignedProductSum:
    @settings(max_examples=150)
    @given(signed_products, st.booleans())
    def test_equals_the_naive_fold(self, triples, cancel):
        if cancel:  # every product again with the opposite sign and factors swapped
            triples = triples + [(-sign, b, a) for sign, a, b in reversed(triples)]
        got = _signed_product_sum(iter(triples))
        want = _naive_signed_sum(triples)
        assert got == want and got.terms == want.terms and str(got) == str(want)
        assert list(got.terms) == sorted(got.terms)
        for c in got.terms.values():
            assert isinstance(c, Fraction) and c and math.gcd(c.numerator, c.denominator) == 1
        if cancel:
            assert got.is_zero and got == PiPoly.zero()

    def test_empty_and_multi_term(self):
        assert _signed_product_sum([]) == PiPoly.zero()
        a = PiPoly({0: 1, 2: Fraction(1, 3)})
        b = PiPoly({1: Fraction(-1, 2), 2: 5})
        # (1 + pi^2/3)(-pi/2 + 5 pi^2) - (pi^2/3)(5 pi^2) = -pi/2 + 5 pi^2 - pi^3/6
        got = _signed_product_sum([(1, a, b), (-1, PiPoly.term(Fraction(1, 3), 2), PiPoly.term(5, 2))])
        assert got == PiPoly({1: Fraction(-1, 2), 2: 5, 3: Fraction(-1, 6)})


class TestEvalf:
    def test_quarter_pi(self):
        # reference: mpmath mp.dps=30
        assert PiPoly.term(Fraction(1, 4), 1).evalf(15) == pytest.approx(
            0.78539816339744831, abs=1e-16
        )

    def test_pi_squared_over_eight(self):
        assert PiPoly.term(Fraction(1, 8), 2).evalf(15) == pytest.approx(
            1.2337005501361698, abs=1e-15
        )

    def test_zero(self):
        assert PiPoly.zero().evalf(15) == 0.0

    def test_digits_contract(self):
        v = PiPoly.term(Fraction(1, 8), 2).evalf(40)
        assert abs(v - 1.2337005501361698) <= 1e-15

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            PiPoly.term(1, 1).evalf(10)

    @settings(max_examples=80)
    @given(polys, polys)
    def test_additive_within_two_ulp(self, a, b):
        left = (a + b).evalf(15)
        right = a.evalf(15) + b.evalf(15)
        scale = max(abs(left), abs(right), abs(a.evalf(15)), abs(b.evalf(15)), 1e-300)
        assert abs(left - right) <= 2.0 * math.ulp(scale)


def test_half_pi_term_table():
    for j in range(171):
        assert _half_pi_term(j) == PiPoly.term(Fraction(1, 2**j * math.factorial(j)), j)
    assert _half_pi_term(0) == PiPoly.term(1, 0)
    assert _half_pi_term(2).evalf(15) == pytest.approx(2.4674011002723397 / 2, rel=1e-15)

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dirichlet_j.exact import (
    PiPoly,
    _ONE,
    _half_pi_term,
    _signed_product_sum,
    bernoulli_numbers,
    euler_numbers,
    pi_fraction,
)
from dirichlet_j.special import beta_odd_closed, lambda_even_closed

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
exps = st.integers(min_value=0, max_value=8)
polys = st.builds(PiPoly, coeffs, exps)


def _of_degree(exp):
    return st.builds(PiPoly, coeffs, st.just(exp))


# monomials of one shared degree, which a sum requires
same_degree_pairs = exps.flatmap(lambda e: st.tuples(_of_degree(e), _of_degree(e)))
same_degree_triples = exps.flatmap(lambda e: st.tuples(_of_degree(e), _of_degree(e), _of_degree(e)))


class TestPiPoly:
    def test_like_term_addition(self):
        two = PiPoly(2, 2)
        three = PiPoly(3, 2)
        assert two + three == PiPoly(5, 2)

    def test_multiplication(self):
        a = PiPoly(Fraction(1, 4), 1)   # pi/4
        b = PiPoly(Fraction(1, 8), 2)   # pi^2/8
        assert a * b == PiPoly(Fraction(1, 32), 3)

    def test_scale_annihilation(self):
        assert PiPoly(1, 2) * 0 == PiPoly()

    def test_no_zero_terms_stored(self):
        p = PiPoly(1, 3) - PiPoly(1, 3)
        assert p.terms == {}
        assert (p.coeff, p.exp) == (0, 0)

    def test_negative_exponent_rejected(self):
        for exp in (-1, 1.5):
            with pytest.raises(ValueError):
                PiPoly(1, exp)

    def test_immutable(self):
        p = PiPoly(1, 1)
        with pytest.raises(AttributeError):
            p.coeff = Fraction(2)
        p.terms[5] = Fraction(1)
        assert p == PiPoly(1, 1)

    def test_str_forms(self):
        assert str(PiPoly()) == "0"
        assert str(PiPoly(Fraction(1, 8), 2)) == "1/8*pi^2"
        assert str(PiPoly(-2, 0)) == "-2"
        assert str(PiPoly(1, 1)) == "pi"
        assert str(-PiPoly(1, 3)) == "-pi^3"
        assert str(PiPoly(Fraction(-3, 4), 1)) == "-3/4*pi"

    def test_mixed_degrees_rejected(self):
        a, b = PiPoly(Fraction(1, 3), 2), PiPoly(5, 3)
        for call in (lambda: a + b, lambda: a - b, lambda: _signed_product_sum([(1, a, _ONE), (-1, b, _ONE)])):
            with pytest.raises(ValueError, match=r"pi\^2 and pi\^3"):
                call()
        # a zero term has no degree, so it adds to any monomial
        assert a + PiPoly() == a and PiPoly() - b == -b

    def test_zero_is_canonical(self):
        zero = PiPoly(0, 5)
        assert zero == PiPoly() and hash(zero) == hash(PiPoly())
        assert zero.exp == 0 and str(zero) == "0"
        assert PiPoly(3, 4) * 0 == PiPoly() and (PiPoly(3, 4) * 0).exp == 0
        for p in (PiPoly(Fraction(-5, 6), 7), zero):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and hash(back) == hash(p) and str(back) == str(p)

    @given(same_degree_pairs)
    def test_addition_commutes(self, pair):
        a, b = pair
        assert a + b == b + a

    @given(polys, polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60)
    @given(same_degree_triples, polys, polys)
    def test_associativity(self, triple, a, b):
        x, y, z = triple
        assert (x + y) + z == x + (y + z)
        assert (a * b) * x == a * (b * x)

    @settings(max_examples=60)
    @given(polys, same_degree_pairs)
    def test_distributivity(self, a, pair):
        b, c = pair
        assert a * (b + c) == a * b + a * c

    @given(same_degree_pairs, polys, st.one_of(st.integers(-5, 5), coeffs))
    def test_arithmetic_matches_public_constructor(self, pair, c, k):
        # every result equals PiPoly(coeff, exp), which validates the
        # exponent and stores zero at exponent 0
        a, b = pair
        degree = a.exp or b.exp  # a zero monomial has exponent 0
        cases = [
            (a + b, PiPoly(a.coeff + b.coeff, degree)),
            (a - b, PiPoly(a.coeff - b.coeff, degree)),
            (-a, PiPoly(-a.coeff, a.exp)),
            (a * c, PiPoly(a.coeff * c.coeff, a.exp + c.exp)),
            (a * k, PiPoly(a.coeff * k, a.exp)),
            (k * a, PiPoly(k * a.coeff, a.exp)),
        ]
        for got, want in cases:
            assert got == want
            assert hash(got) == hash(want)
            assert got.terms == want.terms
            assert str(got) == str(want)
        for zero in (a - a, a * 0, a * Fraction(0)):
            assert zero.coeff == 0 and zero.terms == {} and zero == PiPoly()

    @given(polys)
    def test_coefficients_stay_reduced(self, a):
        for c in (a * a + a * a * 3).terms.values():
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator > 0


def _signed_products(exp):
    """(sign, a, b) triples whose products all have degree `exp`."""
    factor = st.one_of(st.integers(-50, 50), coeffs)
    pair = st.integers(0, exp).flatmap(
        lambda e: st.tuples(st.builds(PiPoly, factor, st.just(e)), st.builds(PiPoly, factor, st.just(exp - e)))
    )
    return st.lists(st.tuples(st.sampled_from([1, -1]), pair).map(lambda t: (t[0], *t[1])), max_size=8)


signed_products = st.integers(0, 8).flatmap(_signed_products)


def _naive_signed_sum(triples):
    """The same sum folded in Fractions, one reduction per operation."""
    total, exp = Fraction(0), 0
    for sign, a, b in triples:
        if a.coeff and b.coeff:
            total, exp = total + sign * (a.coeff * b.coeff), a.exp + b.exp
    return PiPoly(total, exp)


class TestSignedProductSum:
    @settings(max_examples=150)
    @given(signed_products, st.booleans())
    def test_equals_the_naive_fold(self, triples, cancel):
        if cancel:  # every product again with the opposite sign and factors swapped
            triples = triples + [(-sign, b, a) for sign, a, b in reversed(triples)]
        got = _signed_product_sum(iter(triples))
        want = _naive_signed_sum(triples)
        assert got == want and got.terms == want.terms and str(got) == str(want)
        c = got.coeff
        assert isinstance(c, Fraction) and math.gcd(c.numerator, c.denominator) == 1
        if cancel:
            assert got.coeff == 0 and got == PiPoly()

    def test_empty_and_multi_term(self):
        assert _signed_product_sum([]) == PiPoly()
        a = PiPoly(Fraction(1, 3), 2)
        b = PiPoly(Fraction(-1, 2), 1)
        # (pi^2/3)(-pi/2) - (-pi/2)(5 pi^2) + (3/4)(2 pi^3) = (-1/6 + 5/2 + 3/2) pi^3
        got = _signed_product_sum(
            [(1, a, b), (-1, b, PiPoly(5, 2)), (1, PiPoly(Fraction(3, 4), 0), PiPoly(2, 3))]
        )
        assert got == PiPoly(Fraction(23, 6), 3)


class TestEvalf:
    def test_quarter_pi(self):
        # reference: mpmath mp.dps=30
        assert PiPoly(Fraction(1, 4), 1).evalf() == pytest.approx(
            0.78539816339744831, abs=1e-16
        )

    def test_pi_squared_over_eight(self):
        assert PiPoly(Fraction(1, 8), 2).evalf() == pytest.approx(
            1.2337005501361698, abs=1e-15
        )

    def test_zero(self):
        assert PiPoly().evalf() == 0.0

    def test_digits_contract(self):
        # no digit count to ask for: the one value is the double nearest pi^2/8
        assert PiPoly(Fraction(1, 8), 2).evalf() == float(Fraction(1, 8) * pi_fraction(80) ** 2)

    def test_digits_validation(self):
        # evalf takes no digit count, so every one is rejected
        for digits in (10, 15, 40):
            with pytest.raises(TypeError):
                PiPoly(1, 1).evalf(digits)

    # lambda(2m) and beta(2m-1) at about 40 m over the CLI's range m <= 500,
    # and (pi/2)^j / j! over every j the J closed forms read
    SAMPLED_M = sorted({1, 2, 3, 250, 499, 500, *range(1, 501, 13)})
    CONSTANTS = {
        "lambda_even_closed": (lambda_even_closed, SAMPLED_M),
        "beta_odd_closed": (beta_odd_closed, SAMPLED_M),
        "half_pi_term": (_half_pi_term, range(172)),
    }

    @pytest.mark.parametrize("family", CONSTANTS)
    def test_correctly_rounded(self, family):
        # c * pi^e rounded once against pi to 80 digits is the nearest double
        # (c * pi^e off by < e * 1e-80 relative, far inside half an ulp)
        pi80 = pi_fraction(80)
        build, args = self.CONSTANTS[family]
        for arg in args:
            p = build(arg)
            assert p.evalf() == float(p.coeff * pi80**p.exp), (family, arg)

    @settings(max_examples=80)
    @given(same_degree_pairs)
    def test_additive_within_two_ulp(self, pair):
        a, b = pair
        left = (a + b).evalf()
        right = a.evalf() + b.evalf()
        scale = max(abs(left), abs(right), abs(a.evalf()), abs(b.evalf()), 1e-300)
        assert abs(left - right) <= 2.0 * math.ulp(scale)


def test_half_pi_term_table():
    for j in range(171):
        assert _half_pi_term(j) == PiPoly(Fraction(1, 2**j * math.factorial(j)), j)
    assert _half_pi_term(0) == PiPoly(1, 0)
    assert _half_pi_term(2).evalf() == pytest.approx(2.4674011002723397 / 2, rel=1e-15)

"""Dirichlet lambda and beta functions.

Numeric evaluation for real arguments uses Chebyshev-weighted acceleration
of the underlying alternating series (geometric error decay, so ~1.32
terms per requested decimal digit).  The classical closed forms at even
lambda / odd beta integer orders are produced exactly as pi-monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Literal

from .exact import PiPoly, _check_order, _Record, _setattr, up_down_number

__all__ = [
    "EvalResult",
    "lambda_even_closed",
    "beta_odd_closed",
    "lambda_numeric",
    "beta_numeric",
]

Method = Literal["closed_form", "accelerated_series", "quadrature", "euler_series", "riemann_sum"]

_EPS = math.ulp(1.0)
# error of the accelerated partial sum decays like _ACCEL_RATE^-terms
_ACCEL_RATE = 3.0 + math.sqrt(8.0)
_LN2 = math.log(2.0)


class EvalResult(_Record):
    """A computed value with an absolute error estimate and work counter."""

    __slots__ = ("value", "error_estimate", "method", "work")

    def __init__(self, value: float, error_estimate: float, method: Method, work: int):
        if error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if method != "closed_form" and work <= 0:
            raise ValueError("work must be > 0 for non-closed-form methods")
        # slot by slot, not through _assign: this record is built on every evaluation
        _setattr(self, "value", value)
        _setattr(self, "error_estimate", error_estimate)
        _setattr(self, "method", method)
        _setattr(self, "work", work)


# The closed forms are immutable PiPolys, built once per m.  The caches are
# typed: a bool or float such as True or 1.0, which the checks reject
# (ValueError), never matches the entry of an equal int that passed them.
@lru_cache(maxsize=None, typed=True)
def lambda_even_closed(m: int) -> PiPoly:
    """lambda(2m) = A_{2m-1} pi^{2m} / (2^{2m+1} (2m-1)!) as an exact pi-monomial,
    A_{2m-1} being a tangent number read from the up/down table."""
    _check_order(m, "m")
    coeff = Fraction(up_down_number(2 * m - 1), 2 ** (2 * m + 1) * factorial(2 * m - 1))
    return PiPoly(coeff, 2 * m)


@lru_cache(maxsize=None, typed=True)
def beta_odd_closed(m: int) -> PiPoly:
    """beta(2m-1) = A_{2m-2} (pi/2)^{2m-1} / (2 (2m-2)!) as an exact pi-monomial,
    A_{2m-2} being a secant number read from the up/down table."""
    _check_order(m, "m")
    coeff = Fraction(up_down_number(2 * m - 2), 2 ** (2 * m) * factorial(2 * m - 2))
    return PiPoly(coeff, 2 * m - 1)


def _terms_for_digits(digits: int) -> int:
    _check_order(digits, "digits")
    # past ~250 terms the weight scale (3+sqrt8)^terms overflows a double,
    # and the truncation error is already far below denormal
    return min(math.ceil(1.32 * digits) + 4, 250)


@lru_cache(maxsize=None)
def _chebyshev_weights(terms: int) -> tuple[tuple[float, ...], float]:
    """Weights c_0..c_{terms-1} and normaliser d of the accelerated sum.

    They depend on `terms` alone, which `_terms_for_digits` caps at 250.
    """
    d = _ACCEL_RATE**terms
    d = (d + 1.0 / d) / 2.0
    b, c = -1.0, -d
    weights = []
    for k in range(terms):
        c = b - c
        weights.append(c)
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    return tuple(weights), d


@lru_cache(maxsize=None)
def _bases(step: float, terms: int) -> tuple[float, ...]:
    """The bases step*k + 1 of the terms k = 0..terms-1 of an alternating sum."""
    return tuple(step * k + 1.0 for k in range(terms))


def _accelerated_alternating(step: float, s: float, terms: int) -> float:
    """sum_{k>=0} (-1)^k (step*k + 1)^-s, accelerated: eta(s) at step 1.0,
    beta(s) at step 2.0.

    Chebyshev-polynomial weighting of the first `terms` partial sums; the
    truncation error is O((3+sqrt 8)^-terms).  Only the weights and bases
    are cached: they depend on `step` and `terms` alone, never on s.
    """
    weights, d = _chebyshev_weights(terms)
    acc = 0.0
    for c, b in zip(weights, _bases(step, terms)):
        acc += c * b**-s
    return acc / d


def lambda_numeric(s: float, digits: int = 15) -> EvalResult:
    """lambda(s) = sum 1/(2n-1)^s for s > 1, to `digits` significant digits.

    Evaluated as (1 - 2^-s) * zeta(s) with zeta(s) = eta(s) / (1 - 2^{1-s})
    and eta (the alternating zeta) summed by acceleration.
    """
    if not 1 < s < math.inf:
        raise ValueError("lambda(s) requires finite s > 1")
    n = _terms_for_digits(digits)
    eta = _accelerated_alternating(1.0, s, n)
    # 1 - 2^{1-s} through expm1: the plain difference cancels as s -> 1
    scale = (1.0 - 2.0 ** (-s)) / -math.expm1((1.0 - s) * _LN2)
    value = eta * scale
    err = 4.0 * _ACCEL_RATE ** (-n) * abs(scale) + 16.0 * _EPS * abs(value)
    return EvalResult(value, err, "accelerated_series", n)


def beta_numeric(s: float, digits: int = 15) -> EvalResult:
    """beta(s) = sum (-1)^{n-1}/(2n-1)^s for s > 0, to `digits` digits."""
    if not 0 < s < math.inf:
        raise ValueError("beta(s) requires finite s > 0")
    n = _terms_for_digits(digits)
    value = _accelerated_alternating(2.0, s, n)
    return EvalResult(value, _beta_error(value, n), "accelerated_series", n)


def _beta_error(value: float, terms: int) -> float:
    """The error estimate of a beta value summed with `terms` terms: the
    truncation bound 4 (3+sqrt 8)^-terms plus 16 ulp of the value."""
    return 4.0 * _ACCEL_RATE ** (-terms) + 16.0 * _EPS * abs(value)


def _beta_even(n: int, digits: int) -> tuple[list[tuple[float, float]], int]:
    """beta(2n), beta(2n-2), ..., beta(2) as `beta_numeric` sums them, each
    as a pair (value, error estimate), and the term count."""
    terms = _terms_for_digits(digits)
    values = [_accelerated_alternating(2.0, 2 * n - 2 * k, terms) for k in range(n)]
    return [(b, _beta_error(b, terms)) for b in values], terms

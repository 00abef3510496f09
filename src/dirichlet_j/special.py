"""Dirichlet lambda and beta functions.

Numeric evaluation for real arguments sums 24 terms of the underlying
alternating series with the Chebyshev-weighted acceleration of Cohen,
Rodriguez Villegas & Zagier.  The classical closed forms at even
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

Method = Literal["closed_form", "accelerated_series", "quadrature", "euler_series", "riemann_sum", "euler_boole"]

_EPS = math.ulp(1.0)
# the accelerated sum's error decays like _ACCEL_RATE^-terms: at 24 terms it is
# below 4 _ACCEL_RATE^-24 = 1.7e-18, 0.02 ulp of any beta(s) >= 1/2
_ACCEL_RATE = 3.0 + math.sqrt(8.0)
_TERMS = 24
_TRUNCATION = 4.0 * _ACCEL_RATE ** (-_TERMS)
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


def _chebyshev_weights() -> tuple[tuple[float, ...], float]:
    """Weights c_0..c_{_TERMS-1} and normaliser d of the accelerated sum."""
    d = _ACCEL_RATE**_TERMS
    d = (d + 1.0 / d) / 2.0
    b, c = -1.0, -d
    weights = []
    for k in range(_TERMS):
        c = b - c
        weights.append(c)
        b *= (k + _TERMS) * (k - _TERMS) / ((k + 0.5) * (k + 1.0))
    return tuple(weights), d


_WEIGHTS, _NORM = _chebyshev_weights()
# the bases step*k + 1 of the terms k = 0.._TERMS-1: eta at step 1.0, beta at 2.0
_BASES = {step: tuple(step * k + 1.0 for k in range(_TERMS)) for step in (1.0, 2.0)}


def _accelerated_alternating(step: float, s: float) -> float:
    """sum_{k>=0} (-1)^k (step*k + 1)^-s, accelerated: eta(s) at step 1.0,
    beta(s) at step 2.0.

    Chebyshev-polynomial weighting of the first _TERMS partial sums; the
    truncation error is at most _TRUNCATION.  The weights and bases are
    module constants: they never depend on s.
    """
    acc = 0.0
    for c, b in zip(_WEIGHTS, _BASES[step]):
        acc += c * b**-s
    return acc / _NORM


def lambda_numeric(s: float) -> EvalResult:
    """lambda(s) = sum 1/(2n-1)^s for s > 1.

    Evaluated as (1 - 2^-s) * zeta(s) with zeta(s) = eta(s) / (1 - 2^{1-s})
    and eta (the alternating zeta) summed by acceleration.
    """
    if not 1 < s < math.inf:
        raise ValueError("lambda(s) requires finite s > 1")
    eta = _accelerated_alternating(1.0, s)
    # 1 - 2^{1-s} through expm1: the plain difference cancels as s -> 1
    scale = (1.0 - 2.0 ** (-s)) / -math.expm1((1.0 - s) * _LN2)
    value = eta * scale
    err = _TRUNCATION * abs(scale) + 16.0 * _EPS * abs(value)
    return EvalResult(value, err, "accelerated_series", _TERMS)


def beta_numeric(s: float) -> EvalResult:
    """beta(s) = sum (-1)^{n-1}/(2n-1)^s for s > 0."""
    if not 0 < s < math.inf:
        raise ValueError("beta(s) requires finite s > 0")
    value = _accelerated_alternating(2.0, s)
    return EvalResult(value, _beta_error(value), "accelerated_series", _TERMS)


def _beta_error(value: float) -> float:
    """A beta value's error estimate: the truncation bound plus 16 ulp of it."""
    return _TRUNCATION + 16.0 * _EPS * abs(value)


def _beta_even(n: int) -> list[tuple[float, float]]:
    """beta(2n), beta(2n-2), ..., beta(2) as `beta_numeric` sums them, each
    as a pair (value, error estimate); each costs _TERMS terms."""
    values = [_accelerated_alternating(2.0, 2 * n - 2 * k) for k in range(n)]
    return [(b, _beta_error(b)) for b in values]

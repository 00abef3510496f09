"""Structured trigonometric matrices, finite trig sums, and exact Taylor facts.

The n x n odd-frequency sine/cosine matrices with entries at angles
(2i-1)(2j-1)pi/(4n) square to (n/2) I, hence are (2/n)-scaled involutions.
Entry angles are reduced modulo 2 pi exactly on the rational multiple of pi
before any trig call, so large index products cost no accuracy.  A matrix is
a tuple of row tuples, and the matrices and trig sums are pure Python; only
the log-tan series reaches numpy, through the odd-harmonic kernel of
`identities`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from operator import mul
from typing import Literal

from .exact import PiPoly, _check_order, euler_numbers
from .identities import IdentityReport, Kind, _check_kind, _odd_harmonic_sum

__all__ = [
    "build_matrix",
    "check_involution",
    "trig_sum_check",
    "log_tan_series",
    "csc_taylor_check",
]

TrigLemma = Literal["1_cos", "1_sin", "2_altcos"]


def build_matrix(n: int, kind: Kind) -> tuple[tuple[float, ...], ...]:
    """Symmetric n x n matrix with entry (i, j) = sin or cos of
    (2i-1)(2j-1)pi/(4n), indices 1-based, as a tuple of row tuples."""
    _check_order(n)
    _check_kind(kind)
    trig = math.sin if kind == "sine" else math.cos
    step = math.pi / (4 * n)
    odd = range(1, 2 * n, 2)
    # angle numerator reduced mod 8n, the period 2 pi, before the trig call
    return tuple(tuple(trig(a * b % (8 * n) * step) for b in odd) for a in odd)


def check_involution(n: int, kind: Kind) -> IdentityReport:
    """max |M^2 - (n/2) I| over all entries, by direct multiplication, at tolerance n * 1e-13.

    M is symmetric, so entry (i, j) of M^2 is the product of rows i and j,
    and the upper triangle holds every distinct entry."""
    rows = build_matrix(n, kind)
    diff = max(
        abs(sum(map(mul, rows[i], rows[j])) - (n / 2.0 if i == j else 0.0)) for i in range(n) for j in range(i, n)
    )
    identity_id = "lemma3" if kind == "sine" else "lemma4"
    return IdentityReport(identity_id, (n,), diff, 0.0, tol=n * 1e-13)


def trig_sum_check(lemma: TrigLemma, n: int, x: float, case: int | None = None) -> IdentityReport:
    """Direct n-term trig sum vs its closed form.

      1_cos:    sum cos((2k-1)x)          = csc(x) sin(2nx) / 2
      1_sin:    sum sin((2k-1)x)          = csc(x) sin(nx)^2
      2_altcos: sum (-1)^{k-1}cos((2k-1)x) = sec(x) sin(n(pi-2x)/2)^2

    x at a pole of the closed form (multiples of pi for the first two, odd
    multiples of pi/2 for the third), a non-finite x and an x whose angle
    2nx overflows are rejected before any work.
    """
    _check_order(n)
    if lemma not in ("1_cos", "1_sin", "2_altcos"):
        raise ValueError("lemma must be one of '1_cos', '1_sin', '2_altcos'")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if not math.isfinite(2 * n * x):
        raise ValueError("x is too large: the angle 2nx overflows")
    if lemma == "2_altcos":
        if abs(math.cos(x)) < 1e-12:
            raise ValueError("x is at a pole of sec")
    elif abs(math.sin(x)) < 1e-12:
        raise ValueError("x is at a pole of csc")
    odd = range(1, 2 * n, 2)
    if lemma == "1_cos":
        direct = math.fsum(math.cos(a * x) for a in odd)
        closed = 0.5 * math.sin(2 * n * x) / math.sin(x)
        identity_id = "lemma1_cos"
    elif lemma == "1_sin":
        direct = math.fsum(math.sin(a * x) for a in odd)
        closed = math.sin(n * x) ** 2 / math.sin(x)
        identity_id = "lemma1_sin"
    else:  # the sign (-1)^{k-1} is + where a = 2k-1 is 1 mod 4
        direct = math.fsum(math.cos(a * x) if a % 4 == 1 else -math.cos(a * x) for a in odd)
        closed = math.sin(n * (math.pi - 2.0 * x) / 2.0) ** 2 / math.cos(x)
        identity_id = "lemma2"
    params = (n,) if case is None else (n, case)
    return IdentityReport(identity_id, params, direct, closed, tol=n * 1e-13)


def log_tan_series(x: float, terms: int) -> float:
    """Partial sum of sum_k cos((2k-1)x)/(2k-1), which converges to
    -(1/2) ln(tan(x/2)) on (0, pi)."""
    if not 0.0 < x < math.pi:
        raise ValueError("x must lie in (0, pi)")
    _check_order(terms, "terms")
    return _odd_harmonic_sum("cosine", 1, x, terms)


def csc_taylor_check(k_max: int) -> IdentityReport:
    """Even Taylor coefficients of csc at pi/2 vs the Euler numbers.

    csc(pi/2 + t) = sec(t); the reciprocal of the cosine series is computed
    locally by a Fraction recurrence, coefficient k is scaled by (2k)!, and
    the result must equal (-1)^k E_{2k} exactly for k = 0..k_max, where E is
    read from the integer boustrophedon table behind :func:`euler_numbers`.
    The two routes share no arithmetic.
    """
    _check_order(k_max, "k_max")
    count = k_max + 1
    sec = [Fraction(1)] + [Fraction(0)] * k_max
    for k in range(1, count):
        sec[k] = -sum(Fraction((-1) ** j, factorial(2 * j)) * sec[k - j] for j in range(1, k + 1))
    derivatives = [sec[k] * factorial(2 * k) for k in range(count)]
    expected = [Fraction((-1) ** k * e) for k, e in enumerate(euler_numbers(count))]
    # show the first mismatch when failing, the top coefficient when passing
    idx = next((k for k in range(count) if derivatives[k] != expected[k]), k_max)
    return IdentityReport("lemma8", (k_max,), PiPoly(derivatives[idx]), PiPoly(expected[idx]))

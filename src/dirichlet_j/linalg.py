"""Structured trigonometric matrices, finite trig sums, and exact Taylor facts.

The n x n odd-frequency sine/cosine matrices with entries at angles
(2i-1)(2j-1)pi/(4n) square to (n/2) I, hence are (2/n)-scaled involutions.
Entry angles are reduced modulo 2 pi exactly on the rational multiple of pi
before any trig call, so large index products cost no accuracy.
"""

from __future__ import annotations

import math
from math import factorial
from typing import TYPE_CHECKING, Literal

from .exact import _Record, euler_numbers
from .identities import IdentityReport, _check_tol, _numeric_report, _odd_harmonic_sum
from .jfun import _check_order

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OddGridMatrix",
    "build_matrix",
    "check_involution",
    "trig_sum_check",
    "log_tan_series",
    "csc_taylor_check",
]

Kind = Literal["sine", "cosine"]
TrigLemma = Literal["1_cos", "1_sin", "2_altcos"]


class OddGridMatrix(_Record):
    __slots__ = ("n", "kind", "entries")

    def __init__(self, n: int, kind: Kind, entries: np.ndarray):
        entries.setflags(write=False)
        self._assign(n, kind, entries)


def build_matrix(n: int, kind: Kind) -> OddGridMatrix:
    """Symmetric n x n matrix with entry (i, j) = sin or cos of
    (2i-1)(2j-1)pi/(4n), indices 1-based."""
    _check_order(n)
    if kind not in ("sine", "cosine"):
        raise ValueError("kind must be 'sine' or 'cosine'")
    import numpy as np
    odd = 2 * np.arange(1, n + 1, dtype=np.int64) - 1
    prod = np.outer(odd, odd) % (8 * n)  # angle numerator, period 8n <-> 2 pi
    theta = prod * (math.pi / (4 * n))
    entries = np.sin(theta) if kind == "sine" else np.cos(theta)
    return OddGridMatrix(n=n, kind=kind, entries=entries)


def check_involution(n: int, kind: Kind, tol: float | None = None) -> IdentityReport:
    """max |M^2 - (n/2) I| over all entries, by direct multiplication."""
    _check_tol(tol)
    if tol is None:
        tol = n * 1e-13
    import numpy as np
    m = build_matrix(n, kind)
    square = m.entries @ m.entries
    target = (n / 2.0) * np.eye(n)
    diff = float(np.max(np.abs(square - target)))
    identity_id = "lemma3" if kind == "sine" else "lemma4"
    return _numeric_report(identity_id, (n,), diff, 0.0, tol=tol)


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
    import numpy as np
    k = np.arange(1, n + 1, dtype=float)
    a = (2.0 * k - 1.0) * x
    if lemma == "1_cos":
        direct = float(np.sum(np.cos(a)))
        closed = 0.5 * math.sin(2 * n * x) / math.sin(x)
        identity_id = "lemma1_cos"
    elif lemma == "1_sin":
        direct = float(np.sum(np.sin(a)))
        closed = math.sin(n * x) ** 2 / math.sin(x)
        identity_id = "lemma1_sin"
    else:
        direct = float(np.sum(np.where(k % 2 == 1, 1.0, -1.0) * np.cos(a)))
        closed = math.sin(n * (math.pi - 2.0 * x) / 2.0) ** 2 / math.cos(x)
        identity_id = "lemma2"
    params = (n,) if case is None else (n, case)
    return _numeric_report(identity_id, params, direct, closed, tol=n * 1e-13)


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
    from fractions import Fraction

    from .exact import PiPoly

    count = k_max + 1
    sec = [Fraction(1)] + [Fraction(0)] * k_max
    for k in range(1, count):
        sec[k] = -sum(Fraction((-1) ** j, factorial(2 * j)) * sec[k - j] for j in range(1, k + 1))
    derivatives = [sec[k] * factorial(2 * k) for k in range(count)]
    expected = [Fraction((-1) ** k * e) for k, e in enumerate(euler_numbers(count))]
    passed = derivatives == expected
    # show the first mismatch when failing, the top coefficient when passing
    idx = next((k for k in range(count) if derivatives[k] != expected[k]), k_max)
    lhs = PiPoly.term(derivatives[idx], 0)
    rhs = PiPoly.term(expected[idx], 0)
    try:
        diff = 0.0 if passed else abs(float(derivatives[idx] - expected[idx]))
    except OverflowError:
        diff = math.inf
    return IdentityReport("lemma8", (k_max,), lhs, rhs, diff, exact=True, passed=passed)

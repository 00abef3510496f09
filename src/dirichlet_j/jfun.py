"""The cosecant-moment integral J(s) by four independent routes.

J(s) = (1/Gamma(s+1)) * (2/pi) * integral_0^{pi/2} x^s / sin(x) dx,
convergent for s > 0 (the integrand behaves like x^{s-1} at the origin).

Routes:
  * tanh-sinh quadrature of the defining integral (any real s > 0);
  * the Euler-number series  J(n) = sum_k (-1)^k E_{2k} (pi/2)^{n+2k} / (n+2k+1)!
    for integer n, with its slowly decaying tail completed analytically;
  * finite midpoint Riemann sums (diagnostic approximant);
  * closed forms at integer arguments assembled from beta/lambda values.

The divergent companion expansion (the same limit with cos in place of sin)
is never evaluated numerically; only its exact expansion coefficients in the
J(k) are produced, for use by the exact identity checks.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from math import factorial

from .exact import PiPoly, _half_pi_term, _Record, euler_numbers
from .special import EvalResult, _beta_even, lambda_numeric

__all__ = [
    "ConvergenceError",
    "WExpansion",
    "j_quadrature",
    "j_euler_series",
    "j_riemann_sum",
    "j_closed_odd",
    "j_closed_even",
    "w_expansion",
]

_EPS = math.ulp(1.0)
_HALF_PI = math.pi / 2.0
_HALF_PI_REL_ERR = 3.9e-17  # |_HALF_PI - pi/2| / (pi/2) = 3.898e-17
_OVERFLOW = "Gamma({} + 1) overflows a double: J(s) requires s <= 170.62"


class ConvergenceError(RuntimeError):
    """Raised when an evaluator cannot meet its tolerance within its caps."""


def _abs_target(digits: int) -> float:
    """The absolute stopping target 10^(1 - digits) of the J routes."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    target = 10.0 ** -(digits - 1)
    if target == 0.0:
        raise ValueError(f"digits={digits} is too large: the target 10^(1 - digits) underflows to 0")
    return target


def _check_order(n: int) -> None:
    """Rejects an integer route's n, before any work, unless it is an int >= 1 (bool excluded)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, not {n!r}")


def _check_domain(s: float) -> None:
    """Rejects s outside 0 < s < 171 before any work; `_gamma_s_plus_1` rejects 170.62 < s < 171."""
    if not 0 < s < math.inf:
        raise ValueError("J(s) requires finite s > 0")
    if s >= 171:
        raise ValueError(_OVERFLOW.format(s))


def _gamma_s_plus_1(s: float) -> float:
    try:
        return float(factorial(int(s))) if float(s).is_integer() else math.gamma(s + 1.0)
    except OverflowError:
        raise ValueError(_OVERFLOW.format(s)) from None


def _integrand(x, s: float):
    """x^s / sin(x) on (0, pi/2); x^s via exp(s log x) to behave for tiny x."""
    import numpy as np
    return np.exp(s * np.log(x)) / np.sin(x)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on the fixed interval (0, pi/2)
# ---------------------------------------------------------------------------
#
# Substitution x(t) = (pi/4) (1 + tanh((pi/2) sinh t)) maps the real line onto
# (0, pi/2) with double-exponentially decaying weights, so the trapezoid rule
# in t converges at roughly digits ~ 2^level even with an integrable endpoint
# singularity.  Nodes near 0 come from the stable form x = (pi/2) e^{2z}/(1+e^{2z})
# (x > 0 down to ~1e-304) and each level is cached as pairs (log x, w / sin x):
# a sum at any s costs one exp and one multiply per node, added by math.fsum.

_T_MAX = 6.2  # beyond this the node weight underflows to 0
_MAX_LEVEL = 12
_node_cache: dict[int, tuple[tuple[float, float], ...]] = {}
_node_lock = threading.Lock()


def _build_level(level: int) -> tuple[tuple[float, float], ...]:
    """Nodes new at `level` as pairs (log x, w / sin x): level 0 is the unit
    grid, higher levels contribute only the odd multiples of h = 2^-level."""
    h = 2.0 ** (-level)
    nodes: list[tuple[float, float]] = []
    for k in range(int(_T_MAX / h) + 1):
        if level > 0 and k % 2 == 0:
            continue
        for t in ((0.0,) if k == 0 else (k * h, -k * h)):
            z = _HALF_PI * math.sinh(t)
            ez = math.exp(-2.0 * abs(z))
            w = 0.5 * _HALF_PI * _HALF_PI * math.cosh(t) * 4.0 * ez / (1.0 + ez) ** 2
            if w == 0.0:
                continue
            if z >= 0.0:
                x = _HALF_PI / (1.0 + ez)
            else:
                x = _HALF_PI * ez / (1.0 + ez)
            if x == 0.0 or x == _HALF_PI:
                continue
            nodes.append((math.log(x), w / math.sin(x)))
    return tuple(nodes)


def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    try:
        return _node_cache[level]
    except KeyError:
        pass
    built = _build_level(level)
    with _node_lock:
        return _node_cache.setdefault(level, built)


def j_quadrature(s: float, digits: int = 14) -> EvalResult:
    """J(s) for real s > 0 by level-doubling tanh-sinh quadrature.

    Stops when two successive refinement levels agree to within half the
    absolute target 10^(1 - digits) (measured on J itself); raises
    :class:`ConvergenceError` if level _MAX_LEVEL is passed first.
    """
    _check_domain(s)
    tol = _abs_target(digits)
    prefactor = 2.0 / math.pi / _gamma_s_plus_1(s)
    total = 0.0
    value = 0.0
    work = 0
    for level in range(_MAX_LEVEL + 1):
        nodes = _level_nodes(level)
        part = math.fsum(c * math.exp(s * log_x) for log_x, c in nodes)
        work += len(nodes)
        h = 2.0 ** (-level)
        total = part if level == 0 else total / 2.0 + h * part
        new_value = total * prefactor
        if level > 0:
            diff = abs(new_value - value)
            if diff <= tol / 2.0:
                err = max(diff, 4.0 * _EPS * abs(new_value))
                return EvalResult(new_value, err, "quadrature", work)
        value = new_value
    raise ConvergenceError(f"tanh-sinh quadrature did not reach tol={tol:g} for s={s} within max_level={_MAX_LEVEL}")


# ---------------------------------------------------------------------------
# Euler-number series
# ---------------------------------------------------------------------------
#
# All series terms are positive: (-1)^k E_{2k} = |E_{2k}|.  Since
# |E_{2k}| = 2^{2k+2} (2k)!/pi^{2k+1} * beta(2k+1), each term equals
# beta(2k+1) * b_k with the envelope b_k = 4 (pi/2)^n / pi * (2k)!/(n+2k+1)!.
# The envelope decays only like k^-(n+1), far too slowly to truncate at
# realistic tolerances, but sum_k b_k has an elementary closed form, and
# beta(2k+1) -> 1 at the geometric rate 3^-(2k+1).  So we sum K+1 exact
# terms, add the closed-form remainder sum_{k>K} b_k, and bound the
# difference  sum_{k>K} b_k (1 - beta(2k+1)) <= (9/8) b_{K+1} 3^-(2K+3),
# which shrinks below any practical tolerance within a few dozen terms.

_EULER_MAX_INDEX = 4000


def _over_factorial(x: float, m: int) -> float:
    """x / m! for m! beyond a double too: m! is scaled down by a power of two,
    which its trailing zero bits make exact, and the quotient scaled back."""
    f = factorial(m)
    shift = max(0, f.bit_length() - 1000)
    return math.ldexp(x / float(f >> shift), -shift)


@lru_cache(maxsize=None, typed=True)  # at most 170 keys
def _envelope_total(n: int) -> float:
    """sum_{k>=0} (2k)!/(n+2k+1)! = (1/n!) sum_{i>=0} 2^-(i+1)/(n+i).

    Positive geometric series; summed until the tail is below 1e-22 relative.
    """
    acc = 0.0
    powhalf = 0.5
    i = 0
    while True:
        term = powhalf / (n + i)
        acc += term
        if term < 1e-22 * acc:
            return acc / _gamma_s_plus_1(n)
        powhalf *= 0.5
        i += 1


def j_euler_series(n: int, digits: int = 13) -> EvalResult:
    """J(n) for integer n >= 1 from the Euler-number series.

    Terms are summed exactly as stated until the analytic bound on the
    residual left after tail completion drops below half the absolute target
    10^(1 - digits); the closed-form envelope remainder is then added.
    """
    _check_order(n)
    _check_domain(n)
    tol = _abs_target(digits)

    scale = 4.0 * _HALF_PI**n / math.pi
    envelope_total = scale * _envelope_total(n)
    # envelope b_k = scale * (2k)!/(n+2k+1)!, kept alongside the true terms
    b = _over_factorial(scale, n + 1)
    t = _over_factorial(_HALF_PI**n, n + 1)
    partial = 0.0
    envelope_head = 0.0
    k = 0
    e = euler_numbers(8)
    while True:
        partial += t
        envelope_head += b
        b_next = b * (2 * k + 1) * (2 * k + 2) / ((n + 2 * k + 2) * (n + 2 * k + 3))
        residual = 1.125 * b_next * 3.0 ** (-(2 * k + 3))
        if residual <= tol / 2.0:
            break
        k += 1
        if 2 * k > _EULER_MAX_INDEX:
            raise ConvergenceError(f"tol={tol:g} needs Euler numbers beyond index {_EULER_MAX_INDEX}")
        if k >= len(e):
            e = euler_numbers(2 * len(e))
        # |E_{2k}| / |E_{2k-2}|; int true division rounds correctly
        ratio = -e[k] / e[k - 1]
        t *= ratio * _HALF_PI * _HALF_PI / ((n + 2 * k) * (n + 2 * k + 1))
        b = b_next

    tail = envelope_total - envelope_head
    value = partial + tail
    # rounding: each of the k additions into partial and envelope_head, and
    # float pi/2 raised to the n, which carries n times its relative error
    err = residual + ((8.0 + k) * _EPS + n * _HALF_PI_REL_ERR) * abs(value)
    return EvalResult(value, err, "euler_series", k + 1)


# ---------------------------------------------------------------------------
# Riemann-sum approximant and closed forms
# ---------------------------------------------------------------------------


def j_riemann_sum(s: float, n: int) -> float:
    """Finite midpoint-grid approximant to J(s):
    (1/(Gamma(s+1) n)) sum_{p=1..n} x_p^s / sin(x_p),  x_p = (2p-1)pi/(4n).

    Diagnostic only; no error estimate is claimed.
    """
    _check_domain(s)
    _check_order(n)
    gamma = _gamma_s_plus_1(s)
    import numpy as np
    p = np.arange(1, n + 1, dtype=float)
    x = (2.0 * p - 1.0) * math.pi / (4.0 * n)
    return float(np.sum(_integrand(x, s))) / (gamma * n)


@lru_cache(maxsize=1024)
def _half_pi_factor(j: int, digits: int) -> float:
    """(pi/2)^j / j!, evaluated exactly at `digits` (>= 15) and rounded once;
    a constant of the closed forms, shared by every argument."""
    return _half_pi_term(j).evalf(digits)


def j_closed_odd(n: int, digits: int = 15) -> EvalResult:
    """J(2n-1) from the closed form
    (pi/4) J(2n-1) = (-1)^{n-1} sum_{k=0}^{n-1} (-1)^k beta(2n-2k) (pi/2)^{2k} / (2k)!.
    """
    _check_order(n)
    _check_domain(2 * n - 1)
    betas, trunc, terms = _beta_even(n, digits)
    factor_digits = max(digits, 15)
    acc = 0.0
    err = 0.0
    sign = 1.0
    for k, b in enumerate(betas):
        factor = _half_pi_factor(2 * k, factor_digits)
        acc += sign * b * factor
        err += (trunc + 16.0 * _EPS * abs(b)) * factor
        sign = -sign
    value = (-1) ** (n - 1) * acc * 4.0 / math.pi
    err = (err + 4.0 * _EPS * abs(acc)) * 4.0 / math.pi
    return EvalResult(value, err, "closed_form", n * terms)


def j_closed_even(n: int, digits: int = 15) -> EvalResult:
    """J(2n) from the closed form
    (pi/4) J(2n) = (-1)^n [lambda(2n+1)
                   - sum_{k=0}^{n-1} (-1)^k beta(2n-2k) (pi/2)^{2k+1} / (2k+1)!].
    """
    _check_order(n)
    _check_domain(2 * n)
    lam = lambda_numeric(2 * n + 1, digits)
    betas, trunc, terms = _beta_even(n, digits)
    factor_digits = max(digits, 15)
    acc = lam.value
    err = lam.error_estimate
    sign = 1.0
    for k, b in enumerate(betas):
        factor = _half_pi_factor(2 * k + 1, factor_digits)
        acc -= sign * b * factor
        err += (trunc + 16.0 * _EPS * abs(b)) * factor
        sign = -sign
    value = (-1) ** n * acc * 4.0 / math.pi
    err = (err + 4.0 * _EPS * abs(acc)) * 4.0 / math.pi
    return EvalResult(value, err, "closed_form", lam.work + n * terms)


class WExpansion(_Record):
    """Exact expansion coefficients of the divergent cosine-denominator
    companion of J at integer order m in terms of J(0..m):
    coefficient of J(k) is (-1)^k (pi/2)^{m-k} / (m-k)!.

    Symbolic bookkeeping only; neither the companion nor J(0) is a number.
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients: tuple[PiPoly, ...] = ()):
        self._assign(order, coefficients)


@lru_cache(maxsize=None, typed=True)  # typed: see special.lambda_even_closed
def w_expansion(m: int) -> WExpansion:
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = tuple(-_half_pi_term(m - k) if k % 2 else _half_pi_term(m - k) for k in range(m + 1))
    return WExpansion(order=m, coefficients=coeffs)

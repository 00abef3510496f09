"""The cosecant-moment integral J(s) by four independent routes.

J(s) = (1/Gamma(s+1)) * (2/pi) * integral_0^{pi/2} x^s / sin(x) dx,
convergent for s > 0 (the integrand behaves like x^{s-1} at the origin).

Routes:
  * tanh-sinh quadrature of the defining integral (any real s > 0);
  * the Euler-number series  J(n) = sum_k (-1)^k E_{2k} (pi/2)^{n+2k} / (n+2k+1)!
    for integer n, with its slowly decaying tail completed analytically;
  * finite midpoint Riemann sums (diagnostic approximant);
  * closed forms at integer arguments assembled from beta/lambda values.
All four are pure Python; none imports numpy.  No route takes a digit count:
the quadrature and the Euler series stop on one fixed target, _TARGET.

The divergent companion W(m) (the same limit with cos in place of sin) is
never evaluated numerically: its coefficient of J(k) is
(-1)^k (pi/2)^{m-k} / (m-k)!, which `identities.check_collapse` reads from
the exact (pi/2)^j / j! table.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from math import factorial

from .exact import _check_order, _half_pi_term, _up_down_numbers
from .special import _TERMS, EvalResult, _beta_even, lambda_numeric

__all__ = [
    "ConvergenceError",
    "j_quadrature",
    "j_euler_series",
    "j_riemann_sum",
    "j_closed_odd",
    "j_closed_even",
]

_EPS = math.ulp(1.0)
_HALF_PI = math.pi / 2.0
_S_MAX = 170.62  # Gamma(_S_MAX + 1) = 1.758e308 stays 2.2 % below the largest double
_OVERFLOW = f"Gamma({{}} + 1) overflows a double: J(s) requires s <= {_S_MAX}"
_TARGET = 1e-14  # absolute for the quadrature, relative to J for the Euler series


class ConvergenceError(RuntimeError):
    """Raised when an evaluator cannot meet its tolerance within its caps."""


def _check_domain(s: float) -> None:
    """Rejects s outside 0 < s <= _S_MAX before any work, so that Gamma(s+1)
    is a finite double.  The message shows an integral s of 1e16 or more, up
    to the largest double, in the shortest float form."""
    if not 0 < s < math.inf:
        raise ValueError("J(s) requires finite s > 0")
    if s > _S_MAX:
        raise ValueError(_OVERFLOW.format(float(s) if 1e16 <= s <= sys.float_info.max else s))


def _gamma_s_plus_1(s: float) -> float:
    return float(factorial(int(s))) if float(s).is_integer() else math.gamma(s + 1.0)


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


@lru_cache(maxsize=None)  # idempotent: a race may build a level twice, never differently
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
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


def j_quadrature(s: float) -> EvalResult:
    """J(s) for real s > 0 by level-doubling tanh-sinh quadrature.

    Stops when two successive refinement levels agree to within half the
    absolute target _TARGET (measured on J itself); raises
    :class:`ConvergenceError` if level _MAX_LEVEL is passed first.
    """
    _check_domain(s)
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
            if diff <= _TARGET / 2.0:
                # exp(s log x) carries the rounding of s log x, so the floor grows
                # with s: mpmath puts the error below 1.7 (s+4) eps |J| for s <= 40
                err = max(diff, 2.0 * (s + 4.0) * _EPS * abs(new_value))
                return EvalResult(new_value, err, "quadrature", work)
        value = new_value
    raise ConvergenceError(f"tanh-sinh quadrature did not reach tol={_TARGET:g} for s={s} within max_level={_MAX_LEVEL}")


# ---------------------------------------------------------------------------
# Euler-number series
# ---------------------------------------------------------------------------
#
# All series terms are positive: (-1)^k E_{2k} = |E_{2k}| = A_{2k}, the
# up/down numbers of the exact table.  Since
# A_{2k} = 2^{2k+2} (2k)!/pi^{2k+1} * beta(2k+1), each term equals
# beta(2k+1) * b_k with the envelope b_k = (4/pi) (pi/2)^n * (2k)!/(n+2k+1)!.
# The envelope decays only like k^-(n+1), far too slowly to truncate at
# realistic tolerances, but sum_k b_k has an elementary closed form, and
# beta(2k+1) -> 1 at the geometric rate 3^-(2k+1).  So we sum K+1 exact
# terms, add the closed-form remainder sum_{k>K} b_k, and bound the
# difference  sum_{k>K} b_k (1 - beta(2k+1)) <= (9/8) b_{K+1} 3^-(2K+3),
# which meets the target within at most 12 terms at every n in 1..170.


@lru_cache(maxsize=None, typed=True)  # at most 170 keys
def _envelope_total(n: int) -> float:
    """n! sum_{k>=0} (2k)!/(n+2k+1)! = sum_{i>=0} 2^-(i+1)/(n+i).

    Positive geometric series; summed until the tail is below 1e-22 relative.
    """
    acc = 0.0
    powhalf = 0.5
    i = 0
    while True:
        term = powhalf / (n + i)
        acc += term
        if term < 1e-22 * acc:
            return acc
        powhalf *= 0.5
        i += 1


def j_euler_series(n: int) -> EvalResult:
    """J(n) for integer n >= 1 from the Euler-number series.

    Terms are summed exactly as stated until the analytic bound on the
    residual left after tail completion drops below half the relative
    target _TARGET of the completed sum; the closed-form envelope
    remainder is then added.
    """
    _check_order(n)
    _check_domain(n)

    half_pi_factor = _half_pi_factor(n)  # (pi/2)^n / n!, as in the closed forms
    envelope_total = 4.0 / math.pi * half_pi_factor * _envelope_total(n)
    t = half_pi_factor / (n + 1)
    b = 4.0 / math.pi * t
    a = _up_down_numbers(2)  # the shared table, grown as 2k passes its end
    partial = 0.0
    envelope_head = 0.0
    k = 0
    while True:
        partial += t
        envelope_head += b
        b_next = b * (2 * k + 1) * (2 * k + 2) / ((n + 2 * k + 2) * (n + 2 * k + 3))
        residual = 1.125 * b_next * 3.0 ** (-(2 * k + 3))
        if residual <= _TARGET / 2.0 * (partial + envelope_total - envelope_head):
            break
        k += 1
        if 2 * k >= len(a):
            a = _up_down_numbers(2 * k)
        # A_{2k} / A_{2k-2}; int true division rounds correctly
        t *= a[2 * k] / a[2 * k - 2] * _HALF_PI * _HALF_PI / ((n + 2 * k) * (n + 2 * k + 1))
        b = b_next

    value = partial + (envelope_total - envelope_head)
    # rounding: the few operations forming t_0, b_0 and the envelope total,
    # and each of the k additions into partial and envelope_head
    err = residual + (8.0 + k) * _EPS * abs(value)
    return EvalResult(value, err, "euler_series", k + 1)


# ---------------------------------------------------------------------------
# Riemann-sum approximant and closed forms
# ---------------------------------------------------------------------------


def j_riemann_sum(s: float, n: int) -> float:
    """Finite midpoint-grid approximant to J(s):
    (1/(Gamma(s+1) n)) sum_{p=1..n} x_p^s / sin(x_p),  x_p = (2p-1)pi/(4n).

    Diagnostic only; no error estimate is claimed.  x^s is exp(s log x), and
    the sum is divided by n before Gamma(s+1), whose product with n
    overflows a double near the top of the domain.
    """
    _check_domain(s)
    _check_order(n)
    gamma = _gamma_s_plus_1(s)
    nodes = ((2.0 * p - 1.0) * math.pi / (4.0 * n) for p in range(1, n + 1))
    return math.fsum(math.exp(s * math.log(x)) / math.sin(x) for x in nodes) / n / gamma


@lru_cache(maxsize=None)  # j <= 170 by the domain checks
def _half_pi_factor(j: int) -> float:
    """(pi/2)^j / j! as the correctly rounded double, shared by the closed
    forms and the Euler series at every argument."""
    return _half_pi_term(j).evalf()


def _theorem4(n: int, e: int) -> EvalResult:
    """J(2n-1+e), e = 0 or 1, from Theorem 4:
    (pi/4) J(2n-1+e) = (-1)^n [e lambda(2n+1)
                       - sum_{k=0}^{n-1} (-1)^k beta(2n-2k) (pi/2)^{2k+e} / (2k+e)!].
    """
    _check_order(n)
    _check_domain(2 * n - 1 + e)
    acc = err = 0.0
    work = 0
    if e:
        lam = lambda_numeric(2 * n + 1)
        acc, err, work = lam.value, lam.error_estimate, lam.work
    sign = 1.0
    for k, (b, b_err) in enumerate(_beta_even(n)):
        factor = _half_pi_factor(2 * k + e)
        acc -= sign * b * factor
        err += b_err * factor
        sign = -sign
    value = (-1) ** n * acc * 4.0 / math.pi
    err = (err + 4.0 * _EPS * abs(acc)) * 4.0 / math.pi
    return EvalResult(value, err, "closed_form", work + n * _TERMS)


def j_closed_odd(n: int) -> EvalResult:
    """J(2n-1) from the closed form
    (pi/4) J(2n-1) = (-1)^{n-1} sum_{k=0}^{n-1} (-1)^k beta(2n-2k) (pi/2)^{2k} / (2k)!.
    """
    return _theorem4(n, 0)


def j_closed_even(n: int) -> EvalResult:
    """J(2n) from the closed form
    (pi/4) J(2n) = (-1)^n [lambda(2n+1)
                   - sum_{k=0}^{n-1} (-1)^k beta(2n-2k) (pi/2)^{2k+1} / (2k+1)!].
    """
    return _theorem4(n, 1)

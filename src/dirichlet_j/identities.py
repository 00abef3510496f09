"""Machine-checked identities tying lambda/beta values to the J integrals.

Numeric checks compare independently computed sides and pass when the
discrepancy is below an explicit tolerance; exact checks are equalities of
monomials c * pi^e and pass only on identical values (zero tolerance).

Identity catalog (ids used in reports and by the CLI):
  thm1       lambda(2m+1) = sum_{k=1..m} (-1)^{k-1} lambda(2m-2k+2) J(2k-1)
                            + (-1)^m beta(1) J(2m)
  thm2       beta(2m)     = sum_{k=1..m} (-1)^{k-1} beta(2m-2k+1) J(2k-1)
  thm4_odd   J(2n-1) closed form vs quadrature
  thm4_even  J(2n)   closed form vs quadrature
  remark1_a  (pi/4) (pi/2)^{2m-1}/(2m-1)! as an alternating lambda sum (exact)
  remark1_b  (pi/4) (pi/2)^{2m}/(2m)! via beta(2m+1) and lambda sums (exact)
  eq_a2      sine series of order 3 vs lambda(2) x - beta(1) x^2/2
  eq_a3      sine series of order 2m+1 vs its polynomial closed form
  eq_a4      cosine series of order 2m vs its polynomial closed form
             (eq_a*: the full series from its Euler-Boole tail, at its error
             estimate; with a term count, that partial sum at 1e-5)
  collapse   coefficients of J(q) in the beta(2m) expansion: even q collapse
             to zero, odd q to beta closed forms (exact)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Literal, Union

from .exact import PiPoly, _check_order, _half_pi_term, _Record, _signed_product_sum
from .jfun import j_closed_even, j_closed_odd, j_quadrature
from .special import EvalResult, beta_numeric, beta_odd_closed, lambda_even_closed, lambda_numeric

__all__ = [
    "IdentityReport",
    "check_theorem1",
    "check_theorem2",
    "check_theorem4",
    "check_remark1",
    "check_collapse",
    "check_fourier",
    "fourier_partial",
    "fourier_closed",
    "odd_harmonic_series",
]

_EPS = math.ulp(1.0)
Side = Union[float, PiPoly]
Kind = Literal["sine", "cosine"]

TOL_FLOOR = 1e-10
_LEIBNIZ_BETA_1 = PiPoly(Fraction(1, 4), 1)  # beta(1) = pi/4 from Leibniz's series, not the closed forms


class IdentityReport(_Record):
    """One check of an identity: its two sides and its tolerance, from which
    the constructor works out abs_diff, exact and passed.  The check is exact
    when lhs is a PiPoly: it passes only on equal sides, and abs_diff is 0.0
    then, else |lhs - rhs| as a float (inf where that overflows).  A numeric
    check has abs_diff = |lhs - rhs| and passes when abs_diff <= tol."""

    __slots__ = ("identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "passed", "tol")

    def __init__(self, identity_id: str, params: tuple[int, ...], lhs: Side, rhs: Side, tol: float = 0.0):
        exact = isinstance(lhs, PiPoly)
        if exact:
            passed = lhs == rhs
            try:
                diff = 0.0 if passed else abs((lhs - rhs).evalf())
            except OverflowError:  # float() of a huge Fraction
                diff = math.inf
        else:
            diff = abs(lhs - rhs)
            passed = diff <= tol
        self._assign(identity_id, params, lhs, rhs, diff, exact, passed, tol)

    def __reduce__(self):
        return type(self), (self.identity_id, self.params, self.lhs, self.rhs, self.tol)


def _check_kind(kind: Kind) -> None:
    if kind not in ("sine", "cosine"):
        raise ValueError("kind must be 'sine' or 'cosine'")


def _check_tol(tol: float | None) -> None:
    """Rejects a tolerance, before any work, unless it is None (the check's
    default) or a finite number > 0."""
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, not {tol!r}")


def _numeric_report(
    identity_id: str, params: tuple[int, ...], lhs: float, rhs: float, err_budget: float, tol: float | None
) -> IdentityReport:
    """A numeric check whose tol defaults to 100 err_budget, floored at TOL_FLOOR."""
    if tol is None:
        tol = max(TOL_FLOOR, 100.0 * err_budget)
    return IdentityReport(identity_id, params, lhs, rhs, tol)


def _j_sum_report(
    identity_id: str,
    m: int,
    lhs: EvalResult,
    terms: list[tuple[int, PiPoly, int]],
    tol: float | None,
    j_from: int = 1,
) -> IdentityReport:
    """lhs vs sum sign * coeff * J(e) over (sign, coeff, e) triples, J by
    quadrature; terms with e < j_from drop their J factor. The error budget
    adds each J's estimate and a 4-ulp rounding per product to lhs's."""
    rhs = 0.0
    err = lhs.error_estimate
    for sign, coeff, e in terms:
        value = coeff.evalf()
        if e >= j_from:
            j = j_quadrature(e)
            rhs += sign * value * j.value
            err += value * j.error_estimate + 4.0 * _EPS * value * abs(j.value)
        else:
            rhs += sign * value
            err += 4.0 * _EPS * value
    return _numeric_report(identity_id, (m,), lhs.value, rhs, err, tol)


def check_theorem1(m: int, tol: float | None = None, use_proof_form: bool = True) -> IdentityReport:
    """lambda(2m+1) vs the alternating lambda/J combination.

    The verifier of record keeps the J(2k-1) factor inside the sum
    (`use_proof_form=True`); the variant without it, which keeps J only on
    the beta(1) term, is provided because it is numerically wrong already at
    m=2, and documenting that is part of the check suite.
    """
    _check_order(m, "m")
    _check_tol(tol)
    lam = lambda_numeric(2 * m + 1)
    return _j_sum_report("thm1", m, lam, _closed_form_terms("sine", m), tol, 1 if use_proof_form else 2 * m)


def check_theorem2(m: int, tol: float | None = None) -> IdentityReport:
    """beta(2m) vs sum_{k=1..m} (-1)^{k-1} beta(2m-2k+1) J(2k-1)."""
    _check_order(m, "m")
    _check_tol(tol)
    terms = [((-1) ** (k - 1), beta_odd_closed(m - k + 1), 2 * k - 1) for k in range(1, m + 1)]
    return _j_sum_report("thm2", m, beta_numeric(2 * m), terms, tol)


def check_theorem4(n: int, tol: float | None = None) -> tuple[IdentityReport, IdentityReport]:
    """Closed forms for J(2n-1) and J(2n) vs quadrature."""
    _check_order(n)
    _check_tol(tol)
    reports = []
    for identity_id, q, closed in (
        ("thm4_odd", 2 * n - 1, j_closed_odd(n)),
        ("thm4_even", 2 * n, j_closed_even(n)),
    ):
        quad = j_quadrature(q)
        err = quad.error_estimate + closed.error_estimate
        reports.append(_numeric_report(identity_id, (n,), quad.value, closed.value, err, tol))
    return tuple(reports)


def _closed_form_terms(kind: Kind, m: int) -> list[tuple[int, PiPoly, int]]:
    """The closed form on [0, pi/2] of the order-(2m+1) sine or order-2m cosine
    series, sum sign * coeff * x^e / e!, as (sign, coeff, e) triples:
    (-1)^{k-1} lambda(2m-2k+2) with e = 2k-1 (sine) or 2k-2 (cosine) for
    k = 1..m, then (-1)^m beta(1) with e = 2m (sine) or 2m-1 (cosine)."""
    shift = 1 if kind == "sine" else 2
    terms = [((-1) ** (k - 1), lambda_even_closed(m - k + 1), 2 * k - shift) for k in range(1, m + 1)]
    terms.append(((-1) ** m, beta_odd_closed(1), 2 * m + 1 - shift))
    return terms


def _at_half_pi(terms: list[tuple[int, PiPoly, int]]) -> PiPoly:
    """sum sign * coefficient * (pi/2)^e / e! over closed-form terms, exactly."""
    return _signed_product_sum((sign, coeff, _half_pi_term(e)) for sign, coeff, e in terms)


def check_remark1(m: int) -> tuple[IdentityReport, IdentityReport]:
    """Both exact closed-form identities for (pi/4)(pi/2)^j/j! at j = 2m-1, 2m:
    the cosine and sine closed forms at pi/2, 0 and beta(2m+1), solved for
    their beta(1) terms."""
    _check_order(m, "m")
    reports = []
    cases = (("remark1_a", "cosine", PiPoly()), ("remark1_b", "sine", beta_odd_closed(m + 1)))
    for identity_id, kind, value in cases:
        *lambda_terms, (sign, beta1, e) = _closed_form_terms(kind, m)
        lhs = beta1 * _half_pi_term(e)
        lambda_sum = _at_half_pi(lambda_terms)
        rhs = value - lambda_sum if sign > 0 else lambda_sum - value
        reports.append(IdentityReport(identity_id, (m,), lhs, rhs))
    return tuple(reports)


def check_collapse(m: int) -> list[IdentityReport]:
    """Exact coefficient collapse in the beta(2m) expansion over J(0..2m-1).

    beta(2m) is the order-2m cosine closed form with each x^e/e! replaced by
    its divergent companion W(e), whose coefficient of J(q) is
    (-1)^q (pi/2)^{e-q} / (e-q)!; so the coefficient C_q of J(q) sums each
    part's coefficient times that of J(q) in its W(e), over the parts with
    e >= q.

    Even q: C_q equals the cosine closed-form value at pi/2, i.e. zero.
    Odd q = 2k-1: C_q equals (-1)^{k-1} beta(2m-2k+1); the top row, q = 2m-1,
    reads beta(1) from Leibniz's pi/4, since C_q there is the beta(1) of the
    closed form itself.
    """
    _check_order(m, "m")
    parts = _closed_form_terms("cosine", m)
    reports = []
    for q in range(2 * m):
        coeff = _signed_product_sum(((-1) ** q * sign, c, _half_pi_term(e - q)) for sign, c, e in parts if q <= e)
        if q % 2 == 0:
            expected = PiPoly()
        else:
            k = (q + 1) // 2
            expected = (-1) ** (k - 1) * (beta_odd_closed(m - k + 1) if k < m else _LEIBNIZ_BETA_1)
        reports.append(IdentityReport("collapse", (m, q), coeff, expected))
    return reports


_CHUNK = 1 << 16  # terms per chunk: each chunk array is 512 KB of doubles


def _odd_harmonic_sum(kind: Kind, order: int, x: float, terms: int) -> float:
    """sum_{k=1..terms} sin((2k-1)x)/(2k-1)^order (or cos) by angle addition.

    Each chunk of up to _CHUNK terms is a rows x block grid (block ~ sqrt of
    the chunk) of odd a = a0 + 2 r block + 2 j, so sin(a x) and cos(a x)
    follow from phi_j = (a0 + 2j) x and theta_r = 2 r block x by angle
    addition: rows + block trig calls per chunk, not rows * block.  The row
    sums of w sin(phi_j) and w cos(phi_j), w = a^-order (0 past the last
    term), are one BLAS product of the rows x block weights with the
    block x 2 matrix [sin phi_j, cos phi_j].  The grid is stored largest a
    first, so a row sum, which BLAS accumulates along the row, adds the
    small weights before the large ones.  math.fsum adds the rotated row
    sums of all chunks, so the large first terms take a single rounding
    there.  a, w and the trig matrix live in buffers allocated once per call
    for the first chunk, whose grid is the largest, and refilled in place.
    """
    import numpy as np

    block = math.isqrt(min(_CHUNK, terms) - 1) + 1
    odd = np.arange(2 * block * block - 1, 0, -2, dtype=float)  # a - a0 + 1, largest first
    a = np.empty_like(odd)
    w = np.empty_like(odd)
    trig = np.empty((2, block))  # rows sin(phi_j), cos(phi_j)
    parts: list[float] = []
    for start in range(0, terms, _CHUNK):
        count = min(_CHUNK, terms - start)
        block = math.isqrt(count - 1) + 1
        rows = -(-count // block)
        size = rows * block
        chunk_a = np.add(odd[-size:], 2 * start, out=a[:size])
        if not math.isfinite(float(chunk_a[0]) * x):  # the largest angle, padded cells included
            raise ValueError("x is too large: the angle (2k-1)x overflows")
        chunk_w = w[:size]
        np.copyto(chunk_w, chunk_a)  # a**order would call pow() per element
        for _ in range(order - 1):
            chunk_w *= chunk_a
        np.reciprocal(chunk_w, out=chunk_w)
        chunk_w[:size - count] = 0.0  # the padded cells, past the last term
        phi = chunk_a[-block:] * x  # phi_j, from row r = 0, stored last
        np.sin(phi, out=trig[0, :block])
        np.cos(phi, out=trig[1, :block])
        sin_sum, cos_sum = (chunk_w.reshape(rows, block) @ trig[:, :block].T).T
        theta = np.arange(2 * (size - block), -1, -2 * block, dtype=float) * x  # theta_r, last row first
        along, across = (sin_sum, cos_sum) if kind == "sine" else (cos_sum, -sin_sum)
        parts += (np.cos(theta) * along).tolist()
        parts += (np.sin(theta) * across).tolist()
    return math.fsum(parts)


def fourier_partial(kind: Kind, order: int, x: float, terms: int) -> float:
    """Partial sum of sum_k sin((2k-1)x)/(2k-1)^order (or cos in the numerator).

    x is rejected if an angle (2k-1)x of the summation grid overflows."""
    _check_kind(kind)
    _check_order(order, "order", 2)
    _check_order(terms, "terms")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return _odd_harmonic_sum(kind, order, x, terms)


def fourier_closed(kind: Kind, m: int, x: float) -> float:
    """Polynomial closed form of the order-(2m+1) sine series (kind='sine')
    or order-2m cosine series (kind='cosine') on 0 <= x <= pi/2."""
    _check_kind(kind)
    _check_order(m, "m")
    if not 0.0 <= x <= math.pi / 2 + 4 * _EPS:
        raise ValueError("x must lie in [0, pi/2]")
    acc = 0.0
    for sign, coeff, e in _closed_form_terms(kind, m):
        acc += sign * coeff.evalf() * x ** e / factorial(e)
    return acc


_TAIL_STEPS = 24  # the Abel steps R of the Euler-Boole tail
_MAX_TERMS = 1 << 16  # direct terms N at the smallest x accepted, about 3.7e-4


@lru_cache(maxsize=32)
def _euler_boole_table(order: int, terms: int) -> tuple[tuple[float, ...], float, float, tuple[float, ...]]:
    """a_1..a_N, sum a_k (2k-1), sum a_k and D^r a_{N+1} for r < R, each float
    rounded once: the differences are exact integers over one denominator."""
    odd = range(1, 2 * terms, 2)
    weights = tuple(1 / a**order for a in odd)
    denominators = [(2 * (terms + j) + 1) ** order for j in range(_TAIL_STEPS)]
    common = math.prod(denominators)
    row = [common // d for d in denominators]
    diffs = []
    while row:
        diffs.append(row[0] / common)
        row = [b - a for a, b in zip(row, row[1:])]
    return weights, math.fsum(w * a for w, a in zip(weights, odd)), math.fsum(weights), tuple(diffs)


def odd_harmonic_series(kind: Kind, order: int, x: float) -> EvalResult:
    """sum_{k>=1} a_k sin((2k-1)x) (or cos), a_k = (2k-1)^-order, on [0, pi/2].

    N terms are summed directly, N the smallest power of two >= 64 with
    2N sin x >= 48.  R Abel steps against the geometric sums of the paper's
    Lemma 1 (Euler-Boole summation: Borwein, Calkin & Manna, Amer. Math.
    Monthly 116, 2009) give the tail as the imaginary (sine) or real part of
    i e^{2iNx} sum_{r<R} q^{r+1} D^r a_{N+1} u^r, q = 1/(2 sin x), u = i e^{ix};
    a_k is completely monotone, so they leave out at most |D^{R-1} a_{N+1}| q^R.
    error_estimate adds a rounding bound; work is N.  An order above 1074 and
    an x that would need N > _MAX_TERMS (the cosine series at 0 included)
    are rejected."""
    _check_kind(kind)
    _check_order(order, "order")
    if order > 1074:  # the exact differences would cost seconds; every a_k past a_1 is below 2^-1074 there
        raise ValueError(f"order must be at most 1074, not {order!r}")
    if not 0.0 <= x <= math.pi / 2 + 4 * _EPS:
        raise ValueError("x must lie in [0, pi/2]")
    if x == 0.0 and kind == "sine":
        return EvalResult(0.0, 0.0, "euler_boole", 1)  # every term is sin(0) = 0
    sin_x = math.sin(x)
    terms = 64
    while 2 * terms * sin_x < 48:
        terms *= 2
        if terms > _MAX_TERMS:
            raise ValueError(f"x must be at least about 3.7e-4: {x!r} needs more than {_MAX_TERMS} direct terms")
    weights, weighted_odd, weight_sum, diffs = _euler_boole_table(order, terms)
    q = 0.5 / sin_x
    coeffs = [d * q ** (r + 1) for r, d in enumerate(diffs)]
    poly, u = 0j, complex(-sin_x, math.cos(x))
    for c in reversed(coeffs):
        poly = poly * u + c
    tail = 1j * complex(math.cos(2 * terms * x), math.sin(2 * terms * x)) * poly  # 2Nx is exact
    trig = math.sin if kind == "sine" else math.cos
    head = [w * trig(a * x) for a, w in zip(range(1, 2 * terms, 2), weights)]
    value = math.fsum([*head, tail.imag if kind == "sine" else tail.real])
    # each direct term rounds its angle (2k-1)x, its trig call and its weight
    rounding = x / 2 * weighted_odd + 2 * weight_sum + abs(value) + 4 * (_TAIL_STEPS + 2) * math.fsum(map(abs, coeffs))
    return EvalResult(value, abs(diffs[-1]) * q**_TAIL_STEPS + _EPS * rounding, "euler_boole", terms)


def check_fourier(
    kind: Kind,
    m: int,
    x: float,
    terms: int | None = None,
    params: tuple[int, ...] | None = None,
    identity_id: str | None = None,
) -> IdentityReport:
    """Series vs polynomial closed form at a single point.  terms=None: the
    full series, at tol = its error estimate + the closed side's rounding (at
    most 8 ulp of its absolute terms, whose coefficients are below 1.25, so
    of 1.25 e^x).  An int terms: that partial sum at the fixed tol 1e-5, which
    covers the tail after 1e6 terms (the --deep rows) for every order >= 2."""
    rhs = fourier_closed(kind, m, x)  # first: it checks kind, m and x before the series is paid for
    order = 2 * m + 1 if kind == "sine" else 2 * m
    if terms is None:
        series = odd_harmonic_series(kind, order, x)
        lhs, tol = series.value, series.error_estimate + 10 * _EPS * math.exp(x)
    else:
        lhs, tol = fourier_partial(kind, order, x, terms), 1e-5
    if identity_id is None:
        identity_id = "eq_a3" if kind == "sine" else "eq_a4"
    if params is None:
        params = (m,)
    return IdentityReport(identity_id, params, lhs, rhs, tol)

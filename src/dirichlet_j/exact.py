"""Exact arithmetic substrate: monomials c * pi^e over the rationals, and
the Euler and Bernoulli numbers, both read from one lazily grown integer
table of up/down numbers A_n (sec t + tan t = sum_n A_n t^n / n!).

Rationals are `fractions.Fraction` (always stored reduced, positive
denominator).  Every exact constant of the package is a rational multiple
of one power of pi (lambda(2m) of pi^{2m}, beta(2m-1) of pi^{2m-1},
(pi/2)^j / j! of pi^j), so :class:`PiPoly` is one monomial.  Signed sums of
PiPoly products go through one kernel, `_signed_product_sum`, which adds
integers over a common denominator: one gcd per sum instead of one per
operation.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, lcm
from typing import Iterable, Union

Coeff = Union[int, Fraction]
_setattr = object.__setattr__  # sets a slot past the guard of _Record.__setattr__

__all__ = [
    "PiPoly",
    "up_down_number",
    "euler_numbers",
    "bernoulli_numbers",
    "pi_fraction",
]


@lru_cache(maxsize=None)
def pi_fraction(digits: int) -> Fraction:
    """Rational approximation of pi good to at least `digits` decimal digits.

    Machin's formula evaluated in scaled-integer arithmetic, independent of
    any floating-point pi constant.
    """
    _check_order(digits, "digits")
    guard = digits + 10
    unity = 10 ** guard

    def arccot(x: int) -> int:
        total = xpow = unity // x
        n, sign, xsq = 3, -1, x * x
        while xpow:
            xpow //= xsq
            total += sign * (xpow // n)
            n += 2
            sign = -sign
        return total

    scaled = 4 * (4 * arccot(5) - arccot(239))
    return Fraction(scaled, unity)


def _as_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _check_order(n: int, name: str = "n", least: int = 1) -> None:
    """Rejects an integer argument (an order, count, digit count or exponent),
    before any work, unless it is an int >= least (bool excluded)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {n!r}")


class _Record:
    """Base of the package's immutable values (PiPoly and the result records):
    the fields are the __slots__, compared (only with a value of the same
    class), hashed and shown in order, as a frozen dataclass does."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._values()))})"

    def __reduce__(self):
        return type(self), self._values()


class PiPoly(_Record):
    """Exact monomial coeff * pi^exp: a reduced Fraction and an integer
    exponent >= 0.  Zero is stored with exponent 0, so `==` and the hash
    compare values.

    Every exact constant of the package is one such monomial, and so is
    each side of the exact identities: a sum rejects mixed degrees.
    """

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff: Coeff = 0, exp: int = 0):
        _check_order(exp, "exponent", 0)
        c = _as_fraction(coeff)
        self._assign(c, exp if c else 0)

    @classmethod
    def _trusted(cls, coeff: Fraction, exp: int) -> "PiPoly":
        """Constructor for arithmetic results, whose exponent and Fraction
        coefficient need no validation."""
        poly = object.__new__(cls)
        _setattr(poly, "coeff", coeff)
        _setattr(poly, "exp", exp if coeff else 0)
        return poly

    @property
    def terms(self) -> dict[int, Fraction]:
        return {self.exp: self.coeff} if self.coeff else {}

    def __add__(self, other: "PiPoly") -> "PiPoly":
        if not isinstance(other, PiPoly):
            return NotImplemented
        return _signed_product_sum(((1, self, _ONE), (1, other, _ONE)))

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        if not isinstance(other, PiPoly):
            return NotImplemented
        return _signed_product_sum(((1, self, _ONE), (-1, other, _ONE)))

    def __neg__(self) -> "PiPoly":
        return PiPoly._trusted(-self.coeff, self.exp)

    def __mul__(self, other: Union["PiPoly", Coeff]) -> "PiPoly":
        if isinstance(other, PiPoly):
            return PiPoly._trusted(self.coeff * other.coeff, self.exp + other.exp)
        if isinstance(other, (int, Fraction)):
            return PiPoly._trusted(self.coeff * other, self.exp)
        return NotImplemented

    __rmul__ = __mul__

    def evalf(self) -> float:
        """The double nearest coeff * pi^exp: the product is taken exactly
        against pi_fraction(_PI_DIGITS), which moves it by about exp * 3e-33
        relative, and rounded once.  The tests check that this is the correctly
        rounded double for the closed forms and the (pi/2)^j/j! table."""
        return float(self.coeff * pi_fraction(_PI_DIGITS) ** self.exp)

    def __str__(self) -> str:
        if not self.exp:
            return str(self.coeff)
        base = "pi" if self.exp == 1 else f"pi^{self.exp}"
        return base if self.coeff == 1 else f"-{base}" if self.coeff == -1 else f"{self.coeff}*{base}"

    def __repr__(self) -> str:
        return f"PiPoly({self})"


_ONE = PiPoly(1)
_PI_DIGITS = 23  # the one precision at which the package reads pi_fraction


def _signed_product_sum(triples: Iterable[tuple[int, PiPoly, PiPoly]]) -> PiPoly:
    """sum sign * a * b over (sign, a, b) triples, exactly: the products'
    integer numerators are added over one common denominator (math.lcm), so
    the sum takes one Fraction reduction instead of one per product and per
    addition.  Raises ValueError if two nonzero products differ in degree."""
    degree = None
    pairs: list[tuple[int, int]] = []
    for sign, a, b in triples:
        num = a.coeff.numerator * b.coeff.numerator
        if num:
            exp = a.exp + b.exp
            if degree is None:
                degree = exp
            elif exp != degree:
                raise ValueError(f"a sum of pi^{degree} and pi^{exp} is not a monomial")
            pairs.append((sign * num, a.coeff.denominator * b.coeff.denominator))
    if degree is None:
        return PiPoly()
    den = lcm(*(d for _, d in pairs))
    return PiPoly._trusted(Fraction(sum(n * (den // d) for n, d in pairs), den), degree)


@lru_cache(maxsize=None)
def _half_pi_term(j: int) -> PiPoly:
    """(pi/2)^j / j! as an exact PiPoly, built once per j: the one table of
    these factors behind the closed forms, W(e) and the remark1 checks."""
    return PiPoly(Fraction(1, 2**j * factorial(j)), j)


_up_down: list[int] = [1]  # A_0, A_1, ...
_up_down_row: list[int] = [1]  # the last boustrophedon row; it ends in _up_down[-1]
_up_down_lock = threading.Lock()


def _up_down_numbers(n: int) -> list[int]:
    """The shared table [A_0, A_1, ...] itself, grown in place to hold A_n.
    An entry never changes once appended, so callers index it directly and
    never write to it.

    Seidel's boustrophedon (integer additions only): each row is the running
    sum, from 0, of the previous row reversed, and row n ends in A_n.
    """
    with _up_down_lock:
        while len(_up_down) <= n:
            _up_down_row[:] = list(accumulate(reversed(_up_down_row), initial=0))
            _up_down.append(_up_down_row[-1])
    return _up_down


def up_down_number(n: int) -> int:
    """The up/down number A_n, read from the shared table."""
    _check_order(n, "n", 0)
    return _up_down_numbers(n)[n]


def euler_numbers(count: int) -> list[int]:
    """Signed Euler numbers [E_0, E_2, ..., E_{2(count-1)}].

    E_{2k} = (-1)^k A_{2k}, read from the up/down table.
    """
    _check_order(count, "count")
    a = _up_down_numbers(2 * count - 2)
    return [(-1) ** k * a[2 * k] for k in range(count)]


def bernoulli_numbers(count: int) -> list[Fraction]:
    """Even-index Bernoulli numbers [B_0, B_2, ..., B_{2(count-1)}].

    B_0 = 1 and B_{2m} = (-1)^{m-1} 2m A_{2m-1} / (4^m (4^m - 1)) for m >= 1,
    from the tangent numbers A_{2m-1} in the up/down table.
    """
    _check_order(count, "count")
    a = _up_down_numbers(2 * count - 3)
    return [Fraction(1)] + [
        Fraction((-1) ** (m - 1) * 2 * m * a[2 * m - 1], 4**m * (4**m - 1)) for m in range(1, count)
    ]

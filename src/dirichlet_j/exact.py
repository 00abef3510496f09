"""Exact arithmetic substrate: pi-graded polynomials over the rationals,
and the Euler and Bernoulli numbers, both read from one lazily grown integer
table of up/down numbers A_n (sec t + tan t = sum_n A_n t^n / n!).

Rationals are `fractions.Fraction` (always stored reduced, positive
denominator). Constants such as lambda(2m) = (rational) * pi^{2m} live in
:class:`PiPoly`, a polynomial in pi with Fraction coefficients and
non-negative integer exponents.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import Iterable, Mapping, Union

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
    if digits < 1:
        raise ValueError("digits must be >= 1")
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


def _canonical(sums: dict[int, Fraction]) -> dict[int, Fraction]:
    """The stored form of a PiPoly: nonzero coefficients, sorted by exponent."""
    return {e: c for e, c in sorted(sums.items()) if c}


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
    """Exact polynomial in pi: a map {exponent >= 0 -> nonzero Fraction}.

    Values are immutable; arithmetic returns new instances and never stores
    a zero coefficient, so `==` is canonical-form equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Coeff] | Iterable[tuple[int, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[int, Fraction] = {}
        for exp, coeff in items:
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a non-negative integer, got {exp!r}")
            c = _as_fraction(coeff)
            canon[exp] = canon[exp] + c if exp in canon else c
        _setattr(self, "_terms", _canonical(canon))

    @classmethod
    def _from_sums(cls, sums: dict[int, Fraction]) -> "PiPoly":
        """Trusted constructor for arithmetic results, whose exponents and
        Fraction coefficients need no validation."""
        poly = object.__new__(cls)
        _setattr(poly, "_terms", _canonical(sums))
        return poly

    @classmethod
    def zero(cls) -> "PiPoly":
        return cls()

    @classmethod
    def term(cls, coeff: Coeff, exp: int) -> "PiPoly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exp!r}")
        return cls._from_sums({exp: _as_fraction(coeff)})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PiPoly") -> "PiPoly":
        if not isinstance(other, PiPoly):
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in other._terms.items():
            merged[exp] = merged[exp] + coeff if exp in merged else coeff
        return PiPoly._from_sums(merged)

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        if not isinstance(other, PiPoly):
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in other._terms.items():
            merged[exp] = merged[exp] - coeff if exp in merged else -coeff
        return PiPoly._from_sums(merged)

    def __neg__(self) -> "PiPoly":
        return PiPoly._from_sums({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Union["PiPoly", Coeff]) -> "PiPoly":
        if isinstance(other, PiPoly):
            prod: dict[int, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e, c = e1 + e2, c1 * c2
                    prod[e] = prod[e] + c if e in prod else c
            return PiPoly._from_sums(prod)
        if isinstance(other, (int, Fraction)):
            return PiPoly._from_sums({e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def evalf(self, digits: int = 15) -> float:
        """Evaluate at pi to at least `digits` significant decimal digits.

        The value is computed exactly against :func:`pi_fraction` and only
        rounded once on conversion to float, so the returned double is
        correctly rounded whenever digits >= 17.
        """
        if digits < 15:
            raise ValueError("digits must be >= 15")
        if not self._terms:
            return 0.0
        pi_f = pi_fraction(digits + 8)
        total = Fraction(0)
        power = Fraction(1)
        prev_exp = 0
        for exp, coeff in self._terms.items():
            power *= pi_f ** (exp - prev_exp)
            prev_exp = exp
            total += coeff * power
        return float(total)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms.items():
            if exp == 0:
                parts.append(str(coeff))
            else:
                base = "pi" if exp == 1 else f"pi^{exp}"
                if coeff == 1:
                    parts.append(base)
                elif coeff == -1:
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{coeff}*{base}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"PiPoly({self})"


@lru_cache(maxsize=None)
def _half_pi_term(j: int) -> PiPoly:
    """(pi/2)^j / j! as an exact PiPoly, built once per j: the one table of
    these factors behind the closed forms, W(e) and the remark1 checks."""
    return PiPoly.term(Fraction(1, 2**j * factorial(j)), j)


_up_down: list[int] = [1]  # A_0, A_1, ...
_up_down_row: list[int] = [1]  # the last boustrophedon row; it ends in _up_down[-1]
_up_down_lock = threading.Lock()


def _up_down_numbers(n: int) -> list[int]:
    """Up/down numbers [A_0, ..., A_n], growing the shared table in place.

    Seidel's boustrophedon (integer additions only): each row is the running
    sum, from 0, of the previous row reversed, and row n ends in A_n.
    """
    with _up_down_lock:
        while len(_up_down) <= n:
            _up_down_row[:] = list(accumulate(reversed(_up_down_row), initial=0))
            _up_down.append(_up_down_row[-1])
        return _up_down[: n + 1]


def up_down_number(n: int) -> int:
    """The up/down number A_n, read from the shared table."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _up_down_numbers(n)[n]


def euler_numbers(count: int) -> list[int]:
    """Signed Euler numbers [E_0, E_2, ..., E_{2(count-1)}].

    E_{2k} = (-1)^k A_{2k}, read from the up/down table.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    a = _up_down_numbers(2 * count - 2)
    return [(-1) ** k * a[2 * k] for k in range(count)]


def bernoulli_numbers(count: int) -> list[Fraction]:
    """Even-index Bernoulli numbers [B_0, B_2, ..., B_{2(count-1)}].

    B_0 = 1 and B_{2m} = (-1)^{m-1} 2m A_{2m-1} / (4^m (4^m - 1)) for m >= 1,
    from the tangent numbers A_{2m-1} in the up/down table.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    a = _up_down_numbers(2 * count - 3)
    return [Fraction(1)] + [
        Fraction((-1) ** (m - 1) * 2 * m * a[2 * m - 1], 4**m * (4**m - 1)) for m in range(1, count)
    ]

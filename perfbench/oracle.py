"""Independent reference values from mpmath, at REF_DPS significant digits.

None of these routes is the one the program uses:

* lambda(s) = (1 - 2^-s) zeta(s), with mpmath's zeta;
* beta(s) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4)), Hurwitz zeta (beta(1) = pi/4);
* J(s) through the split 1/sin x = 1/x + (1/sin x - 1/x): the first part
  integrates to (pi/2)^s / s and the second, smooth part goes to mpmath.quad.
  Plain quad of x^s / sin x is itself 2.6e-4 off at s = 0.1;
* the odd-harmonic Fourier series sum sin|cos((2k-1)x)/(2k-1)^p as the
  imaginary|real part of Legendre's chi_p(e^{ix}) = (Li_p(z) - Li_p(-z))/2;
* sum cos((2k-1)x)/(2k-1) = -ln(tan(x/2))/2.

References are cached on disk keyed by function and argument (the value does
not depend on the seed), so reruns only compute what is new.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

REF_DPS = 34
DIGITS_CAP = 17.0  # a float64 result cannot show more correct digits
# extra working digits for the Hurwitz difference, which cancels near s = 1
_GUARD = 16
# the benchmark process does all its arithmetic on references at this precision
mp.dps = REF_DPS


def _lambda(s):
    s = mpf(s)
    return (1 - mpmath.power(2, -s)) * mpmath.zeta(s)


def _beta(s):
    s = mpf(s)
    if s == 1:
        return mp.pi / 4
    with mp.workdps(REF_DPS + _GUARD):
        return (mpmath.zeta(s, mpf(1) / 4) - mpmath.zeta(s, mpf(3) / 4)) / mpmath.power(4, s)


def _j(s):
    s = mpf(s)
    half_pi = mp.pi / 2
    smooth = mpmath.quad(lambda x: x**s * (1 / mpmath.sin(x) - 1 / x), [0, half_pi])
    return (half_pi**s / s + smooth) * 2 / mp.pi / mpmath.gamma(s + 1)


def _chi(order, x):
    z = mpmath.expj(mpf(x))
    return (mpmath.polylog(order, z) - mpmath.polylog(order, -z)) / 2


def _sine_series(order, x):
    return mpmath.im(_chi(order, x)) if x else mpf(0)


def _cosine_series(order, x):
    return mpmath.re(_chi(order, x))


def _log_tan(x):
    return -mpmath.log(mpmath.tan(mpf(x) / 2)) / 2


POLES = {"lambda": 1, "J": 0}

FUNCTIONS = {
    "lambda": _lambda,
    "beta": _beta,
    "J": _j,
    "sine": _sine_series,
    "cosine": _cosine_series,
    "log_tan": _log_tan,
}


class Oracle:
    """mpmath references with an optional on-disk cache."""

    def __init__(self, cache_path: str | None = None):
        self.cache_path = cache_path
        self.computed = 0
        self._cache: dict[str, str] = {}  # as stored on disk
        self._values: dict[str, mpf] = {}
        self._lines: dict[tuple, tuple[mpf, mpf, mpf]] = {}
        if cache_path and os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                self._cache = json.load(fh)

    def value(self, fn: str, *args) -> mpf:
        key = fn + ":" + ",".join(repr(a) for a in args)
        found = self._values.get(key)
        if found is not None:
            return found
        cached = self._cache.get(key)
        if cached is not None:
            found = mpf(cached)
        else:
            found = +FUNCTIONS[fn](*args)
            self.computed += 1
            self._cache[key] = mpmath.nstr(found, REF_DPS, strip_zeros=False)
        self._values[key] = found
        return found

    def bracketed(self, fn: str, lo: float, hi: float, s: float) -> mpf:
        """fn(s) for lo <= s <= hi from the references at lo and hi.

        (s - pole) * fn(s) is smooth across the bracket, for lambda's pole at
        1 and J's at 0, so it is interpolated linearly.  Brackets are 1e-10
        wide, narrowed to 1e-10 s below s = 1 for beta and J, which keeps
        the interpolation error below 1e-19 relative.
        """
        if s == lo:
            return self.value(fn, lo)
        pole = POLES.get(fn)
        line = self._lines.get((fn, lo, hi))
        if line is None:
            lo_, hi_ = mpf(lo), mpf(hi)
            g_lo, g_hi = self.value(fn, lo), self.value(fn, hi)
            if pole is not None:
                g_lo, g_hi = (lo_ - pole) * g_lo, (hi_ - pole) * g_hi
            line = self._lines[(fn, lo, hi)] = (lo_, g_lo, (g_hi - g_lo) / (hi_ - lo_))
        lo_, g_lo, slope = line
        g = g_lo + (mpf(s) - lo_) * slope
        return g if pole is None else g / (mpf(s) - pole)

    def save(self) -> None:
        if not self.cache_path:
            return
        os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._cache, fh, sort_keys=True)
        os.replace(tmp, self.cache_path)


def remark1_value(identity_id: str, m: int) -> mpf:
    """(pi/4) (pi/2)^j / j!, j = 2m-1 for remark1_a and 2m for remark1_b."""
    j = 2 * m - 1 if identity_id == "remark1_a" else 2 * m
    return mp.pi / 4 * (mp.pi / 2) ** j / mpmath.factorial(j)


def pipoly_value(text: str) -> mpf:
    """Evaluate the string form of a dirichlet_j PiPoly, e.g. '1/2*pi - 3/4*pi^3'."""
    total = mpf(0)
    with mp.workdps(REF_DPS + _GUARD):
        for term in text.strip().replace(" - ", " + -").split(" + "):
            coeff_text, has_pi, power_text = term.partition("pi")
            if not has_pi:
                coeff = Fraction(coeff_text)
                exponent = 0
            else:
                coeff_text = coeff_text.rstrip("*")
                coeff = Fraction(coeff_text + "1" if coeff_text in ("", "-") else coeff_text)
                exponent = int(power_text[1:]) if power_text else 1
            total += mpf(coeff.numerator) / coeff.denominator * mp.pi**exponent
    return +total


def compare(value, ref) -> tuple[float, float]:
    """(absolute error, correct significant digits within [0, DIGITS_CAP])."""
    err = float(abs(mpf(value) - ref))
    if err == 0:
        return 0.0, DIGITS_CAP
    scale = abs(float(ref)) or 1.0
    return err, min(max(-math.log10(err / scale), 0.0), DIGITS_CAP)


def exact_tolerance(ref) -> float:
    """What 'exact' means against a REF_DPS-digit reference."""
    return float(abs(ref)) * 10.0 ** (4 - REF_DPS) if ref != 0 else 0.0

"""Check strength: which input errors the verification battery can see.

Each row scales one input of the suites by 1 + 1e-9 (the Euler table: its
last entry plus 1), rebinding every module global that refers to it, and
counts the failing reports of each suite at CLI defaults.  A caught cell
must keep failing at least as many reports.  A blind cell is named with its
reason and must stay blind, so a change that closes one moves it to the
caught cells and says so.
"""

import sys
from fractions import Fraction

import pytest

from dirichlet_j import exact, identities, jfun, linalg, special  # noqa: F401  (linalg: loaded before any rebinding)
from dirichlet_j.cli import suite_reports
from dirichlet_j.special import EvalResult

SCALE = 1 + 1e-9
EXACT_SCALE = Fraction(10**9 + 1, 10**9)
TOTALS = {"thm1": 5, "thm2": 5, "thm4": 10, "remark1": 40, "collapse": 72, "lemmas": 317, "fourier": 40}


def _exact(f):
    return lambda *args: f(*args) * EXACT_SCALE


def _positive_powers(f):  # (pi/2)^j / j! for j >= 1; the j = 0 term is the integer 1
    return lambda j: f(j) * EXACT_SCALE if j else f(j)


def _result(f):
    def scaled(*args, **kwargs):
        r = f(*args, **kwargs)
        return EvalResult(r.value * SCALE, r.error_estimate, r.method, r.work)

    return scaled


def _float(f):
    return lambda *args: f(*args) * SCALE


def _beta_values(f):
    def scaled(n):
        return [(b * SCALE, err) for b, err in f(n)]

    return scaled


def _last_plus_one(f):
    def off(count):
        numbers = f(count)
        return numbers[:-1] + [numbers[-1] + 1]

    return off


UNREAD = "no check of the suite reads it"
EXACT = "the suite compares exact pi-monomials, so no float or value of pi reaches a verdict"


def _blind(reason, *suites):
    return dict.fromkeys(suites, reason)


# mutated input -> (module, mutation, caught cells {suite: failing reports
# today}, blind cells {suite: reason}); the cells of a row cover every suite
ROWS = {
    "lambda_even_closed": (
        special, _exact, {"thm1": 5, "remark1": 40, "collapse": 64, "fourier": 39},
        _blind(UNREAD, "thm2", "thm4", "lemmas"),
    ),
    "beta_odd_closed": (
        special, _exact, {"thm1": 1, "thm2": 5, "remark1": 40, "collapse": 72, "fourier": 39},
        _blind(UNREAD, "thm4", "lemmas"),
    ),
    "_half_pi_term": (
        exact, _positive_powers, {"thm4": 9, "remark1": 40, "collapse": 64},
        _blind(UNREAD, "thm1", "thm2", "lemmas", "fourier"),
    ),
    "lambda_numeric": (
        special, _result, {"thm1": 5, "thm4": 5},
        {**_blind(UNREAD, "thm2", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "beta_numeric": (
        special, _result, {"thm2": 5},
        {**_blind(UNREAD, "thm1", "thm4", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "_beta_even": (
        special, _beta_values, {"thm4": 7},
        {**_blind(UNREAD, "thm1", "thm2", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "j_quadrature": (
        jfun, _result, {"thm1": 5, "thm2": 5, "thm4": 3},
        {**_blind(UNREAD, "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "j_closed_odd": (
        jfun, _result, {"thm4": 2},
        {**_blind(UNREAD, "thm1", "thm2", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "j_closed_even": (
        jfun, _result, {"thm4": 1},
        {**_blind(UNREAD, "thm1", "thm2", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "j_euler_series": (
        jfun, _result, {},
        {**_blind(UNREAD, "thm1", "thm2", "thm4", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "pi_fraction": (
        exact, _exact, {"thm1": 5, "thm2": 5, "thm4": 6, "fourier": 39},
        {**_blind(EXACT, "remark1", "collapse"), "lemmas": "the lemmas read math.pi"},
    ),
    "_odd_harmonic_sum": (  # the --deep kernel
        identities, _float, {},
        {**_blind(UNREAD, "thm1", "thm2", "thm4", "lemmas", "fourier"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "odd_harmonic_series": (
        identities, _result, {"lemmas": 2, "fourier": 36},
        {**_blind(UNREAD, "thm1", "thm2", "thm4"), **_blind(EXACT, "remark1", "collapse")},
    ),
    "euler_numbers": (
        exact, _last_plus_one, {"lemmas": 1},
        _blind(UNREAD, "thm1", "thm2", "thm4", "remark1", "collapse", "fourier"),
    ),
}


def _failing():
    """suite -> number of failing reports; the totals are checked on the way."""
    failing = {}
    for suite, total in TOTALS.items():
        reports = suite_reports(suite)
        assert len(reports) == total, suite
        failing[suite] = sum(not r.passed for r in reports)
    return failing


@pytest.fixture
def mutate(monkeypatch):
    """Rebinds every dirichlet_j global that refers to an input, as
    perfbench's tracer does.  The float factors (pi/2)^j/j! of the J closed
    forms are cached per process, so that cache is emptied on both sides."""

    def apply(module, name, mutation):
        original = getattr(module, name)
        mutated = mutation(original)
        for module_name, mod in list(sys.modules.items()):
            if module_name == "dirichlet_j" or module_name.startswith("dirichlet_j."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, mutated)

    jfun._half_pi_factor.cache_clear()
    yield apply
    monkeypatch.undo()
    jfun._half_pi_factor.cache_clear()


def test_unmutated_battery_passes():
    assert _failing() == dict.fromkeys(TOTALS, 0)


@pytest.mark.parametrize("row", ROWS)
def test_caught_cells_stay_caught_and_blind_cells_are_named(row, mutate):
    module, mutation, caught, blind = ROWS[row]
    assert sorted([*caught, *blind]) == sorted(TOTALS), "each suite is either caught or blind"
    assert all(caught.values()) and all(blind.values())
    mutate(module, row, mutation)
    failing = _failing()
    for suite, count in caught.items():
        assert failing[suite] >= count, f"{row} x {suite}: {failing[suite]} failing, {count} before"
    for suite, reason in blind.items():
        assert failing[suite] == 0, f"{row} x {suite} is caught now ({reason}): move it to the caught cells"

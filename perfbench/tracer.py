"""Span tracer installed from outside the package under test.

Wrappers are bound over the public functions of each `dirichlet_j` module.
Modules import functions by name (`special` does
`from .exact import bernoulli_numbers`), so installing a wrapper rebinds every
global in every loaded `dirichlet_j.*` module that refers to the original.
`PiPoly` methods are wrapped on the class.

A span is (name, start, end, parent, op, work, error); parent is the index of
the enclosing span or -1.  Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable

NAME, START, END, PARENT, OP, WORK, ERROR = range(7)


def _len(value) -> int:
    return len(value) if isinstance(value, (list, tuple)) else 1


def _eval_work(args, kwargs, result) -> int:
    return getattr(result, "work", 0)


def _reports(args, kwargs, result) -> int:
    return _len(result)


# function -> work(args, kwargs, result): EvalResult.work, table entries
# requested, series terms, matrix entries or bytes emitted
FUNCTIONS: dict[str, Callable] = {
    "exact.euler_numbers": lambda a, k, r: a[0],
    "exact.bernoulli_numbers": lambda a, k, r: a[0],
    "exact.pi_fraction": lambda a, k, r: a[0],
    "exact.PiPoly.evalf": lambda a, k, r: len(a[0].terms),
    "exact.PiPoly.arith": lambda a, k, r: len(r.terms) if hasattr(r, "terms") else 0,
    "special.lambda_numeric": _eval_work,
    "special.beta_numeric": _eval_work,
    "special.lambda_even_closed": lambda a, k, r: a[0],
    "special.beta_odd_closed": lambda a, k, r: a[0],
    "jfun.j_quadrature": _eval_work,
    "jfun.j_euler_series": _eval_work,
    "jfun.j_closed_odd": _eval_work,
    "jfun.j_closed_even": _eval_work,
    "jfun.j_riemann_sum": lambda a, k, r: a[1],
    "identities.check_theorem1": _reports,
    "identities.check_theorem2": _reports,
    "identities.check_theorem4": _reports,
    "identities.check_remark1": _reports,
    "identities.check_collapse": _reports,
    "identities.check_fourier": lambda a, k, r: a[3] if len(a) > 3 else k["terms"],
    "identities.fourier_partial": lambda a, k, r: a[3],
    "identities.fourier_closed": lambda a, k, r: a[1],
    "linalg.check_involution": lambda a, k, r: a[0] * a[0],
    "linalg.trig_sum_check": lambda a, k, r: a[1],
    "linalg.log_tan_series": lambda a, k, r: a[1],
    "linalg.csc_taylor_check": lambda a, k, r: a[0] + 1,
    "cli.run": lambda a, k, r: 1,
    "cli.emit_report": lambda a, k, r: len(r.encode()),
}

LAYERS = ("import", "exact", "special", "jfun", "identities", "linalg", "cli")
# functions that call into another layer, for which total_s is reported
CROSS_LAYER = (
    "special.lambda_even_closed",
    "special.beta_odd_closed",
    "jfun.j_euler_series",
    "jfun.j_closed_odd",
    "jfun.j_closed_even",
    "identities.check_theorem1",
    "identities.check_theorem2",
    "identities.check_theorem4",
    "identities.check_remark1",
    "identities.check_collapse",
    "identities.check_fourier",
    "identities.fourier_closed",
    "linalg.csc_taylor_check",
    "cli.run",
)
_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: Callable = lambda a, k, r: 0) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = 1
                raise
            finally:
                stack.pop()
                span[END] = clock()
            span[WORK] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str, start: float, end: float, op: int) -> None:
        """Record a root span measured elsewhere (interpreter start + import)."""
        self.spans.append([name, start, end, -1, op, 0, 0])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every function named in FUNCTIONS in the loaded dirichlet_j modules."""
    package = sys.modules["dirichlet_j"]
    modules = [m for name, m in list(sys.modules.items()) if name == "dirichlet_j" or name.startswith("dirichlet_j.")]
    pipoly = package.exact.PiPoly
    for name, work in FUNCTIONS.items():
        if name.startswith("exact.PiPoly."):
            methods = ("evalf",) if name.endswith("evalf") else _ARITH
            for method in methods:
                setattr(pipoly, method, tracer.wrap(name, pipoly.__dict__[method], work))
            continue
        module_name, func_name = name.split(".")
        module = sys.modules.get(f"dirichlet_j.{module_name}")
        if module is None:
            continue
        original = getattr(module, func_name)
        wrapped = tracer.wrap(name, original, work)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def extend(spans: list[list], more: list[list]) -> None:
    """Append the spans of another process, re-basing their parent indices."""
    offset = len(spans)
    for span in more:
        if span[PARENT] >= 0:
            span[PARENT] += offset
        spans.append(span)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-function calls, self_s, total_s, work and errors.

    Self time is a span's duration minus the time its child spans cover;
    spans nest strictly, so children never overlap.  total_s counts only the
    outermost span of a name, so recursion is not counted twice.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0, "errors": 0}
    )
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += duration - covered[index]
        entry["work"] += span[WORK]
        entry["errors"] += span[ERROR]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["total_s"] += duration
    return dict(stats)


def root_time_by_op(spans: list[list]) -> dict[int, float]:
    """Time covered by root spans, per op id."""
    out: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] < 0:
            out[span[OP]] += span[END] - span[START]
    return dict(out)

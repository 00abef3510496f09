import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dirichlet_j
from dirichlet_j import exact, identities, jfun, linalg, special
from dirichlet_j.exact import PiPoly
from dirichlet_j.identities import IdentityReport
from dirichlet_j.special import EvalResult

SUBMODULES = ("exact", "special", "jfun", "identities", "linalg")


def test_all_is_the_union_of_the_submodule_lists():
    names = [name for sub in SUBMODULES for name in importlib.import_module(f"dirichlet_j.{sub}").__all__]
    assert len(names) == len(set(names))
    assert dirichlet_j.__all__ == names


@pytest.mark.parametrize("sub", SUBMODULES)
def test_every_export_is_the_submodule_object(sub):
    module = importlib.import_module(f"dirichlet_j.{sub}")
    for name in module.__all__:
        assert getattr(dirichlet_j, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dirichlet_j import *", namespace)
    for name in dirichlet_j.__all__:
        assert namespace[name] is getattr(dirichlet_j, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirichlet_j.no_such_name
    with pytest.raises(AttributeError):
        dirichlet_j.__no_such_dunder__
    assert not hasattr(dirichlet_j, "no_such_name")


def test_dir_lists_the_submodules_and_exports():
    listed = dir(dirichlet_j)
    assert set(SUBMODULES) <= set(listed)
    assert set(dirichlet_j.__all__) <= set(listed)
    assert "__version__" in listed


# ---------------------------------------------------------------------------
# what a fresh process loads
# ---------------------------------------------------------------------------

_LOADED = """
import sys
before = set(sys.modules)
from dirichlet_j.cli import run
code = run(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


def _loaded_by(argv):
    """Exit code of `run(argv)` in a fresh interpreter, and the modules the
    import of dirichlet_j.cli and the run added to those loaded at start."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dirichlet_j.__file__)))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True, text=True, check=True)
    code, *modules = out.stdout.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.mark.parametrize(
    "argv",
    [["compute", "J", "1"], ["table", "beta", "--range", "1..5"], ["verify", "thm2"]],
    ids=["compute", "table", "verify"],
)
def test_start_up_loads_only_what_the_command_uses(argv):
    code, loaded = _loaded_by(argv)
    assert code == 0
    assert "dirichlet_j.jfun" in loaded
    assert not loaded & {"dataclasses", "inspect", "numpy"}
    assert "dirichlet_j.linalg" not in loaded
    assert ("dirichlet_j.identities" in loaded) == (argv[0] == "verify")


def _numpy_import_scopes(node, scope):
    """The dotted function or class scope of every import of numpy below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _numpy_import_scopes(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(name.split(".")[0] == "numpy" for name in modules):
            yield scope
        yield from _numpy_import_scopes(child, scope)


def test_numpy_imported_by_one_function():
    # array arithmetic serves only the odd-harmonic sums of up to 1e6 terms;
    # every other route is plain Python
    package = Path(dirichlet_j.__file__).parent
    scopes = [
        scope
        for path in sorted(package.glob("*.py"))
        for scope in _numpy_import_scopes(ast.parse(path.read_text()), path.stem)
    ]
    assert scopes == ["identities._odd_harmonic_sum"]


def test_cli_reads_no_private_library_name():
    # the CLI is a client of the public API: it imports and reads no
    # underscore-prefixed name of another dirichlet_j module
    tree = ast.parse(Path(dirichlet_j.__file__).with_name("cli.py").read_text())
    modules = set()  # local names bound to the package or its modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "dirichlet_j")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "dirichlet_j"):
            private += [a.name for a in node.names if a.name.startswith("_")]
            modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.append(ast.unparse(node))
    assert modules and private == []


# ---------------------------------------------------------------------------
# the immutable records
# ---------------------------------------------------------------------------


# per record: a factory of one instance (called twice for equal copies), a
# factory of an instance that differs in one field, and the fields in order
RECORDS = {
    "EvalResult": (
        lambda: EvalResult(1.0, 1e-3, "quadrature", 5),
        lambda: EvalResult(1.0, 1e-3, "quadrature", 6),
        ("value", "error_estimate", "method", "work"),
    ),
    "IdentityReport": (
        lambda: IdentityReport("thm1", (1,), 1.0, 1.0),
        lambda: IdentityReport("thm1", (1,), 1.0, 1.0, tol=1e-10),
        ("identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "passed", "tol"),
    ),
    "IdentityReport-exact": (
        lambda: IdentityReport("collapse", (2, 1), PiPoly(Fraction(1, 3), 2), PiPoly(Fraction(1, 4), 2)),
        lambda: IdentityReport("collapse", (2, 1), PiPoly(Fraction(1, 3), 2), PiPoly(Fraction(1, 3), 2)),
        ("identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "passed", "tol"),
    ),
    "PiPoly": (
        lambda: PiPoly(Fraction(-1, 2), 3),
        lambda: PiPoly(Fraction(-1, 2), 2),
        ("coeff", "exp"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_equality_and_hash(name):
    make, other, fields = RECORDS[name]
    a, b = make(), make()
    assert type(a).__slots__ == fields
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other() and not a == other()
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and values != a
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name][0]()
    field = RECORDS[name][2][0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_record_copies_and_pickles(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_record_repr_names_class_and_fields():
    assert repr(EvalResult(1.0, 0.001, "quadrature", 5)) == (
        "EvalResult(value=1.0, error_estimate=0.001, method='quadrature', work=5)"
    )
    assert repr(PiPoly(Fraction(-1, 2), 3)) == "PiPoly(-1/2*pi^3)"
    assert repr(IdentityReport("thm2", (1, 2), 1.0, 2.0)) == (
        "IdentityReport(identity_id='thm2', params=(1, 2), lhs=1.0, rhs=2.0, abs_diff=1.0, "
        "exact=False, passed=False, tol=0.0)"
    )


def test_record_defaults_and_keywords():
    assert IdentityReport("x", (), 0.0, 0.0).tol == 0.0
    assert PiPoly() == PiPoly(coeff=0, exp=0) and PiPoly(exp=2).exp == 0
    assert EvalResult(value=2.0, error_estimate=0.0, method="closed_form", work=0).value == 2.0


@pytest.mark.parametrize(
    "args,message",
    [
        ((1.0, -1e-3, "quadrature", 5), "error_estimate must be >= 0"),
        ((1.0, 1e-3, "quadrature", 0), "work must be > 0 for non-closed-form methods"),
    ],
)
def test_eval_result_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EvalResult(*args)


def test_odd_grid_matrix_entries_read_only():
    m = linalg.build_matrix(2, "sine")
    before = m[0][0]
    with pytest.raises(TypeError, match="does not support item assignment"):
        m[0][0] = 5.0
    assert m[0][0] == before


def test_pipoly_is_immutable_and_copies():
    p = PiPoly(3, 2) + PiPoly(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        p.coeff = Fraction(0)
    with pytest.raises(AttributeError, match="immutable"):
        del p.exp
    assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p
    assert hash(copy.deepcopy(p)) == hash(p)
    assert p != 3 and PiPoly(3, 0) != 3


# ---------------------------------------------------------------------------
# integer arguments: orders, counts, digits and exponents
# ---------------------------------------------------------------------------

# per check: the argument's name, a call that takes it, and its least value
ORDER_CHECKS = {
    "check_theorem1": ("m", identities.check_theorem1, 1),
    "check_theorem2": ("m", identities.check_theorem2, 1),
    "check_theorem4": ("n", identities.check_theorem4, 1),
    "check_remark1": ("m", identities.check_remark1, 1),
    "check_collapse": ("m", identities.check_collapse, 1),
    "fourier_closed": ("m", lambda m: identities.fourier_closed("sine", m, 0.5), 1),
    "check_fourier": ("m", lambda m: identities.check_fourier("cosine", m, 0.5, 10), 1),
    "build_matrix": ("n", lambda n: linalg.build_matrix(n, "sine"), 1),
    "check_involution": ("n", lambda n: linalg.check_involution(n, "cosine"), 1),
    "trig_sum_check": ("n", lambda n: linalg.trig_sum_check("1_cos", n, 0.3), 1),
    "csc_taylor_check": ("k_max", linalg.csc_taylor_check, 1),
    "fourier_partial": ("terms", lambda terms: identities.fourier_partial("sine", 3, 0.5, terms), 1),
    "odd_harmonic_series": ("order", lambda order: identities.odd_harmonic_series("sine", order, 0.5), 1),
    "log_tan_series": ("terms", lambda terms: linalg.log_tan_series(0.5, terms), 1),
    "pi_fraction": ("digits", exact.pi_fraction, 1),
    "euler_numbers": ("count", exact.euler_numbers, 1),
    "bernoulli_numbers": ("count", exact.bernoulli_numbers, 1),
    "lambda_even_closed": ("m", special.lambda_even_closed, 1),
    "beta_odd_closed": ("m", special.beta_odd_closed, 1),
    "j_euler_series": ("n", jfun.j_euler_series, 1),
    "j_closed_odd": ("n", jfun.j_closed_odd, 1),
    "j_closed_even": ("n", jfun.j_closed_even, 1),
    "up_down_number": ("n", exact.up_down_number, 0),
    "PiPoly": ("exponent", lambda exp: PiPoly(1, exp), 0),
}


def _assert_rejected(check, bad):
    name, call, least = ORDER_CHECKS[check]
    if bad is True and least <= 1:
        call(1)  # a warm call with the equal int must not let True through
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, not {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("order", [0, 1.5, True], ids=["zero", "float", "bool"])
@pytest.mark.parametrize("check", sorted(c for c in ORDER_CHECKS if ORDER_CHECKS[c][2] == 1))
def test_order_must_be_an_int_of_at_least_one(check, order):
    _assert_rejected(check, order)


@pytest.mark.parametrize("case", ["below", "float", "bool"])
@pytest.mark.parametrize("check", sorted(c for c in ORDER_CHECKS if ORDER_CHECKS[c][2] != 1))
def test_argument_must_be_an_int_of_at_least_its_least(check, case):
    least = ORDER_CHECKS[check][2]
    _assert_rejected(check, {"below": least - 1, "float": least + 0.5, "bool": True}[case])


@pytest.mark.parametrize("order", [1, 2.5, True], ids=["one", "float", "bool"])
def test_fourier_partial_order_must_be_an_int_of_at_least_two(order):
    with pytest.raises(ValueError, match=f"^order must be an integer >= 2, not {order!r}$"):
        identities.fourier_partial("sine", order, 0.5, 10)


# ---------------------------------------------------------------------------
# the names the benchmark tracer wraps
# ---------------------------------------------------------------------------


def _tracer_namespace():
    """perfbench/tracer.py executed from its source, which writes no bytecode
    cache; it imports only the standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves():
    tracer = _tracer_namespace()
    for name in tracer["FUNCTIONS"]:
        if name.startswith("exact.PiPoly."):
            continue
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"dirichlet_j.{module_name}")
        assert callable(getattr(module, func_name, None)), name
    for method in ("evalf", *tracer["_ARITH"]):
        assert method in PiPoly.__dict__, method
    # the work functions of the PiPoly spans read the length of `terms`
    assert "terms" in PiPoly.__dict__
    assert [len(p.terms) for p in (PiPoly(3, 2), PiPoly())] == [1, 0]

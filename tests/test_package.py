import copy
import importlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import dirichlet_j
from dirichlet_j.exact import PiPoly
from dirichlet_j.identities import IdentityReport
from dirichlet_j.jfun import WExpansion
from dirichlet_j.linalg import OddGridMatrix
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


# ---------------------------------------------------------------------------
# the immutable records
# ---------------------------------------------------------------------------


def _matrix(n=2):
    return OddGridMatrix(n, "sine", np.arange(float(n * n)).reshape(n, n))


# per record: a factory of one instance (called twice for equal copies), a
# factory of an instance that differs in one field, and the fields in order
RECORDS = {
    "EvalResult": (
        lambda: EvalResult(1.0, 1e-3, "quadrature", 5),
        lambda: EvalResult(1.0, 1e-3, "quadrature", 6),
        ("value", "error_estimate", "method", "work"),
    ),
    "IdentityReport": (
        lambda: IdentityReport("thm1", (1,), 1.0, 1.0, 0.0, exact=False, passed=True),
        lambda: IdentityReport("thm1", (1,), 1.0, 1.0, 0.0, exact=False, passed=True, tol=1e-10),
        ("identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "passed", "tol"),
    ),
    "WExpansion": (
        lambda: WExpansion(1, (PiPoly.term(1, 1), PiPoly.term(-1, 0))),
        lambda: WExpansion(1),
        ("order", "coefficients"),
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
    assert repr(WExpansion(0)) == "WExpansion(order=0, coefficients=())"
    assert repr(IdentityReport("thm2", (1, 2), 1.0, 2.0, 1.0, exact=False, passed=False)) == (
        "IdentityReport(identity_id='thm2', params=(1, 2), lhs=1.0, rhs=2.0, abs_diff=1.0, "
        "exact=False, passed=False, tol=0.0)"
    )
    assert repr(_matrix(1)) == "OddGridMatrix(n=1, kind='sine', entries=array([[0.]]))"


def test_record_defaults_and_keywords():
    assert IdentityReport("x", (), 0.0, 0.0, 0.0, True, True).tol == 0.0
    assert WExpansion(order=3).coefficients == ()
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
    m = _matrix()
    with pytest.raises(ValueError, match="read-only"):
        m.entries[0, 0] = 5.0
    with pytest.raises(AttributeError, match="immutable"):
        m.entries = np.zeros((2, 2))
    assert m == m and m.n == 2 and m.kind == "sine"
    # an array field is unhashable, as it was in the frozen dataclass
    with pytest.raises(TypeError):
        hash(m)


def test_pipoly_is_immutable_and_copies():
    p = PiPoly.term(3, 2) + PiPoly.term(1, 0)
    with pytest.raises(AttributeError, match="immutable"):
        p._terms = {}
    with pytest.raises(AttributeError, match="immutable"):
        del p._terms
    assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p
    assert hash(copy.deepcopy(p)) == hash(p)
    assert p != 3 and PiPoly.term(3, 0) != 3

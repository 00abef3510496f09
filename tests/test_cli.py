import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import dirichlet_j
from dirichlet_j.cli import CLOSED_MAX, SUITES, emit_report, run, suite_reports
from dirichlet_j.exact import PiPoly
from dirichlet_j.identities import IdentityReport


class TestDefaults:
    def test_defaults(self, capsys):
        # digits 15
        assert run(["compute", "beta", "2"]) == 0
        implicit = capsys.readouterr().out
        assert run(["compute", "beta", "2", "--digits", "15"]) == 0
        assert capsys.readouterr().out == implicit
        # tol 1e-10 and seed 0x5EED
        assert {r.tol for r in suite_reports("thm2", range=(1, 2))} == {1e-10}
        assert suite_reports("lemmas") == suite_reports("lemmas", seed=0x5EED)
        assert suite_reports("lemmas") != suite_reports("lemmas", seed=7)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _assert_csv_matches_json(csv_text, rows):
    """Every CSV cell holds the value of its JSON field; floats bit for bit."""
    records = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(records) == len(rows)
    for record, row in zip(records, rows):
        assert list(record) == list(row)
        for key, value in row.items():
            cell = record[key]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false"), key
            elif isinstance(value, list):
                assert cell == ";".join(str(p) for p in value), key
            elif isinstance(value, float) or value in ("inf", "-inf", "nan"):
                assert repr(float(cell)) == repr(float(value)), key
            else:
                assert cell == str(value), key


@pytest.fixture
def capout(capsys):
    def read():
        return capsys.readouterr().out

    return read


class TestCompute:
    def test_j_quadrature(self, capout):
        assert run(["compute", "J", "1", "--digits", "15"]) == 0
        out = capout()
        assert "1.166243616123275" in out
        assert "quadrature" in out
        assert "error estimate" in out

    def test_beta(self, capout):
        assert run(["compute", "beta", "2"]) == 0
        assert "0.915965594177218" in capout()

    def test_lambda_closed(self, capout):
        assert run(["compute", "lambda", "4", "--method", "closed"]) == 0
        assert "1.014678031604192" in capout()

    def test_j_euler_series(self, capout):
        assert run(["compute", "J", "3", "--method", "euler_series"]) == 0
        assert "0.1796320799769" in capout()

    def test_j_euler_series_at_170(self, capout):
        # (170 + 1)! exceeds a double although J(170) does not
        assert run(["compute", "J", "170", "--method", "euler_series"]) == 0
        assert "J(170) = 1.7645" in capout()

    def test_j_riemann(self, capout):
        assert run(["compute", "J", "2", "--method", "riemann"]) == 0
        assert "riemann_sum" in capout()

    def test_non_integer_argument(self, capout):
        assert run(["compute", "J", "3.5"]) == 0
        assert "0.1011261779011461" in capout()

    @pytest.mark.parametrize(
        "function,arg,available",
        [
            ("lambda", "4", {"auto", "closed", "series"}),
            ("beta", "3", {"auto", "closed", "series"}),
            ("J", "3", {"auto", "closed", "quadrature", "euler_series", "riemann"}),
        ],
    )
    @pytest.mark.parametrize("method", ["auto", "closed", "series", "quadrature", "euler_series", "riemann"])
    def test_method_availability(self, function, arg, available, method, capsys):
        code = run(["compute", function, arg, "--method", method])
        err = capsys.readouterr().err
        if method in available:
            assert code == 0 and err == ""
        else:
            assert code == 2
            assert err == f"usage error: method {method!r} not available for {function}\n"

    def test_closed_method_wrong_parity_is_usage_error(self):
        assert run(["compute", "lambda", "3", "--method", "closed"]) == 2
        assert run(["compute", "beta", "2", "--method", "closed"]) == 2

    def test_domain_error_is_usage_error(self):
        assert run(["compute", "lambda", "0.5"]) == 2

    @pytest.mark.parametrize(
        "argv,domain",
        [
            (["compute", "beta", "nan"], "finite"),
            (["compute", "lambda", "inf"], "finite"),
            (["compute", "J", "200"], "s <= 170.62"),
            (["compute", "J", "171.5"], "s <= 170.62"),
            (["table", "J", "--range", "165..172"], "s <= 170.62"),
            (["compute", "J", "171", "--method", "euler_series"], "s <= 170.62"),
            (["compute", "J", "171", "--method", "closed"], "s <= 170.62"),
            (["compute", "J", "2000", "--method", "euler_series"], "s <= 170.62"),
            (["compute", "J", "1000000"], "s <= 170.62"),
            (["compute", "J", "1000000", "--method", "riemann"], "s <= 170.62"),
        ],
        ids=[
            "beta-nan",
            "lambda-inf",
            "J-200",
            "J-171.5",
            "table-J-165..172",
            "J-171-euler_series",
            "J-171-closed",
            "J-2000-euler_series",
            "J-1000000",
            "J-1000000-riemann",
        ],
    )
    def test_argument_outside_domain_is_usage_error(self, argv, domain, capsys):
        # rejected before any work: J 1000000 once built 1000000! first (11 s)
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert domain in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "fn,arg", [("lambda", "1e6"), ("lambda", "1002"), ("beta", "1001"), ("beta", "1000001"), ("lambda", "1e300")]
    )
    def test_closed_form_above_bound_is_usage_error(self, fn, arg, capsys):
        # rejected before any work: lambda 1e6 once grew the up/down table for hours
        start = time.perf_counter()
        assert run(["compute", fn, arg, "--method", "closed"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: closed form for {fn} needs an argument <= 1000\n"

    def test_closed_form_at_bound(self, capout):
        assert CLOSED_MAX == 1000
        assert run(["compute", "lambda", "1000", "--method", "closed"]) == 0
        assert capout().startswith("lambda(1000) = 1\nmethod: closed_form")
        assert run(["compute", "beta", "999", "--method", "closed"]) == 0
        assert capout().startswith("beta(999) = 1\nmethod: closed_form")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "J", "1", "--digits", "325"],
            ["compute", "J", "3", "--method", "euler_series", "--digits", "400"],
            ["table", "J", "--range", "1..3", "--digits", "325"],
        ],
        ids=["quadrature", "euler_series", "table"],
    )
    def test_target_underflow_is_usage_error(self, argv, capsys):
        # 10^(1 - digits) is 0.0 from digits = 325
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: digits={argv[-1]} is too large: the target 10^(1 - digits) underflows to 0\n"

    def test_convergence_failure_exit_code(self):
        # s this close to 0 makes the value huge and the absolute target
        # unreachable within the level cap
        assert run(["compute", "J", "0.00000001"]) == 3

    def test_digits_below_floor_rejected(self):
        assert run(["compute", "J", "1", "--digits", "10"]) == 2

    def test_env_var_digits(self, capout, monkeypatch):
        monkeypatch.setenv("DIRICHLET_J_DIGITS", "16")
        assert run(["compute", "beta", "2"]) == 0
        assert "0.915965594177219" in capout()

    def test_env_var_read_on_every_run(self, capout, monkeypatch):
        expected = {}
        for digits in ("15", "20"):
            assert run(["compute", "beta", "2", "--digits", digits]) == 0
            expected[digits] = capout()
        assert expected["15"] != expected["20"]
        monkeypatch.setenv("DIRICHLET_J_DIGITS", "20")
        assert run(["compute", "beta", "2"]) == 0
        assert capout() == expected["20"]
        monkeypatch.delenv("DIRICHLET_J_DIGITS")
        assert run(["compute", "beta", "2"]) == 0
        assert capout() == expected["15"]

    def test_env_var_invalid(self, monkeypatch, capsys):
        for value in ("many", "10"):
            monkeypatch.setenv("DIRICHLET_J_DIGITS", value)
            for argv in (["compute", "beta", "2"], ["verify", "thm2"], ["table", "beta", "--range", "1..2"]):
                assert run(argv) == 2
                assert f"invalid DIRICHLET_J_DIGITS='{value}'" in capsys.readouterr().err


# sha256 of the stdout of these commands before the exact constants were
# memoised; building them once per process must not change a byte
PINNED_SHA256 = {
    ("verify", "remark1", "--range", "1..60", "--format", "json"): (
        "f3123f9c7cf3b1e1c616db410e7a79eaf45c23a2d597fcb88d5ac9065b3d3e5d"
    ),
    ("verify", "collapse", "--range", "1..24", "--format", "csv"): (
        "8c550246920b213c90cb437ca617cdb7f99e37d59d0ca6a054324b5ae795b7f2"
    ),
}


class TestVerify:
    @pytest.mark.parametrize("argv", PINNED_SHA256)
    def test_wide_exact_outputs_pinned(self, argv, capout):
        assert run(list(argv)) == 0
        assert hashlib.sha256(capout().encode()).hexdigest() == PINNED_SHA256[argv]

    @pytest.mark.parametrize("argv", [["verify", "remark1", "--range", "1..2"], ["table", "beta", "--range", "1..2"]])
    def test_unwritable_output_is_exit_two(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert run(argv + ["-o", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write {str(path)!r}: No such file or directory\n"

    def test_bad_seed_message(self, capsys):
        assert run(["verify", "thm1", "--seed", "zz"]) == 2
        assert "argument --seed: seed must be an integer\n" in capsys.readouterr().err
        assert run(["verify", "lemmas", "--seed", "0x10"]) == 0  # prefixed ints still parse

    def test_thm2_range_passes(self, capout):
        assert run(["verify", "thm2", "--range", "1..4", "--tol", "1e-10"]) == 0
        out = capout()
        assert out.count("✓") == 4
        assert "4/4 passed" in out

    def test_failing_tolerance_gives_exit_one(self):
        assert run(["verify", "thm1", "--range", "1..2", "--tol", "1e-30"]) == 1

    def test_remark1_exact(self, capout):
        assert run(["verify", "remark1", "--range", "1..20"]) == 0
        assert "40/40 passed" in capout()

    def test_collapse(self, capout):
        assert run(["verify", "collapse", "--range", "1..8"]) == 0

    def test_lemmas(self):
        assert run(["verify", "lemmas"]) == 0

    def test_fourier(self):
        assert run(["verify", "fourier"]) == 0

    @pytest.mark.parametrize("suite", ["lemmas", "fourier", "remark1", "collapse"])
    @pytest.mark.parametrize("option", [["--tol", "1e-30"], ["--range", "1..3"]])
    def test_fixed_suites_reject_tol_and_range(self, suite, option, capsys):
        # lemmas and fourier take neither option; the exact suites take --range only
        exact = suite in ("remark1", "collapse")
        if exact and option[0] == "--range":
            assert run(["verify", suite, *option]) == 0
            return
        assert run(["verify", suite, *option]) == 2
        reason = "is exact (zero tolerance); it takes no --tol" if exact else "has fixed tolerances"
        assert f"usage error: verify {suite} {reason}" in capsys.readouterr().err

    def test_all_applies_tol_and_range_to_the_five(self, capout):
        assert run(["verify", "all", "--range", "2..2", "--tol", "1e-30", "--format", "json"]) == 1
        rows = json.loads(capout())
        ranged = [r for r in rows if r["identity_id"].startswith(("thm", "remark1", "collapse"))]
        assert {r["params"][0] for r in ranged} == {2}
        failed = {r["identity_id"] for r in rows if not r["pass"]}
        assert failed and failed <= {"thm1", "thm2", "thm4_odd", "thm4_even"}
        assert sum(r["identity_id"] == "eq_a2" for r in rows) == 16

    def test_bad_suite_usage_error(self):
        assert run(["verify", "thm9"]) == 2

    def test_bad_range_usage_error(self):
        assert run(["verify", "thm1", "--range", "5"]) == 2

    def test_nonpositive_tol_usage_error(self):
        assert run(["verify", "thm1", "--tol", "-1e-5"]) == 2
        for tol in ("0", "nan", "inf"):
            assert run(["verify", "thm1", "--tol", tol]) == 2

    def test_json_roundtrip(self, capout):
        assert run(["verify", "thm2", "--range", "1..3", "--format", "json"]) == 0
        rows = json.loads(capout())
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"identity_id", "params", "lhs", "rhs", "abs_diff", "exact", "pass"}
            assert row["pass"] is True and row["exact"] is False
            assert isinstance(row["lhs"], float)

    def test_csv_schema(self, capout):
        assert run(["verify", "thm4", "--range", "1..2", "--format", "csv"]) == 0
        lines = capout().splitlines()
        assert lines[0] == "identity_id,params,lhs,rhs,abs_diff,exact,pass"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_report_ordering(self, capout):
        assert run(["verify", "thm4", "--range", "1..3", "--format", "csv"]) == 0
        ids = [line.split(",")[0] for line in capout().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "thm2", "--range", "1..3", "--format", "json"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_lemmas_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["verify", "lemmas", "--format", "csv", "--seed", "7"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_file(self, tmp_path):
        path = tmp_path / "report.csv"
        assert run(["verify", "remark1", "--range", "1..2", "--format", "csv", "-o", str(path)]) == 0
        text = path.read_text()
        assert "\r" not in text
        assert text.splitlines()[0].startswith("identity_id")

    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_json_strict_and_equal_to_csv(self, suite, tmp_path):
        paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            assert run(["verify", suite, "--format", fmt, "-o", str(path)]) == 0
        rows = _strict_json(paths["json"].read_text())
        assert rows
        _assert_csv_matches_json(paths["csv"].read_text(), rows)

    def test_verify_all_passes(self, tmp_path):
        path = tmp_path / "all.csv"
        assert run(["verify", "all", "--format", "csv", "-o", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) > 400  # full battery
        assert all(line.endswith("true") for line in lines[1:])


def test_numpy_loaded_only_by_array_routes():
    # a fresh interpreter, so modules imported by other tests do not count
    script = """
import sys
import dirichlet_j
from dirichlet_j import cli
for argv in (["compute", "J", "1"], ["table", "J", "--range", "1..40"],
             ["verify", "thm4"], ["verify", "remark1"]):
    assert cli.run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert cli.run(["verify", "lemmas"]) == 0
assert "numpy" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(dirichlet_j.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestTable:
    def test_text(self, capout):
        assert run(["table", "J", "--range", "1..4"]) == 0
        out = capout()
        assert "1.166243616123275" in out and "0.054461779896217" in out

    def test_json(self, capout):
        assert run(["table", "beta", "--range", "1..3", "--format", "json"]) == 0
        rows = json.loads(capout())
        assert [r["s"] for r in rows] == [1, 2, 3]
        assert rows[1]["value"] == pytest.approx(0.91596559417721902, abs=1e-14)

    def test_csv(self, capout):
        assert run(["table", "lambda", "--range", "2..4", "--format", "csv"]) == 0
        lines = capout().splitlines()
        assert lines[0] == "s,value,error_estimate,method"
        assert len(lines) == 4

    @pytest.mark.parametrize("function", ["lambda", "beta", "J"])
    def test_json_strict_and_equal_to_csv(self, function, capout):
        argv = ["table", function, "--range", "2..12", "--format"]
        assert run(argv + ["json"]) == 0
        rows = _strict_json(capout())
        assert [r["s"] for r in rows] == list(range(2, 13))
        assert run(argv + ["csv"]) == 0
        _assert_csv_matches_json(capout(), rows)

    def test_range_required(self):
        assert run(["table", "J"]) == 2


class TestEmitReport:
    def test_empty_json(self):
        assert emit_report([], "json") == "[]"

    def test_exact_csv_row(self):
        report = IdentityReport(
            "remark1_a", (1,), PiPoly.term(1, 2), PiPoly.term(1, 2), 0.0, exact=True, passed=True
        )
        text = emit_report([report], "csv")
        lines = text.splitlines()
        assert lines[0] == "identity_id,params,lhs,rhs,abs_diff,exact,pass"
        assert lines[1] == "remark1_a,1,pi^2,pi^2,0,true,true"

    def test_mixed_text_markers(self):
        ok = IdentityReport("thm1", (1,), 1.0, 1.0, 0.0, exact=False, passed=True)
        bad = IdentityReport("thm1", (2,), 1.0, 2.0, 1.0, exact=False, passed=False)
        text = emit_report([ok, bad], "text")
        assert "✓" in text and "✗" in text
        assert "max abs_diff" in text

    def test_floats_render_17_digits(self):
        value = 1.0517997902646449
        report = IdentityReport("thm1", (1,), value, value, 0.0, exact=False, passed=True)
        out = emit_report([report], "json")
        assert json.loads(out)[0]["lhs"] == value

    def test_non_finite_sides_are_json_strings(self):
        reports = [
            IdentityReport("thm1", (1,), math.inf, -math.inf, math.inf, exact=False, passed=False),
            IdentityReport("thm1", (2,), math.nan, 1.0, math.nan, exact=False, passed=False),
        ]
        rows = _strict_json(emit_report(reports, "json"))
        assert [(r["lhs"], r["rhs"], r["abs_diff"]) for r in rows] == [("inf", "-inf", "inf"), ("nan", 1.0, "nan")]
        _assert_csv_matches_json(emit_report(reports, "csv"), rows)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


def _run_script(*args):
    src = os.path.dirname(os.path.dirname(dirichlet_j.__file__))
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "run_verification.py")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("extra", [[], ["--deep"]], ids=["default", "deep"])
def test_run_verification_script(tmp_path, extra):
    proc = _run_script("--outdir", str(tmp_path), *extra)
    assert proc.returncode == 0, proc.stderr
    _strict_json((tmp_path / "verification_report.json").read_text())
    header = (tmp_path / "verification_report.csv").read_text().splitlines()[0]
    assert header == "identity_id,params,lhs,rhs,abs_diff,exact,pass"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "thm1", "--tol", "abc"], "argument --tol: tol must be a finite number > 0"),
        (["compute", "J", "1", "--digits", "abc"], "argument --digits: digits must be an integer >= 15"),
        (["table", "J", "--range", "1..2", "--digits", "abc"], "argument --digits: digits must be an integer >= 15"),
        (["compute", "J", "abc"], "argument arg: argument must be a finite number"),
        (["verify", "thm1", "--seed", "zz"], "argument --seed: seed must be an integer"),
        (["run_verification.py", "--seed", "zz"], "argument --seed: seed must be an integer"),
    ],
    ids=["tol", "compute-digits", "table-digits", "arg", "seed", "script-seed"],
)
def test_unparsable_value_message_names_the_option(argv, message, tmp_path, capsys):
    # argparse names the type function ("invalid positive_float value") when
    # it raises ValueError; each type raises its own message instead
    if argv[0] == "run_verification.py":
        proc = _run_script("--outdir", str(tmp_path), *argv[1:])
        code, err = proc.returncode, proc.stderr
    else:
        code, err = run(argv), capsys.readouterr().err
    assert code == 2
    assert err.endswith(f": error: {message}\n")
    assert "invalid" not in err

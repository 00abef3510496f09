import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dirichlet_j
from dirichlet_j.cli import CLOSED_MAX, SUITES, emit_report, run, suite_reports
from dirichlet_j.exact import PiPoly
from dirichlet_j.identities import IdentityReport


class TestDefaults:
    def test_defaults(self):
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


# sha256 of the stdout of these commands (each exits 0), taken while --digits
# set the target of the J routes at its default 15: the one fixed target must
# not change a byte
J_PINNED_SHA256 = {
    ("compute", "J", "1"): "81f45a6699e6f89900afa85de543fde5b10d7fbe18e3f1c1e1a2c124464a6baa",
    ("compute", "J", "3.5"): "4d2b685f359086d28aa7a274f178b29a1ce0c765e37cc1776ea96df3d51194e1",
    ("compute", "J", "0.3"): "cb8ebb8f0efe6d5eae9485a55888d1d8196795b427c30994ce4814493244b630",
    ("compute", "J", "17.25"): "01aa0b13006a29f9afff4b3f17fb46fb719dc051480c7d35dfeab1f2fe22f2f1",
    ("compute", "J", "150"): "9e1f50734e1d2a2e51a5527709310995948d6e28f5556ad389222fe9ced0cc04",
    ("compute", "J", "6", "--method", "euler_series"): (
        "3cf8b4b4653896ebd5b51b2cf2ed3d230239eba5058dea4b3b679a81be96089e"
    ),
    ("compute", "J", "170", "--method", "euler_series"): (
        "f352360fb57c28df4031716a009630cef81d93ff89f6d97e7ec0649c5a8bbe8c"
    ),
    ("compute", "J", "12", "--method", "quadrature"): (
        "8a44f609c4e5dbe187dd1a3ff6d6527dfe408217f2478081b32b2fe657af098f"
    ),
    ("table", "J", "--range", "1..40"): "5f6aedd823c4ca907410345d408728b015c82322865435833c58491275f7930c",
    ("table", "J", "--range", "1..170", "--format", "json"): (
        "05842868abd619f3ea2837b0dd3b0ea82d6df104b87cf7e7c0420db32f046435"
    ),
}


class TestCompute:
    def test_j_quadrature(self, capout):
        assert run(["compute", "J", "1"]) == 0
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
        # J(170) = 1.7645623769843121e-276 (mpmath, 60 digits); an absolute
        # target 1e-14 would stop after one term, 2.7e-6 off
        assert run(["compute", "J", "170", "--method", "euler_series"]) == 0
        value = float(capout().split("J(170) = ")[1].split()[0])
        assert value == pytest.approx(1.7645623769843121e-276, rel=1e-13, abs=0)

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
            (["compute", "J", "170.624"], "s <= 170.62"),
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
            "J-170.624",
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

    def test_huge_integral_argument_prints_as_a_float(self, capsys):
        # the argument stays an int for the closed routes, but from 1e16 on
        # it prints in the shortest float form, not as a 309-digit integer
        assert run(["compute", "beta", "1e308"]) == 0
        assert capsys.readouterr().out.startswith("beta(1e+308) = 1\n")
        assert run(["compute", "lambda", "1e16"]) == 0
        assert capsys.readouterr().out.startswith("lambda(1e+16) = 1\n")
        assert run(["compute", "lambda", "1e15"]) == 0
        assert capsys.readouterr().out.startswith("lambda(1000000000000000) = 1\n")
        assert run(["compute", "J", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: Gamma(1e+308 + 1) overflows a double: J(s) requires s <= 170.62\n"
        assert len(err) < 200
        assert run(["compute", "J", "9999999999999998"]) == 2
        assert "Gamma(9999999999999998 + 1)" in capsys.readouterr().err

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
            ["compute", "J", "1", "--digits", "18"],
            ["compute", "lambda", "3", "--digits", "300"],
            ["compute", "J", "170", "--method", "closed", "--digits", "2000"],
            ["table", "beta", "--range", "1..2", "--digits", "200000"],
            ["compute", "J", "1", "--digits", "15"],
            ["table", "J", "--range", "1..3", "--digits", "17"],
        ],
        ids=[
            "quadrature", "euler_series", "table", "quadrature-18", "lambda-300", "closed-2000", "table-beta-200000",
            "quadrature-15", "table-17",
        ],
    )
    def test_target_underflow_is_usage_error(self, argv, capsys):
        # no command takes a digit count, so every --digits, among them those
        # whose target 10^(1 - digits) would underflow to 0, is a usage error
        # before evaluation
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": error: unrecognized arguments: --digits {argv[-1]}\n")

    def test_convergence_failure_exit_code(self):
        # s this close to 0 makes the value huge and the absolute target
        # unreachable within the level cap
        assert run(["compute", "J", "0.00000001"]) == 3

    def test_digits_below_floor_rejected(self):
        assert run(["compute", "J", "1", "--digits", "10"]) == 2

    def test_environment_sets_no_digits(self, capout, monkeypatch):
        # no command takes a precision setting, and no variable of the
        # environment changes a value or fails a command
        assert run(["compute", "beta", "2"]) == 0
        expected = capout()
        monkeypatch.setenv("DIRICHLET_J_DIGITS", "many")
        assert run(["compute", "beta", "2"]) == 0
        assert capout() == expected
        assert run(["verify", "thm2"]) == 0

    @pytest.mark.parametrize("argv", J_PINNED_SHA256)
    def test_j_outputs_pinned(self, argv, capout):
        assert run(list(argv)) == 0
        assert hashlib.sha256(capout().encode()).hexdigest() == J_PINNED_SHA256[argv]


# sha256 of the stdout of these commands before the exact constants were
# memoised; building them once per process must not change a byte
PINNED_SHA256 = {
    ("verify", "remark1", "--range", "1..60", "--format", "json"): (
        "f3123f9c7cf3b1e1c616db410e7a79eaf45c23a2d597fcb88d5ac9065b3d3e5d"
    ),
    ("verify", "collapse", "--range", "1..24", "--format", "csv"): (
        "8c550246920b213c90cb437ca617cdb7f99e37d59d0ca6a054324b5ae795b7f2"
    ),
    # taken before the exact sums became one fused signed-product kernel
    ("verify", "collapse", "--range", "1..30", "--format", "json"): (
        "9d14f9ba7692bb0685cdf8752ae57c25d637e7d921b19128aa74d69b7a25b519"
    ),
    ("verify", "remark1", "--range", "1..60", "--format", "text"): (
        "c481e5afe846269578f6cc95dd384f0af4d12faf6cc3d97a609377a26a87bf4a"
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

    @pytest.mark.parametrize("suite", ["thm1", "thm2", "thm4"])
    def test_default_tol_is_the_floor_over_the_whole_range(self, suite):
        # without --tol each check takes max(1e-10, 100 x the sum of its two
        # sides' error estimates), and that is 1e-10 for every m (n) of 1..85:
        # reports, tol included, are equal
        assert suite_reports(suite, range=(1, 85)) == suite_reports(suite, range=(1, 85), tol=1e-10)

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


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(dirichlet_j.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_routes_without_odd_harmonic_sums_run_without_numpy():
    # a fresh interpreter in which `import numpy` raises ImportError: only
    # the partial-sum kernel of --deep, fourier_partial and log_tan_series
    # needs numpy; every default suite sums the full series in plain Python
    _run_fresh("""
import sys
sys.modules["numpy"] = None
from dirichlet_j import cli
from dirichlet_j.linalg import check_involution, trig_sum_check
for argv in (["compute", "J", "2.5", "--method", "riemann"], ["table", "J", "--range", "1..40"],
             *(["verify", suite] for suite in ("thm1", "thm2", "thm4", "remark1", "collapse")),
             *(["verify", suite, "--format", fmt] for suite in ("lemmas", "fourier", "all")
               for fmt in ("text", "json", "csv"))):
    assert cli.run(argv) == 0, argv
assert check_involution(64, "cosine").passed
assert trig_sum_check("2_altcos", 50, 0.3).passed
""")


def test_default_verify_all_loads_no_numpy():
    _run_fresh("""
import sys
from dirichlet_j import cli
assert cli.run(["verify", "all"]) == 0
assert "numpy" not in sys.modules
""")


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
        report = IdentityReport("remark1_a", (1,), PiPoly(1, 2), PiPoly(1, 2))
        text = emit_report([report], "csv")
        lines = text.splitlines()
        assert lines[0] == "identity_id,params,lhs,rhs,abs_diff,exact,pass"
        assert lines[1] == "remark1_a,1,pi^2,pi^2,0,true,true"

    def test_mixed_text_markers(self):
        ok = IdentityReport("thm1", (1,), 1.0, 1.0)
        bad = IdentityReport("thm1", (2,), 1.0, 2.0)
        text = emit_report([ok, bad], "text")
        assert "✓" in text and "✗" in text
        assert "max abs_diff" in text

    def test_floats_render_17_digits(self):
        value = 1.0517997902646449
        report = IdentityReport("thm1", (1,), value, value)
        out = emit_report([report], "json")
        assert json.loads(out)[0]["lhs"] == value

    def test_non_finite_sides_are_json_strings(self):
        reports = [
            IdentityReport("thm1", (1,), math.inf, -math.inf),
            IdentityReport("thm1", (2,), math.nan, 1.0),
        ]
        rows = _strict_json(emit_report(reports, "json"))
        assert [(r["lhs"], r["rhs"], r["abs_diff"]) for r in rows] == [("inf", "-inf", "inf"), ("nan", 1.0, "nan")]
        _assert_csv_matches_json(emit_report(reports, "csv"), rows)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


def _python(*args, stdout=subprocess.PIPE):
    src = os.path.dirname(os.path.dirname(dirichlet_j.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)


def _run_script(*args, stdout=subprocess.PIPE):
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "run_verification.py")
    return _python(script, *args, stdout=stdout)


@pytest.fixture(params=["closed-pipe", "dev-full"])
def broken_stdout(request):
    """(an fd or file for stdout that every write fails on, the strerror)"""
    if request.param == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
        yield write, "Broken pipe"
        os.close(write)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            yield full, "No space left on device"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1"],  # text, with THM1_NOTE
        ["verify", "remark1", "--range", "1..150", "--format", "json"],
        ["compute", "J", "1"],
        ["table", "J", "--range", "1..3", "--format", "csv"],
    ],
    ids=["verify-text", "verify-json", "compute", "table"],
)
def test_unwritable_stdout_is_exit_two(argv, broken_stdout):
    # one stderr line and no traceback, nor an "Exception ignored" line from
    # the interpreter's exit flush
    sink, reason = broken_stdout
    proc = _python("-m", "dirichlet_j", *argv, stdout=sink)
    assert proc.returncode == 2
    assert proc.stderr == f"usage error: cannot write stdout: {reason}\n"


def test_run_verification_script_unwritable_stdout_is_exit_two(tmp_path, broken_stdout):
    # every check passes and both reports are written: exit 2, not the 1 of a failed battery
    sink, reason = broken_stdout
    proc = _run_script("--outdir", str(tmp_path), stdout=sink)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {reason}\n"
    assert _strict_json((tmp_path / "verification_report.json").read_text())
    assert (tmp_path / "verification_report.csv").read_text().startswith("identity_id,")


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
        (["compute", "J", "abc"], "argument arg: argument must be a finite number"),
        (["verify", "thm1", "--seed", "zz"], "argument --seed: seed must be an integer"),
        (["run_verification.py", "--seed", "zz"], "argument --seed: seed must be an integer"),
    ],
    ids=["tol", "arg", "seed", "script-seed"],
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


# ---------------------------------------------------------------------------
# fuzz of run(): every argument list ends in an exit code, never a traceback
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e-320", "5e-324", "0", "-0.0", "-1", "-2.5", "0.01", "1e16", "abc", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(0.01, 200.0).map(repr),
    st.integers(1, 12).map(str),
)
_RANGES = st.one_of(
    st.builds("{}..{}".format, st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from(["0..3", "-2..2", "1..", "a..b", "1.5..3", "7"]),
)


def _option(name, values, rarity):
    """[--name, value] in about one list of `rarity`, else []."""
    return st.integers(1, rarity).flatmap(lambda k: values.map(lambda v: [f"--{name}", v]) if k == rarity else st.just([]))


_DIGITS = _option("digits", st.one_of(st.integers(-3, 400).map(str), _NUMBERS), 3)
_FORMAT = _option("format", st.sampled_from(["text", "json", "csv", "xml"]), 2)
_FUNCTION = st.sampled_from(["lambda", "beta", "J", "J", "zeta"]).map(lambda f: [f])
_ARGV = st.one_of(
    st.tuples(
        st.just(["compute"]), _FUNCTION, _NUMBERS.map(lambda a: [a]),
        _option("method", st.sampled_from(["auto", "closed", "series", "quadrature", "euler_series", "riemann", "exact"]), 2),
        _DIGITS,
    ),
    st.tuples(st.just(["table"]), _FUNCTION, _option("range", _RANGES, 1), _FORMAT, _DIGITS),
    st.tuples(
        st.just(["verify"]), st.sampled_from([*SUITES, "all", "thm3"]).map(lambda s: [s]),
        _option("range", _RANGES, 3), _option("tol", _NUMBERS, 3),
        _option("seed", st.one_of(st.integers(-(2**70), 2**70).map(str), st.just("zz")), 3), _FORMAT, _DIGITS,
    ),
).map(lambda parts: [word for part in parts for word in part])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ARGV)
def test_run_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert type(code) is int and 0 <= code <= 3, (argv, code, err.getvalue())
    if "--digits" in argv:
        assert code == 2 and out.getvalue() == "", argv
    if code in (0, 1) and "json" in argv:
        _strict_json(out.getvalue())
    if argv[0] == "compute" and code == 0:
        value = float(out.getvalue().split(" = ", 1)[1].split("\n", 1)[0])
        assert math.isfinite(value), (argv, out.getvalue())

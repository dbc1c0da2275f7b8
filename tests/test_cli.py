"""Command line tests: byte-exact output pins, exit codes, formats.

Everything runs in process through cli.main so the pins really are pins;
two subprocess tests confirm that `python -m gmlucas` and the installed
console script work too, the refusals of over-cap inputs run in
subprocesses with a timeout, and one subprocess reads what importing the
CLI loads.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from gmlucas import cli
from gmlucas.cli import main

TABLE1_TEXT = """\
n  Gm_n
0  2+3i/2
1  3+2i
2  5+3i
3  9+5i
4  17+9i
5  33+17i
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------- term

def test_term_number_text():
    assert run_cli("term", "m", "10") == (0, "1025\n", "")
    assert run_cli("term", "gm", "0") == (0, "2+3i/2\n", "")
    assert run_cli("term", "gm", "5") == (0, "33+17i\n", "")


def test_term_negative_indices():
    assert run_cli("term", "m", "-1") == (0, "3/2\n", "")
    assert run_cli("term", "m", "-3") == (0, "9/2^3\n", "")
    assert run_cli("term", "gm", "-2") == (0, "5/2^2+9i/2^3\n", "")
    assert run_cli("term", "mpoly", "-1") == (0, "(3/2)x\n", "")


def test_term_polynomials():
    assert run_cli("term", "mpoly", "2") == (0, "-4 + 9x^2\n", "")
    assert run_cli("term", "gmpoly", "2") == (0, "-4 + 3ix + 9x^2\n", "")
    assert run_cli("term", "gmpoly", "0") == (0, "2 + (3i/2)x\n", "")


def test_term_each_explicit_method():
    for method in ("recurrence", "binet", "explicit"):
        assert run_cli("term", "m", "7", "--method", method) == (0, "129\n", "")
    for method in ("recurrence", "binet", "explicit", "symmetric", "genfun",
                   "relation"):
        assert run_cli("term", "gm", "3", "--method", method) == (0, "9+5i\n", "")
    for method in ("recurrence", "explicit", "symmetric", "genfun"):
        assert run_cli("term", "mpoly", "3", "--method", method) == \
            (0, "-18x + 27x^3\n", "")


def test_term_json_preserves_big_integers():
    code, out, err = run_cli("term", "m", "64", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc == {
        "family": "m", "n": 64, "method": "auto",
        "value": {"re": {"num": "18446744073709551617", "exp2": 0},
                  "im": {"num": "0", "exp2": 0}},
    }


def test_term_json_polynomial_coefficients():
    code, out, _ = run_cli("term", "gmpoly", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"coeffs": [
        {"re": {"num": "2", "exp2": 0}, "im": {"num": "0", "exp2": 0}},
        {"re": {"num": "0", "exp2": 0}, "im": {"num": "3", "exp2": 1}},
    ]}


def test_json_output_is_indented_and_ends_in_a_newline():
    for argv in (("term", "gmpoly", "2"), ("table", "1"), ("series", "gm", "2"),
                 ("verify", "--max-n", "6", "--max-poly-n", "6")):
        code, out, err = run_cli(*argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_term_csv():
    code, out, _ = run_cli("term", "gm", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["family", "n", "method", "value"], ["gm", "2", "auto", "5+3i"]]


def test_format_flag_position_is_flexible():
    before = run_cli("--format", "json", "term", "m", "3")
    after = run_cli("term", "m", "3", "--format", "json")
    assert before == after
    assert before[0] == 0


def test_term_invalid_method_is_usage_error():
    code, out, err = run_cli("term", "m", "0", "--method", "symmetric")
    assert (code, out) == (2, "")
    assert "not a route" in err
    code, _, err = run_cli("term", "mpoly", "1", "--method", "binet")
    assert code == 2
    assert "spot check" in err
    code, _, err = run_cli("term", "gm", "0", "--method", "relation")
    assert code == 2
    assert "n >= 1" in err
    code, _, err = run_cli("term", "gm", "-2", "--method", "recurrence")
    assert code == 2
    assert "negative" in err


# Which --method answers at which n, family by family. ok: exit 0 and the
# term on stdout, the same line for every method that answers. Any other
# entry: exit 2 and that message on stderr.
ROUTE_MATRIX = """\
m      -2  negb  ok    negb  negb  negb  negb  ok
m      -1  negb  ok    negb  negb  negb  negb  ok
m       0  ok    ok    ok    not   not   not   ok
m       1  ok    ok    ok    not   not   not   ok
m       2  ok    ok    ok    not   not   not   ok
gm     -2  negb  ok    negb  negb  negb  negb  ok
gm     -1  negb  ok    negb  negb  negb  negb  ok
gm      0  ok    ok    n>=1  ok    ok    n>=1  ok
gm      1  ok    ok    ok    ok    ok    ok    ok
gm      2  ok    ok    ok    ok    ok    ok    ok
mpoly  -2  ok    negr  negr  negr  negr  negr  ok
mpoly  -1  ok    negr  negr  negr  negr  negr  ok
mpoly   0  ok    spot  ok    ok    ok    not   ok
mpoly   1  ok    spot  ok    ok    ok    not   ok
mpoly   2  ok    spot  ok    ok    ok    not   ok
gmpoly -2  ok    negr  negr  negr  negr  negr  ok
gmpoly -1  ok    negr  negr  negr  negr  negr  ok
gmpoly  0  ok    spot  n>=1  ok    ok    n>=1  ok
gmpoly  1  ok    spot  ok    ok    ok    ok    ok
gmpoly  2  ok    spot  ok    ok    ok    ok    ok
"""
MATRIX_METHODS = ("recurrence", "binet", "explicit", "symmetric", "genfun",
                  "relation", "auto")
REFUSALS = {
    "negb": "negative indices come only from the negative extension; "
            "use method 'binet' or 'auto' for family '{family}'",
    "negr": "negative indices come only from the negative extension; "
            "use method 'recurrence' or 'auto' for family '{family}'",
    "spot": "method 'binet' is only a floating point spot check for the "
            "polynomial families (see gmlucas.polyfam.binet_numeric), "
            "not an exact term route",
    "n>=1": "method '{method}' requires n >= 1 for family '{family}'",
    "not": "method '{method}' is not a route for family '{family}'",
}


@pytest.mark.parametrize("row", ROUTE_MATRIX.splitlines(),
                         ids=lambda row: " ".join(row.split()[:2]))
def test_route_validity_matrix(row):
    family, n, *entries = row.split()
    assert len(entries) == len(MATRIX_METHODS)
    answers = set()
    for method, entry in zip(MATRIX_METHODS, entries):
        code, out, err = run_cli("term", family, n, "--method", method)
        if entry == "ok":
            assert (code, err) == (0, ""), (method, err)
            answers.add(out)
        else:
            message = REFUSALS[entry].format(method=method, family=family)
            assert (code, out, err) == (2, "", f"gmlucas: error: {message}\n"), method
    assert len(answers) == 1 and answers.pop().endswith("\n")


def test_term_unknown_family_is_usage_error():
    code, _, _ = run_cli("term", "q", "3")
    assert code == 2


# -------------------------------------------------------------------- table

def test_table_one_is_byte_exact():
    assert run_cli("table", "1") == (0, TABLE1_TEXT, "")


def test_table_two_rows():
    code, out, _ = run_cli("table", "2", "--rows", "3")
    assert code == 0
    assert out.splitlines() == [
        "n  m_n(x)  |  Gm_n(x)",
        "0  2  |  2 + (3i/2)x",
        "1  3x  |  2i + 3x",
        "2  -4 + 9x^2  |  -4 + 3ix + 9x^2",
    ]


def test_table_json():
    code, out, _ = run_cli("table", "1", "--rows", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == 1
    assert doc["rows"][0]["gm"] == {"re": {"num": "2", "exp2": 0},
                                    "im": {"num": "3", "exp2": 1}}
    assert doc["rows"][1]["gm"] == {"re": {"num": "3", "exp2": 0},
                                    "im": {"num": "2", "exp2": 0}}


def test_table_csv_parses():
    code, out, _ = run_cli("table", "2", "--rows", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "m", "gm"], ["0", "2", "2 + (3i/2)x"],
                    ["1", "3x", "2i + 3x"]]


def test_table_rows_guard():
    code, _, err = run_cli("table", "1", "--rows", "0")
    assert code == 2
    assert "--rows" in err


def test_table_bad_which():
    assert run_cli("table", "3")[0] == 2


# ------------------------------------------------------------------- series

def test_series_number_family():
    assert run_cli("series", "gm", "3") == \
        (0, "[2+3i/2, 3+2i, 5+3i, 9+5i]\n", "")


def test_series_even_odd():
    assert run_cli("series", "gm-even", "2") == (0, "[2+3i/2, 5+3i, 17+9i]\n", "")
    assert run_cli("series", "gm-odd", "2") == (0, "[3+2i, 9+5i, 33+17i]\n", "")


def test_series_polynomials():
    assert run_cli("series", "mpoly", "2") == (0, "[2, 3x, -4 + 9x^2]\n", "")
    assert run_cli("series", "gmpoly", "2") == \
        (0, "[2 + (3i/2)x, 2i + 3x, -4 + 3ix + 9x^2]\n", "")


def test_series_kernel_with_weights():
    assert run_cli("series", "kernel", "5", "--d", "3", "--p", "-2") == \
        (0, "[1, 3, 7, 15, 31, 63]\n", "")
    assert run_cli("series", "kernel", "4", "--d", "3/2", "--p", "1") == \
        (0, "[1, 3/2, 13/2^2, 51/2^3, 205/2^4]\n", "")
    assert run_cli("series", "kernel", "3", "--d", "1/2^1", "--p", "0") == \
        (0, "[1, 1/2, 1/2^2, 1/2^3]\n", "")


def test_series_kernel_negative_weights():
    # A negative dyadic weight may follow --d/--p as its own token.
    want = (0, "[1, 1/2, 1/2^3, 0]\n", "")
    assert run_cli("series", "kernel", "3", "--d", "1/2", "--p", "-1/2^3") == want
    assert run_cli("series", "kernel", "3", "--d", "1/2", "--p=-1/2^3") == want
    assert run_cli("series", "kernel", "2", "--p", "-1/2", "--d", "-3") == \
        (0, "[1, -3, 17/2]\n", "")


def test_series_kernel_weight_guards():
    code, _, err = run_cli("series", "kernel", "3")
    assert code == 2
    assert "--d" in err
    code, _, err = run_cli("series", "gm", "3", "--d", "1")
    assert code == 2
    assert "kernel" in err
    code, _, err = run_cli("series", "kernel", "3", "--d", "x", "--p", "1")
    assert code == 2


def test_series_negative_order():
    code, _, err = run_cli("series", "gm", "-1")
    assert code == 2
    assert "non-negative" in err


def test_series_json_schema():
    code, out, _ = run_cli("series", "gm", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == "gm"
    assert doc["value"]["order"] == 1
    assert doc["value"]["coeffs"][0] == {"re": {"num": "2", "exp2": 0},
                                         "im": {"num": "3", "exp2": 1}}


def test_series_csv():
    code, out, _ = run_cli("series", "gm", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "coefficient"], ["0", "2+3i/2"], ["1", "3+2i"],
                    ["2", "5+3i"]]


# ------------------------------------------------------------------- verify

def test_verify_small_run_passes():
    code, out, err = run_cli("verify", "--max-n", "6", "--max-poly-n", "6")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "overall: pass"
    assert len(lines) == 24
    assert all(line.startswith("[pass] ") for line in lines[:-1])


def test_verify_fault_exits_one():
    code, out, _ = run_cli("verify", "--max-n", "6", "--max-poly-n", "6",
                           "--inject-fault", "m1")
    assert code == 1
    assert "overall: FAIL" in out
    assert any(line.startswith("[FAIL] route-agreement/numbers")
               for line in out.splitlines())


def test_verify_json():
    code, out, _ = run_cli("verify", "--max-n", "6", "--max-poly-n", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert len(doc["checks"]) == 23
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_bad_bounds_are_usage_errors():
    code, _, err = run_cli("verify", "--max-n", "3")
    assert code == 2
    assert "max_n" in err
    assert run_cli("verify", "--inject-fault", "bogus")[0] == 2


# ------------------------------------------------------------------ general

def test_help_exits_zero():
    assert run_cli("--help")[0] == 0
    assert run_cli("term", "--help")[0] == 0


def test_no_arguments_is_usage_error():
    assert run_cli()[0] == 2


def test_output_is_deterministic():
    for argv in (("term", "gm", "9"), ("table", "2", "--rows", "4"),
                 ("series", "gmpoly", "4", "--format", "json"),
                 ("verify", "--max-n", "6", "--max-poly-n", "6",
                  "--format", "csv")):
        assert run_cli(*argv) == run_cli(*argv)


# One parser serves every main() call in a process: no call may leave state
# behind for the next, whatever the order.
REUSE_SEQUENCE = (
    ("term", "gm", "5", "--format", "json"),
    ("term", "gm", "5"),
    ("term", "m", "ten"),
    ("term", "m", "10"),
    ("--help",),
    ("term", "--help"),
    ("series", "kernel", "5", "--d", "3", "--p", "-2"),
)


def test_parser_reuse_keeps_calls_independent():
    forward = [run_cli(*argv) for argv in REUSE_SEQUENCE]
    backward = [run_cli(*argv) for argv in reversed(REUSE_SEQUENCE)]
    assert forward == backward[::-1]
    assert json.loads(forward[0][1])["value"] == {
        "re": {"num": "33", "exp2": 0}, "im": {"num": "17", "exp2": 0}}
    assert forward[1] == (0, "33+17i\n", "")
    assert forward[2][0] == 2 and "invalid int value" in forward[2][2]
    assert forward[3] == (0, "1025\n", "")
    assert forward[4][1].startswith("usage: gmlucas")
    assert forward[5][1].startswith("usage: gmlucas term")
    assert forward[6] == (0, "[1, 3, 7, 15, 31, 63]\n", "")


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.__wrapped__()
    per_build = len(built)
    built.clear()
    cli._build_parser.cache_clear()
    try:
        for k in range(50):
            run_cli(*REUSE_SEQUENCE[k % len(REUSE_SEQUENCE)])
    finally:
        cli._build_parser.cache_clear()
    assert per_build > 0
    assert len(built) == per_build


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@given(json_values)
@example({"": [], "e": {}, "x": [[], {}, [{}]]})
@example(["\u00e9\u4e2d", "\"\\/\b\f\n\r\t\x00\x1f\x7f", "\U0001f600", "\ud800"])
# Random integers rarely hit 0 and 1, which must not print as false and true.
@example({"k\u00e9\n": [True, False, None, -(10 ** 30), 0, 1]})
def test_json_emitter_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", (1.5, {1: 2}, (1, 2), {"a": [set()]}))
def test_json_emitter_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "gmlucas", "table", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, TABLE1_TEXT, "")


HUGE_INPUTS = (
    ("term", "m", "99999999999999999999"),
    ("term", "gm", "-20001"),
    ("term", "gmpoly", "501"),
    ("term", "mpoly", "-501"),
    ("table", "1", "--rows", "20001"),
    ("table", "2", "--rows", "501"),
    ("series", "gm-even", "20001"),
    ("series", "mpoly", "501"),
    ("series", "kernel", "20001", "--d", "1", "--p", "1"),
    ("series", "kernel", "2000", "--d", "1/2^99", "--p", "1"),
    ("series", "kernel", "0", "--d", "1/2^40000", "--p", "1"),
    ("verify", "--max-n", "2001"),
    ("verify", "--max-poly-n", "201"),
)


@pytest.mark.parametrize("argv", HUGE_INPUTS, ids=" ".join)
def test_huge_inputs_are_refused(argv):
    # In a subprocess with a timeout, so a missing cap fails this test
    # instead of hanging the suite.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "gmlucas", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("gmlucas: error: ")
    assert "at most" in proc.stderr


def test_cli_import_loads_no_heavy_stdlib_modules():
    # Every run pays for what `import gmlucas.cli` loads.  -I -S keeps the
    # environment and site hooks (some .pth files import typing) out.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gmlucas.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'typing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_caps_are_inclusive():
    code, out, err = run_cli("term", "mpoly", "500", "--method", "explicit")
    assert (code, err) == (0, "")
    assert out.endswith("x^500\n")
    code, out, _ = run_cli("series", "kernel", "400", "--d", "1/2^99", "--p", "0")
    assert code == 0
    assert out.endswith(", 1/2^39600]\n")
    # Order 0 counts as 1: the weights are still aligned for its one term.
    assert run_cli("series", "kernel", "0", "--d", "1/2^39999", "--p", "1") == (0, "[1]\n", "")


def test_console_script_is_installed():
    exe = shutil.which("gmlucas")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "table", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == TABLE1_TEXT

"""Command line interface: exit codes, output shapes, determinism."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from monozeta import cli, log_canonical_threshold, verify_pole_roots
from monozeta.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_human_output(capsys):
    code, out, err = run(capsys, "zeta", "--ideal", "x, y")
    assert code == 0 and err == ""
    assert "ideal (y, x) in variables x, y" in out
    assert "Z(T, P) = (1 - P^2) / ((1 - T*P^2))" in out
    assert "pole real part -2, order <= 1" in out


def test_zeta_json_output(capsys):
    code, out, _ = run(capsys, "zeta", "--ideal", "x, y", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 2
    assert record["ideal"] == {"variables": ["x", "y"], "generators": [[0, 1], [1, 0]]}
    assert record["poles"] == [{"real_part": "-2", "order_bound": 1}]
    assert record["latex"].startswith("\\frac{")


def test_zeta_latex_flag(capsys):
    code, out, _ = run(capsys, "zeta", "--ideal", "x, y", "--latex")
    assert code == 0
    assert r"\frac{1 - p^{-2}}{\left(1 - p^{-s-2}\right)}" in out


def test_zeta_prime_specialization(capsys):
    code, out, _ = run(capsys, "zeta", "--ideal", "x, y", "--prime", "2")
    assert code == 0
    assert "Z at p = 2: (3/4)/(1 - 1/4*T)" in out

    code, out, _ = run(capsys, "zeta", "--ideal", "x, y", "--prime", "2", "--json")
    record = json.loads(out)
    assert record["specialized"] == {"p": 2, "num": ["3/4"], "den": ["1", "-1/4"]}


def test_exact_coefficients_past_the_digit_limit(capsys):
    # a denominator coefficient of this specialization is 5,439 characters
    # long, past the interpreter's default int-to-str limit of 4,300 digits;
    # main lifts the limit for the command and puts it back after
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    argv = ("zeta", "--ideal", "x^300*y, y^2", "--prime", "1000000000000000003")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert "Z at p = 1000000000000000003: (" in out
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert max(map(len, json.loads(out)["specialized"]["den"])) > 4300
    assert get_limit() == limit
    code, _, _ = run(capsys, "zeta", "--ideal", "x", "--prime", "4")
    assert code == 2
    assert get_limit() == limit


def test_zeta_rejects_composite_prime(capsys):
    code, out, err = run(capsys, "zeta", "--ideal", "x", "--prime", "4")
    assert code == 2
    assert out == ""  # no partial output before the error
    assert "error: 4 is not a prime" in err

    code, out, err = run(capsys, "zeta", "--ideal", "x", "--prime", str(10**25 + 13))
    assert code == 2 and out == ""
    assert "error: cannot certify 10000000000000000000000013 as prime" in err

    for cmd in ("zeta", "verify"):
        code, out, err = run(capsys, cmd, "--ideal", "x^2, y^3", "--prime", "0")
        assert code == 2 and out == ""
        assert "error: 0 is not a prime" in err


def test_specialize_rejects_huge_t_degree(capsys):
    # a dense list of this length cannot even be sized (OverflowError); the
    # degree is refused before anything is allocated
    for cmd in ("zeta", "verify"):
        code, out, err = run(capsys, cmd, "--ideal", "x^99999999999999999999", "--prime", "2")
        assert code == 2 and out == ""
        assert "error: cannot specialize at T-degree 99999999999999999999" in err


def test_series_bound_is_refused_before_expansion(capsys):
    # a 10^9-term geometric series would exhaust memory: the lattice point
    # count C(bound + n, n) is refused before anything is expanded
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--ideal", "x", "--bound", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: --bound 1000000000 with n = 1 variables")
    assert ">= 1000000001 lattice points" in err
    # corpus sizes the count by --max-vars; the defaults stay accepted
    code, out, err = run(capsys, "corpus", "--max-vars", "27")
    assert code == 2 and out == ""
    assert "--bound 6 with n = 27 variables" in err and ">= 1107568" in err
    cli._check_series_bound(8, 16)
    cli._check_series_bound(6, 26)


def test_cell_points_are_refused_before_enumeration(capsys):
    # a cyclic cell of 10^9 points would exhaust memory: the plan's sum of
    # |det| is refused before any point is counted
    start = time.perf_counter()
    code, out, err = run(capsys, "zeta", "--ideal", "x^1000000000, y")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: the half-open cells hold at least 1000000001 lattice points "
                   "(the sum of |det|); the limit is 1000000\n")


def test_readme_command_line_examples(capsys):
    # each `$ monozeta ...` example in the README's "Command line" block
    # prints exactly the lines shown under it
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = block.split("$ monozeta ")[1:]
    assert [chunk.split()[0] for chunk in examples] == ["zeta", "bsroots", "verify"]
    for chunk in examples:
        command, *lines = chunk.rstrip("\n").split("\n")
        code, out, err = run(capsys, *shlex.split(command))
        assert code == 0 and err == ""
        assert out.splitlines() == lines, command


def test_readme_python_api_example():
    # the README's "Python API" block runs as written, and each line with a
    # comment evaluates to the value the comment shows ("..." elides terms)
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    shown = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    assert len(shown) == 4
    for expr, comment in shown:
        got, want = repr(eval(expr, scope)), comment.strip()
        if " ... " in want:
            head, tail = want.split(" ... ")
            assert got.startswith(head) and got.endswith(tail), expr
        else:
            assert got == want, expr
    assert scope["result"].poles == ((Fraction(-5, 6), 1),)
    assert log_canonical_threshold(scope["poly"]) == Fraction(5, 6)
    assert verify_pole_roots(scope["result"], scope["poly"]).all_verified


FROZEN_CLI_IDEALS = (
    "x^3, x*y, y^3",
    "x^2, y^3, z^4",
    "x1*x2^4*x3*x4^5, x1^3*x3*x4, x1^4*x3^2, x1^5*x2^3*x3^3*x4^5",
)
FROZEN_CLI_FLAGS = (
    ("zeta",), ("zeta", "--latex"), ("zeta", "--json"), ("zeta", "--prime", "2"),
    ("newton",), ("newton", "--json"), ("fan",), ("fan", "--json"),
    ("divisors",), ("divisors", "--json"), ("bsroots",), ("bsroots", "--json"),
)


def test_cli_text_and_json_frozen(capsys):
    # one digest over the exit code and stdout of every printer and JSON
    # emitter, for 3 ideals x 12 command lines
    digest = hashlib.sha256()
    for ideal in FROZEN_CLI_IDEALS:
        for command, *flags in FROZEN_CLI_FLAGS:
            code, out, _ = run(capsys, command, "--ideal", ideal, *flags)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "6588ac358f5d753d15bc16a4ac0d5ea706402b04550406b0afeda42f9713cc3d")


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "zeta", "--ideal", "x^")
    assert code == 2 and out == ""
    assert "error: line 1, column 3" in err


def test_improper_ideal_exit_code(capsys):
    code, _, err = run(capsys, "zeta", "--ideal", "1")
    assert code == 2
    assert "must be proper" in err


def test_missing_input_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["zeta"])
    assert info.value.code == 2
    assert "--ideal" in capsys.readouterr().err


def test_vars_flag(capsys):
    code, out, _ = run(capsys, "zeta", "--ideal", "y", "--vars", "y,x", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["ideal"]["variables"] == ["y", "x"]
    assert record["ideal"]["generators"] == [[1, 0]]

    code, _, err = run(capsys, "zeta", "--ideal", "z", "--vars", "x,y")
    assert code == 2 and "unknown variable 'z'" in err

    for names, message in [("x,x", "'x' is listed twice"), ("x, x", "'x' is listed twice"),
                           ("x,1y", "'1y' is not an identifier")]:
        code, out, err = run(capsys, "zeta", "--ideal", "x^2", "--vars", names)
        assert code == 2 and out == "" and message in err, names

    # an empty or blank list is an error too, not the default order
    for names in ("", " ", ",", " , "):
        code, out, err = run(capsys, "zeta", "--ideal", "x^2", "--vars", names)
        assert code == 2 and out == ""
        assert "--vars must list at least one variable name" in err, repr(names)


def test_file_input(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("x^2*y\ny^3\n", encoding="utf-8")
    code, out, _ = run(capsys, "newton", "--file", str(path))
    assert code == 0
    assert "(1, 1) . x >= 3" in out


def test_newton_fan_divisors_human(capsys):
    code, out, _ = run(capsys, "newton", "--ideal", "x^2*y, y^3")
    assert code == 0
    assert "vertices:" in out and "(2, 1)" in out

    code, out, _ = run(capsys, "fan", "--ideal", "x, y")
    assert code == 0
    assert "normal fan with 6 cones (1 of dim 0, 3 of dim 1, 2 of dim 2)" in out

    code, out, _ = run(capsys, "divisors", "--ideal", "x, y")
    assert code == 0
    assert "(1, 1)  k=1  a=1  -2" in out


def test_bsroots(capsys):
    code, out, _ = run(capsys, "bsroots", "--ideal", "x^2, y^3, z^4")
    assert code == 0
    assert "-13/12  from facet (6, 4, 3) . x >= 12" in out
    assert "log canonical threshold: 13/12" in out
    assert "pole -13/12 (order <= 1): matched (6, 4, 3)" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--ideal", "x^3, x*y, y^3", "--bound", "8")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)

    code, out, _ = run(
        capsys, "verify", "--ideal", "x, y", "--prime", "3", "--bound", "6"
    )
    assert code == 0
    assert "PASS  specialization at p = 3" in out


def test_verify_reports_a_skipped_prime_check(capsys):
    # the numerator has P-degree 4, so a series to P^2 fixes no T-coefficient
    code, out, _ = run(capsys, "verify", "--ideal", "x^3, x*y, y^3", "--bound", "2",
                       "--prime", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 5 and all(l.startswith("PASS") for l in lines[:4])
    assert lines[4] == "SKIP  specialization at p = 3: needs --bound >= 4"
    code, out, _ = run(capsys, "verify", "--ideal", "x^3, x*y, y^3", "--bound", "4",
                       "--prime", "3")
    assert code == 0 and "PASS  specialization at p = 3" in out


def test_corpus_writes_jsonl(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    code, _, err = run(
        capsys, "corpus", "--count", "3", "--seed", "1", "--out", str(path)
    )
    assert code == 0
    assert "3 ideals: 0 failed checks" in err
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["index"] for r in records] == [0, 1, 2]
    for r in records:
        assert r["checks"] == {
            "series": True,
            "facet_roots": True,
            "candidates": True,
        }


def test_corpus_empty_and_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, _, _ = run(capsys, "corpus", "--count", "0", "--out", str(a))
    assert code == 0 and a.read_text() == ""
    for path in (a, b):
        run(capsys, "corpus", "--count", "5", "--seed", "7", "--out", str(path))
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("flag, value", [
    ("--count", "-3"), ("--max-vars", "0"), ("--max-gens", "0"), ("--max-exp", "0"),
    ("--bound", "-1"),
])
def test_corpus_rejects_bad_sizes(capsys, tmp_path, flag, value):
    code, out, err = run(capsys, "corpus", flag, value)
    assert code == 2 and out == ""
    assert "--count must be >= 0" in err and "--max-exp must be >= 1" in err
    assert flag in err
    # rejected before --out is opened, so an existing file keeps its contents
    keep = tmp_path / "keep.jsonl"
    keep.write_text("old\n")
    assert run(capsys, "corpus", flag, value, "--out", str(keep))[0] == 2
    assert keep.read_text() == "old\n"
    if flag == "--bound":
        code, out, err = run(capsys, "verify", "--ideal", "x*y", "--bound", value)
        assert code == 2 and out == "" and "--bound must be >= 0" in err


@pytest.mark.parametrize("exc", [
    AssertionError("parallelepiped coefficient escaped the lattice"),
    RecursionError("maximum recursion depth exceeded"),
])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(ideal):
        raise exc

    monkeypatch.setattr("monozeta.cli.igusa_zeta", broken)
    for argv in (("zeta", "--ideal", "x*y"), ("corpus", "--count", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "monozeta", *argv],
                              capture_output=True, text=True, timeout=30, env=env)

    proc = module("zeta", "--ideal", "x*y", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poles"] == [
        {"real_part": "-1", "order_bound": 2}
    ]
    proc = module("corpus", "--max-exp", "0")
    assert proc.returncode == 2 and "--max-exp" in proc.stderr


def test_installed_entry_point():
    exe = shutil.which("monozeta")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run(
        [exe, "zeta", "--ideal", "x*y", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poles"] == [
        {"real_part": "-1", "order_bound": 2}
    ]

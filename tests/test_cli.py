"""Command line interface: exit codes, output shapes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from monozeta.cli import main


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
])
def test_corpus_rejects_bad_sizes(capsys, flag, value):
    code, out, err = run(capsys, "corpus", flag, value)
    assert code == 2 and out == ""
    assert "--count must be >= 0" in err and "--max-exp must be >= 1" in err


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

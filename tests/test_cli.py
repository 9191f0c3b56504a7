import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import diagram_spectra
from diagram_spectra import oracle, spectrum
from diagram_spectra.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FORMAT_ENV_VAR,
    gram_main,
    sdm_main,
)
from diagram_spectra.oracle import VerifyReport


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)


def test_sdm_build_json(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {"s": 1, "r": 1, "n": 2, "levels": [[1, 0], [0, 1]]}


def test_sdm_build_csv(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1", "--out", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "x1,x0\nx0,x1\n"


def test_sdm_build_pretty(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1", "--out", "pretty-table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c0  c1"
    assert set(lines[1]) == {"-", " "}
    assert lines[2] == "x1  x0"
    assert lines[3] == "x0  x1"


def test_sdm_eig_json(capsys):
    assert sdm_main(["eig", "--s", "1", "--r", "1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "s": 1,
        "r": 1,
        "eigenvalues": [
            {"l": 0, "coeffs": [1, 1], "multiplicity": 1},
            {"l": 1, "coeffs": [-1, 1], "multiplicity": 1},
        ],
    }


def test_sdm_eig_csv(capsys):
    assert sdm_main(["eig", "--s", "1", "--r", "1", "--out", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "l,multiplicity,c0,c1\n0,1,1,1\n1,1,-1,1\n"


def test_sdm_eig_pretty(capsys):
    assert sdm_main(["eig", "--s", "2", "--r", "1", "--out", "pretty-table"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["l", "eigenvalue", "multiplicity"]
    assert "x1 + 2x0" in out and "x1 - x0" in out


def test_sdm_verify_json(capsys):
    assert sdm_main(["verify", "--s", "2", "--r", "1", "--trials", "2"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["trials"] == 2
    assert data["params"] == {"s": 2, "r": 1, "seed": 0}
    assert data["failures"] == []


def test_sdm_verify_csv(capsys):
    code = sdm_main(["verify", "--s", "1", "--r", "1", "--trials", "2", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "target,s,r,trials,passed\nsdm_spectrum,1,1,2,true\n"
    )


def test_sdm_verify_failure_exit(monkeypatch, capsys):
    def fake(s, r, trials, seed, max_size):
        return VerifyReport(
            target="sdm_spectrum",
            params={"s": s, "r": r, "seed": seed},
            trials=trials,
            passed=False,
            failures=[{"trial": 0, "substitution": [1], "expected": [], "got": []}],
        )

    monkeypatch.setattr(oracle, "verify_sdm_spectrum", fake)
    code = sdm_main(["verify", "--s", "1", "--r", "1", "--out", "csv"])
    assert code == EXIT_VERIFY
    assert "false" in capsys.readouterr().out


def test_sdm_verify_unwitnessed_failure_table(monkeypatch, capsys):
    # a closed form whose fault the one witness trial misses (see
    # test_oracle::test_verify_sdm_spectrum_unwitnessed_failure_names_the_step)
    forms = spectrum.distinct_eigenvalues(3, 4)
    coeffs = (forms[1].coeffs[0] + 1,) + forms[1].coeffs[1:]
    forms[1] = replace(forms[1], coeffs=coeffs)
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: forms)
    argv = ["verify", "--s", "3", "--r", "4", "--trials", "1", "--seed", "17"]
    assert sdm_main(argv + ["--out", "pretty-table"]) == EXIT_VERIFY
    assert capsys.readouterr().out == (
        "FAIL sdm spectrum s=3 r=4 trials=1\n  trial None: substitution None\n"
    )
    assert sdm_main(argv) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["failures"][0]["step"] == "characters"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sdm_verify_rejects_no_trials(trials, capsys):
    argv = ["verify", "--s", "1", "--r", "1", "--trials", trials, "--out", "pretty-table"]
    assert sdm_main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials" in err


def test_cli_import_does_not_load_numpy():
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = "import sys, diagram_spectra.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "False\n"


def test_verify_loads_no_fractions():
    # the certificate stays in Python integers
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = (
        "import sys; from diagram_spectra.cli import sdm_main; "
        "code = sdm_main(['verify', '--s', '4', '--r', '5', '--out', 'csv']); "
        "print(code, 'fractions' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_verify_past_plain_cutoff_does_not_load_numpy():
    # a whole verify run at side C(7,3) = 35 loads no numpy either
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = (
        "import sys; from diagram_spectra.cli import sdm_main; "
        "code = sdm_main(['verify', '--s', '3', '--r', '4', '--out', 'csv']); "
        "print(code, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_sdm_byte_identical(capsys):
    sdm_main(["eig", "--s", "3", "--r", "2"])
    first = capsys.readouterr().out
    sdm_main(["eig", "--s", "3", "--r", "2"])
    assert capsys.readouterr().out == first


def test_format_env_var(monkeypatch, capsys):
    monkeypatch.setenv(FORMAT_ENV_VAR, "csv")
    sdm_main(["build", "--s", "1", "--r", "1"])
    assert capsys.readouterr().out == "x1,x0\nx0,x1\n"
    # explicit --out beats the environment
    sdm_main(["build", "--s", "1", "--r", "1", "--out", "json"])
    assert capsys.readouterr().out.startswith("{")


def test_format_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv(FORMAT_ENV_VAR, "yaml")
    assert sdm_main(["build", "--s", "1", "--r", "1"]) == EXIT_USAGE
    assert "unknown output format" in capsys.readouterr().err


def test_sdm_usage_errors(capsys):
    assert sdm_main(["build", "--s", "1"]) == EXIT_USAGE
    assert sdm_main([]) == EXIT_USAGE
    assert sdm_main(["frobnicate"]) == EXIT_USAGE
    assert sdm_main(["build", "--s", "0", "--r", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_sdm_cap_exit(capsys):
    assert sdm_main(["build", "--s", "30", "--r", "30"]) == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


def test_sdm_eig_work_cap_exit(capsys):
    # about 4M Eberlein coefficients: refused before any is computed
    assert sdm_main(["eig", "--s", "2000", "--r", "2000"]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Eberlein terms (min(s,r)+1)^2: size 4004001 exceeds cap 16384\n"


def test_gram_partition_json(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--det", "--roots"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 2 and data["s"] == 1
    assert data["det_sign"] == 1
    assert data["singular_x"] == [0, 2]
    assert data["det"] == ["0", "-2", "1"]
    assert [b["r"] for b in data["blocks"]] == [0, 1]
    assert data["blocks"][1]["eigen"][0]["poly"] == ["-2", "1"]


def test_gram_partition_matrix_csv(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--matrix", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1,1,1\n1,x,0\n1,0,x\n"


def test_gram_partition_spectrum_csv(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "r,l,multiplicity,poly",
        "0,0,1,1",
        "1,0,1,-2;1",
        "1,1,1,0;1",
    ]


def test_gram_partition_pretty(capsys):
    code = gram_main(
        ["partition", "--k", "2", "--s", "1", "--det", "--roots", "--out", "pretty-table"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["r", "l", "eigenpoly", "multiplicity"]
    assert "det sign: +1" in out
    assert "singular x: [0, 2]" in out


def test_gram_partition_range_error(capsys):
    assert gram_main(["partition", "--k", "2", "--s", "3"]) == EXIT_USAGE
    assert gram_main(["partition", "--k", "0", "--s", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_gram_partition_cap(capsys):
    code = gram_main(
        ["partition", "--k", "4", "--s", "1", "--matrix", "--max-size", "5"]
    )
    assert code == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


def test_gram_partition_det_cap_exits_before_enumerating(capsys):
    # side 3 535 027 against the det cap of 120
    assert gram_main(["partition", "--k", "11", "--s", "1", "--det"]) == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


def _gram_in_subprocess(argv):
    """Run gram_main(argv) in a fresh interpreter; check it exits 0 with no
    traceback and return its JSON output."""
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = f"import sys; from diagram_spectra.cli import gram_main; sys.exit(gram_main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout)


def test_gram_partition_many_points_no_traceback():
    # stirling2(1200, 1199) is far past the interpreter's recursion limit
    data = _gram_in_subprocess(["partition", "--k", "1200", "--s", "1199"])
    assert [b["copies"] for b in data["blocks"]] == [1200 * 1199 // 2, 1]


def test_gram_partition_roots_many_points_no_traceback():
    # trailing coefficients reach 111 bits, so a divisor scan up to their
    # square root would not end; the scan stops at a root bound instead
    data = _gram_in_subprocess(["partition", "--k", "30", "--s", "3", "--roots"])
    assert data["singular_x"] == [2, 3, 4] + list(range(6, 33))


def test_gram_z2_json(capsys):
    code = gram_main(["z2", "--k", "2", "--s1", "1", "--s2", "0"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "z2"
    assert [(b["r1"], b["r2"]) for b in data["blocks"]] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_gram_signed_r2_truncation(capsys):
    code = gram_main(["signed", "--k", "3", "--s1", "1", "--s2", "0"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "signed"
    assert len(data["blocks"]) == 6
    assert max(b["r2"] for b in data["blocks"]) == 1


def test_gram_signed_empty_blocks(capsys):
    code = gram_main(["signed", "--k", "2", "--s1", "1", "--s2", "1"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["blocks"] == []


def test_gram_csv_signed(capsys):
    code = gram_main(["z2", "--k", "2", "--s1", "1", "--s2", "0", "--out", "csv"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r1,r2,l1,l2,multiplicity_per_copy,poly"
    assert "1,0,0,0,1,-4;-1;1" in lines


def test_gram_byte_identical(capsys):
    gram_main(["partition", "--k", "3", "--s", "1", "--det", "--roots"])
    first = capsys.readouterr().out
    gram_main(["partition", "--k", "3", "--s", "1", "--det", "--roots"])
    assert capsys.readouterr().out == first
